"""TLS and transparent-proxy substrate.

Models the measurement apparatus of the paper: video traffic flows over
TLS connections (opened, reused across many HTTP transactions, and
closed on idle timeouts), and a Squid-style transparent proxy observes
each connection's unencrypted TLS headers, reporting one **TLS
transaction** per connection — start/end time, uplink/downlink bytes,
and the SNI hostname.  These transaction records are the paper's
coarse-grained input data.
"""

from repro.tlsproxy.connection import FetchResult, TlsConnectionPool
from repro.tlsproxy.hosts import ServiceHostModel, SessionHosts
from repro.tlsproxy.records import (
    HttpTransaction,
    ResourceType,
    TlsTransaction,
    transactions_to_columns,
)
from repro.tlsproxy.table import (
    TransactionTable,
    ordered_sum,
    segment_min_med_max,
    segment_sum,
)
from repro.tlsproxy.proxy import (
    TransparentProxy,
    connection_to_transaction,
)

__all__ = [
    "ResourceType",
    "HttpTransaction",
    "TlsTransaction",
    "TransactionTable",
    "transactions_to_columns",
    "ordered_sum",
    "segment_sum",
    "segment_min_med_max",
    "ServiceHostModel",
    "SessionHosts",
    "TlsConnectionPool",
    "FetchResult",
    "TransparentProxy",
    "connection_to_transaction",
]
