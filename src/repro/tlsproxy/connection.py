"""TLS connection pooling.

Players and browsers keep TLS connections alive and multiplex many HTTP
transactions onto each one; connections are torn down when idle too
long, when a per-connection request budget is exhausted (servers cap
keep-alive requests), or eventually after the player goes away.  This
pooling is what makes the proxy's view *coarse*: the paper observes an
average of 12.1 HTTP transactions inside every Svc1 TLS transaction.

The pool also produces the session-overlap effect central to the
paper's session-boundary problem: connections are not closed the moment
playback stops — they linger until their idle timeout fires, so TLS
transactions from one session overlap the start of the next.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.net.link import Link
from repro.net.tcp import TcpConnection, TcpParams, Transfer
from repro.tlsproxy.records import HttpTransaction, ResourceType

__all__ = ["FetchResult", "TlsConnectionPool"]


class FetchResult(NamedTuple):
    """Outcome of one pooled HTTP fetch (a named tuple: the pool builds
    one per request, and a tuple costs a fraction of a frozen
    dataclass)."""

    http: HttpTransaction
    transfer: Transfer
    connection: TcpConnection


class TlsConnectionPool:
    """Per-host TLS connection pool over a shared bottleneck link.

    Parameters
    ----------
    link:
        The access link all connections share.
    rng:
        Randomness source (path parameter sampling, pacing).
    tcp_params_factory:
        Callable drawing the path parameters for each new connection;
        lets the network environment vary RTT/loss per connection.
    idle_timeout:
        Seconds of inactivity after which a connection closes.
    max_requests_per_connection:
        Keep-alive request budget before a connection is retired.
    """

    def __init__(
        self,
        link: Link,
        rng: np.random.Generator,
        tcp_params_factory: Callable[[np.random.Generator], TcpParams],
        idle_timeout: float = 15.0,
        max_requests_per_connection: int = 16,
    ):
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        if max_requests_per_connection < 1:
            raise ValueError("max_requests_per_connection must be >= 1")
        self.link = link
        self.idle_timeout = idle_timeout
        self.max_requests_per_connection = max_requests_per_connection
        self._rng = rng
        self._params_factory = tcp_params_factory
        self._open: dict[str, list[TcpConnection]] = {}
        #: Every connection ever opened, with its hostname, in open order.
        self.history: list[tuple[str, TcpConnection]] = []

    # ------------------------------------------------------------------
    def _pick_connection(self, host: str, now: float) -> TcpConnection:
        """Reuse an open connection for ``host`` or dial a new one.

        Connections whose idle timeout elapsed before ``now`` close
        first.  Of the rest, the least-recently-busy one still under
        its request budget serves next (players issue requests
        sequentially, so this is usually unique; ties go to the
        earliest opened).
        """
        conns = self._open.get(host)
        if conns:
            still_open = []
            best = None
            best_activity = 0.0
            for conn in conns:
                activity = conn.last_activity
                deadline = activity + self.idle_timeout
                if deadline <= now:
                    conn.close(at=deadline)
                    continue
                still_open.append(conn)
                if len(conn.transfers) < self.max_requests_per_connection and (
                    best is None or activity < best_activity
                ):
                    best, best_activity = conn, activity
            if len(still_open) < len(conns):
                self._open[host] = still_open
            if best is not None:
                return best
        conn = TcpConnection(
            self.link,
            self._params_factory(self._rng),
            opened_at=now,
            rng=self._rng,
            # Pool-scoped ids keep session records independent of any
            # process-global state (bit-identical parallel collection).
            connection_id=len(self.history),
        )
        self._open.setdefault(host, []).append(conn)
        self.history.append((host, conn))
        return conn

    # ------------------------------------------------------------------
    def fetch(
        self,
        at: float,
        host: str,
        request_bytes: int,
        response_bytes: int,
        resource_type: ResourceType,
        quality_index: int = -1,
    ) -> FetchResult:
        """Issue one HTTP transaction to ``host`` at time ``at``."""
        conn = self._pick_connection(host, at)
        transfer = conn.request(at, request_bytes, response_bytes)
        http = HttpTransaction(
            start=transfer.start,
            end=transfer.end,
            request_bytes=request_bytes,
            response_bytes=response_bytes,
            host=host,
            resource_type=resource_type,
            quality_index=quality_index,
        )
        if len(conn.transfers) >= self.max_requests_per_connection:
            # Request budget exhausted: the server closes after this
            # response (Connection: close semantics).
            self._open[host].remove(conn)
            conn.close(at=transfer.end)
        return FetchResult(http, transfer, conn)

    # ------------------------------------------------------------------
    def shutdown(self, at: float) -> None:
        """Stop issuing requests; let open connections linger to timeout.

        Mirrors a player being closed: nothing actively tears down the
        connections, so each closes ``idle_timeout`` after its last
        activity (or after ``at`` if it was mid-transfer).
        """
        for conns in self._open.values():
            for conn in conns:
                conn.close(at=max(conn.last_activity, at) + self.idle_timeout)
        self._open = {}

    @property
    def open_connections(self) -> list[tuple[str, TcpConnection]]:
        """Currently open ``(host, connection)`` pairs."""
        return [(h, c) for h, conns in self._open.items() for c in conns]

    @property
    def all_connections(self) -> list[tuple[str, TcpConnection]]:
        """Every connection the pool ever opened (host, connection)."""
        return list(self.history)
