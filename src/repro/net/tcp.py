"""TCP connection model.

Models the pieces of TCP behaviour that matter to the paper's data:

* **Handshake latency** — a fresh connection costs one RTT for TCP plus
  the TLS handshake round trips before the first request byte moves.
* **Slow start** — short transfers are latency-bound: the congestion
  window doubles each RTT from an initial window until it reaches the
  bandwidth-delay product, after which the transfer is rate-bound on the
  bottleneck link.  This is why a TLS transaction's data rate (``TDR``)
  is systematically below link throughput for small objects — a fact
  the paper's features rely on.
* **Loss and retransmission** — each data packet is lost independently
  with the connection's loss rate; lost packets are retransmitted and
  counted, feeding the ML16 baseline's retransmission features.

The model is analytic (no per-packet event loop) so that thousands of
sessions simulate in seconds, but it exposes per-transfer packet and
retransmission counts so a faithful packet trace can be synthesized on
demand by :mod:`repro.net.packets`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.net.impairments import TransferSpec
from repro.net.link import Link
from repro.record import record

__all__ = ["TcpParams", "Transfer", "TcpConnection"]

#: Initial congestion window, in segments (RFC 6928).
_INITIAL_WINDOW_SEGMENTS = 10

#: Delayed-ACK ratio: one uplink ACK for every two downlink data packets.
_ACK_RATIO = 2


@record
class TcpParams:
    """Per-connection path parameters.

    Parameters
    ----------
    rtt_s:
        Base round-trip time in seconds.
    loss_rate:
        Independent per-packet loss probability in [0, 1).
    mss_bytes:
        Maximum segment size (payload bytes per data packet).
    tls_handshake_rtts:
        Round trips consumed by the TLS handshake after the TCP
        handshake (1.0 models TLS 1.3, 2.0 models TLS 1.2).
    """

    rtt_s: float = 0.05
    loss_rate: float = 0.005
    mss_bytes: int = 1460
    tls_handshake_rtts: float = 1.0

    def __post_init__(self) -> None:
        if self.rtt_s <= 0:
            raise ValueError("rtt_s must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.mss_bytes <= 0:
            raise ValueError("mss_bytes must be positive")
        if self.tls_handshake_rtts < 0:
            raise ValueError("tls_handshake_rtts must be non-negative")


@record
class Transfer:
    """One request/response exchange carried over a connection.

    ``start`` is when the client begins sending the request;
    ``response_start``/``end`` bracket the response bytes on the wire.
    Packet counts cover both directions and include retransmissions, so
    the packet-trace synthesizer can reproduce them exactly.
    """

    connection_id: int
    start: float
    response_start: float
    end: float
    request_bytes: int
    response_bytes: int
    n_packets_down: int
    n_packets_up: int
    n_retransmits: int
    rtt_s: float

    @property
    def duration(self) -> float:
        """Wall-clock duration of the whole exchange."""
        return self.end - self.start

    @property
    def n_packets(self) -> int:
        """Total packets in both directions."""
        return self.n_packets_down + self.n_packets_up


class TcpConnection:
    """A (TLS-carrying) TCP connection multiplexing many transfers.

    The connection tracks congestion-window warm-up across transfers:
    the first transfer pays the full slow-start ramp, later transfers
    start from the window reached previously (capped at the current
    bandwidth-delay product), modelling persistent-connection reuse.
    """

    _next_id = 0

    def __init__(
        self,
        link: Link,
        params: TcpParams,
        opened_at: float,
        rng: np.random.Generator,
        connection_id: int | None = None,
    ):
        # Callers that need reproducible records (the session pool)
        # pass a scoped id; the process-global counter is only a
        # fallback for ad-hoc construction.  Global ids would make a
        # session's record depend on how many sessions ran earlier in
        # the same process — breaking bit-identical parallel corpora.
        if connection_id is None:
            connection_id = TcpConnection._next_id
            TcpConnection._next_id += 1
        self.connection_id = connection_id
        self.link = link
        self.params = params
        self.opened_at = opened_at
        self._rng = rng
        self._cwnd_segments = float(_INITIAL_WINDOW_SEGMENTS)
        #: Earliest time the connection can carry application data.
        self.ready_at = opened_at + params.rtt_s * (1.0 + params.tls_handshake_rtts)
        self.closed_at: float | None = None
        self.transfers: list[Transfer] = []
        # The per-request hot path's link queries and impairment hook,
        # looked up once per connection.  A bare Link has no `impair`,
        # keeping the identity path (and all pre-scenario corpora)
        # bit-identical.
        self._payload_rate_at = link.payload_rate_at
        self._delivery_time = link.delivery_time
        self._impair = getattr(link, "impair", None)

    # ------------------------------------------------------------------
    def _slow_start(self, rate: float, nbytes: int) -> tuple[float, int]:
        """Latency-bound phase of a response transfer.

        ``rate`` is the link's payload rate (bytes/second) when the
        response starts.  Returns ``(elapsed_seconds,
        bytes_sent_in_phase)``.  The window doubles each RTT from the
        current cwnd until it reaches the bandwidth-delay product (in
        segments) or the transfer completes; the remainder is
        rate-bound and is charged by the caller via the link integral.
        """
        mss = self.params.mss_bytes
        rtt = self.params.rtt_s
        bdp = max(1.0, rate * rtt / mss)
        cwnd = self._cwnd_segments
        if cwnd >= bdp:
            return 0.0, 0
        elapsed = 0.0
        sent = 0
        remaining = nbytes
        while remaining > 0 and cwnd < bdp:
            round_bytes = min(remaining, int(cwnd) * mss)
            elapsed += rtt
            sent += round_bytes
            remaining -= round_bytes
            cwnd = min(cwnd * 2.0, bdp)
        self._cwnd_segments = cwnd
        return elapsed, sent

    # ------------------------------------------------------------------
    def request(self, at: float, request_bytes: int, response_bytes: int) -> Transfer:
        """Issue a request and return the completed :class:`Transfer`.

        ``at`` is when the application hands the request to the socket;
        the exchange starts no earlier than the handshake completion and
        the end of the previous transfer on this connection (HTTP/1.1
        in-order semantics).
        """
        if self.closed_at is not None:
            raise RuntimeError("connection is closed")
        if request_bytes <= 0 or response_bytes < 0:
            raise ValueError("request_bytes must be positive, response_bytes non-negative")

        start = max(at, self.ready_at)
        if self.transfers:
            start = max(start, self.transfers[-1].end)

        params = self.params
        rtt = params.rtt_s
        # Request upstream + server processing: one RTT until the first
        # response byte can arrive.
        response_start = start + rtt
        rate = self._payload_rate_at(response_start)
        elapsed, sent_in_ss = self._slow_start(rate, response_bytes)
        rate_bound_bytes = response_bytes - sent_in_ss
        t_bulk_start = response_start + elapsed
        bulk = self._delivery_time(t_bulk_start, rate_bound_bytes)
        end = t_bulk_start + bulk

        mss = params.mss_bytes
        n_data_down = max(1, math.ceil(response_bytes / mss)) if response_bytes else 0
        n_retx = 0
        if n_data_down and params.loss_rate > 0:
            n_retx = int(self._rng.binomial(n_data_down, params.loss_rate))
            # Each retransmission costs roughly one extra RTT of recovery.
            end += n_retx * rtt
        n_up_req = max(1, math.ceil(request_bytes / mss))

        # An impairment pipeline (NetPath) sees each transfer once.
        # Stage-induced drops come back as extra downlink packets and
        # count as retransmissions.
        impair = self._impair
        if impair is not None:
            spec = TransferSpec(
                start=start,
                response_start=response_start,
                end=end,
                nbytes=response_bytes,
                n_packets_down=n_data_down + n_retx,
                n_packets_up=n_up_req,
                mss_bytes=mss,
                rtt_s=rtt,
                payload_rate=rate,
            )
            out = impair(spec)
            n_retx += out.n_packets_down - spec.n_packets_down
            n_up_total = out.n_packets_up
            end = out.end
        else:
            n_up_total = n_up_req

        n_acks = (n_data_down + n_retx) // _ACK_RATIO
        transfer = Transfer(
            connection_id=self.connection_id,
            start=start,
            response_start=response_start,
            end=end,
            request_bytes=request_bytes,
            response_bytes=response_bytes,
            n_packets_down=n_data_down + n_retx,
            n_packets_up=n_up_total + n_acks,
            n_retransmits=n_retx,
            rtt_s=rtt,
        )
        self.transfers.append(transfer)
        return transfer

    # ------------------------------------------------------------------
    @property
    def last_activity(self) -> float:
        """Time of the last byte on the connection (or readiness time)."""
        if self.transfers:
            return self.transfers[-1].end
        return self.ready_at

    def close(self, at: float) -> None:
        """Close the connection at time ``at``."""
        if self.closed_at is not None:
            raise RuntimeError("connection already closed")
        if at < self.last_activity:
            raise ValueError("cannot close before the last transfer completes")
        self.closed_at = at

    @property
    def bytes_down(self) -> int:
        """Total response payload bytes carried."""
        return sum(t.response_bytes for t in self.transfers)

    @property
    def bytes_up(self) -> int:
        """Total request payload bytes carried."""
        return sum(t.request_bytes for t in self.transfers)
