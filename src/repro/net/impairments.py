"""Composable network impairment stages.

The analytic TCP model (:mod:`repro.net.tcp`) computes each transfer's
polite completion time against the bandwidth-trace bottleneck.  A
:class:`NetPath <repro.net.path.NetPath>` threads that per-transfer
summary — as a :class:`TransferSpec` — through an ordered pipeline of
the stages defined here, each of which may delay the transfer, drop
packets (forcing retransmissions), or both.  The stage vocabulary
mirrors the two reference worlds named in the ROADMAP: token-bucket
rate *policing* (drop the excess — the USC-NSL / Flach et al.
signature: an initial burst at line rate, then a policed trickle with
4-6x loss) versus *shaping* (pace the excess, zero loss), plus
droplists that kill specific packet indices, reordering with a
configurable hold-back delay, and a finite bufferbloat queue.

Stages stay analytic: no per-packet event loop and — crucially — **no
randomness**.  Every stage is a deterministic function of the transfer
sequence it observes, so an impaired corpus is exactly as reproducible
as a clean one (per-session seed streams are never consumed by the
path), and the identity path — no stages at all — cannot perturb a
single byte of existing corpora.

The composition contract: ``apply(spec)`` returns a new
:class:`TransferSpec` whose ``end`` *includes the stage's recovery
cost* and whose packet counts include any retransmission copies the
stage induced (they traverse later stages too, so e.g. a droplist
counts a policer's retransmissions against its indices).  The TCP
model diffs the final spec against the original to account extra
retransmits and recompute ACK counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from repro.record import record

__all__ = [
    "TransferSpec",
    "ImpairmentStage",
    "TokenBucketPolicer",
    "Shaper",
    "Droplist",
    "Reorderer",
    "Queue",
]


@record
class TransferSpec:
    """One transfer's summary as seen by the impairment pipeline.

    Attributes
    ----------
    start:
        When the first request byte hits the wire.
    response_start:
        When the first response byte arrives (request + server RTT).
    end:
        Completion time *so far* — the polite bottleneck time on input,
        progressively extended as stages charge their costs.
    nbytes:
        Response payload bytes.
    n_packets_down, n_packets_up:
        Downlink data packets (including retransmission copies added by
        earlier stages) and uplink request packets.
    mss_bytes, rtt_s:
        Segment size and path round-trip time, for converting dropped
        bytes to packets and charging recovery RTTs.
    payload_rate:
        The bottleneck link's payload rate (bytes/second) at
        ``response_start`` — what a finite queue drains at.
    """

    start: float
    response_start: float
    end: float
    nbytes: int
    n_packets_down: int
    n_packets_up: int
    mss_bytes: int
    rtt_s: float
    payload_rate: float

    def with_costs(
        self, end: float, n_packets_down: int, n_packets_up: int
    ) -> "TransferSpec":
        """This transfer with a stage's costs charged: a new ``end`` and
        packet counts (what ``dataclasses.replace`` would build, without
        its per-call field walk)."""
        return TransferSpec(
            self.start,
            self.response_start,
            end,
            self.nbytes,
            n_packets_down,
            n_packets_up,
            self.mss_bytes,
            self.rtt_s,
            self.payload_rate,
        )


class ImpairmentStage:
    """Base class: a stateful, deterministic per-transfer transform.

    Subclasses override :meth:`apply`; shared bookkeeping (a counter
    dict exposed by :meth:`stats`) lives here.  Stages carry mutable
    per-path state (token buckets, packet counters, queue backlogs), so
    a fresh instance must be built per session —
    :meth:`Scenario.build_path <repro.net.scenarios.Scenario.build_path>`
    does exactly that.
    """

    #: Stage vocabulary name (stable across runs; keys telemetry).
    kind = "stage"

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}

    def _count(self, name: str, n: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def apply(self, spec: TransferSpec) -> TransferSpec:
        """Transform one transfer; must be deterministic."""
        raise NotImplementedError

    def stats(self) -> dict[str, float]:
        """Cumulative per-stage counters (copied)."""
        return dict(self._counters)


def _packets_of(nbytes: float, mss_bytes: int) -> int:
    """Bytes -> whole packets, at least one for any positive amount."""
    if nbytes <= 0:
        return 0
    return max(1, math.ceil(nbytes / mss_bytes))


class TokenBucketPolicer(ImpairmentStage):
    """Token-bucket rate policing: excess traffic is *dropped*.

    Tokens refill at ``rate_bps`` up to ``burst_bytes``; a transfer
    whose payload fits the tokens accumulated by its completion passes
    untouched (the initial burst goes through at line rate — the
    policing signature).  Excess bytes are dropped and retransmitted:
    completion stretches to when the bucket has admitted the original
    payload *plus* the retransmitted copies, plus one loss-recovery
    RTT.  This is the behaviour Flach et al. measured in the wild
    (4-6x loss on policed video transfers) and what the ``policed``
    ground-truth label records.
    """

    kind = "policer"

    def __init__(self, rate_bps: float, burst_bytes: int) -> None:
        super().__init__()
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if burst_bytes <= 0:
            raise ValueError("burst_bytes must be positive")
        self.rate_bps = float(rate_bps)
        self.burst_bytes = int(burst_bytes)
        self._tokens = float(burst_bytes)
        self._t_last = 0.0

    def apply(self, spec: TransferSpec) -> TransferSpec:
        rate = self.rate_bps / 8.0  # payload bytes per second
        arrive = spec.response_start
        refill = max(0.0, arrive - self._t_last) * rate
        tokens = min(float(self.burst_bytes), self._tokens + refill)
        window = max(0.0, spec.end - arrive)
        supply = tokens + window * rate
        if spec.nbytes <= supply:
            self._tokens = min(float(self.burst_bytes), supply - spec.nbytes)
            self._t_last = max(self._t_last, spec.end)
            self._count("conformant_transfers")
            return spec
        deficit = spec.nbytes - supply
        dropped = min(spec.n_packets_down, _packets_of(deficit, spec.mss_bytes))
        # The dropped bytes are retransmitted and must also pass the
        # bucket, so completion is bucket-bound on nbytes + deficit.
        end = arrive + (spec.nbytes + deficit - tokens) / rate
        end = max(end, spec.end) + spec.rtt_s
        self._tokens = 0.0
        self._t_last = end
        self._count("policed_transfers")
        self._count("dropped_packets", dropped)
        self._count("dropped_bytes", deficit)
        return spec.with_costs(end, spec.n_packets_down + dropped, spec.n_packets_up)


class Shaper(ImpairmentStage):
    """Token-bucket shaping: excess traffic is *paced*, never dropped.

    Same bucket arithmetic as the policer, but non-conformant bytes
    queue behind the shaper (``busy_until`` serializes transfers) and
    drain at the shaped rate.  The dual of :class:`TokenBucketPolicer`:
    identical rate limit, zero loss — the pair is what lets the
    robustness matrix ask whether coarse features can tell the two
    apart.
    """

    kind = "shaper"

    def __init__(self, rate_bps: float, burst_bytes: int) -> None:
        super().__init__()
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if burst_bytes <= 0:
            raise ValueError("burst_bytes must be positive")
        self.rate_bps = float(rate_bps)
        self.burst_bytes = int(burst_bytes)
        self._tokens = float(burst_bytes)
        self._t_last = 0.0
        self._busy_until = 0.0

    def apply(self, spec: TransferSpec) -> TransferSpec:
        rate = self.rate_bps / 8.0
        arrive = spec.response_start
        begin = max(arrive, self._busy_until)
        refill = max(0.0, begin - self._t_last) * rate
        tokens = min(float(self.burst_bytes), self._tokens + refill)
        supply = tokens + max(0.0, spec.end - begin) * rate
        if begin <= arrive and spec.nbytes <= supply:
            self._tokens = min(float(self.burst_bytes), supply - spec.nbytes)
            self._t_last = max(self._t_last, spec.end)
            self._busy_until = max(self._busy_until, spec.end)
            self._count("conformant_transfers")
            return spec
        shaped_end = begin + max(0.0, spec.nbytes - tokens) / rate
        end = max(spec.end, shaped_end)
        self._tokens = min(float(self.burst_bytes), max(0.0, tokens - spec.nbytes))
        self._t_last = end
        self._busy_until = end
        self._count("shaped_transfers")
        self._count("delayed_packets", spec.n_packets_down)
        self._count("delay_s", end - spec.end)
        return spec.with_costs(end, spec.n_packets_down, spec.n_packets_up)


class Droplist(ImpairmentStage):
    """Drop specific packet indices per direction, 1-based at the path.

    The declarative shape of quic-network-simulator's ``droplist``
    scenario: ``down=(3, 5)`` kills the 3rd and 5th downlink data
    packet that crosses the path (counting across every transfer and
    connection of the session).  Each dropped packet is retransmitted —
    the copy also advances the index counter, exactly as a real
    droplist middlebox would see it — and charges one recovery RTT.
    """

    kind = "droplist"

    def __init__(
        self,
        down: tuple[int, ...] = (),
        up: tuple[int, ...] = (),
    ) -> None:
        super().__init__()
        for name, indices in (("down", down), ("up", up)):
            if any(i < 1 for i in indices):
                raise ValueError(f"{name} droplist indices are 1-based (>= 1)")
        self.down = tuple(sorted(set(int(i) for i in down)))
        self.up = tuple(sorted(set(int(i) for i in up)))
        self._seen_down = 0
        self._seen_up = 0

    @staticmethod
    def _hits(indices: tuple[int, ...], seen: int, n: int) -> int:
        return bisect_right(indices, seen + n) - bisect_right(indices, seen)

    def apply(self, spec: TransferSpec) -> TransferSpec:
        k_down = self._hits(self.down, self._seen_down, spec.n_packets_down)
        k_up = self._hits(self.up, self._seen_up, spec.n_packets_up)
        # Retransmission copies cross the path too, consuming indices.
        self._seen_down += spec.n_packets_down + k_down
        self._seen_up += spec.n_packets_up + k_up
        if not (k_down or k_up):
            return spec
        if k_down:
            self._count("dropped_down", k_down)
        if k_up:
            self._count("dropped_up", k_up)
        return spec.with_costs(
            spec.end + (k_down + k_up) * spec.rtt_s,
            spec.n_packets_down + k_down,
            spec.n_packets_up + k_up,
        )


class Reorderer(ImpairmentStage):
    """Hold back every Nth downlink packet by a fixed delay.

    Patterned on quic-network-simulator's ``reorder.cc``: one packet
    in ``every_nth`` is delivered ``delay_s`` late.  Held packets
    within one transfer overlap, so a transfer with reordered packets
    stretches by one ``delay_s``, not one per packet.  When the hold
    exceeds the RTT the receiver's duplicate ACKs trigger a *spurious*
    retransmission per reordered packet — loss signal without loss,
    the classic reordering confounder for loss-based detectors.
    """

    kind = "reorder"

    def __init__(self, delay_s: float, every_nth: int = 16) -> None:
        super().__init__()
        if delay_s <= 0:
            raise ValueError("delay_s must be positive")
        if every_nth < 2:
            raise ValueError("every_nth must be >= 2")
        self.delay_s = float(delay_s)
        self.every_nth = int(every_nth)
        self._seen_down = 0

    def apply(self, spec: TransferSpec) -> TransferSpec:
        lo, hi = self._seen_down, self._seen_down + spec.n_packets_down
        self._seen_down = hi
        k = hi // self.every_nth - lo // self.every_nth
        if k == 0:
            return spec
        self._count("reordered_packets", k)
        spurious = k if self.delay_s > spec.rtt_s else 0
        if spurious:
            self._count("spurious_retransmits", spurious)
        return spec.with_costs(
            spec.end + self.delay_s,
            spec.n_packets_down + spurious,
            spec.n_packets_up,
        )


class Queue(ImpairmentStage):
    """A finite FIFO queue sized for bufferbloat.

    Models a deep buffer in front of the bottleneck: a standing
    backlog drains at the link's payload rate between transfers, each
    new transfer waits behind whatever backlog remains (queueing
    delay), and bytes that cannot fit ``capacity_bytes`` plus the
    drain during the transfer are tail-dropped (one recovery RTT per
    dropped packet).  Large capacities give the bufferbloat signature
    — seconds of extra latency, near-zero loss; small ones behave like
    a shallow-buffered policer.
    """

    kind = "queue"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._backlog = 0.0
        self._t_last = 0.0

    def apply(self, spec: TransferSpec) -> TransferSpec:
        rate = max(spec.payload_rate, 1e-9)
        arrive = spec.response_start
        drained = max(0.0, arrive - self._t_last) * rate
        backlog = max(0.0, self._backlog - drained)
        delay = backlog / rate  # wait behind the standing queue
        window = max(0.0, spec.end - arrive) + delay
        overflow = backlog + spec.nbytes - self.capacity_bytes - window * rate
        dropped = 0
        if overflow > 0:
            dropped = min(spec.n_packets_down, _packets_of(overflow, spec.mss_bytes))
            self._count("dropped_packets", dropped)
        end = spec.end + delay + dropped * spec.rtt_s
        self._backlog = min(
            float(self.capacity_bytes),
            max(0.0, backlog + spec.nbytes - max(0.0, end - arrive) * rate),
        )
        self._t_last = max(self._t_last, end)
        if delay > 0:
            self._count("queue_delay_s", delay)
            self._count("delayed_transfers")
        if dropped == 0 and delay <= 0:
            return spec
        return spec.with_costs(end, spec.n_packets_down + dropped, spec.n_packets_up)
