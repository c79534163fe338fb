"""`NetPath`: a bandwidth-trace bottleneck plus impairment stages.

The refactor's pivot: :class:`repro.net.link.Link` is no longer the
terminal network abstraction — it is the *bottleneck* at the core of a
:class:`NetPath`, an ordered pipeline of
:class:`~repro.net.impairments.ImpairmentStage` instances.  `NetPath`
quacks like a `Link` (it delegates ``trace``/``efficiency``/
``payload_rate_at``/``delivery_time``/``deliverable_bytes``), so every
consumer — the TCP model, the HAS player, the collection harness —
takes either interchangeably.  The one addition is :meth:`impair`,
which the TCP model calls on each completed transfer spec; a bare
`Link` has no ``impair`` attribute, so the identity path never touches
the hot loop and existing corpora stay bit-identical.
"""

from __future__ import annotations

from .impairments import ImpairmentStage, TransferSpec
from .link import Link

__all__ = ["NetPath"]


class NetPath:
    """An ordered impairment pipeline wrapped around a bottleneck link.

    Parameters
    ----------
    link:
        The bandwidth-trace bottleneck (a plain :class:`Link`).
    stages:
        Impairment stages applied in order to every transfer.  Stages
        are stateful (token buckets, packet counters); build a fresh
        pipeline per session.
    scenario:
        The scenario name this path was built from, recorded on the
        session trace for labelling and provenance.
    """

    def __init__(
        self,
        link: Link,
        stages: tuple[ImpairmentStage, ...] = (),
        scenario: str = "identity",
    ) -> None:
        self.link = link
        self.stages = tuple(stages)
        self.scenario = str(scenario)
        # Link delegation, bound once: a query through the path costs
        # what it costs on the bare link (the TCP model asks two per
        # request).
        self.trace = link.trace
        self.efficiency = link.efficiency
        self.payload_rate_at = link.payload_rate_at
        self.delivery_time = link.delivery_time
        self.deliverable_bytes = link.deliverable_bytes

    # -- Impairment pipeline ---------------------------------------------

    @property
    def has_impairments(self) -> bool:
        return bool(self.stages)

    def impair(self, spec: TransferSpec) -> TransferSpec:
        """Fold one transfer through every stage, in order."""
        for stage in self.stages:
            spec = stage.apply(spec)
        return spec

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-stage cumulative counters, keyed by stage kind.

        Repeated kinds (two policers in series, say) get a positional
        suffix so no counters are shadowed.
        """
        out: dict[str, dict[str, float]] = {}
        for i, stage in enumerate(self.stages):
            name = stage.kind
            if name in out:
                name = f"{name}#{i}"
            out[name] = stage.stats()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = ",".join(s.kind for s in self.stages) or "identity"
        return f"NetPath(scenario={self.scenario!r}, stages=[{kinds}])"
