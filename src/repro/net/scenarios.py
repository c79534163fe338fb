"""Declarative, registered network-impairment scenarios.

Mirrors the ``@experiment`` registry: a scenario is a named, ordered
list of :class:`StageSpec` declarations (stage kind + constructor
params) that can be fingerprinted into artifact cache keys and built
into a fresh :class:`~repro.net.path.NetPath` per session.  The
``identity`` scenario builds a plain :class:`~repro.net.link.Link` —
not an empty `NetPath` — so the TCP model's impairment branch is never
entered and existing corpora stay bit-identical.

Scenario names travel everywhere a corpus does: the ``scenario=``
argument and ``--scenario`` select one, the collection harness resolves
it once into the config its workers get, session traces and serialized
corpora record it, and shard manifests carry it so impaired and clean
corpora cache side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .impairments import (
    Droplist,
    ImpairmentStage,
    Queue,
    Reorderer,
    Shaper,
    TokenBucketPolicer,
)
from .link import Link
from .path import NetPath

__all__ = [
    "StageSpec",
    "Scenario",
    "UnknownScenarioError",
    "get_scenario",
    "resolve_scenario",
    "all_scenarios",
    "scenario_names",
    "customize",
]

_STAGE_KINDS = {
    "policer": TokenBucketPolicer,
    "shaper": Shaper,
    "droplist": Droplist,
    "reorder": Reorderer,
    "queue": Queue,
}


class UnknownScenarioError(ValueError):
    """Raised for a scenario name that is not registered."""


@dataclass(frozen=True)
class StageSpec:
    """One stage declaration: kind + constructor params, fingerprintable."""

    kind: str
    params: tuple[tuple[str, float | int | tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if self.kind not in _STAGE_KINDS:
            valid = ", ".join(sorted(_STAGE_KINDS))
            raise ValueError(f"unknown stage kind {self.kind!r} (valid: {valid})")

    def build(self) -> ImpairmentStage:
        """Instantiate a fresh (stateful) stage from this spec."""
        return _STAGE_KINDS[self.kind](**dict(self.params))

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({params})"


def _spec(kind: str, **params) -> StageSpec:
    return StageSpec(kind=kind, params=tuple(sorted(params.items())))


@dataclass(frozen=True)
class Scenario:
    """A named, ordered impairment pipeline declaration."""

    name: str
    title: str
    description: str
    stages: tuple[StageSpec, ...] = field(default=())

    @property
    def is_identity(self) -> bool:
        return not self.stages

    def build_path(self, trace, efficiency: float = 0.95):
        """Build the per-session network path for this scenario.

        Identity returns a plain :class:`Link` (no ``impair``
        attribute, so the TCP hot path is untouched); anything else
        wraps the link in a :class:`NetPath` with *fresh* stage
        instances — stages are stateful and must never be shared
        across sessions.
        """
        link = Link(trace=trace, efficiency=efficiency)
        if self.is_identity:
            return link
        return NetPath(
            link,
            stages=tuple(spec.build() for spec in self.stages),
            scenario=self.name,
        )

    def describe(self) -> str:
        if self.is_identity:
            return "identity (no impairments)"
        return " -> ".join(spec.describe() for spec in self.stages)


_REGISTRY: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    if scenario.name in _REGISTRY:
        raise ValueError(f"duplicate scenario name {scenario.name!r}")
    _REGISTRY[scenario.name] = scenario
    return scenario


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, identity first."""
    names = sorted(_REGISTRY)
    names.remove("identity")
    return ("identity", *names)


def all_scenarios() -> tuple[Scenario, ...]:
    """All registered scenarios, identity first."""
    return tuple(_REGISTRY[name] for name in scenario_names())


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario, with an actionable error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join(scenario_names())
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; valid scenarios: {valid}"
        ) from None


def resolve_scenario(scenario: str | Scenario | None) -> Scenario:
    """Normalize a scenario name (or pass a Scenario through).

    ``None`` and blank strings mean identity, so unset config falls
    through to the unimpaired pipeline.
    """
    if scenario is None:
        return _REGISTRY["identity"]
    if isinstance(scenario, Scenario):
        return scenario
    name = str(scenario).strip()
    if not name:
        return _REGISTRY["identity"]
    return get_scenario(name)


def customize(
    base: str | Scenario,
    *,
    police_rate: float | None = None,
    police_burst: int | None = None,
    queue_bytes: int | None = None,
) -> Scenario:
    """Derive an unregistered scenario with overridden stage params.

    Backs the CLI's ``--police-rate``/``--police-burst``/
    ``--queue-bytes`` flags: take a registered scenario and retune its
    policer/shaper or queue without defining a new one.  Raises
    ``ValueError`` when the base has no stage the override applies to
    (overriding the policer rate of ``reorder-50ms`` is a typo, not a
    no-op).
    """
    scenario = resolve_scenario(base)
    overrides: list[tuple[tuple[str, ...], dict[str, float | int]]] = []
    if police_rate is not None or police_burst is not None:
        params: dict[str, float | int] = {}
        if police_rate is not None:
            params["rate_bps"] = float(police_rate)
        if police_burst is not None:
            params["burst_bytes"] = int(police_burst)
        overrides.append((("policer", "shaper"), params))
    if queue_bytes is not None:
        overrides.append((("queue",), {"capacity_bytes": int(queue_bytes)}))
    if not overrides:
        return scenario

    stages = list(scenario.stages)
    suffix: list[str] = []
    for kinds, params in overrides:
        matched = False
        for i, spec in enumerate(stages):
            if spec.kind in kinds:
                merged = dict(spec.params)
                merged.update(params)
                stages[i] = replace(spec, params=tuple(sorted(merged.items())))
                matched = True
        if not matched:
            raise ValueError(
                f"scenario {scenario.name!r} has no {' or '.join(kinds)} stage "
                f"to apply {sorted(params)} to"
            )
        suffix.extend(f"{k}={v}" for k, v in sorted(params.items()))
    return Scenario(
        name=f"{scenario.name}[{','.join(suffix)}]",
        title=scenario.title,
        description=f"{scenario.description} (customized: {', '.join(suffix)})",
        stages=tuple(stages),
    )


# -- Built-in scenarios --------------------------------------------------

_MBPS = 1_000_000

_register(
    Scenario(
        name="identity",
        title="Identity (no impairments)",
        description=(
            "The polite network of the source paper: capacity varies with "
            "the bandwidth trace but nothing drops, delays, or reorders. "
            "Bit-identical to the pre-refactor pipeline."
        ),
    )
)

_register(
    Scenario(
        name="policed-2mbps",
        title="Token-bucket policing at 2 Mbps",
        description=(
            "A 2 Mbps / 256 KB token-bucket policer that drops excess "
            "traffic — the Flach et al. signature: initial burst at line "
            "rate, then a policed trickle with heavy retransmission."
        ),
        stages=(_spec("policer", rate_bps=2 * _MBPS, burst_bytes=256_000),),
    )
)

_register(
    Scenario(
        name="policed-512kbps",
        title="Aggressive token-bucket policing at 512 kbps",
        description=(
            "A 512 kbps / 64 KB policer: nearly every segment transfer "
            "overruns the bucket, the high-loss regime where USC-NSL "
            "observed 4-6x packet loss on policed video."
        ),
        stages=(_spec("policer", rate_bps=512_000, burst_bytes=64_000),),
    )
)

_register(
    Scenario(
        name="shaped-2mbps",
        title="Token-bucket shaping at 2 Mbps",
        description=(
            "The policer's dual: the same 2 Mbps / 256 KB bucket, but "
            "excess traffic is paced instead of dropped — identical rate "
            "limit, zero loss."
        ),
        stages=(_spec("shaper", rate_bps=2 * _MBPS, burst_bytes=256_000),),
    )
)

_register(
    Scenario(
        name="droplist-early",
        title="Drop early packet indices",
        description=(
            "quic-network-simulator-style droplist: downlink data packets "
            "3, 5, 8, 13, 21 and 34 (1-based, counted across the session) "
            "are dropped once each — targeted early loss during startup."
        ),
        stages=(_spec("droplist", down=(3, 5, 8, 13, 21, 34)),),
    )
)

_register(
    Scenario(
        name="reorder-50ms",
        title="Reorder every 16th packet by 50 ms",
        description=(
            "Every 16th downlink packet is held back 50 ms — past the "
            "path RTT, so duplicate ACKs trigger spurious retransmits: "
            "loss signal without loss."
        ),
        stages=(_spec("reorder", delay_s=0.05, every_nth=16),),
    )
)

_register(
    Scenario(
        name="bufferbloat-1mb",
        title="Bufferbloat: 1 MB FIFO queue",
        description=(
            "A 1 MB tail-drop FIFO in front of the bottleneck: standing "
            "queues add seconds of delay with near-zero loss."
        ),
        stages=(_spec("queue", capacity_bytes=1_000_000),),
    )
)

_register(
    Scenario(
        name="hostile",
        title="Composed hostile path",
        description=(
            "Policing, reordering, and a shallow queue composed in series "
            "— the worst plausible access network, exercising stage "
            "composition (retransmits from the policer traverse the "
            "queue too)."
        ),
        stages=(
            _spec("policer", rate_bps=3 * _MBPS, burst_bytes=384_000),
            _spec("reorder", delay_s=0.04, every_nth=32),
            _spec("queue", capacity_bytes=500_000),
        ),
    )
)
