"""Declarative experiment registry.

Every experiment driver registers itself at import time by decorating
its ``main()``::

    @experiment(
        "fig5",
        title="Figure 5",
        paper_ref="§4.2, Fig. 5",
        description="Accuracy/recall/precision per QoE metric",
        order=40,
    )
    def main() -> dict: ...

``run_all``, ``python -m repro experiment`` and the benchmark suite
all consume this registry instead of maintaining their own module
lists, so adding an experiment module is one decorator — no list to
forget to update.  ``order`` fixes the paper presentation order
(figures/tables first, extensions after); :func:`all_experiments`
returns specs sorted by it.

A driver declares the paper's claims about its result once, as
``claims=(Claim(...), ...)`` on its registration.  Every registry run
prints one line per claim after ``main()`` returns — the paper's
value, the measured value and the verdict — and
``benchmarks/test_bench_claims.py`` fails on any claim that does not
hold.  Claims are declared for corpora at :data:`CLAIMS_SCALE`.

Registration names must match the defining module's basename — that is
what makes ``python -m repro experiment <name>`` and the registry
agree — and are enforced unique.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.config import get_config

__all__ = [
    "CLAIMS_SCALE",
    "Claim",
    "Experiment",
    "UnknownExperimentError",
    "all_experiments",
    "experiment",
    "get",
    "load_all",
    "names",
]


#: The ``REPRO_SCALE`` every claim's threshold was set at.
CLAIMS_SCALE = 0.25

_VERDICTS = {True: "holds", False: "fails", None: "not checked"}


@dataclass(frozen=True)
class Claim:
    """One paper claim about a driver's returned result.

    ``check(result)`` returns ``(measured, holds)``: the measured value
    (a number, or the numbers compared as a sequence or a dict) and
    ``True`` or ``False`` — or ``None`` when the result lacks the data
    the claim needs (too few sessions in a band, an undefined
    accuracy), which reads "not checked".
    """

    name: str
    #: The paper's value or statement, as printed.
    paper: str
    check: Callable[[Any], tuple[Any, bool | None]]

    def evaluate(self, result: Any) -> tuple[Any, str]:
        """``(measured, verdict)``: the measured value as plain Python
        numbers and one of ``holds``, ``fails`` or ``not checked``."""
        measured, holds = self.check(result)
        verdict = _VERDICTS[None if holds is None else bool(holds)]
        return np.asarray(measured).tolist(), verdict


def _format(measured: Any) -> str:
    if isinstance(measured, dict):
        return ", ".join(f"{key} {_format(v)}" for key, v in measured.items())
    if isinstance(measured, list):
        return " vs ".join(_format(v) for v in measured)
    if isinstance(measured, float):
        return f"{measured:,.3f}" if abs(measured) < 100 else f"{measured:,.0f}"
    return str(measured)


def _claims_report(claims: tuple[Claim, ...], result: Any) -> str:
    """One line per claim: verdict, name, paper value, measured value.

    The block opens by saying so when this run's ``REPRO_SCALE`` is not
    the one the claims were declared at.
    """
    run_scale = get_config().scale
    header = "paper claims"
    if run_scale != CLAIMS_SCALE:
        header += f" (declared at scale {CLAIMS_SCALE}; this run: {run_scale})"
    lines = [f"\n{header}:"]
    for claim in claims:
        measured, verdict = claim.evaluate(result)
        lines.append(
            f"  {verdict:<11}  {claim.name} "
            f"(paper: {claim.paper}; measured: {_format(measured)})"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """One registered experiment driver."""

    name: str
    title: str
    paper_ref: str
    description: str
    run: Callable[[], object]
    order: int
    claims: tuple[Claim, ...] = ()

    @property
    def module(self) -> str:
        return self.run.__module__


class UnknownExperimentError(KeyError):
    """Lookup of a name no driver registered."""

    def __init__(self, name: str, valid: tuple[str, ...]):
        super().__init__(name)
        self.name = name
        self.valid = valid

    def __str__(self) -> str:
        return (
            f"unknown experiment {self.name!r}; "
            f"valid choices: {', '.join(self.valid)}"
        )


_REGISTRY: dict[str, Experiment] = {}

#: Modules in this package that are infrastructure, not drivers.
_NON_DRIVER_MODULES = frozenset({"common", "registry", "run_all"})


def experiment(
    name: str,
    *,
    title: str,
    paper_ref: str,
    description: str,
    order: int,
    claims: tuple[Claim, ...] = (),
) -> Callable[[Callable[[], object]], Callable[[], object]]:
    """Register the decorated function as experiment ``name``'s entry
    point, with the paper ``claims`` its result is checked against.
    The function itself is returned unchanged."""

    def decorate(run: Callable[[], object]) -> Callable[[], object]:
        expected_module = f"{__package__}.{name}"
        if run.__module__ != expected_module:
            raise ValueError(
                f"experiment {name!r} must be registered from "
                f"{expected_module}, not {run.__module__}"
            )
        existing = _REGISTRY.get(name)
        if existing is not None and getattr(
            existing.run, "__wrapped__", existing.run
        ) is not run:
            raise ValueError(f"experiment name {name!r} registered twice")

        # Every registry-driven invocation (run_all, the CLI, the
        # benchmark suite) runs under one experiment span, so traces
        # attribute the whole pipeline to the driver that asked for it,
        # and reports the driver's claims.
        @functools.wraps(run)
        def traced_run() -> object:
            with telemetry.span("experiment", name=name):
                result = run()
            if claims:
                print(_claims_report(claims, result))
            return result

        spec = Experiment(
            name=name,
            title=title,
            paper_ref=paper_ref,
            description=description,
            run=traced_run,
            order=order,
            claims=tuple(claims),
        )
        clash = next(
            (e for e in _REGISTRY.values() if e.order == order and e.name != name),
            None,
        )
        if clash is not None:
            raise ValueError(
                f"experiments {name!r} and {clash.name!r} share order {order}"
            )
        _REGISTRY[name] = spec
        return run

    return decorate


def load_all() -> None:
    """Import every driver module so all registrations run (idempotent)."""
    package = importlib.import_module(__package__)
    for info in pkgutil.iter_modules(package.__path__):
        if info.name in _NON_DRIVER_MODULES or info.name.startswith("_"):
            continue
        importlib.import_module(f"{__package__}.{info.name}")


def all_experiments() -> tuple[Experiment, ...]:
    """Every registered experiment, in presentation (``order``) order."""
    load_all()
    return tuple(sorted(_REGISTRY.values(), key=lambda e: e.order))


def names() -> tuple[str, ...]:
    """Registered experiment names, in presentation order."""
    return tuple(e.name for e in all_experiments())


def get(name: str) -> Experiment:
    """The spec for ``name``; :class:`UnknownExperimentError` if absent."""
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownExperimentError(name, names()) from None
