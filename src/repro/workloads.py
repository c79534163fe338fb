"""Workload registry: which *application's* traffic are we generating?

The paper only ever watched on-demand HAS video, so "which traffic"
was never a question the codebase had to answer — ``collect_corpus``
took a service name and everything downstream assumed a buffered
player.  RTC calls and live-HAS streams break that assumption, so the
registry makes the application a first-class, named concept, exactly
the way :mod:`repro.net.scenarios` did for the network and
:mod:`repro.experiments.registry` did for experiments:

>>> import repro
>>> [wl["name"] for wl in repro.list_workloads()]
['has', 'live', 'rtc']
>>> ds = repro.collect_corpus("rtc1", n_sessions=50)

Each :class:`Workload` is plain registry data: a name, a title and
description for ``repro workload --list``, and a dict of named
profiles.  Profile names are unique across workloads and every
profile names its workload (``profile.workload``) and the simulator
its sessions run (its class's ``simulator``), so one lookup,
:func:`get_profile`, turns a name into the whole choice of application
model, and one :func:`~repro.collection.harness.collect_session`
collects every workload.  The ``has`` profiles reproduce the
pre-registry pipeline bit for bit (pinned by
``tests/test_golden_identity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.has.live import LIVE_SERVICES
from repro.has.services import SERVICES, SessionProfile
from repro.rtc.model import RTC_SERVICES

__all__ = [
    "DEFAULT_WORKLOAD",
    "UnknownProfileError",
    "UnknownWorkloadError",
    "Workload",
    "all_workloads",
    "get_profile",
    "get_workload",
    "workload_names",
]

#: The workload the pipeline collected before the registry existed.
DEFAULT_WORKLOAD = "has"


class UnknownWorkloadError(ValueError):
    """Raised when a workload name is not in the registry."""


class UnknownProfileError(ValueError):
    """Raised when a profile name belongs to no registered workload."""


@dataclass(frozen=True)
class Workload:
    """One application model the collection harness can drive.

    Attributes
    ----------
    name:
        Registry key (``has``/``live``/``rtc``).
    title, description:
        Human-readable summary for ``repro workload --list``.
    profiles:
        Named profiles this workload offers (e.g. ``svc1`` → its
        :class:`~repro.has.services.ServiceProfile`).
    """

    name: str
    title: str
    description: str
    profiles: dict

    def profile_names(self) -> list[str]:
        """Names of this workload's profiles, sorted."""
        return sorted(self.profiles)


_REGISTRY: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="has",
            title="On-demand HAS video (the paper's workload)",
            description=(
                "Buffered adaptive-bitrate players (svc1/svc2/svc3) streaming "
                "on-demand titles; deep buffers, ABR ladders, DRM, beacons."
            ),
            profiles=SERVICES,
        ),
        Workload(
            name="live",
            title="Live-HAS video (low-latency, rebuffer-prone)",
            description=(
                "Live variants of the HAS services (live1/live2/live3): 2s "
                "segments, 3-6s latency-target buffers, aggressive ABR — any "
                "bandwidth dip longer than the buffer rebuffers."
            ),
            profiles=LIVE_SERVICES,
        ),
        Workload(
            name="rtc",
            title="Real-time video calls (GCC-style congestion control)",
            description=(
                "Bidirectional, latency-bound calls (rtc1): send rate tracks "
                "estimated bandwidth with delay-gradient backoff; no playback "
                "buffer, so late media freezes the call and drops frames."
            ),
            profiles=RTC_SERVICES,
        ),
    )
}


def workload_names() -> list[str]:
    """Registered workload names, default first, then alphabetical."""
    return [DEFAULT_WORKLOAD] + sorted(n for n in _REGISTRY if n != DEFAULT_WORKLOAD)


def all_workloads() -> list[Workload]:
    """All registered workloads, in :func:`workload_names` order."""
    return [_REGISTRY[n] for n in workload_names()]


def get_workload(name: str) -> Workload:
    """Look up a workload by registry name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; expected one of {workload_names()}"
        ) from None


#: Every registered profile by name (names are unique across workloads).
_PROFILES: dict[str, SessionProfile] = {
    name: profile for wl in _REGISTRY.values() for name, profile in wl.profiles.items()
}


def get_profile(name: str) -> SessionProfile:
    """Look up a session profile by name, case-insensitively.

    The profile names its own workload (``profile.workload``) and
    simulator, so the name alone chooses the application model.
    """
    try:
        return _PROFILES[name.lower()]
    except KeyError:
        by_workload = ", ".join(
            f"{wl.name} ({', '.join(wl.profile_names())})" for wl in all_workloads()
        )
        raise UnknownProfileError(
            f"unknown profile {name!r}; profiles by workload: {by_workload}"
        ) from None
