"""Real-time-communication (RTC) traffic model.

Video calls are the traffic the paper never saw: bidirectional,
latency-bound, and congestion-controlled — send rate tracks the
estimated available bandwidth with delay-gradient backoff (GCC-style)
instead of draining a deep playback buffer.  Sessions still exit
through the same pipeline as HAS: a :class:`~repro.has.player.SessionTrace`
whose TLS transactions, QoE labels, and scenario counters flow through
datasets, shards, features, and the streaming detector untouched.

:class:`~repro.rtc.model.RtcSession` is the call's application loop on
the session shell the HAS player uses
(:class:`~repro.has.player.SessionShell`), and
:class:`~repro.rtc.model.RtcProfile` names it as its simulator, so
:func:`repro.collection.harness.collect_session` collects calls like
any other session.  Profiles register under the ``rtc`` workload in
:mod:`repro.workloads`.
"""

from repro.rtc.model import (
    RTC_SERVICES,
    RtcCallCatalog,
    RtcCallSpec,
    RtcProfile,
    RtcSession,
)

__all__ = [
    "RTC_SERVICES",
    "RtcCallCatalog",
    "RtcCallSpec",
    "RtcProfile",
    "RtcSession",
]
