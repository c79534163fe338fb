"""Network substrate: bandwidth traces, bottleneck link, TCP, packets.

This package models everything below the application: the time-varying
access link a video session streams over (driven by synthetic bandwidth
traces patterned on the FCC broadband, Riiser 3G, and van der Hooft LTE
datasets the paper replays), a TCP connection model that accounts for
handshakes, slow start, loss, and retransmissions, and a packet-trace
synthesizer used by the packet-level ML16 baseline.
"""

from repro.net.bandwidth import (
    BandwidthTrace,
    TraceFamily,
    fcc_trace,
    generate_trace,
    hsdpa_trace,
    lte_trace,
)
from repro.net.impairments import (
    Droplist,
    ImpairmentStage,
    Queue,
    Reorderer,
    Shaper,
    TokenBucketPolicer,
    TransferSpec,
)
from repro.net.link import Link
from repro.net.packets import PacketTrace, synthesize_packet_trace
from repro.net.path import NetPath
from repro.net.scenarios import (
    Scenario,
    StageSpec,
    UnknownScenarioError,
    all_scenarios,
    get_scenario,
    resolve_scenario,
    scenario_names,
)
from repro.net.tcp import TcpConnection, TcpParams, Transfer

__all__ = [
    "BandwidthTrace",
    "TraceFamily",
    "fcc_trace",
    "hsdpa_trace",
    "lte_trace",
    "generate_trace",
    "Link",
    "NetPath",
    "ImpairmentStage",
    "TransferSpec",
    "TokenBucketPolicer",
    "Shaper",
    "Droplist",
    "Reorderer",
    "Queue",
    "Scenario",
    "StageSpec",
    "UnknownScenarioError",
    "all_scenarios",
    "get_scenario",
    "resolve_scenario",
    "scenario_names",
    "TcpConnection",
    "TcpParams",
    "Transfer",
    "PacketTrace",
    "synthesize_packet_trace",
]
