"""Table 5: session-identification accuracy.

Back-to-back sessions of the same service, split with the W/N_min/δ_min
heuristic.  The paper reports 98% of existing transactions and 89% of
new-session transactions classified correctly (W=3 s, N_min=2,
δ_min=0.5), on streams where a timeout-based splitter would find a
single giant session.

An extra parameter sweep (the paper fixes the values without a
sensitivity analysis) shows how the operating point moves with W,
N_min, and δ_min.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import format_table
from repro.experiments.registry import Claim, experiment
from repro.sessions.boundary import (
    BoundaryConfig,
    detect_session_starts,
    evaluate_boundary_detection,
)
from repro.sessions.workload import back_to_back_stream

__all__ = ["run", "sweep", "main", "PAPER_ROW_PERCENT"]

PAPER_ROW_PERCENT = np.array([[98.0, 2.0], [11.0, 89.0]])

#: Window lengths (seconds) the parameter sweep covers.
SWEEP_WINDOWS_S = (1.0, 3.0, 6.0, 10.0)


def _new_recall_by_delta(result: dict, window: float) -> tuple:
    """Sweep rows at ``window`` and N_min=2, by growing δ_min: demanding
    a bigger newer-server majority can only detect fewer starts."""
    rows = sorted(
        (r for r in result["sweep"] if r["window_s"] == window and r["n_min"] == 2),
        key=lambda r: r["delta_min"],
    )
    series = [r["new_correct"] for r in rows]
    return series, all(a >= b - 1e-9 for a, b in zip(series, series[1:]))


CLAIMS = (
    Claim("existing-session transactions correct > 0.85", f"{PAPER_ROW_PERCENT[0, 0]:.0f}%",
          lambda r: (r["existing_correct"], r["existing_correct"] > 0.85)),
    Claim("new-session transactions correct > 0.6", f"{PAPER_ROW_PERCENT[1, 1]:.0f}%",
          lambda r: (r["new_correct"], r["new_correct"] > 0.6)),
    *(
        Claim(f"W={w:.0f} s: 'new' recall never grows with δ_min", "not swept",
              lambda r, w=w: _new_recall_by_delta(r, w))
        for w in SWEEP_WINDOWS_S
    ),
)


def _streams(service: str, n_streams: int, sessions_per_stream: int, seed: int):
    return [
        back_to_back_stream(service, sessions_per_stream, seed=seed + i)
        for i in range(n_streams)
    ]


def run(
    service: str = "svc1",
    n_streams: int = 8,
    sessions_per_stream: int = 20,
    seed: int = 0,
    config: BoundaryConfig | None = None,
    streams=None,
) -> dict:
    """Aggregate Table-5 confusion over several merged streams."""
    if streams is None:
        streams = _streams(service, n_streams, sessions_per_stream, seed)
    config = config or BoundaryConfig()
    confusion = np.zeros((2, 2), dtype=np.int64)
    for stream in streams:
        predicted = detect_session_starts(stream.transactions, config)
        confusion += evaluate_boundary_detection(predicted, stream.is_new)
    totals = confusion.sum(axis=1, keepdims=True)
    row_percent = 100.0 * confusion / np.maximum(totals, 1)
    return {
        "confusion": confusion,
        "row_percent": row_percent,
        "existing_correct": float(row_percent[0, 0] / 100.0),
        "new_correct": float(row_percent[1, 1] / 100.0),
        "n_sessions": sum(s.n_sessions for s in streams),
        "paper_row_percent": PAPER_ROW_PERCENT,
    }


def sweep(
    service: str = "svc1",
    n_streams: int = 4,
    sessions_per_stream: int = 15,
    seed: int = 100,
) -> list[dict]:
    """Sensitivity of the heuristic to its three parameters."""
    streams = _streams(service, n_streams, sessions_per_stream, seed)
    rows = []
    for window in SWEEP_WINDOWS_S:
        for n_min in (1, 2, 3):
            for delta_min in (0.3, 0.5, 0.7):
                config = BoundaryConfig(
                    window_s=window, n_min=n_min, delta_min=delta_min
                )
                r = run(config=config, streams=streams)
                rows.append(
                    {
                        "window_s": window,
                        "n_min": n_min,
                        "delta_min": delta_min,
                        "existing_correct": r["existing_correct"],
                        "new_correct": r["new_correct"],
                    }
                )
    return rows


@experiment(
    "table5",
    title="Table 5",
    paper_ref="§4.4, Table 5",
    description="Session-identification accuracy on back-to-back streams",
    order=100,
    claims=CLAIMS,
)
def main() -> dict:
    """Run and print Table 5 (+ parameter sweep highlights); the sweep
    rows join the result under ``"sweep"``."""
    result = run()
    print(
        f"Table 5 — session identification over {result['n_sessions']} "
        "back-to-back sessions (measured | paper)"
    )
    names = ("existing", "new")
    rows = []
    for i, name in enumerate(names):
        measured = " ".join(f"{result['row_percent'][i, j]:3.0f}%" for j in range(2))
        paper = " ".join(f"{PAPER_ROW_PERCENT[i, j]:3.0f}%" for j in range(2))
        rows.append([name, str(int(result["confusion"][i].sum())), measured, paper])
    print(format_table(["actual", "#", "pred existing/new", "paper"], rows))

    print("\nparameter sweep (paper fixes W=3, N_min=2, δ_min=0.5):")
    sweep_rows = sweep()
    best = max(sweep_rows, key=lambda r: r["existing_correct"] + r["new_correct"])
    print(
        format_table(
            ["W", "N_min", "δ_min", "existing", "new"],
            [
                [
                    f"{r['window_s']:.0f}",
                    str(r["n_min"]),
                    f"{r['delta_min']:.1f}",
                    f"{r['existing_correct']:.0%}",
                    f"{r['new_correct']:.0%}",
                ]
                for r in sweep_rows
                if r["delta_min"] == 0.5
            ],
        )
    )
    print(
        f"best combined operating point: W={best['window_s']:.0f}, "
        f"N_min={best['n_min']}, δ_min={best['delta_min']:.1f} "
        f"({best['existing_correct']:.0%}/{best['new_correct']:.0%})"
    )
    return {**result, "sweep": sweep_rows}
