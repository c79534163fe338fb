"""Table 2: confusion matrix for Svc1's combined QoE.

The paper's matrix (row percentages):

    actual \\ predicted   low   med   high
    low   (632 sessions)  72%   21%    8%
    med   (599 sessions)  25%   43%   32%
    high  (880 sessions)   5%   12%   84%

The shape to reproduce: strong diagonals for low and high, a weak
diagonal for medium, and errors concentrated in neighbouring classes.
"""

from __future__ import annotations

import numpy as np

from repro.collection.dataset import Dataset
from repro.experiments.common import format_table, get_corpus
from repro.experiments.fig5 import run_service
from repro.experiments.registry import Claim, experiment

__all__ = ["run", "main", "PAPER_ROW_PERCENT"]

PAPER_ROW_PERCENT = np.array([[72, 21, 8], [25, 43, 32], [5, 12, 84]])

CLAIMS = (
    # Strong low/high diagonals, a weaker medium diagonal...
    *(
        Claim(f"{name}-QoE diagonal > 60%", f"{PAPER_ROW_PERCENT[i, i]}%",
              lambda r, i=i: (r["row_percent"][i, i], r["row_percent"][i, i] > 60))
        for i, name in ((0, "low"), (2, "high"))
    ),
    *(
        Claim(f"medium-QoE diagonal < {name}-QoE diagonal",
              f"{PAPER_ROW_PERCENT[1, 1]}% < {PAPER_ROW_PERCENT[i, i]}%",
              lambda r, i=i: (d := r["row_percent"].diagonal()[[1, i]], d[0] < d[1]))
        for i, name in ((0, "low"), (2, "high"))
    ),
    # ...and errors concentrated between neighbouring classes.
    Claim("share of errors in a neighbouring class > 0.5", "most",
          lambda r: (r["neighbour_error_share"], r["neighbour_error_share"] > 0.5)),
)


def run(dataset: Dataset | None = None, fig5_result: dict | None = None) -> dict:
    """Confusion matrix (counts and row percentages) for combined QoE."""
    if fig5_result is None:
        dataset = dataset if dataset is not None else get_corpus("svc1")
        fig5_result = run_service(dataset, targets=("combined",))
    confusion = fig5_result["combined"]["confusion"]
    totals = confusion.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        row_percent = np.where(totals > 0, 100.0 * confusion / totals, 0.0)
    # Neighbour-error mass: how much of the error is one class away?
    errors = confusion.copy().astype(float)
    np.fill_diagonal(errors, 0.0)
    neighbour = errors[0, 1] + errors[1, 0] + errors[1, 2] + errors[2, 1]
    neighbour_share = neighbour / errors.sum() if errors.sum() else 1.0
    return {
        "confusion": confusion,
        "row_percent": row_percent,
        "neighbour_error_share": float(neighbour_share),
        "paper_row_percent": PAPER_ROW_PERCENT,
    }


@experiment(
    "table2",
    title="Table 2",
    paper_ref="§4.2, Table 2",
    description="Confusion matrix for Svc1's combined QoE",
    order=50,
    claims=CLAIMS,
)
def main() -> dict:
    """Run and print Table 2."""
    result = run()
    print("Table 2 — Svc1 combined QoE confusion (measured | paper)")
    names = ("low", "med", "high")
    rows = []
    for i, name in enumerate(names):
        measured = " ".join(f"{result['row_percent'][i, j]:3.0f}%" for j in range(3))
        paper = " ".join(f"{PAPER_ROW_PERCENT[i, j]:3d}%" for j in range(3))
        rows.append(
            [name, str(int(result["confusion"][i].sum())), measured, paper]
        )
    print(format_table(["actual", "#", "pred low/med/high", "paper"], rows))
    return result
