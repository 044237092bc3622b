#!/usr/bin/env python3
"""The headline result, in one table: polynomial versus exponential guarantees.

Prior to this paper, the best deterministic asynchronous rendezvous algorithm
had cost exponential in the size of the graph and in the (larger) label.  The
paper's Algorithm RV-asynch-poly guarantees a meeting within ``Π(n, |L_min|)``
edge traversals — polynomial in the size and in the *length* of the smaller
label.

This example runs the registered E3 experiment — a frozen
:class:`~repro.analysis.experiment_spec.ExperimentSpec` bundling the bounds
sweep, its aggregation pipeline and its render config — over a custom
size/label grid, against an in-memory result store.  The spec's own table
(with its growth-classification footers) prints first; the example then
re-aggregates the same rows into a compact order-of-magnitude view, and
finally re-runs the experiment to show that a warm store re-renders the
table with **zero** scenario executions.

Run with::

    python examples/polynomial_vs_exponential.py
"""

from __future__ import annotations

from repro.analysis.experiment_spec import experiment_spec, run_experiment
from repro.store import MemoryStore
from repro.tables import format_table

SIZES = (4, 8, 16)
LABELS = (1, 4, 16, 64, 256)

SPEC = experiment_spec("E3", sizes=SIZES, labels=LABELS)


def _magnitude(value: int) -> str:
    """Render a (possibly astronomically large) integer as a power of ten."""
    if value < 10**300:
        return f"{float(value):.3e}"
    return f"~10^{len(str(value)) - 1}"


def main() -> None:
    store = MemoryStore()
    result = run_experiment(SPEC, store=store)
    print(result.render())

    print()
    rows = [
        [
            row["n"],
            row["label"],
            row["label_length"],
            _magnitude(row["rv_bound"]),
            _magnitude(row["baseline_bound"]),
            "RV" if row["rv_bound"] < row["baseline_bound"] else "baseline",
        ]
        for row in result.rows
    ]
    print(format_table(
        ["n", "label L", "|L|", "Pi(n, |L|)", "baseline bound", "smaller guarantee"],
        rows,
        title="The same rows, re-aggregated as orders of magnitude",
    ))

    again = run_experiment(SPEC, store=store)
    assert again.render() == result.render()
    print(
        f"\n(re-rendering through the result store: "
        f"{again.cache_hits}/{len(again.records)} cells served from cache, "
        f"{again.executed} executed — the table is byte-identical)"
    )


if __name__ == "__main__":
    main()
