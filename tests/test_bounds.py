"""Tests of the analytic bound comparison: the ``bounds`` problem behind E3."""

from __future__ import annotations

from repro.analysis import experiment_spec, run_experiment
from repro.exploration.cost_model import PaperCostModel
from repro.runtime import ScenarioSpec
from repro.runtime.runner import run


def _bounds(size, label, **overrides):
    """One ``bounds`` cell: the smaller label is ``label``."""
    spec = ScenarioSpec(problem="bounds", family="path", size=size, labels=(label, label + 1), **overrides)
    return run(spec)


class TestCompareBounds:
    def test_grid_is_complete(self):
        result = run_experiment(experiment_spec("E3", sizes=(2, 4), labels=(1, 3)))
        assert len(result.rows) == 4
        assert {(row["n"], row["label"]) for row in result.rows} == {(2, 1), (2, 3), (4, 1), (4, 3)}

    def test_bounds_are_positive_and_typed(self):
        record = _bounds(3, 2)
        extra = record.extra_dict
        assert record.ok and record.reason == "bounds" and record.decisions == 0
        assert extra["rv_bound"] > 0 and extra["baseline_bound"] > 0
        assert extra["label_small"] == 2 and extra["label_length"] == 2
        # The record's cost is the RV-asynch-poly guarantee, so bound cells
        # aggregate like measured ones.
        assert record.cost == extra["rv_bound"]

    def test_default_model_is_the_paper_model(self):
        """E3's cells evaluate the paper's cost model."""
        assert {cell.cost_model for cell in experiment_spec("E3").cells} == {"paper"}
        record = _bounds(2, 1, cost_model="paper")
        assert record.extra_dict["rv_bound"] == PaperCostModel().pi_bound(2, 1)

    def test_rv_bound_depends_only_on_label_length(self):
        """Π depends on |L|, not on L: labels 4..7 share the same guarantee."""
        bounds = {_bounds(3, label).extra_dict["rv_bound"] for label in (4, 5, 6, 7)}
        assert len(bounds) == 1

    def test_baseline_bound_explodes_with_the_label(self):
        baseline = [_bounds(3, label).extra_dict["baseline_bound"] for label in (1, 2, 4, 8, 16)]
        assert baseline == sorted(baseline)
        assert baseline[-1] > baseline[0] ** 4

    def test_for_large_labels_the_polynomial_bound_wins(self):
        """The crossover of Theorem 3.1: for long labels Π is (much) smaller."""
        extra = _bounds(4, 256).extra_dict
        assert extra["baseline_bound"] > extra["rv_bound"]
