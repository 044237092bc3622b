"""Tests of the scenario runner and the sweep executors."""

from __future__ import annotations

import pytest

from repro.exceptions import ReproError
from repro.runtime import RunRecord, ScenarioSpec, SweepSpec, SweepResult
from repro.runtime.executors import (
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
    run_sweep,
)
from repro.runtime.runner import build_graph, build_scheduler, run
from repro.sim.schedulers import GreedyAvoidingScheduler, RandomScheduler

#: A small grid that exercises both problems and a seeded scheduler but
#: still runs in well under a second per cell.
SMALL_GRID = SweepSpec(
    problems=("rendezvous", "baseline"),
    families=("ring", "erdos_renyi"),
    sizes=(4, 5),
    seeds=(0, 1, 2),
    schedulers=("round_robin",),
    label_sets=((1, 2),),
    max_traversals=500_000,
    name="test-grid",
)


class TestRun:
    def test_rendezvous_record(self):
        record = run(ScenarioSpec(family="ring", size=6, labels=(6, 11)))
        assert record.ok and record.reason == "meeting"
        assert record.graph_size == 6 and record.graph_edges == 6
        assert record.problem == "rendezvous"
        assert "meeting" in record.summary()

    def test_esst_record(self):
        record = run(ScenarioSpec(problem="esst", family="ring", size=4))
        extra = record.extra_dict
        assert record.ok
        assert extra["final_phase"] <= extra["phase_bound"]
        assert record.decisions == 0

    @pytest.mark.sgl
    def test_teams_record(self):
        record = run(
            ScenarioSpec(problem="teams", family="ring", size=4, team_size=2,
                         max_traversals=4_000_000)
        )
        assert record.ok
        assert record.extra_dict["team_labels"] == (3, 5)
        assert record.extra_dict["leader"] == 3

    def test_unknown_problem_rejected(self):
        with pytest.raises(ReproError):
            run(ScenarioSpec(problem="sorting"))

    def test_team_larger_than_graph_rejected(self):
        with pytest.raises(ReproError):
            run(ScenarioSpec(problem="teams", family="ring", size=3, team_size=5))

    def test_build_graph_uses_family_and_seed(self):
        spec = ScenarioSpec(family="erdos_renyi", size=7, seed=2)
        graph_a = build_graph(spec)
        graph_b = build_graph(spec)
        assert graph_a.size == 7
        assert sorted(graph_a.edges()) == sorted(graph_b.edges())

    def test_build_scheduler_params_and_seed_override(self):
        avoider = build_scheduler(
            ScenarioSpec(scheduler="avoider", scheduler_params={"patience": 5})
        )
        assert isinstance(avoider, GreedyAvoidingScheduler)
        seeded = build_scheduler(
            ScenarioSpec(scheduler="random", seed=1, scheduler_params={"seed": 9})
        )
        assert isinstance(seeded, RandomScheduler)

    def test_record_json_round_trip(self):
        record = run(ScenarioSpec(family="ring", size=4, labels=(1, 2)))
        revived = RunRecord.from_dict(record.to_dict())
        assert revived.spec == record.spec
        assert (revived.ok, revived.cost, revived.reason) == (
            record.ok,
            record.cost,
            record.reason,
        )


class TestExecutors:
    def test_serial_progress_callback(self):
        seen = []
        result = run_sweep(
            SweepSpec(sizes=(4, 6), label_sets=((1, 2),)),
            executor=SerialExecutor(),
            progress=lambda done, total, record, cached: seen.append(
                (done, total, record.ok, cached)
            ),
        )
        assert len(result) == 2
        assert seen == [(1, 2, True, False), (2, 2, True, False)]

    def test_serial_and_process_pool_results_identical(self):
        serial = run_sweep(SMALL_GRID, executor=SerialExecutor())
        pooled = run_sweep(SMALL_GRID, executor=ProcessPoolExecutor(max_workers=2))
        assert len(serial) == len(pooled) == len(SMALL_GRID)
        assert serial.records == pooled.records
        assert serial.all_ok

    def test_make_executor_picks_backend(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(2), ProcessPoolExecutor)

    def test_run_sweep_accepts_explicit_cells(self):
        cells = [
            ScenarioSpec(family="ring", size=4, labels=(1, 2)),
            ScenarioSpec(family="ring", size=6, labels=(1, 2), scheduler="avoider"),
        ]
        result = run_sweep(cells)
        assert result.sweep is None
        assert [record.scheduler for record in result] == ["round_robin", "avoider"]

    def test_sweep_result_helpers(self):
        result = run_sweep(SweepSpec(sizes=(4, 6), label_sets=((1, 2),)))
        assert result.all_ok and result.ok_fraction == 1.0
        assert result.max_cost() >= result.mean_cost() > 0
        ring_only = result.filter(family="ring")
        assert len(ring_only) == 2
        ratios = result.bound_ratios()
        assert len(ratios) == 2 and all(ratio >= 1 for ratio in ratios)
        table = result.table()
        assert "round_robin" in table and "meeting" in table

    def test_sweep_result_json_round_trip_keeps_sweep(self):
        result = run_sweep(SweepSpec(sizes=(4,), label_sets=((1, 2),)))
        revived = SweepResult.from_dict(result.to_dict())
        assert revived.sweep == result.sweep
        assert len(revived) == len(result)
        assert revived[0].spec == result[0].spec


class TestBudgetClamp:
    def test_returned_cost_never_exceeds_budget(self):
        # Regression: the engine used to notice the budget only after the
        # count had already passed it, reporting cost = budget + 1.
        # On a 12-ring the agents need 5 traversals to meet under round
        # robin; a budget of 3 is exhausted first.  The old check reported
        # cost 4 (budget + 1) here.
        record = run(
            ScenarioSpec(family="ring", size=12, labels=(6, 11), max_traversals=3)
        )
        assert not record.ok
        assert record.reason == "cost_limit"
        assert record.cost == 3
