"""The refactor's central invariant: records are byte-identical, everywhere.

``tests/golden/engine_records.json`` holds records generated by the engine
*before* the neighbor-index / integer-lattice refactor, for sampled scenarios
across every problem kind and every scheduler.  The suite replays each
scenario on the current engine and compares canonical JSON:

* untraced — the full record, byte for byte.  This exercises the fused
  round-robin loop (the untraced round-robin fast path).
* traced — the record minus the trace payload (byte for byte) plus the
  deterministic trace projection (events, invariant counters, stable span
  call counts).  The traced twin never takes the fast path, so this pins the
  generic decision loop against the same fixtures.
* pool — a subset of scenarios executed through the process-pool executor:
  records computed in worker processes are the same bytes again.

A final randomized cross-check compares the fused loop against the generic
loop directly (untraced vs traced-stripped) on specs the fixtures do not
contain, so equivalence does not silently narrow to the golden sample.

Procedure ESST has two stand-alone drivers: the flat ``run_esst`` that the
experiments use and the generator-driven ``run_esst_reference``, which
drives ``esst_procedure`` the way the engine drives an agent program.  A
differential test runs both on every registered graph family and compares
the whole ``ESSTResult``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from repro.exploration.esst import run_esst, run_esst_reference
from repro.runtime import GRAPH_FAMILIES, ProcessPoolExecutor, ScenarioSpec
from repro.runtime.executors import run_sweep
from repro.runtime.runner import build_graph, run
from repro.sim.position import Position

from tests.golden.gen_engine_records import (
    FIXTURE_PATH,
    canonical,
    scenarios,
    split_traced,
)

SCENARIOS = dict(scenarios())
FIXTURES = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))["scenarios"]

#: Pool subset: one scenario per problem kind (the pool run re-executes each
#: spec in a fresh worker process, so covering every kind once is enough).
POOL_SUBSET = (
    "rv-ring-rr",
    "base-ring-rr",
    "team-ring4-k2-rr",
    "esst-ring6",
    "bounds-ring-rr",
    "fig-ring-rr",
    "tick-leader-ring",
)


def _strip_extra(record_dict: dict) -> dict:
    """Normalise ``extra`` ordering the way :func:`split_traced` does."""
    normalised = dict(record_dict)
    normalised["extra"] = sorted(
        [key, value] for key, value in dict(record_dict.get("extra", ())).items()
    )
    return normalised


def test_fixture_covers_every_scenario():
    assert sorted(FIXTURES) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_untraced_record_is_byte_identical(name):
    record = run(SCENARIOS[name]).to_dict()
    assert canonical(record) == canonical(FIXTURES[name]["untraced"])


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_traced_record_is_byte_identical(name):
    stripped, projection = split_traced(run(SCENARIOS[name], trace=True).to_dict())
    assert canonical(stripped) == canonical(FIXTURES[name]["traced_record"])
    assert canonical(projection) == canonical(FIXTURES[name]["trace"])


def test_pool_records_are_byte_identical():
    specs = [SCENARIOS[name] for name in POOL_SUBSET]
    result = run_sweep(specs, executor=ProcessPoolExecutor(max_workers=2))
    assert len(result.records) == len(POOL_SUBSET)
    for name, record in zip(POOL_SUBSET, result.records):
        assert canonical(record.to_dict()) == canonical(FIXTURES[name]["untraced"])


def test_randomized_specs_fused_loop_matches_generic_loop():
    # Fresh specs outside the golden sample: the untraced run takes the
    # fused round-robin loop, the traced run takes the generic loop; their
    # records (minus the trace payload) must agree exactly.
    rng = random.Random(20260808)
    cases = []
    for _ in range(4):
        cases.append(
            ScenarioSpec(
                problem="rendezvous",
                family=rng.choice(["ring", "path", "random_tree"]),
                size=rng.randint(5, 9),
                seed=rng.randint(0, 99),
            )
        )
    for _ in range(2):
        cases.append(
            ScenarioSpec(
                problem="teams",
                family="ring",
                size=rng.randint(4, 5),
                team_size=2,
                seed=rng.randint(0, 99),
            )
        )
    # Teams of three and four: meetings with three or more participants go
    # through the shared meeting emission from both loops.
    for family in ("path", "star", "lollipop", "complete"):
        cases.append(
            ScenarioSpec(
                problem="teams",
                family=family,
                size=rng.randint(5, 6),
                team_size=rng.randint(3, 4),
                seed=rng.randint(0, 99),
            )
        )
    # A run that the traversal budget ends.
    budgeted = ScenarioSpec(
        problem="teams",
        family="ring",
        size=5,
        team_size=3,
        seed=rng.randint(0, 99),
        max_traversals=3000,
        on_cost_limit="return",
    )
    cases.append(budgeted)
    for spec in cases:
        untraced = _strip_extra(run(spec).to_dict())
        stripped, _projection = split_traced(run(spec, trace=True).to_dict())
        assert canonical(untraced) == canonical(stripped), spec.name
        if spec is budgeted:
            assert untraced["reason"] == "cost_limit"


@pytest.mark.parametrize("family", GRAPH_FAMILIES.names())
@pytest.mark.parametrize("size", [4, 6])
def test_flat_esst_driver_matches_the_generator_driver(family, size, sim_model):
    # The token at the highest-numbered node, then strictly inside the
    # highest edge; the agent always starts at node 0.
    graph = build_graph(ScenarioSpec(problem="esst", family=family, size=size))
    tokens = (
        Position.at_node(max(graph.nodes())),
        Position.on_edge(max(graph.edges()), Fraction(1, 3)),
    )
    for token in tokens:
        flat = run_esst(graph, 0, token, sim_model)
        assert flat == run_esst_reference(graph, 0, token, sim_model)
        assert flat.all_edges_traversed
