"""Seeded inputs of the three workloads and of the queue drain.

Every input comes from ``random.Random(seed)`` and nothing else, so the same
seed always gives the same inputs.  Runs made with different seeds are
compared with each other, so a seed may change what is computed but not how
much: cell shapes whose cost depends on the draw (team runs under the random
adversary on most families, avoider placements that stall) are kept out,
and where a draw would change the cost the seed draws a balanced assignment
or nothing at all.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

#: Experiments of ``paper-cold``.  ``bounds`` is registered too but names the
#: same cells as E3, so it would only measure a warm store.
PAPER_EXPERIMENTS = ("F1", "E1", "E2", "E3", "E4", "E5", "E6", "T1", "T2", "T3")

#: Team shapes whose decision count does not depend on the spec seed under
#: round_robin, lazy and delay_until_stop.
TEAM_SHAPES = (
    ("ring", 5, 2),
    ("path", 5, 3),
    ("star", 5, 2),
    ("binary_tree", 6, 3),
    ("lollipop", 7, 4),
    ("complete", 6, 4),
)

#: Team shapes on which the random adversary's seed changes neither the
#: decision count (97,283 on every seed tried) nor peak memory.  Most shapes
#: vary tenfold with it; a complete graph of 5 with 3 agents varied by 4 %
#: in decisions but moved peak memory between 75 and 93 MB.
RANDOM_TEAM_SHAPES = (("lollipop", 6, 2),)

#: ESST cells on graphs that do not depend on the seed.
ESST_SHAPES = tuple(
    (family, size)
    for family in ("ring", "oriented_ring", "path", "star", "complete", "binary_tree", "hypercube", "lollipop")
    for size in (8, 10, 12)
)

#: Avoider rendezvous cells known to meet quickly.  The adversary can stall
#: other placements up to the traversal budget (a path of 10 with labels
#: 21 and 9 at its two ends takes 2M traversals), so they are not drawn.
AVOIDER_SHAPES = tuple(
    (family, size, labels)
    for family in ("ring", "star", "binary_tree", "lollipop")
    for size, labels in ((8, (5, 12)), (10, (21, 9)), (12, (3, 40)))
)

#: Experiments the serve workload reads: every cell is stored during set-up
#: (E3 and E6 are left out only because filling them takes seconds).
SERVE_EXPERIMENTS = ("F1", "E1", "E2", "E4", "E5", "T1", "T2", "T3")
SERVE_FORMATS = ("markdown", "csv", "json")

#: One serve pass is this many epochs of twenty requests; a batch of
#: precomputed records is appended between epochs, which moves the store
#: generation, so the next reads miss the render cache.
SERVE_EPOCHS = 5
SERVE_WRITE_BATCH = 4


def _spec(**fields: Any) -> Dict[str, Any]:
    return {key: value for key, value in fields.items() if value is not None}


def paper_cold(seed: int) -> Dict[str, Any]:
    """The paper's experiments in registry order, whatever the seed.

    The experiments are fixed by the paper, so there is nothing to draw; a
    seeded order was tried and made the first experiment absorb the lazy
    imports and first-use costs, moving the median table time by 20 %."""
    del seed
    return {"order": list(PAPER_EXPERIMENTS)}


def engine_sweep(seed: int) -> Dict[str, Any]:
    """A fixed catalogue of cell shapes in a fixed order, so every seed costs
    the same; the seed draws the random adversary's seeds.

    Nothing else is drawn.  ESST cells keep caches, so peak memory depends
    on their order (66 to 95 MB over three orders); which team shapes ran
    under lazy and which under delay_until_stop moved peak memory between
    69 and 97 MB and the pass time by 12 %, and so did the spec seeds of the
    other cells (70 or 96 MB)."""
    rng = random.Random(seed)
    cells: List[Dict[str, Any]] = []
    half = len(TEAM_SHAPES) // 2
    for index, (family, size, team) in enumerate(TEAM_SHAPES):
        for scheduler in ("round_robin", "lazy" if index < half else "delay_until_stop"):
            cells.append(_spec(problem="teams", family=family, size=size, team_size=team, scheduler=scheduler))
    for family, size, team in RANDOM_TEAM_SHAPES:
        cells.append(_spec(problem="teams", family=family, size=size, team_size=team, scheduler="random",
                           seed=rng.randrange(1 << 16)))
    for family, size in ESST_SHAPES:
        cells.append(_spec(problem="esst", family=family, size=size))
    for family, size, labels in AVOIDER_SHAPES:
        cells.append(_spec(problem="rendezvous", family=family, size=size, labels=list(labels),
                           starts=[0, size - 1], scheduler="avoider"))
    return {"cells": cells}


def queue_drain(seed: int) -> Dict[str, Any]:
    """Forty small cells for one queue drain (ten units of four): tick
    problems, small rendezvous and ESST runs, in seeded order.  Drained
    after traced serve passes; see ``run._add_queue_probe``."""
    rng = random.Random(seed)
    cells: List[Dict[str, Any]] = []
    for _ in range(16):
        kind = rng.choice(("tick_leader", "tick_gossip", "tick_gathering"))
        params = {"interleaving": rng.choice(("synchronous", "round_robin", "random")),
                  "max_ticks": 400}
        team = None
        if kind == "tick_gossip":
            params["drop_rate"] = 0.0
        else:
            params.update(crash_window=8, fault_rate=0.0)
        if kind == "tick_gathering":
            params.update(crash_window=50, max_ticks=2000)
            team = rng.randrange(2, 4)
        cells.append(
            _spec(problem=kind, family=rng.choice(("ring", "path", "erdos_renyi", "star")),
                  size=rng.randrange(4, 9), team_size=team, problem_params=params,
                  seed=rng.randrange(1 << 16))
        )
    for _ in range(16):
        size = rng.randrange(4, 9)
        cells.append(
            _spec(problem="rendezvous", family=rng.choice(("ring", "path", "erdos_renyi", "random_tree")),
                  size=size, labels=rng.sample(range(1, 32), 2),
                  scheduler=rng.choice(("round_robin", "random", "avoider")),
                  seed=rng.randrange(1 << 16))
        )
    for _ in range(8):
        cells.append(
            _spec(problem="esst", family=rng.choice(("ring", "erdos_renyi", "random_tree")),
                  size=rng.randrange(4, 9), seed=rng.randrange(1 << 16))
        )
    rng.shuffle(cells)
    return {"cells": cells}


def serve_mixed(seed: int) -> Dict[str, Any]:
    """The request plan of one serve pass, plus the records it writes.

    Each epoch of twenty requests: E2 in all three formats (each a
    re-render that computes guaranteed bounds with the cost model), four
    reads of other experiments, two repeats of earlier reads of the epoch
    (render-cache hits, or 304s when conditional), four run pages, four run
    records, two metrics scrapes and one posted sweep.  Five of the nine
    experiment reads are conditional.  Counts are fixed and draws balanced,
    so seeds differ in order, formats and records read, not in cost.

    E2's re-renders are 15 % of the requests, which puts the 95th percentile
    in the densest part of their latency (about 96 to 100 ms here): at 4 or
    10 % it fell on the edge between two kinds of request and jumped by 15 %
    with the draw.
    """
    rng = random.Random(seed)
    others = [(name, fmt) for name in SERVE_EXPERIMENTS if name != "E2" for fmt in SERVE_FORMATS]
    others = rng.sample(others, 4 * SERVE_EPOCHS)
    pages = [(problem, page) for problem in (None, "rendezvous", "tick", "esst")
             for page in range(SERVE_EPOCHS)]
    rng.shuffle(pages)
    plan: List[Dict[str, Any]] = []
    for epoch in range(SERVE_EPOCHS):
        if epoch:
            plan.append({"kind": "write"})
        reads = [("E2", fmt) for fmt in SERVE_FORMATS] + [others.pop() for _ in range(4)]
        reads = [{"kind": "experiment", "name": name, "format": fmt} for name, fmt in reads]
        repeats = [dict(read) for read in rng.sample(reads[3:], 2)]
        # The ETag names the experiment and the store generation, not the
        # format: only E2's first read of an epoch may be conditional (its
        # ETag is stale, so it re-renders), or E2 would answer 304 instead
        # of re-rendering a draw-dependent number of times.
        flags = [True] * 4 + [False] * 2
        rng.shuffle(flags)
        for read, flag in zip(reads[3:] + repeats, flags):
            read["conditional"] = flag
        epoch_plan = reads + [
            {"kind": "runs", "limit": 20, "page": page, "problem": problem}
            for problem, page in (pages.pop() for _ in range(4))
        ]
        epoch_plan += [{"kind": "run", "pick": rng.random()} for _ in range(4)]
        epoch_plan += [{"kind": "metrics"} for _ in range(2)]
        epoch_plan.append({"kind": "sweep", "sweep": {
            "problems": ["rendezvous"], "families": [rng.choice(("ring", "path"))],
            "sizes": sorted(rng.sample(range(4, 12), 2)),
            "schedulers": ["round_robin"], "seeds": [rng.randrange(1 << 16)]}})
        rng.shuffle(epoch_plan)
        for repeat in repeats:
            first = next(i for i, item in enumerate(epoch_plan)
                         if item.get("name") == repeat["name"] and item.get("format") == repeat["format"])
            epoch_plan.insert(rng.randrange(first + 1, len(epoch_plan) + 1), repeat)
        e2_reads = [item for item in epoch_plan if item.get("name") == "E2"]
        for index, read in enumerate(e2_reads):
            read["conditional"] = index == 0
        plan += epoch_plan
    # Rendezvous cells outside every served experiment: appending them moves
    # the store generation without changing any rendered table.
    writes = [
        _spec(problem="rendezvous", family=rng.choice(("ring", "path", "star")), size=rng.randrange(6, 13),
              labels=rng.sample(range(1, 64), 2), scheduler="random", seed=rng.randrange(1 << 20))
        for _ in range(SERVE_WRITE_BATCH * (SERVE_EPOCHS - 1))
    ]
    return {"plan": plan, "writes": writes}


GENERATORS = {
    "paper-cold": paper_cold,
    "engine-sweep": engine_sweep,
    "serve-mixed": serve_mixed,
}
