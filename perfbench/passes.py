"""One pass of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/passes.py WORKLOAD INPUT.json OUTPUT.json WORKDIR TRACE``

The parent (``run.py``) writes the seeded inputs, starts this program and
reads back one JSON document: when the pass was ready for its first timed
operation (``ready``, wall clock, so the parent can subtract its launch
time), the pass's wall time, per-operation latencies, failed checks, an
output digest, and with ``TRACE`` = 1 the per-layer numbers.

Only public entry points are called; with tracing on, ``spans.install``
wraps them before anything else is imported.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import spans as spans_module

#: Engine spans of ``run(spec, trace=True)`` reported as per-layer times.
ENGINE_SPANS = {
    "scheduler.decide": "sim.decide_s",
    "engine.apply": "sim.apply_s",
    "engine.apply.sweep": "sim.sweep_s",
    "engine.apply.index": "sim.index_s",
}

GOLDEN = {"E3": "e3_full.txt", "F1": "f1.txt"}


def _digest(texts: List[str]) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def dir_bytes(*roots: Path) -> int:
    return sum(
        path.stat().st_size for root in roots if root.exists() for path in root.rglob("*") if path.is_file()
    )


def _record_text(record: Any) -> str:
    from repro.runtime.spec import canonical_json

    data = record.to_dict()
    data["extra"] = {key: value for key, value in data["extra"].items() if key != "trace"}
    return canonical_json(data)


def _engine_breakdown(specs: List[Any]) -> Dict[str, float]:
    """Re-run engine cells with the engine's own tracer (after the timed
    pass) and total its decide/apply/sweep/index spans."""
    from repro.runtime import run

    totals = {name: 0.0 for name in ENGINE_SPANS.values()}
    for spec in specs:
        payload = dict(run(spec, trace=True).extra)["trace"]
        for span, metric in ENGINE_SPANS.items():
            totals[metric] += payload["spans"].get(span, {}).get("seconds", 0.0)
    return totals


# ----------------------------------------------------------------------
# paper-cold: every registered experiment into an empty store; one
# operation is one table (run, aggregate, render)
# ----------------------------------------------------------------------
def paper_cold(inputs: Dict[str, Any], work: Path, recorder: Optional[spans_module.Recorder]) -> Dict[str, Any]:
    from repro.analysis.experiment_spec import aggregate_from_store, experiment_spec, run_experiment
    from repro.store import FileStore

    store = FileStore(work / "store", create=True)
    ready = time.time()
    mark = len(recorder.spans) if recorder else 0
    latencies: List[float] = []
    renders: Dict[str, str] = {}
    records: List[Any] = []
    started = time.perf_counter()
    for name in inputs["order"]:
        begun = time.perf_counter()
        result = run_experiment(experiment_spec(name), store=store)
        renders[name] = result.render("markdown")
        latencies.append(time.perf_counter() - begun)
        records.extend(result.records)
    pass_s = time.perf_counter() - started
    store.flush()
    stop = len(recorder.spans) if recorder else 0

    failures: List[str] = []
    golden_root = Path(inputs["golden_dir"])
    for name, filename in GOLDEN.items():
        expected = (golden_root / filename).read_text(encoding="utf-8").rstrip("\n")
        if renders[name] != expected:
            failures.append(f"{name} markdown differs from {filename}")
    for name in inputs["order"]:
        if aggregate_from_store(experiment_spec(name), store).render("markdown") != renders[name]:
            failures.append(f"{name}: warm render differs from cold render")
    store.close()
    out = {
        "ready": ready,
        "pass_s": pass_s,
        "latencies": latencies,
        "ops": len(latencies),
        "failed_ops": 0,
        "checks": len(GOLDEN) + len(inputs["order"]),
        "failed_checks": len(failures),
        "failures": failures,
        "digest": _digest([renders[name] for name in sorted(renders)]),
    }
    if recorder:
        engine_cells = [record.spec for record in records if record.decisions]
        out["layers"] = spans_module.summarise(recorder.spans[mark:stop])
        out["engine"] = _engine_breakdown(engine_cells)
        out["record_bytes"] = sum(len(_record_text(record)) for record in records)
        out["store_bytes"] = dir_bytes(work / "store")
    return out


# ----------------------------------------------------------------------
# engine-sweep: executed cells, no store
# ----------------------------------------------------------------------
def engine_sweep(inputs: Dict[str, Any], work: Path, recorder: Optional[spans_module.Recorder]) -> Dict[str, Any]:
    from repro.runtime import COST_MODELS, ScenarioSpec, run

    specs = [ScenarioSpec.from_dict(cell) for cell in inputs["cells"]]
    ready = time.time()
    mark = len(recorder.spans) if recorder else 0
    latencies: List[float] = []
    records = []
    started = time.perf_counter()
    for spec in specs:
        begun = time.perf_counter()
        records.append(run(spec))
        latencies.append(time.perf_counter() - begun)
    pass_s = time.perf_counter() - started
    stop = len(recorder.spans) if recorder else 0

    failures: List[str] = []
    failed_ops = 0
    bounds: Dict[tuple, int] = {}
    model = COST_MODELS.create("simulation")
    for record in records:
        spec = record.spec
        if not record.ok:
            failed_ops += 1
            failures.append(f"cell not ok: {spec.to_dict()}")
        elif spec.problem == "rendezvous":
            key = (record.graph_size, min(label.bit_length() for label in spec.labels))
            if key not in bounds:
                bounds[key] = model.pi_bound(*key)
            if record.cost > bounds[key]:
                failed_ops += 1
                failures.append(f"rendezvous cost {record.cost} exceeds pi_bound {bounds[key]}")
    out = {
        "ready": ready,
        "pass_s": pass_s,
        "latencies": latencies,
        "ops": len(records),
        "failed_ops": failed_ops,
        "checks": 0,
        "failed_checks": 0,
        "failures": failures,
        "digest": _digest([_record_text(record) for record in records]),
    }
    if recorder:
        out["layers"] = spans_module.summarise(recorder.spans[mark:stop])
        out["engine"] = _engine_breakdown([record.spec for record in records if record.decisions])
        out["record_bytes"] = sum(len(_record_text(record)) for record in records)
    return out


# ----------------------------------------------------------------------
# queue-drain: one sweep through the queue executor and two workers (run
# after traced serve passes, for the distrib and obs layers)
# ----------------------------------------------------------------------
def queue_drain(inputs: Dict[str, Any], work: Path, recorder: Optional[spans_module.Recorder]) -> Dict[str, Any]:
    from repro.obs.events import EventJournal
    from repro.runtime import ScenarioSpec, make_executor, run_sweep
    from repro.store import FileStore

    store = FileStore(work / "store", create=True)
    specs = [ScenarioSpec.from_dict(cell) for cell in inputs["cells"]]
    queue_dir = work / "queue"
    mark = len(recorder.spans) if recorder else 0
    arrivals: List[float] = []
    submitted = time.time()
    result = run_sweep(
        specs,
        executor=make_executor(2, kind="queue", queue_dir=queue_dir),
        store=store,
        progress=lambda *_: arrivals.append(time.time()),
    )
    finished = time.time()
    stop = len(recorder.spans) if recorder else 0
    store.flush()

    events = EventJournal(queue_dir / "journal").events()
    by_type: Dict[str, List[Dict[str, Any]]] = {}
    for event in events:
        by_type.setdefault(event["type"], []).append(event)
    starts = [event["ts"] for event in by_type.get("worker.start", [])]
    ready = max(starts)
    pass_s = finished - ready

    failures: List[str] = []
    failed_ops = sum(1 for record in result.records if not record.ok)
    if failed_ops:
        failures.append(f"{failed_ops} cells not ok")
    checks_before = len(failures)
    serial = run_sweep(specs)
    if [_record_text(r) for r in result.records] != [_record_text(r) for r in serial.records]:
        failures.append("queue records differ from the serial run_sweep records")
    runs: Dict[str, int] = {}
    for event in by_type.get("cell.done", []):
        if event.get("status") == "executed":
            runs[event["key"]] = runs.get(event["key"], 0) + 1
    keys = {spec.key() for spec in specs}
    if set(runs) != keys or any(count != 1 for count in runs.values()):
        failures.append("journal does not show every cell executed exactly once")
    store.close()
    out = {
        "ready": ready,
        "pass_s": pass_s,
        "latencies": [moment - submitted for moment in arrivals],
        "ops": len(arrivals),
        "failed_ops": failed_ops,
        "checks": 2,
        "failed_checks": len(failures) - checks_before,
        "failures": failures,
        "digest": _digest([_record_text(record) for record in result.records]),
    }
    if recorder:
        dispatch = by_type["sweep.dispatch"][0]["ts"]
        claims = by_type.get("unit.claim", [])
        first_claim: Dict[str, float] = {}
        for event in claims:
            first_claim.setdefault(event["unit"], event["ts"])
        done = by_type.get("unit.done", [])
        cell_seconds = sum(e.get("seconds", 0.0) for e in by_type.get("cell.done", []) if e.get("status") == "executed")
        journal_root = queue_dir / "journal"
        out["layers"] = spans_module.summarise(recorder.spans[mark:stop])
        out["queue"] = {
            "distrib.units": len(done),
            "distrib.claims": len(claims),
            "distrib.steals": sum(1 for event in claims if event.get("kind") == "steal"),
            "distrib.queue_wait_s": sum(ts - dispatch for ts in first_claim.values()) / max(1, len(first_claim)),
            "distrib.worker_busy_s": cell_seconds,
            "distrib.drain_s": pass_s,
            "distrib.workers": len(starts),
            "distrib.worker_spawn_s": sum(starts) / len(starts) - dispatch,
            "runtime.run_s": cell_seconds,
            "obs.journal_events": len(events),
            "obs.journal_bytes": dir_bytes(journal_root),
            "obs.heartbeats": len(by_type.get("worker.heartbeat", [])),
        }
        out["record_bytes"] = sum(len(_record_text(record)) for record in result.records)
        out["store_bytes"] = dir_bytes(work / "store", queue_dir / "results")
    return out


PASSES: Dict[str, Callable[..., Dict[str, Any]]] = {
    "paper-cold": paper_cold,
    "engine-sweep": engine_sweep,
    "queue-drain": queue_drain,
}


def main(argv: List[str]) -> int:
    workload, input_path, output_path, work, trace = argv[1:6]
    recorder = None
    if trace == "1":
        recorder = spans_module.Recorder()
        spans_module.install(recorder)
    inputs = json.loads(Path(input_path).read_text(encoding="utf-8"))
    result = PASSES[workload](inputs, Path(work), recorder)
    Path(output_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
