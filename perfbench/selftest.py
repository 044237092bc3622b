"""Self-tests of the benchmark.  Usage: ``python3 perfbench/selftest.py``

For each workload, one short traced measurement on a held-out seed (one
untraced and one traced pass) checks that:

* every end-to-end and per-layer metric of ``BENCHMARK.json`` is emitted
  with its unit, and every name matches ``[A-Za-z0-9_.-]+``;
* the output checks ran and passed (``failed`` is 0);
* the traced and the untraced pass produced the same output digest;
* the workload keeps its intended layer split on a seed not used to tune it.

Finally the benchmark must refuse to run, with a non-zero exit and no result
line, from a directory that holds only ``BENCHMARK.json`` and this directory.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

HELD_OUT_SEED = 90210
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _share(numerator: str, denominator: str) -> Callable[[Dict[str, float]], float]:
    return lambda metrics: metrics[numerator] / metrics[denominator]


#: Intended layer split per workload: (description, value, lower, upper).
SPLITS: Dict[str, List[Any]] = {
    "paper-cold": [("cost model share of cell time", _share("cost_model.s", "runtime.run_s"), 0.5, 1.0)],
    "engine-sweep": [
        ("engine share of cell time", _share("sim.run_s", "runtime.run_s"), 0.8, 1.0),
        ("cost model share of cell time", _share("cost_model.s", "runtime.run_s"), 0.0, 0.1),
        ("fused loop ran", lambda m: m["sim.fused.decisions_per_s"], 1.0, float("inf")),
        ("generic loop ran", lambda m: m["sim.generic.decisions_per_s"], 1.0, float("inf")),
    ],
    "serve-mixed": [
        ("engine decisions", lambda m: m["sim.decisions"], 0.0, 0.0),
        ("experiment renders", lambda m: m["analysis.renders"], 1.0, float("inf")),
        ("queue units drained", lambda m: m["distrib.units"], 1.0, float("inf")),
        ("worker time inside cells", lambda m: m["distrib.worker_busy_frac"], 0.0, 0.5),
    ],
}


def check_declaration(errors: List[str]) -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {item["name"]: item["unit"] for item in declared[key]}
        if listed != table:
            errors.append(f"BENCHMARK.json {key} does not match run.py")
    for item in declared["workloads"]:
        if item["name"] not in run.WORKLOADS:
            errors.append(f"unknown workload {item['name']}")
    for name in list(run.END_TO_END) + list(run.PER_LAYER) + list(run.WORKLOADS):
        if not NAME.fullmatch(name):
            errors.append(f"bad name {name!r}")


def check_workload(workload: str, errors: List[str]) -> None:
    before = len(errors)
    work = run.ROOT / ".perfbench" / f"selftest-{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run.measure(workload, HELD_OUT_SEED, 0, True, work, min_passes=2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prefix = f"{workload}:"
    if set(result["end_to_end"]) != set(run.END_TO_END) or set(result["per_layer"]) != set(run.PER_LAYER):
        errors.append(f"{prefix} emitted metrics differ from the declared ones")
    if any(not value > 0 for value in result["end_to_end"].values()):
        errors.append(f"{prefix} an end-to-end metric is not positive: {result['end_to_end']}")
    if result["failed"] or not result["attempted"]:
        errors.append(f"{prefix} {result['failed']} of {result['attempted']} failed: {result['failures']}")
    if len(result["digests"]) != 1:
        errors.append(f"{prefix} traced and untraced outputs differ: {result['digests']}")
    for label, value_of, lower, upper in SPLITS[workload]:
        value = value_of(result["per_layer"])
        if not lower <= value <= upper:
            errors.append(f"{prefix} {label} = {value:.4g}, expected {lower}..{upper}")
    verdict = "ok" if len(errors) == before else f"{len(errors) - before} failures"
    print(f"{workload}: {result['attempted']} attempted, {result['passes']} passes, {verdict}")


def check_bare_directory(errors: List[str]) -> None:
    bare = run.ROOT / ".perfbench" / f"bare-{os.getpid()}"
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "engine-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("the benchmark ran without the program's sources")


def main() -> int:
    errors: List[str] = []
    check_declaration(errors)
    check_bare_directory(errors)
    for workload in (sys.argv[1:] or run.WORKLOADS):
        check_workload(workload, errors)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
