"""Render the traced run as one per-layer table per workload.

Usage::

    python3 perfbench/report.py [--workload NAME ...] [--seed N] [--seconds S]

For each workload this runs the traced measurement of ``run.py`` (passes
alternate untraced and traced) and prints, per span name: calls, work count,
inclusive and self seconds, and self time as a share of the traced pass's
wall time; then every per-layer metric the workload moves (metrics that read 0 are
omitted), ratios with their base, and ``trace.overhead_frac`` (traced pass
time against untraced).  Seconds and counts are means per traced pass.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: Ratio metrics and the counters they are taken from (numerator, denominator).
RATIO_BASES = {
    "serve.render_cache_hit_ratio": ("serve.render_cache_hits", "serve.render_cache_lookups"),
    "serve.etag_304_ratio": ("serve.not_modified", "serve.conditional"),
    "distrib.claim_useful_ratio": ("distrib.units", "distrib.claims"),
    "distrib.worker_busy_frac": ("distrib.worker_busy_s", None),
}


def render(workload: str, seed: int, result: Dict[str, Any]) -> str:
    detail = result["layers"]
    wall = detail["pass_s"]
    lines = [
        f"== {workload} (seed {seed}; traced pass {wall:.3f} s; "
        f"{result['attempted']} attempted, {result['failed']} failed) ==",
        f"{'span':<22}{'calls':>10}{'work':>12}{'incl s':>10}{'self s':>10}{'self/wall':>11}",
    ]
    rows = sorted(detail["layers"].items(), key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        lines.append(
            f"{name:<22}{row['calls']:>10.1f}{row['n']:>12.1f}{row['incl_s']:>10.4f}"
            f"{row['self_s']:>10.4f}{row['self_s'] / wall:>10.1%}"
        )
    lines.append(f"{'metric':<34}{'value':>16}  {'unit':<6} base")
    bases = detail["bases"]
    for name, unit in run.PER_LAYER.items():
        value = result["per_layer"][name]
        base = ""
        if name in RATIO_BASES:
            numerator, denominator = RATIO_BASES[name]
            if denominator is None:
                base = (f"{bases.get(numerator, 0):.3f} busy s / "
                        f"({bases.get('distrib.workers', 0):.0f} workers x {wall:.3f} s)")
            else:
                base = f"{bases.get(numerator, 0):.1f} / {bases.get(denominator, 0):.1f}"
        elif name == "trace.overhead_frac":
            base = f"traced pass {wall:.3f} s against the untraced median"
        if value or name == "trace.overhead_frac":
            lines.append(f"{name:<34}{value:>16.6g}  {unit:<6} {base}")
    return "\n".join(lines)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    for workload in args.workload or run.WORKLOADS:
        work = run.ROOT / ".perfbench" / f"report-{workload}-{os.getpid()}"
        work.mkdir(parents=True)
        os.environ["TMPDIR"] = str(work)
        try:
            result = run.measure(workload, args.seed, args.seconds, True, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(render(workload, args.seed, result))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
