"""The repository's benchmark: three seeded workloads, end to end and per layer.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer metrics, from spans recorded by
this directory's wrappers around the program's public entry points.  The
line before it (``# env …``) stamps the interpreter, ``nproc``, platform
and a calibration score.

A run repeats *passes* of its workload until ``--seconds`` are used (at
least three).  Each pass starts fresh interpreters, so every pass pays and
measures its own set-up.  All files go to ``.perfbench/`` in the checkout
and are removed at exit.  See ``NOTES.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import passes  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.GENERATORS)
MIN_PASSES = 3
CHILD_TIMEOUT = 120.0
SERVE_ROUTES = ("experiment", "runs", "run", "metrics", "sweep_submit", "healthz")

#: End-to-end metrics (tracing off), in ``BENCHMARK.json`` order.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): seconds and counts are per traced pass.
PER_LAYER = {
    "cost_model.s": "s",
    "cost_model.calls": "count",
    "sim.run_s": "s",
    "sim.decisions": "count",
    "sim.fused.decisions_per_s": "1/s",
    "sim.generic.decisions_per_s": "1/s",
    "sim.decide_s": "s",
    "sim.apply_s": "s",
    "sim.sweep_s": "s",
    "sim.index_s": "s",
    "ticksim.run_s": "s",
    "ticksim.ticks": "count",
    "graphs.build_s": "s",
    "runtime.run_s": "s",
    "runtime.self_s": "s",
    "runtime.canon_s": "s",
    "runtime.record_bytes": "bytes",
    "runtime.spec_key_s": "s",
    "store.put_s": "s",
    "store.puts": "count",
    "store.bytes_written": "bytes",
    "store.get_s": "s",
    "store.gets": "count",
    "store.refresh_s": "s",
    "store.query_s": "s",
    "analysis.aggregate_s": "s",
    "analysis.render_s": "s",
    "analysis.renders": "count",
    **{f"serve.handle_s.{route}": "s" for route in SERVE_ROUTES},
    **{f"serve.requests.{route}": "count" for route in SERVE_ROUTES},
    "serve.socket_s": "s",
    "serve.render_cache_hit_ratio": "ratio",
    "serve.etag_304_ratio": "ratio",
    "distrib.dispatch_s": "s",
    "distrib.units": "count",
    "distrib.claim_useful_ratio": "ratio",
    "distrib.steals": "count",
    "distrib.queue_wait_s": "s",
    "distrib.worker_busy_frac": "ratio",
    "distrib.worker_spawn_s": "s",
    "distrib.collect_s": "s",
    "obs.journal_events": "count",
    "obs.journal_bytes": "bytes",
    "obs.heartbeats": "count",
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
}


def child_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["TMPDIR"] = str(work)
    # The program is measured in its default configuration: metrics off.
    env.pop("REPRO_METRICS", None)
    return env


def calibration_score() -> float:
    """Millions of iterations per second of a fixed pure-Python loop, so
    numbers from two machines can be put on one scale."""
    best = 0.0
    for _ in range(5):
        started = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for index in range(300_000):
            total += (index * 7) % 13
            table[index & 1023] = total
        best = max(best, 0.3 / (time.perf_counter() - started))
    return best


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "calibration_mops": round(calibration_score(), 3),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# passes in fresh interpreters
# ----------------------------------------------------------------------
def child_pass(workload: str, inputs: Dict[str, Any], work: Path, index: int, traced: bool) -> Dict[str, Any]:
    pass_dir = work / f"pass-{index}"
    pass_dir.mkdir()
    input_path, output_path = pass_dir / "input.json", pass_dir / "output.json"
    input_path.write_text(json.dumps(inputs), encoding="utf-8")
    argv = [sys.executable, str(HERE / "passes.py"), workload, str(input_path),
            str(output_path), str(pass_dir), "1" if traced else "0"]
    launched = time.time()
    proc = subprocess.Popen(argv, cwd=pass_dir, env=child_env(work), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    try:
        log, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass failed:\n{log.decode(errors='replace')[-2000:]}")
    result = json.loads(output_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - launched
    shutil.rmtree(pass_dir, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# serve-mixed: a real server, one closed-loop keep-alive client
# ----------------------------------------------------------------------
class ServeSetup:
    """The store every serve pass starts from, its offline renders, and the
    precomputed records the client appends."""

    def __init__(self, inputs: Dict[str, Any], work: Path) -> None:
        from repro.analysis.experiment_spec import aggregate_from_store, experiment_spec, run_experiment
        from repro.runtime import ScenarioSpec, run
        from repro.store import FileStore

        self.base = work / "serve-base"
        with FileStore(self.base, create=True) as store:
            for name in workloads.SERVE_EXPERIMENTS:
                run_experiment(experiment_spec(name), store=store)
            self.renders = {
                (name, fmt): (aggregate_from_store(experiment_spec(name), store).render(fmt) + "\n").encode()
                for name in workloads.SERVE_EXPERIMENTS
                for fmt in workloads.SERVE_FORMATS
            }
            self.keys = sorted(store.keys())
        self.writes = [run(ScenarioSpec.from_dict(cell)) for cell in inputs["writes"]]
        self.plan = inputs["plan"]
        self.queue_probe = inputs["queue_probe"]


def _start_server(store: Path, queue: Path, work: Path, spans_path: Optional[Path]) -> Tuple[subprocess.Popen, int, float]:
    serve_args = ["serve", "--store", str(store), "--queue", str(queue), "--port", "0"]
    if spans_path is None:
        argv = [sys.executable, "-m", "repro"] + serve_args
    else:
        argv = [sys.executable, str(HERE / "serve_launcher.py"), str(spans_path)] + serve_args
    launched = time.time()
    # SIGINT stops the server cleanly; a shell may have started us with it
    # ignored, which the server would inherit.
    proc = subprocess.Popen(argv, cwd=work, env=child_env(work), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT,
                            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    line = proc.stdout.readline().decode()
    match = re.search(r"http://[^:/]+:(\d+)/", line)
    if match is None:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"repro serve did not start: {line!r}")
    port = int(match.group(1))
    deadline = time.monotonic() + 30
    while True:
        try:
            probe = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            probe.request("GET", "/healthz")
            if probe.getresponse().status == 200:
                probe.close()
                return proc, port, time.time() - launched
        except OSError:
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise
            time.sleep(0.005)


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _prom_samples(text: str, metric: str) -> Dict[str, float]:
    samples = {}
    for match in re.finditer(rf'^{metric}\{{route="([^"]+)"\}} (\S+)$', text, re.MULTILINE):
        samples[match.group(1)] = float(match.group(2))
    return samples


def serve_pass(setup: ServeSetup, work: Path, index: int, traced: bool) -> Dict[str, Any]:
    from repro.store import FileStore

    pass_dir = work / f"pass-{index}"
    store_dir, queue_dir = pass_dir / "store", pass_dir / "queue"
    shutil.copytree(setup.base, store_dir)
    spans_path = pass_dir / "spans.json" if traced else None
    proc, port, setup_s = _start_server(store_dir, queue_dir, pass_dir, spans_path)
    latencies: List[float] = []
    failures: List[str] = []
    bodies = hashlib.sha256()
    etags: Dict[str, Tuple[str, int]] = {}
    epoch = 0
    conditional = not_modified = 0
    writes = iter(setup.writes)
    put_s = 0.0
    puts = 0
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        writer = FileStore(store_dir, writer="bench-client")
        started = time.perf_counter()
        for request in setup.plan:
            if request["kind"] == "write":
                begun = time.perf_counter()
                for _ in range(workloads.SERVE_WRITE_BATCH):
                    writer.put(next(writes))
                    puts += 1
                writer.flush()
                put_s += time.perf_counter() - begun
                epoch += 1
                continue
            method, path, body, headers = "GET", "", None, {}
            kind = request["kind"]
            expect = 200
            if kind == "experiment":
                path = f"/experiments/{request['name']}?format={request['format']}"
                known = etags.get(request["name"])
                if request["conditional"] and known is not None:
                    headers["If-None-Match"] = known[0]
                    conditional += 1
                    expect = 304 if known[1] == epoch else 200
            elif kind == "runs":
                path = f"/runs?limit={request['limit']}&offset={request['page'] * request['limit']}"
                if request["problem"]:
                    path += f"&problem={request['problem']}"
            elif kind == "run":
                path = f"/runs/{setup.keys[int(request['pick'] * len(setup.keys))]}"
            elif kind == "metrics":
                path = "/metrics"
            else:
                method, path, expect = "POST", "/sweeps", 202
                body = json.dumps({"sweep": request["sweep"]}).encode()
                headers["Content-Type"] = "application/json"
            begun = time.perf_counter()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            latencies.append(time.perf_counter() - begun)
            problem = _check_response(setup, request, response, payload, expect, path)
            if problem:
                failures.append(problem)
            if kind == "experiment":
                bodies.update(b"%d %s\0" % (response.status, payload))
                not_modified += response.status == 304
                etags[request["name"]] = (response.getheader("ETag"), epoch)
        pass_s = time.perf_counter() - started
        writer.close()
        conn.request("GET", "/metrics?format=prom")
        prom = conn.getresponse().read().decode()
        conn.request("GET", "/metrics")
        counters = json.loads(conn.getresponse().read())
        conn.close()
    finally:
        _stop_server(proc)
    out = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "latencies": latencies,
        "ops": len(latencies),
        "failed_ops": len(failures),
        "checks": 0,
        "failed_checks": 0,
        "failures": failures,
        "digest": bodies.hexdigest(),
    }
    if traced:
        handle_s = _prom_samples(prom, "serve_http_request_seconds_sum")
        requests = _prom_samples(prom, "serve_http_requests_total")
        lookups = counters["render_cache_hits"] + counters["render_cache_misses"]
        out["layers"] = passes.spans_module.summarise(json.loads(spans_path.read_text(encoding="utf-8")))
        out["serve"] = {
            **{f"serve.handle_s.{route}": handle_s.get(route, 0.0) for route in SERVE_ROUTES},
            **{f"serve.requests.{route}": requests.get(route, 0.0) for route in SERVE_ROUTES},
            # Handle time of the requests the client timed (the final
            # scrapes are not in the client's latencies).
            "serve.socket_s": sum(latencies) - (sum(handle_s.values()) - handle_s.get("healthz", 0.0)),
            "serve.render_cache_hits": counters["render_cache_hits"],
            "serve.render_cache_lookups": lookups,
            "serve.not_modified": not_modified,
            "serve.conditional": conditional,
            "store.put_s": put_s,
            "store.puts": puts,
        }
        out["store_bytes"] = passes.dir_bytes(store_dir) - passes.dir_bytes(setup.base)
        _add_queue_probe(out, setup, work, index)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return out


def _add_queue_probe(out: Dict[str, Any], setup: ServeSetup, work: Path, index: int) -> None:
    """Drain a small seeded sweep through the queue executor and two workers
    after a traced serve pass, for the ``distrib`` and ``obs`` layers.

    The drain is traced and checked but not timed end to end: its wall time
    swung by 20 % from run to run with the shared disk's I/O stalls (the
    queue lives on files), so no end-to-end metric could rest on it."""
    probe = child_pass("queue-drain", setup.queue_probe, work, f"{index}-queue", True)
    for key in ("ops", "checks", "failed_ops", "failed_checks"):
        out[key] += probe[key]
    out["failures"] += probe["failures"]
    out["layers"] = passes.spans_module.merge_summaries(out["layers"], probe["layers"])
    out["queue"] = probe["queue"]
    out["record_bytes"] = probe["record_bytes"]
    out["store_bytes"] += probe["store_bytes"]


def _check_response(setup: ServeSetup, request: Dict[str, Any], response: Any, payload: bytes,
                    expect: int, path: str) -> Optional[str]:
    if response.status != expect:
        return f"{path}: status {response.status}, expected {expect}"
    kind = request["kind"]
    if kind == "experiment":
        if response.status == 304:
            return f"{path}: 304 with a body" if payload else None
        if payload != setup.renders[(request["name"], request["format"])]:
            return f"{path}: body differs from the offline render"
        return None
    document = json.loads(payload)
    if kind == "runs" and not len(document["runs"]) <= request["limit"]:
        return f"{path}: page larger than its limit"
    if kind == "run" and document["key"] != path.rsplit("/", 1)[1]:
        return f"{path}: wrong record"
    if kind == "sweep" and "job" not in document:
        return f"{path}: no job id"
    return None


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def _import_seconds(work: Path) -> float:
    """Median time for a fresh interpreter to ``import repro.cli``."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=work, env=child_env(work), check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            min_passes: int = MIN_PASSES) -> Dict[str, Any]:
    """Run the workload's passes and return the result with details."""
    inputs = workloads.GENERATORS[workload](seed)
    if workload == "paper-cold":
        inputs["golden_dir"] = str(ROOT / "tests" / "golden")
    if workload == "serve-mixed":
        inputs["queue_probe"] = workloads.queue_drain(seed)
    setup = ServeSetup(inputs, work) if workload == "serve-mixed" else None
    deadline = time.monotonic() + seconds
    passes: List[Dict[str, Any]] = []
    walls: List[float] = []
    while len(passes) < min_passes or time.monotonic() + statistics.mean(walls) <= deadline:
        traced = trace and len(passes) % 2 == 1
        begun = time.monotonic()
        if setup is not None:
            passes.append(serve_pass(setup, work, len(passes), traced))
        else:
            passes.append(child_pass(workload, inputs, work, len(passes), traced))
        passes[-1]["traced"] = traced
        walls.append(time.monotonic() - begun)

    plain = [p for p in passes if not p["traced"]]
    latencies = [value for p in plain for value in p["latencies"]]
    attempted = sum(p["ops"] + p["checks"] for p in passes)
    failed = sum(p["failed_ops"] + p["failed_checks"] for p in passes)
    end_to_end = {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "pass_s": statistics.median(p["pass_s"] for p in plain),
        "ops_per_s": statistics.median(p["ops"] / p["pass_s"] for p in plain),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p95_ms": 1000 * statistics.quantiles(latencies, n=20, method="inclusive")[-1],
        "peak_rss_mb": peak_rss_mb(),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "failures": [message for p in passes for message in p["failures"]][:20],
        "digests": sorted({p["digest"] for p in passes if "digest" in p}),
        "passes": len(passes),
        "samples": len(latencies),
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        result["per_layer"], result["layers"] = per_layer(traced, plain, work)
    return result


def per_layer(traced: List[Dict[str, Any]], plain: List[Dict[str, Any]], work: Path) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics (means per traced pass) and the merged span table."""
    count = len(traced)
    layers = passes.spans_module.merge_summaries(*(p.get("layers", {}) for p in traced))
    extra: Dict[str, float] = {}
    for p in traced:
        for source in ("engine", "queue", "serve"):
            for key, value in p.get(source, {}).items():
                extra[key] = extra.get(key, 0.0) + value
        for key in ("record_bytes", "store_bytes"):
            extra[key] = extra.get(key, 0.0) + p.get(key, 0)

    def span(name: str, field: str = "incl_s") -> float:
        return layers.get(name, {}).get(field, 0.0) / count

    def rate(decisions: str, seconds: str) -> float:
        spent = layers.get("sim.run", {}).get(seconds, 0.0)
        return layers.get("sim.run", {}).get(decisions, 0.0) / spent if spent else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    means = {key: value / count for key, value in extra.items()}
    traced_pass_s = sum(p["pass_s"] for p in traced) / count
    metrics = {
        "cost_model.s": span("cost_model"),
        "cost_model.calls": span("cost_model", "calls"),
        "sim.run_s": span("sim.run"),
        "sim.decisions": span("sim.run", "n"),
        "sim.fused.decisions_per_s": rate("x_fused_decisions", "x_fused_s"),
        "sim.generic.decisions_per_s": rate("x_generic_decisions", "x_generic_s"),
        **{name: means.get(name, 0.0) for name in ("sim.decide_s", "sim.apply_s", "sim.sweep_s", "sim.index_s")},
        "ticksim.run_s": span("ticksim.run"),
        "ticksim.ticks": span("ticksim.run", "n"),
        "graphs.build_s": span("graphs.build"),
        "runtime.run_s": span("runtime.run") or means.get("runtime.run_s", 0.0),
        "runtime.self_s": span("runtime.run", "self_s"),
        "runtime.canon_s": span("runtime.canon"),
        "runtime.record_bytes": means.get("record_bytes", 0.0),
        "runtime.spec_key_s": span("runtime.spec_key"),
        "store.put_s": span("store.put") + means.get("store.put_s", 0.0),
        "store.puts": span("store.put", "calls") + means.get("store.puts", 0.0),
        "store.bytes_written": means.get("store_bytes", 0.0),
        "store.get_s": span("store.get"),
        "store.gets": span("store.get", "n"),
        "store.refresh_s": span("store.refresh"),
        "store.query_s": span("store.query"),
        "analysis.aggregate_s": span("analysis.aggregate"),
        "analysis.render_s": span("analysis.render"),
        "analysis.renders": span("analysis.render", "calls"),
        **{f"serve.handle_s.{route}": means.get(f"serve.handle_s.{route}", 0.0) for route in SERVE_ROUTES},
        **{f"serve.requests.{route}": means.get(f"serve.requests.{route}", 0.0) for route in SERVE_ROUTES},
        "serve.socket_s": means.get("serve.socket_s", 0.0),
        "serve.render_cache_hit_ratio": ratio(extra.get("serve.render_cache_hits", 0), extra.get("serve.render_cache_lookups", 0)),
        "serve.etag_304_ratio": ratio(extra.get("serve.not_modified", 0), extra.get("serve.conditional", 0)),
        "distrib.dispatch_s": span("distrib.dispatch"),
        "distrib.units": means.get("distrib.units", 0.0),
        "distrib.claim_useful_ratio": ratio(extra.get("distrib.units", 0), extra.get("distrib.claims", 0)),
        "distrib.steals": means.get("distrib.steals", 0.0),
        "distrib.queue_wait_s": means.get("distrib.queue_wait_s", 0.0),
        "distrib.worker_busy_frac": ratio(means.get("distrib.worker_busy_s", 0.0),
                                          means.get("distrib.workers", 0.0) * means.get("distrib.drain_s", 0.0)),
        "distrib.worker_spawn_s": means.get("distrib.worker_spawn_s", 0.0),
        "distrib.collect_s": span("distrib.collect"),
        "obs.journal_events": means.get("obs.journal_events", 0.0),
        "obs.journal_bytes": means.get("obs.journal_bytes", 0.0),
        "obs.heartbeats": means.get("obs.heartbeats", 0.0),
        "cli.import_s": _import_seconds(work),
        "trace.overhead_frac": traced_pass_s / statistics.median(p["pass_s"] for p in plain) - 1.0,
    }
    detail = {"layers": {name: {k: v / count for k, v in row.items()} for name, row in layers.items()},
              "pass_s": traced_pass_s, "bases": {k: v / count for k, v in extra.items()}}
    return metrics, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    try:
        env = environment()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in result["failures"]:
        print(f"# failed: {message}", file=sys.stderr)
    table, units = (result["per_layer"], PER_LAYER) if args.trace else (result["end_to_end"], END_TO_END)
    env.update(passes=result["passes"], samples=result["samples"])
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": table[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
