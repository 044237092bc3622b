"""In-memory spans for the traced benchmark run.

The traced run never changes the program.  It replaces a handful of public
entry points (and the two engine loops) with wrappers that record a span
around each call: name, start, end, parent, and an id shared by the spans of
one cell, request or unit.  Spans stay in memory and are written out once,
when the process ends (:meth:`Recorder.dump`).

Only the outermost call of a name is recorded: a ``store.get`` issued inside
``store.get`` (``get_many`` loops over ``get``) is part of the outer span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional


class Recorder:
    """Thread-safe span list with a per-thread stack for parent links."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ident: Optional[str] = None) -> Optional[Dict[str, Any]]:
        stack = self._stack()
        if any(open_span["name"] == name for open_span in stack):
            return None
        parent = stack[-1] if stack else None
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": None if parent is None else parent["index"],
            "id": ident if ident is not None else (parent or {}).get("id"),
            "n": 1,
        }
        with self._lock:
            span["index"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Optional[Dict[str, Any]], n: Optional[int] = None) -> None:
        if span is None:
            return
        span["end"] = time.perf_counter()
        if n is not None:
            span["n"] = n
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def wrap(
        self,
        func: Callable[..., Any],
        name: str,
        count: Optional[Callable[[tuple, Any], int]] = None,
        on_result: Optional[Callable[[Dict[str, Any], Any], None]] = None,
        ident_prefix: Optional[str] = None,
    ) -> Callable[..., Any]:
        """``func`` recording a span ``name`` per outermost call.

        ``count(args, result)`` sets the span's work count (default 1);
        ``on_result(span, result)`` may attach further fields.  With
        ``ident_prefix`` every call opens a new id (``<prefix>-<n>``) that the
        spans it causes share; otherwise spans inherit their parent's id.
        """
        recorder = self
        numbers = itertools.count()

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ident = None if ident_prefix is None else f"{ident_prefix}-{next(numbers)}"
            span = recorder.begin(name, ident)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                recorder.end(span)
                raise
            recorder.end(span, None if count is None or span is None else count(args, result))
            if span is not None and on_result is not None:
                on_result(span, result)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        closed = [span for span in self.spans if span["end"] is not None]
        Path(path).write_text(json.dumps(closed), encoding="utf-8")


def summarise(spans: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, work count, inclusive and self seconds.

    A span's self time is its duration minus the time its child spans cover
    (children of one parent run on the parent's thread, so they do not
    overlap).  Extra numeric fields attached by ``on_result`` are summed.
    """
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "n": 0, "incl_s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["n"] += span["n"]
        row["incl_s"] += duration
        row["self_s"] += max(0.0, duration - child_time.get(span["index"], 0.0))
        for key, value in span.items():
            if key.startswith("x_"):
                row[key] = row.get(key, 0) + value
    return table


def merge_summaries(*tables: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            target = merged.setdefault(name, {})
            for key, value in row.items():
                target[key] = target.get(key, 0) + value
    return merged


# ----------------------------------------------------------------------
# instrumentation of the program's public entry points
# ----------------------------------------------------------------------
def _patch(owner: Any, attr: str, wrapper_of: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper_of(original))


class _ModelProxy:
    """A cost model whose public methods record ``cost_model`` spans.

    The proxy is what callers outside the model hold; the model's own
    recursive calls go through the real instance and stay unrecorded, so the
    span count is the number of outermost cost-model calls.
    """

    def __init__(self, model: Any, recorder: Recorder) -> None:
        self.__dict__["_model"] = model
        self.__dict__["_recorder"] = recorder

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._model, name)
        if callable(value) and not name.startswith("_"):
            value = self._recorder.wrap(value, "cost_model")
            self.__dict__[name] = value
        return value


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries of an imported ``repro`` package."""
    import importlib

    from repro.distrib.dispatcher import Dispatcher
    from repro.distrib.executor import QueueExecutor
    from repro.runtime import executors, runner
    from repro.runtime.records import RunRecord
    from repro.runtime.registry import COST_MODELS
    from repro.serve.app import ResultService
    from repro.sim.engine import AsyncEngine
    from repro.store.filestore import FileStore
    from repro.ticksim.engine import TickEngine

    # Both package __init__ files export a function under the module's name.
    experiments = importlib.import_module("repro.analysis.experiment_spec")
    spec_module = importlib.import_module("repro.runtime.spec")
    wrap = recorder.wrap
    create_model = COST_MODELS.create
    COST_MODELS.create = lambda name, *a, **k: _ModelProxy(create_model(name, *a, **k), recorder)

    run_span = wrap(runner.run, "runtime.run", ident_prefix="cell")
    runner.run = run_span
    executors.run = run_span
    runner.build_graph = wrap(runner.build_graph, "graphs.build")

    def decisions(_args: tuple, result: Any) -> int:
        return int(result.decisions)

    def mark_loop(span: Dict[str, Any], _result: Any) -> None:
        loop = "fused" if getattr(recorder._local, "fused", False) else "generic"
        recorder._local.fused = False
        span[f"x_{loop}_decisions"] = span["n"]
        span[f"x_{loop}_s"] = span["end"] - span["start"]

    _patch(AsyncEngine, "run", lambda f: wrap(f, "sim.run", decisions, mark_loop))
    fast_loop = AsyncEngine._run_fast_round_robin

    @functools.wraps(fast_loop)
    def fused(self: Any, scheduler: Any) -> Any:
        recorder._local.fused = True
        return fast_loop(self, scheduler)

    AsyncEngine._run_fast_round_robin = fused
    _patch(TickEngine, "run", lambda f: wrap(f, "ticksim.run", lambda _a, r: int(r.ticks)))

    spec_module.spec_key = wrap(spec_module.spec_key, "runtime.spec_key")
    _patch(RunRecord, "to_dict", lambda f: wrap(f, "runtime.canon"))
    for module in (spec_module, experiments):
        module.canonical_json = wrap(module.canonical_json, "runtime.canon")

    _patch(FileStore, "put", lambda f: wrap(f, "store.put"))
    _patch(FileStore, "get", lambda f: wrap(f, "store.get"))
    _patch(FileStore, "get_many", lambda f: wrap(f, "store.get", lambda _a, r: len(r)))
    _patch(FileStore, "refresh", lambda f: wrap(f, "store.refresh"))
    _patch(FileStore, "query", lambda f: wrap(f, "store.query"))

    experiments.aggregate_records = wrap(experiments.aggregate_records, "analysis.aggregate")
    _patch(experiments.ExperimentResult, "render", lambda f: wrap(f, "analysis.render"))

    _patch(Dispatcher, "dispatch", lambda f: wrap(f, "distrib.dispatch", lambda _a, r: len(r["unit_ids"])))
    collect = QueueExecutor.__dict__["_collect"].__func__
    QueueExecutor._collect = staticmethod(wrap(collect, "distrib.collect", lambda _a, r: len(r), ident_prefix="unit"))
    _patch(QueueExecutor, "_spawn_workers", lambda f: wrap(f, "distrib.spawn", lambda _a, r: len(r)))
    _patch(ResultService, "handle", lambda f: wrap(f, "serve.handle", ident_prefix="request"))
