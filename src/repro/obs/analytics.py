"""Reading traces: one run's profile, and analytics across many runs.

The run tracer persists one ``RunTrace`` payload per traced run inside
``RunRecord.extra["trace"]``; this module is the one layer that reads them.
Three views:

* :func:`format_profile` — one run's spans as a profile table attributing
  wall time relative to a root span (the ``repro run --profile`` table);
* :func:`trace_top` — which spans dominate wall time across a whole store
  (the ``repro trace top`` table);
* :func:`trace_diff` — attribute the wall-time delta between two runs to
  named spans (the ``repro trace diff`` table), so a perfgate regression
  points at ``engine.apply.sweep``, not just at a number.

All three rest on one span tree: the known hierarchy below, extended by the
dotted span-name convention.  :func:`span_components` partitions the root
span's seconds exactly — every leaf span contributes its own time and every
internal span contributes a ``(self)`` residual — so summing component
deltas reproduces the total delta and attribution is complete by
construction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..tables import format_table

__all__ = [
    "trace_of",
    "load_traces",
    "span_parent",
    "span_components",
    "engine_coverage",
    "format_profile",
    "trace_diff",
    "format_trace_diff",
    "trace_top",
    "format_trace_top",
]

#: Default root span: the whole scenario.
ROOT_SPAN = "run"

#: Spans that partition the engine loop (children of ``engine.run``).
ENGINE_CHILD_SPANS = (
    "engine.bootstrap",
    "scheduler.decide",
    "engine.apply",
    "engine.check_termination",
)

#: Spans that break down ``engine.apply``: the sweep over the traversed
#: edge's occupants versus the neighbor-index/lattice maintenance.  Whatever
#: apply time neither covers (action dispatch, program driving) is the
#: ``engine.apply (self)`` component.
APPLY_CHILD_SPANS = (
    "engine.apply.sweep",
    "engine.apply.index",
)

#: Explicit parent edges of the known span hierarchy; unknown dotted names
#: fall back to their longest dot-prefix ancestor present in the trace.
SPAN_PARENTS: Dict[str, str] = {
    "engine.run": ROOT_SPAN,
    **{name: "engine.run" for name in ENGINE_CHILD_SPANS},
    **{name: "engine.apply" for name in APPLY_CHILD_SPANS},
}


def trace_of(record: Any) -> Optional[Dict[str, Any]]:
    """The trace payload of a record, or ``None`` for untraced runs."""
    trace = record.extra_dict.get("trace")
    return trace if isinstance(trace, Mapping) else None


def load_traces(store: Any, keys: Optional[Sequence[str]] = None) -> List[Tuple[str, Any, Dict[str, Any]]]:
    """``(key, record, trace)`` for every traced record of ``store``.

    ``keys=None`` scans the whole store; untraced records are skipped (a
    store typically mixes traced and untraced sweeps).
    """
    out: List[Tuple[str, Any, Dict[str, Any]]] = []
    for key in store.keys() if keys is None else keys:
        record = store.get(key)
        if record is None:
            continue
        trace = trace_of(record)
        if trace is not None:
            out.append((key, record, trace))
    return out


# ----------------------------------------------------------------------
# the span tree
# ----------------------------------------------------------------------
def span_parent(name: str, present: Iterable[str], root: str = ROOT_SPAN) -> Optional[str]:
    """The parent of span ``name`` within the spans ``present``.

    Explicit hierarchy first, then the dotted convention (the longest
    present proper dot-prefix), then the root for any other non-root span.
    Returns ``None`` for the root itself (or when the root is absent).
    """
    if name == root:
        return None
    names = set(present)
    explicit = SPAN_PARENTS.get(name)
    if explicit is not None and explicit in names:
        return explicit
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in names and prefix != name:
            return prefix
    return root if root in names else None


def span_components(trace: Mapping[str, Any], root: str = ROOT_SPAN) -> Dict[str, float]:
    """Partition the root span's seconds across leaf spans and residuals.

    Every span reachable from ``root`` contributes: leaves their own
    seconds, internal spans a ``"<name> (self)"`` residual (their seconds
    minus their children's, clamped at zero so measurement jitter never
    produces negative components).  When the trace has no ``root`` span the
    top-level spans are treated as a forest under a virtual root.
    """
    spans = {
        name: float(span.get("seconds", 0.0))
        for name, span in trace.get("spans", {}).items()
    }
    if not spans:
        return {}
    children: Dict[Optional[str], List[str]] = {}
    for name in spans:
        children.setdefault(span_parent(name, spans, root), []).append(name)

    components: Dict[str, float] = {}

    def visit(name: str) -> None:
        kids = children.get(name, [])
        if not kids:
            components[name] = spans[name]
            return
        for kid in kids:
            visit(kid)
        residual = spans[name] - sum(spans[kid] for kid in kids)
        components[f"{name} (self)"] = max(0.0, residual)

    if root in spans:
        visit(root)
    else:
        for top in children.get(None, []) + children.get(root, []):
            visit(top)
    return components


def _root_seconds(trace: Mapping[str, Any], root: str) -> float:
    spans = trace.get("spans", {})
    if root in spans:
        return float(spans[root].get("seconds", 0.0))
    return sum(float(span.get("seconds", 0.0)) for span in spans.values())


# ----------------------------------------------------------------------
# one run's profile
# ----------------------------------------------------------------------
def engine_coverage(trace: Mapping[str, Any]) -> Optional[float]:
    """Fraction of ``engine.run`` wall time attributed to its child spans.

    ``None`` when the trace holds no engine span (e.g. an ESST run, which is
    adversary-free and never enters the engine).
    """
    spans = trace.get("spans", {})
    total = spans.get("engine.run", {}).get("seconds", 0.0)
    if not total:
        return None
    attributed = sum(
        spans.get(name, {}).get("seconds", 0.0) for name in ENGINE_CHILD_SPANS
    )
    return attributed / total


def format_profile(trace: Mapping[str, Any], root: str = ROOT_SPAN) -> str:
    """Aligned profile table: span, calls, seconds, % of the root span.

    ``root`` is ``run`` (the whole scenario) by default, or ``engine.run``
    to profile just the engine loop.  Spans nest, so percentages of non-root
    spans may sum near 100% *within* their parent while the parent itself
    also appears.  Spans are sorted by accumulated seconds, descending; the
    root span leads.  The engine coverage and the ``engine.apply`` breakdown
    (its sweep, index and ``(self)`` components) follow, then a counters
    section with the deterministic tallies (decisions, agents scanned,
    ``Fraction`` ops), since a profile without the work counts behind the
    times only tells half the story.
    """
    spans = trace.get("spans", {})
    total = spans.get(root, {}).get("seconds", 0.0)
    if not total:
        # Fall back to the largest span so the table degrades gracefully.
        total = max((span.get("seconds", 0.0) for span in spans.values()), default=0.0)

    ordered = sorted(
        spans.items(),
        key=lambda item: (item[0] != root, -item[1].get("seconds", 0.0), item[0]),
    )
    rows = []
    for name, span in ordered:
        seconds = span.get("seconds", 0.0)
        share = f"{100.0 * seconds / total:5.1f}%" if total else "    -"
        rows.append((name, str(int(span.get("count", 0))), f"{seconds:.6f}", share))
    lines = [format_table(("span", "calls", "seconds", f"% of {root}"), rows)]

    coverage = engine_coverage(trace)
    if coverage is not None:
        lines.append("")
        lines.append(
            f"engine coverage: {100.0 * coverage:.1f}% of engine.run attributed "
            f"to {', '.join(ENGINE_CHILD_SPANS)}"
        )
    apply_seconds = spans.get("engine.apply", {}).get("seconds")
    if apply_seconds:
        components = span_components(trace)
        # A childless engine.apply is a leaf component: all of it is "other".
        other = components.get("engine.apply (self)", components.get("engine.apply", 0.0))
        sweep, index = (components.get(name, 0.0) for name in APPLY_CHILD_SPANS)
        lines.append(
            "engine.apply breakdown: "
            f"sweep {100.0 * sweep / apply_seconds:.1f}%, "
            f"index maintenance {100.0 * index / apply_seconds:.1f}%, "
            f"other {100.0 * other / apply_seconds:.1f}%"
        )

    counters = trace.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name.ljust(width)}  {counters[name]}")
    dropped = trace.get("events_dropped", 0)
    events = trace.get("events", ())
    if events or dropped:
        lines.append("")
        lines.append(f"events: {len(events)} recorded, {dropped} dropped")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def trace_diff(
    trace_a: Mapping[str, Any],
    trace_b: Mapping[str, Any],
    root: str = ROOT_SPAN,
) -> Dict[str, Any]:
    """Attribute the wall-time delta between two traces to span components.

    Returns ``{"root", "seconds_a", "seconds_b", "delta", "attributed",
    "attribution", "components": [...]}`` — components carry each span's
    seconds on both sides and its (signed) share of the delta, sorted by
    absolute delta descending.  ``attribution`` is the fraction of the
    total delta the named components account for; because components
    partition the root on both sides it sits at ~1.0 apart from the
    clamping of negative residuals.
    """
    comp_a = span_components(trace_a, root)
    comp_b = span_components(trace_b, root)
    names = sorted(set(comp_a) | set(comp_b))
    total_a = _root_seconds(trace_a, root)
    total_b = _root_seconds(trace_b, root)
    delta = total_b - total_a
    components = []
    for name in names:
        a = comp_a.get(name, 0.0)
        b = comp_b.get(name, 0.0)
        components.append(
            {
                "span": name,
                "seconds_a": a,
                "seconds_b": b,
                "delta": b - a,
                "share": (b - a) / delta if delta else 0.0,
            }
        )
    components.sort(key=lambda row: (-abs(row["delta"]), row["span"]))
    attributed = sum(row["delta"] for row in components)
    return {
        "root": root,
        "seconds_a": total_a,
        "seconds_b": total_b,
        "delta": delta,
        "attributed": attributed,
        "attribution": (attributed / delta) if delta else 1.0,
        "components": components,
    }


def format_trace_diff(diff: Mapping[str, Any], *, limit: Optional[int] = None) -> str:
    """Aligned ``repro trace diff`` table."""
    rows = list(diff["components"])
    if limit is not None:
        rows = rows[:limit]
    table = [
        (
            row["span"],
            f"{row['seconds_a']:.6f}",
            f"{row['seconds_b']:.6f}",
            f"{row['delta']:+.6f}",
            f"{100.0 * row['share']:+6.1f}%" if diff["delta"] else "     -",
        )
        for row in rows
    ]
    footer = (
        f"{diff['root']}: {diff['seconds_a']:.6f}s -> {diff['seconds_b']:.6f}s  "
        f"(delta {diff['delta']:+.6f}s, {100.0 * diff['attribution']:.1f}% "
        "attributed to spans above)"
    )
    return format_table(("span", "a", "b", "delta", "% of delta"), table) + "\n\n" + footer


# ----------------------------------------------------------------------
# trace top
# ----------------------------------------------------------------------
def trace_top(
    traced: Iterable[Tuple[str, Any, Mapping[str, Any]]],
    *,
    root: str = ROOT_SPAN,
    limit: int = 15,
) -> Dict[str, Any]:
    """Which span components dominate wall time across many traced runs.

    Aggregates :func:`span_components` over every trace, so times partition
    the total rather than double-counting parents and children.
    """
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    runs = 0
    grand = 0.0
    for _key, _record, trace in traced:
        runs += 1
        grand += _root_seconds(trace, root)
        for name, seconds in span_components(trace, root).items():
            totals[name] = totals.get(name, 0.0) + seconds
            counts[name] = counts.get(name, 0) + 1
    ordered = sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:limit]
    return {
        "runs": runs,
        "total_seconds": grand,
        "spans": [
            {
                "span": name,
                "seconds": seconds,
                "runs": counts[name],
                "share": (seconds / grand) if grand else 0.0,
            }
            for name, seconds in ordered
        ],
    }


def format_trace_top(top: Mapping[str, Any]) -> str:
    """Aligned ``repro trace top`` table."""
    table = [
        (
            row["span"],
            str(row["runs"]),
            f"{row['seconds']:.6f}",
            f"{100.0 * row['share']:5.1f}%",
        )
        for row in top["spans"]
    ]
    footer = f"{top['runs']} traced run(s), {top['total_seconds']:.6f}s total wall time"
    return format_table(("span", "runs", "seconds", "% of total"), table) + "\n\n" + footer
