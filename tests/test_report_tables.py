"""Characterisation of the aligned-text reports: exact bytes on fixed inputs.

Every report below renders through one aligned-table function; these
literals pin each one's text (column widths, trailing padding, footers and
the empty cases) so a change to the shared renderer cannot move a byte of
``repro run --profile``, ``repro trace top/diff``, ``repro top`` or
``SweepResult.table``.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    format_fleet,
    format_profile,
    format_trace_diff,
    format_trace_top,
    trace_diff,
    trace_top,
)
from repro.runtime import RunRecord, ScenarioSpec, SweepResult


PROFILED = {
    "spans": {
        "run": {"seconds": 0.5, "count": 1},
        "engine.run": {"seconds": 0.4, "count": 1},
        "engine.bootstrap": {"seconds": 0.01, "count": 1},
        "scheduler.decide": {"seconds": 0.12, "count": 300},
        "engine.apply": {"seconds": 0.2, "count": 300},
        "engine.apply.sweep": {"seconds": 0.08, "count": 150},
        "engine.apply.index": {"seconds": 0.05, "count": 40},
        "engine.check_termination": {"seconds": 0.06, "count": 300},
        "graph.build": {"seconds": 0.02, "count": 1},
    },
    "counters": {"engine.decisions": 300, "engine.traversals": 150},
    "events": [{"name": "meeting"}, {"name": "meeting"}],
    "events_dropped": 1,
}
#: Spans without the ``run`` root: the profile falls back to the largest span.
ROOTLESS = {"spans": {"engine.run": {"seconds": 2.0, "count": 1}, "io": {"seconds": 1.0, "count": 3}}}
SLOWER = {
    "spans": {
        "run": {"seconds": 0.75, "count": 1},
        "engine.run": {"seconds": 0.62, "count": 1},
        "engine.bootstrap": {"seconds": 0.01, "count": 1},
        "scheduler.decide": {"seconds": 0.15, "count": 300},
        "engine.apply": {"seconds": 0.38, "count": 300},
        "engine.apply.sweep": {"seconds": 0.25, "count": 150},
        "engine.apply.index": {"seconds": 0.05, "count": 40},
        "engine.check_termination": {"seconds": 0.06, "count": 300},
        "graph.build": {"seconds": 0.02, "count": 1},
    },
}
EMPTY = {"spans": {}}
#: ``engine.apply`` without its sweep/index children, then with zero seconds.
APPLY_LEAF = {
    "spans": {
        "run": {"seconds": 1.0, "count": 1},
        "engine.run": {"seconds": 0.8, "count": 1},
        "engine.apply": {"seconds": 0.5, "count": 9},
    },
}
APPLY_ZERO = {"spans": {"engine.run": {"seconds": 0.8, "count": 1}, "engine.apply": {"seconds": 0.0, "count": 0}}}


def _record(family, size, seed, ok, cost, decisions, reason, **extra):
    spec = ScenarioSpec(
        family=family, size=size, seed=seed, scheduler="avoider",
        scheduler_params=(("patience", 64),),
    )
    return RunRecord(
        spec=spec, ok=ok, cost=cost, reason=reason, decisions=decisions,
        graph_name=f"{family}-{size}", graph_size=size, graph_edges=size,
        extra=extra,
    )


RECORDS = [
    _record("ring", 4, 0, True, 12, 30, "met", ratio=0.123456),
    _record("ring", 12, 1, False, 123456, 999999, "cost_limit", ratio=1234.5),
    _record("lollipop", 6, 2, True, 7, 9, "met"),
]

FLEET = {
    "queue": {"done": 3, "units": 8, "cells": 40, "claimed": 2, "pending": 3,
              "cancelled": 0, "executed": 11, "salvaged": 1, "cached": 2,
              "steals": 1, "expired": 1},
    "cells_per_sec": 2.5,
    "eta_seconds": 130.0,
    "remaining_cells": 26,
    "workers": [
        {"worker": "w-alpha", "age": 1.2, "unit": "0123456789abcdef0123",
         "cells_done": 3, "unit_total": 5, "stale": False, "phase": "run"},
        {"worker": "w-b", "age": 9000.0, "unit": None, "cells_done": None,
         "unit_total": None, "stale": True, "phase": None},
        {"worker": "w-c", "age": 300.0, "unit": "ffff", "cells_done": 0,
         "unit_total": 0, "stale": False, "phase": None},
    ],
}
IDLE_FLEET = {"queue": {}, "remaining_cells": 0, "workers": []}


def _render():
    """Every characterised report, by name."""
    return {
        "profile_run": format_profile(PROFILED),
        "profile_engine_run": format_profile(PROFILED, root="engine.run"),
        "profile_rootless": format_profile(ROOTLESS),
        "profile_empty": format_profile(EMPTY),
        "profile_apply_leaf": format_profile(APPLY_LEAF),
        "profile_apply_zero": format_profile(APPLY_ZERO),
        "diff": format_trace_diff(trace_diff(PROFILED, SLOWER)),
        "diff_limit": format_trace_diff(trace_diff(PROFILED, SLOWER), limit=2),
        "diff_engine_run": format_trace_diff(trace_diff(PROFILED, SLOWER, root="engine.run")),
        "diff_zero_delta": format_trace_diff(trace_diff(PROFILED, PROFILED)),
        "diff_empty": format_trace_diff(trace_diff(EMPTY, EMPTY)),
        "top": format_trace_top(trace_top([("a", None, PROFILED), ("b", None, SLOWER), ("c", None, ROOTLESS)])),
        "top_limit": format_trace_top(trace_top([("a", None, PROFILED)], limit=2)),
        "top_empty": format_trace_top(trace_top([])),
        "fleet": format_fleet(FLEET),
        "fleet_idle": format_fleet(IDLE_FLEET),
        "sweep_default": SweepResult(records=RECORDS).table(),
        "sweep_fields": SweepResult(records=RECORDS).table(
            fields=("family", "n", "ok", "ratio", "patience", "missing"), title="demo"),
        "sweep_empty": SweepResult(records=[]).table(),
        "sweep_empty_title": SweepResult(records=[]).table(fields=("cost",), title="t"),
    }


def _lines(*lines: str) -> str:
    return "\n".join(lines)


EXPECTED = {
    'profile_run': _lines(
        'span                      calls  seconds   % of run',
        '------------------------  -----  --------  --------',
        'run                       1      0.500000  100.0%  ',
        'engine.run                1      0.400000   80.0%  ',
        'engine.apply              300    0.200000   40.0%  ',
        'scheduler.decide          300    0.120000   24.0%  ',
        'engine.apply.sweep        150    0.080000   16.0%  ',
        'engine.check_termination  300    0.060000   12.0%  ',
        'engine.apply.index        40     0.050000   10.0%  ',
        'graph.build               1      0.020000    4.0%  ',
        'engine.bootstrap          1      0.010000    2.0%  ',
        '',
        'engine coverage: 97.5% of engine.run attributed to engine.bootstrap, scheduler.decide, engine.apply, engine.check_termination',
        'engine.apply breakdown: sweep 40.0%, index maintenance 25.0%, other 35.0%',
        '',
        'counters:',
        '  engine.decisions   300',
        '  engine.traversals  150',
        '',
        'events: 2 recorded, 1 dropped',
    ),
    'profile_engine_run': _lines(
        'span                      calls  seconds   % of engine.run',
        '------------------------  -----  --------  ---------------',
        'engine.run                1      0.400000  100.0%         ',
        'run                       1      0.500000  125.0%         ',
        'engine.apply              300    0.200000   50.0%         ',
        'scheduler.decide          300    0.120000   30.0%         ',
        'engine.apply.sweep        150    0.080000   20.0%         ',
        'engine.check_termination  300    0.060000   15.0%         ',
        'engine.apply.index        40     0.050000   12.5%         ',
        'graph.build               1      0.020000    5.0%         ',
        'engine.bootstrap          1      0.010000    2.5%         ',
        '',
        'engine coverage: 97.5% of engine.run attributed to engine.bootstrap, scheduler.decide, engine.apply, engine.check_termination',
        'engine.apply breakdown: sweep 40.0%, index maintenance 25.0%, other 35.0%',
        '',
        'counters:',
        '  engine.decisions   300',
        '  engine.traversals  150',
        '',
        'events: 2 recorded, 1 dropped',
    ),
    'profile_rootless': _lines(
        'span        calls  seconds   % of run',
        '----------  -----  --------  --------',
        'engine.run  1      2.000000  100.0%  ',
        'io          3      1.000000   50.0%  ',
        '',
        'engine coverage: 0.0% of engine.run attributed to engine.bootstrap, scheduler.decide, engine.apply, engine.check_termination',
    ),
    'profile_empty': _lines(
        'span  calls  seconds  % of run',
        '----  -----  -------  --------',
    ),
    'profile_apply_leaf': _lines(
        'span          calls  seconds   % of run',
        '------------  -----  --------  --------',
        'run           1      1.000000  100.0%  ',
        'engine.run    1      0.800000   80.0%  ',
        'engine.apply  9      0.500000   50.0%  ',
        '',
        'engine coverage: 62.5% of engine.run attributed to engine.bootstrap, scheduler.decide, engine.apply, engine.check_termination',
        'engine.apply breakdown: sweep 0.0%, index maintenance 0.0%, other 100.0%',
    ),
    'profile_apply_zero': _lines(
        'span          calls  seconds   % of run',
        '------------  -----  --------  --------',
        'engine.run    1      0.800000  100.0%  ',
        'engine.apply  0      0.000000    0.0%  ',
        '',
        'engine coverage: 0.0% of engine.run attributed to engine.bootstrap, scheduler.decide, engine.apply, engine.check_termination',
    ),
    'diff': _lines(
        'span                      a         b         delta      % of delta',
        '------------------------  --------  --------  ---------  ----------',
        'engine.apply.sweep        0.080000  0.250000  +0.170000   +68.0%   ',
        'run (self)                0.080000  0.110000  +0.030000   +12.0%   ',
        'scheduler.decide          0.120000  0.150000  +0.030000   +12.0%   ',
        'engine.apply (self)       0.070000  0.080000  +0.010000    +4.0%   ',
        'engine.run (self)         0.010000  0.020000  +0.010000    +4.0%   ',
        'engine.apply.index        0.050000  0.050000  +0.000000    +0.0%   ',
        'engine.bootstrap          0.010000  0.010000  +0.000000    +0.0%   ',
        'engine.check_termination  0.060000  0.060000  +0.000000    +0.0%   ',
        'graph.build               0.020000  0.020000  +0.000000    +0.0%   ',
        '',
        'run: 0.500000s -> 0.750000s  (delta +0.250000s, 100.0% attributed to spans above)',
    ),
    'diff_limit': _lines(
        'span                a         b         delta      % of delta',
        '------------------  --------  --------  ---------  ----------',
        'engine.apply.sweep  0.080000  0.250000  +0.170000   +68.0%   ',
        'run (self)          0.080000  0.110000  +0.030000   +12.0%   ',
        '',
        'run: 0.500000s -> 0.750000s  (delta +0.250000s, 100.0% attributed to spans above)',
    ),
    'diff_engine_run': _lines(
        'span                      a         b         delta      % of delta',
        '------------------------  --------  --------  ---------  ----------',
        'run                       0.500000  0.750000  +0.250000  +113.6%   ',
        'engine.apply.sweep        0.080000  0.250000  +0.170000   +77.3%   ',
        'scheduler.decide          0.120000  0.150000  +0.030000   +13.6%   ',
        'engine.apply (self)       0.070000  0.080000  +0.010000    +4.5%   ',
        'engine.apply.index        0.050000  0.050000  +0.000000    +0.0%   ',
        'engine.bootstrap          0.010000  0.010000  +0.000000    +0.0%   ',
        'engine.check_termination  0.060000  0.060000  +0.000000    +0.0%   ',
        'engine.run (self)         0.000000  0.000000  +0.000000    +0.0%   ',
        'graph.build               0.020000  0.020000  +0.000000    +0.0%   ',
        '',
        'engine.run: 0.400000s -> 0.620000s  (delta +0.220000s, 209.1% attributed to spans above)',
    ),
    'diff_zero_delta': _lines(
        'span                      a         b         delta      % of delta',
        '------------------------  --------  --------  ---------  ----------',
        'engine.apply (self)       0.070000  0.070000  +0.000000       -    ',
        'engine.apply.index        0.050000  0.050000  +0.000000       -    ',
        'engine.apply.sweep        0.080000  0.080000  +0.000000       -    ',
        'engine.bootstrap          0.010000  0.010000  +0.000000       -    ',
        'engine.check_termination  0.060000  0.060000  +0.000000       -    ',
        'engine.run (self)         0.010000  0.010000  +0.000000       -    ',
        'graph.build               0.020000  0.020000  +0.000000       -    ',
        'run (self)                0.080000  0.080000  +0.000000       -    ',
        'scheduler.decide          0.120000  0.120000  +0.000000       -    ',
        '',
        'run: 0.500000s -> 0.500000s  (delta +0.000000s, 100.0% attributed to spans above)',
    ),
    'diff_empty': _lines(
        'span  a  b  delta  % of delta',
        '----  -  -  -----  ----------',
        '',
        'run: 0.000000s -> 0.000000s  (delta +0.000000s, 100.0% attributed to spans above)',
    ),
    'top': _lines(
        'span                      runs  seconds   % of total',
        '------------------------  ----  --------  ----------',
        'engine.run                1     2.000000   47.1%    ',
        'io                        1     1.000000   23.5%    ',
        'engine.apply.sweep        2     0.330000    7.8%    ',
        'scheduler.decide          2     0.270000    6.4%    ',
        'run (self)                2     0.190000    4.5%    ',
        'engine.apply (self)       2     0.150000    3.5%    ',
        'engine.check_termination  2     0.120000    2.8%    ',
        'engine.apply.index        2     0.100000    2.4%    ',
        'graph.build               2     0.040000    0.9%    ',
        'engine.run (self)         2     0.030000    0.7%    ',
        'engine.bootstrap          2     0.020000    0.5%    ',
        '',
        '3 traced run(s), 4.250000s total wall time',
    ),
    'top_limit': _lines(
        'span                runs  seconds   % of total',
        '------------------  ----  --------  ----------',
        'scheduler.decide    1     0.120000   24.0%    ',
        'engine.apply.sweep  1     0.080000   16.0%    ',
        '',
        '1 traced run(s), 0.500000s total wall time',
    ),
    'top_empty': _lines(
        'span  runs  seconds  % of total',
        '----  ----  -------  ----------',
        '',
        '0 traced run(s), 0.000000s total wall time',
    ),
    'fleet': _lines(
        'units: 3/8 done  cells: 40  claimed: 2  pending: 3  cancelled: 0',
        'executed: 11  salvaged: 1  cached: 2  steals: 1  expired: 1',
        'remaining cells: 26  throughput: 2.5 cells/sec  eta: 2.2m',
        '',
        'worker   heartbeat  unit          progress  state',
        '-------  ---------  ------------  --------  -----',
        'w-alpha  1s         0123456789ab  3/5       run  ',
        'w-b      2.5h       -             -         STALE',
        'w-c      5.0m       ffff          -         live ',
    ),
    'fleet_idle': _lines(
        'units: 0/0 done  cells: 0  claimed: 0  pending: 0  cancelled: 0',
        'executed: 0  salvaged: 0  cached: 0  steals: 0  expired: 0',
        'remaining cells: 0',
        '',
        'no worker heartbeats yet',
    ),
    'sweep_default': _lines(
        'problem     family    n   seed  scheduler  ok   cost    decisions  reason    ',
        '----------  --------  --  ----  ---------  ---  ------  ---------  ----------',
        'rendezvous  ring      4   0     avoider    yes  12      30         met       ',
        'rendezvous  ring      12  1     avoider    no   123456  999999     cost_limit',
        'rendezvous  lollipop  6   2     avoider    yes  7       9          met       ',
    ),
    'sweep_fields': _lines(
        'demo',
        '========',
        'family    n   ok   ratio     patience  missing',
        '--------  --  ---  --------  --------  -------',
        'ring      4   yes  0.123     64               ',
        'ring      12  no   1.23e+03  64               ',
        'lollipop  6   yes            64               ',
    ),
    'sweep_empty': _lines(
        'problem  family  n  seed  scheduler  ok  cost  decisions  reason',
        '-------  ------  -  ----  ---------  --  ----  ---------  ------',
    ),
    'sweep_empty_title': _lines(
        't',
        '========',
        'cost',
        '----',
    ),
}


@pytest.fixture(scope="module")
def rendered():
    return _render()


def test_every_report_is_characterised(rendered):
    assert sorted(rendered) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_report_text_is_pinned(rendered, name):
    assert rendered[name] == EXPECTED[name]
