"""One rendering path for every experiment table.

The seven hand-rolled ``*_table()`` functions of the seed repository are
replaced by a single :func:`render` over a :class:`TableData` — the uniform
"title + columns + rows + footers" shape the aggregation pipeline produces.
Three output formats:

* ``markdown`` — the aligned monospace table the repository has always
  printed (byte-identical to the historical renderers; EXPERIMENTS.md and
  the benchmark artifacts embed it);
* ``csv`` — RFC-4180 rows for spreadsheets and downstream tooling (footers,
  being prose, are omitted);
* ``json`` — the full document (title, columns, rows, footers), with
  deterministic key order, for machine consumption and golden comparisons.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from ..exceptions import ReproError
from ..tables import format_table

__all__ = ["TableData", "FORMATS", "render"]

#: The supported output formats.
FORMATS = ("markdown", "csv", "json")


def _jsonable(value: Any) -> Any:
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class TableData:
    """A fully aggregated table, ready to render in any format."""

    title: str = ""
    columns: Tuple[str, ...] = ()
    rows: Tuple[Mapping[str, Any], ...] = ()
    footers: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(dict(row) for row in self.rows))
        object.__setattr__(self, "footers", tuple(str(line) for line in self.footers))

    def cells(self) -> Tuple[Tuple[Any, ...], ...]:
        """The row values in column order (missing cells are ``""``)."""
        return tuple(
            tuple(row.get(column, "") for column in self.columns) for row in self.rows
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [
                {column: _jsonable(row.get(column)) for column in self.columns}
                for row in self.rows
            ],
            "footers": list(self.footers),
        }


def _render_markdown(table: TableData) -> str:
    # Missing cells render blank, exactly like the csv path.
    rows = [["" if cell is None else cell for cell in row] for row in table.cells()]
    text = format_table(table.columns, rows, title=table.title)
    if table.footers:
        text = "\n".join([text, "", *table.footers])
    return text


def _render_csv(table: TableData) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.cells():
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue().rstrip("\n")


def _render_json(table: TableData) -> str:
    return json.dumps(table.to_dict(), indent=2, sort_keys=True)


_RENDERERS = {
    "markdown": _render_markdown,
    "csv": _render_csv,
    "json": _render_json,
}


def render(table: TableData, format: str = "markdown") -> str:
    """Render ``table`` in the requested ``format`` (see :data:`FORMATS`)."""
    if format not in _RENDERERS:
        raise ReproError(f"unknown table format {format!r}; available: {sorted(_RENDERERS)}")
    return _RENDERERS[format](table)
