"""Crash-safe file helpers shared by every on-disk layer.

The result store, the work queue, the event journal and the sweep-job files
follow the same two rules: a rewritten file is replaced whole (a reader sees
the old content or the new, never a mix), and a line counts only once its
terminating newline is on disk.  This module imports nothing from ``repro``,
so any layer can use it without import cycles.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import IO, Any, List, Tuple

__all__ = ["TMP_MARK", "json_line", "append_line", "atomic_write", "split_lines"]

#: Separates a target's file name from the writer-unique suffix of its temp file.
TMP_MARK = ".tmp-"


def json_line(payload: Any) -> str:
    """``payload`` as one compact, key-sorted JSON line (newline included)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def append_line(handle: IO[str], payload: Any, fsync: bool = False) -> int:
    """Append ``payload`` as one flushed JSON line; returns its size in bytes."""
    line = json_line(payload)
    handle.write(line)
    handle.flush()
    if fsync:
        os.fsync(handle.fileno())
    return len(line.encode("utf-8"))


def atomic_write(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one ``os.replace``.

    The temp file is named per process and thread, so concurrent writers of
    one path never overwrite or rename each other's temp file; the last
    replace wins.
    """
    tmp = path.with_name(f"{path.name}{TMP_MARK}{os.getpid()}-{threading.get_ident()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def split_lines(text: str) -> Tuple[List[str], bool]:
    """Split ``text`` into complete lines; flag an unterminated tail.

    The partial tail of a killed write is excluded from the lines and
    reported as ``True``.
    """
    if not text:
        return [], False
    lines = text.split("\n")
    return lines[:-1], lines[-1] != ""
