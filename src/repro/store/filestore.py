"""The on-disk result-store backend: JSONL shards plus an index.

Layout of a store directory (default name ``.repro-store``)::

    .repro-store/
    ├── store.meta.json      # format + spec-key versions, written once
    ├── index.jsonl          # one {"key", "shard"} line per stored record
    ├── lastread.json        # advisory {key: last-access epoch} for LRU gc
    ├── .lock                # advisory flock target for multi-writer stores
    └── shards/
        ├── 0a.jsonl         # records whose key starts with "0a"
        ├── 3f--w1.jsonl     # the same, written under writer namespace "w1"
        └── ...

Durability model
----------------
Every ``put`` appends **one line** to the record's shard, flushes it, and
then appends one line to the index.  A single-line append is atomic for any
realistic line size, so a sweep killed at an arbitrary moment loses at most
the record whose line was being written: on the next open a truncated final
shard line is detected and dropped, and a record whose index line never
landed is simply not visible (the cell re-runs either way); a wholly
missing or lost index file is rebuilt by scanning the unindexed shards.
Malformed data anywhere
*else* in a shard means real corruption and raises
:class:`~repro.exceptions.StoreCorruptionError` — :meth:`FileStore.gc`
salvages what it can and rewrites the store compactly.

The shards are the source of truth; the index is a recoverable accelerator
(it spares opening every shard to answer ``keys()`` / ``__contains__``).

Multi-writer model
------------------
Several processes may hold the same store open as long as each passes a
distinct ``writer`` name: a writer appends only to its **own** shard
namespace (``<prefix>--<writer>.jsonl``), so two writers never interleave
bytes within one file, while the shared ``index.jsonl`` is appended one
atomic line at a time under an advisory ``flock``.  Writers do not see each
other's un-reopened records (each process caches its own index) — that is
fine for the intended use, a fleet of queue workers computing *disjoint*
content-addressed cells.  :meth:`gc` later collapses writer namespaces back
into canonical shards, and :meth:`rebuild_index` reconciles the index with
whatever the shards actually hold.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import time
from pathlib import Path
from typing import Any, Dict, IO, Iterator, Optional, Tuple

try:  # pragma: no cover - fcntl is present on every POSIX platform we run on
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from ..exceptions import StoreCorruptionError, StoreError
from ..fileio import TMP_MARK, append_line, atomic_write, json_line, split_lines
from ..obs.metrics import get_registry
from ..runtime.records import RunRecord
from ..runtime.spec import SPEC_KEY_VERSION
from .base import KeyLike, ResultStore

__all__ = ["FileStore", "DEFAULT_STORE_DIR", "FORMAT_VERSION"]

#: Conventional store directory name (what ``repro sweep --store`` defaults to).
DEFAULT_STORE_DIR = ".repro-store"

#: On-disk layout version; bumped only when the file layout itself changes.
FORMAT_VERSION = 1

_META_NAME = "store.meta.json"
_INDEX_NAME = "index.jsonl"
_LASTREAD_NAME = "lastread.json"
_LOCK_NAME = ".lock"
_SHARD_DIR = "shards"

#: Writer namespaces become file-name components; keep them boring.
_WRITER_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


class FileStore(ResultStore):
    """Result store persisted as JSONL shards under a directory.

    Parameters
    ----------
    root:
        The store directory.  Created (with its metadata file) when missing,
        unless ``create=False`` — then a missing or alien directory raises
        :class:`~repro.exceptions.StoreError`.
    fsync:
        Force every append to stable storage.  Off by default: the atomic
        single-line append already bounds a crash's damage to the in-flight
        cell, and fsync-per-cell slows large sweeps considerably.
    salvage:
        Tolerate corrupt shard lines (skip and count them) instead of
        raising :class:`~repro.exceptions.StoreCorruptionError`.  This is
        how :meth:`gc` gets at a damaged store to repair it; leave it off
        for normal use so corruption is loud.
    writer:
        Writer namespace for multi-writer stores.  When set, appends go to
        this writer's own shard files (``<prefix>--<writer>.jsonl``) so that
        concurrent writer processes never share an append target; index
        appends are serialised with an advisory lock.  Reads are unaffected
        — any writer (or a plain reader) sees every namespace.
    """

    backend = "file"

    def __init__(
        self,
        root,
        *,
        create: bool = True,
        fsync: bool = False,
        salvage: bool = False,
        writer: Optional[str] = None,
    ) -> None:
        if writer is not None and ("--" in writer or not _WRITER_RE.match(writer)):
            raise StoreError(
                f"invalid writer name {writer!r}: use letters, digits, '.', '_' "
                "or '-' (and no '--', which separates the shard prefix)"
            )
        self.root = Path(root)
        self.fsync = fsync
        self.salvage = salvage
        self.writer = writer
        self._index: Dict[str, str] = {}
        self._shard_cache: Dict[str, Dict[str, RunRecord]] = {}
        self._handles: Dict[str, IO[str]] = {}
        self._index_handle: Optional[IO[str]] = None
        self._truncated_dropped = 0
        self._last_read: Dict[str, float] = {}
        self._lastread_dirty = False
        self._index_seen: Optional[Tuple[int, int]] = None
        self._open(create)

    # ------------------------------------------------------------------
    # opening / layout
    # ------------------------------------------------------------------
    @property
    def _meta_path(self) -> Path:
        return self.root / _META_NAME

    @property
    def _index_path(self) -> Path:
        return self.root / _INDEX_NAME

    @property
    def _lastread_path(self) -> Path:
        return self.root / _LASTREAD_NAME

    def _shard_path(self, shard: str) -> Path:
        return self.root / _SHARD_DIR / f"{shard}.jsonl"

    def _shard_for(self, key: str) -> str:
        """The shard this store appends ``key`` to (writer-namespaced)."""
        prefix = key[:2]
        return prefix if self.writer is None else f"{prefix}--{self.writer}"

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the store's advisory lock (a no-op where flock is missing).

        Guards the shared append/rewrite targets — ``index.jsonl`` and
        ``lastread.json`` — against concurrent writer processes.  Shard
        appends never need it: each writer owns its namespace's files.
        """
        if fcntl is None:  # pragma: no cover
            yield
            return
        with (self.root / _LOCK_NAME).open("a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _open(self, create: bool) -> None:
        if not self._meta_path.exists():
            self._create(create)
        try:
            meta = json.loads(self._meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise StoreError(f"unreadable store metadata {self._meta_path}: {error}")
        if meta.get("format_version") != FORMAT_VERSION:
            raise StoreError(
                f"store {self.root} uses layout version {meta.get('format_version')}, "
                f"this code reads version {FORMAT_VERSION}"
            )
        if meta.get("spec_key_version") != SPEC_KEY_VERSION:
            raise StoreError(
                f"store {self.root} was written with spec-key version "
                f"{meta.get('spec_key_version')} (current: {SPEC_KEY_VERSION}); "
                "run 'repro store gc' after re-running the sweeps, or start a fresh store"
            )
        (self.root / _SHARD_DIR).mkdir(parents=True, exist_ok=True)
        self._load_index()
        self._load_last_read()

    def _create(self, create: bool) -> None:
        """Write a new store's metadata; safe when peers create it concurrently.

        The metadata is the first file of a store (only its writers' temp
        files precede it), so a directory holding anything else either got
        its metadata from a peer meanwhile or is not a store at all.
        """
        entries = list(self.root.iterdir()) if self.root.exists() else []
        if any(not entry.name.startswith(_META_NAME + TMP_MARK) for entry in entries):
            if self._meta_path.exists():
                return
            raise StoreError(
                f"{self.root} exists but holds no store metadata — refusing to "
                "treat an arbitrary directory as a result store"
            )
        if not create:
            raise StoreError(f"no result store at {self.root}")
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self._meta_path,
            json.dumps(
                {"format_version": FORMAT_VERSION, "spec_key_version": SPEC_KEY_VERSION},
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )

    def _load_last_read(self) -> None:
        """Load the advisory last-access map (tolerating absence/corruption).

        The map only steers LRU eviction, so a damaged file degrades to
        "never accessed" rather than an error.
        """
        try:
            data = json.loads(self._lastread_path.read_text(encoding="utf-8"))
            self._last_read = {
                str(key): float(stamp)
                for key, stamp in data.items()
                if isinstance(stamp, (int, float))
            }
        except (OSError, json.JSONDecodeError, AttributeError):
            self._last_read = {}

    def _index_fingerprint(self) -> Optional[Tuple[int, int]]:
        """Cheap change detector for ``index.jsonl``: ``(size, mtime_ns)``."""
        try:
            stat = os.stat(self._index_path)
        except OSError:
            return None
        return (stat.st_size, stat.st_mtime_ns)

    def _load_index(self) -> None:
        """Load ``index.jsonl``, falling back to a shard scan when needed.

        Index entries are advisory: a key pointing at a shard that does not
        actually hold the record (the put was killed between the two appends
        — impossible in the shard-first write order, but cheap to defend
        against) is dropped lazily by :meth:`get`.  In the other direction
        only shards the index does not mention *at all* (a deleted or lost
        index file) are scanned and re-indexed here; a shard the index
        merely undercounts — the one in-flight record of a put killed
        between its shard and index appends — is left to re-run, exactly
        like a truncated tail line.  Opening a store therefore reads **no**
        shard bytes in the steady state, however large the store; the full
        reconciliation lives in :meth:`rebuild_index` and :meth:`gc`.
        """
        counts: Dict[str, int] = {}
        if self._index_path.exists():
            body, truncated = split_lines(self._index_path.read_text(encoding="utf-8"))
            if truncated:
                self._truncated_dropped += 1
            for lineno, line in enumerate(body, start=1):
                try:
                    entry = json.loads(line)
                    key, shard = entry["key"], entry["shard"]
                except (json.JSONDecodeError, KeyError, TypeError) as error:
                    raise StoreCorruptionError(
                        f"corrupt index line {lineno} in {self._index_path}: {error}"
                    )
                self._index[key] = shard
                counts[shard] = counts.get(shard, 0) + 1
        shard_dir = self.root / _SHARD_DIR
        for path in sorted(shard_dir.glob("*.jsonl")):
            shard = path.stem
            if counts.get(shard, 0):
                continue
            for key in self._load_shard(shard):
                if key not in self._index:
                    self._index[key] = shard
                    with self._locked():
                        append_line(
                            self._index_append_handle(), {"key": key, "shard": shard}, self.fsync
                        )
        self._index_seen = self._index_fingerprint()

    def refresh(self) -> bool:
        """Make records appended by *other* handles of this store visible.

        Concurrent writer processes append to their own shard namespaces and
        to the shared index, but an open handle caches the index it loaded —
        so a long-lived reader (the HTTP result service above a live worker
        fleet) calls this between requests.  One ``stat`` of ``index.jsonl``
        when nothing changed; a reload of the index (plus invalidation of
        the parsed-shard cache, whose files may have grown) when it did.
        """
        refreshes = get_registry().counter(
            "repro_store_index_refreshes_total", "refresh() calls by outcome"
        )
        if self._index_fingerprint() == self._index_seen:
            refreshes.inc(changed="false")
            return False
        self._index = {}
        self._shard_cache = {}
        self._load_index()
        refreshes.inc(changed="true")
        return True

    def _iter_shard_lines(self, shard: str):
        path = self._shard_path(shard)
        if not path.exists():
            return
        body, _truncated = split_lines(path.read_text(encoding="utf-8"))
        yield from body

    # ------------------------------------------------------------------
    # shard parsing
    # ------------------------------------------------------------------
    def _parse_shard(
        self, shard: str, salvage: bool = False
    ) -> Tuple[Dict[str, RunRecord], int]:
        """Parse one shard file into ``key -> record``; last write wins.

        A truncated final line is dropped (and counted).  With ``salvage``
        any undecodable or key-mismatched line is skipped and counted;
        without it, such a line raises ``StoreCorruptionError``.
        """
        path = self._shard_path(shard)
        records: Dict[str, RunRecord] = {}
        dropped = 0
        if not path.exists():
            return records, dropped
        body, truncated = split_lines(path.read_text(encoding="utf-8"))
        if truncated:
            self._truncated_dropped += 1
        for lineno, line in enumerate(body, start=1):
            try:
                entry = json.loads(line)
                key = entry["key"]
                record = RunRecord.from_dict(entry["record"])
                if record.spec.key() != key:
                    raise StoreCorruptionError(
                        f"record in {path} line {lineno} does not hash to its key "
                        f"{key[:12]}… (content-address mismatch)"
                    )
            except StoreCorruptionError:
                if not salvage:
                    raise
                dropped += 1
                continue
            except Exception as error:
                if not salvage:
                    raise StoreCorruptionError(
                        f"corrupt shard line {lineno} in {path}: {error}"
                    )
                dropped += 1
                continue
            records[key] = record
        return records, dropped

    def _load_shard(self, shard: str) -> Dict[str, RunRecord]:
        if shard not in self._shard_cache:
            records, _dropped = self._parse_shard(shard, salvage=self.salvage)
            self._shard_cache[shard] = records
        return self._shard_cache[shard]

    # ------------------------------------------------------------------
    # core mapping
    # ------------------------------------------------------------------
    def get(self, key: KeyLike) -> Optional[RunRecord]:
        digest = self.key_of(key)
        shard = self._index.get(digest)
        if shard is None:
            return None
        record = self._load_shard(shard).get(digest)
        if record is None:
            # Index ahead of the shard (in-flight cell of a killed sweep).
            del self._index[digest]
            return None
        self._touch(digest)
        return record

    def _touch(self, key: str) -> None:
        self._last_read[key] = time.time()
        self._lastread_dirty = True

    def _append_record(self, key: str, record: RunRecord) -> None:
        shard = self._shard_for(key)
        nbytes = append_line(
            self._shard_append_handle(shard),
            {"key": key, "record": record.to_dict()},
            self.fsync,
        )
        with self._locked():
            nbytes += append_line(
                self._index_append_handle(), {"key": key, "shard": shard}, self.fsync
            )
        registry = get_registry()
        registry.counter(
            "repro_store_appends_total", "Records appended to the file store"
        ).inc()
        registry.counter(
            "repro_store_bytes_written_total", "Shard and index bytes appended"
        ).inc(nbytes)
        self._index[key] = shard
        if shard in self._shard_cache:
            # Keep the cache coherent; re-parse is wasteful for an append.
            self._shard_cache[shard][key] = record
        # Our own append is already visible; don't let refresh() reload for it.
        self._index_seen = self._index_fingerprint()
        self._touch(key)

    def put(self, record: RunRecord) -> str:
        key = record.spec.key()
        if key in self._index and self.get(key) is not None:
            return key
        self._append_record(key, record)
        return key

    def put_replace(self, record: RunRecord) -> str:
        """Append ``record`` even when its key is already stored.

        Within a shard the last line wins, and the freshly appended index
        line redirects readers to this writer's namespace — so the new
        payload shadows the old one until :meth:`gc` compacts it away.
        Used by ``merge --on-conflict theirs``; everything else should rely
        on the idempotent :meth:`put`.
        """
        key = record.spec.key()
        self._append_record(key, record)
        return key

    def keys(self) -> Tuple[str, ...]:
        return tuple(self._index)

    # ------------------------------------------------------------------
    # handles / lifecycle
    # ------------------------------------------------------------------
    def _shard_append_handle(self, shard: str) -> IO[str]:
        handle = self._handles.get(shard)
        if handle is None:
            path = self._shard_path(shard)
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = path.open("a", encoding="utf-8")
            self._handles[shard] = handle
        return handle

    def _index_append_handle(self) -> IO[str]:
        if self._index_handle is None:
            self._index_handle = self._index_path.open("a", encoding="utf-8")
        return self._index_handle

    def flush(self) -> None:
        for handle in self._handles.values():
            handle.flush()
        if self._index_handle is not None:
            self._index_handle.flush()
        self._persist_last_read()

    def _persist_last_read(self, keep: Optional[Dict[str, float]] = None) -> None:
        """Merge this handle's access stamps into ``lastread.json``.

        Merging (per-key max) under the advisory lock keeps concurrent
        writers from clobbering each other's stamps; ``keep`` replaces the
        merge outcome entirely (what :meth:`gc` uses after eviction).
        """
        if keep is None and not self._lastread_dirty:
            return
        with self._locked():
            if keep is not None:
                merged = dict(keep)
            else:
                try:
                    merged = {
                        str(key): float(stamp)
                        for key, stamp in json.loads(
                            self._lastread_path.read_text(encoding="utf-8")
                        ).items()
                        if isinstance(stamp, (int, float))
                    }
                except (OSError, json.JSONDecodeError, AttributeError):
                    merged = {}
                for key, stamp in self._last_read.items():
                    if merged.get(key, 0.0) < stamp:
                        merged[key] = stamp
            atomic_write(self._lastread_path, json_line(merged))
        self._last_read = merged
        self._lastread_dirty = False

    def close(self) -> None:
        self.flush()
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        if self._index_handle is not None:
            self._index_handle.close()
            self._index_handle = None

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def verify(self) -> Dict[str, int]:
        """Parse every shard strictly; raise on corruption, report counts."""
        records = 0
        for path in sorted((self.root / _SHARD_DIR).glob("*.jsonl")):
            parsed, _dropped = self._parse_shard(path.stem)
            records += len(parsed)
        return {"records": records, "truncated_dropped": self._truncated_dropped}

    def gc(
        self,
        *,
        max_records: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> Dict[str, int]:
        """Compact the store: drop corrupt/duplicate lines, rewrite the index.

        Every shard is re-parsed in salvage mode (undecodable and
        content-address-mismatched lines are discarded, duplicate keys keep
        the last write), writer namespaces are collapsed back into the
        canonical ``<prefix>.jsonl`` shards, shards are rewritten atomically,
        empty shards removed, and ``index.jsonl`` regenerated.

        ``max_records`` / ``max_bytes`` additionally bound the surviving
        store: least-recently-accessed records (by the advisory
        ``lastread.json`` stamps; never-accessed records go first) are
        evicted until both budgets hold — the bounded-cache story for
        long-running fleets.  Returns counters::

            {"kept": ..., "dropped_corrupt": ..., "dropped_duplicate": ...,
             "evicted": ..., "reclaimed_bytes": ...}
        """
        self.close()
        dropped_corrupt = 0
        total_lines = 0
        shard_paths = sorted((self.root / _SHARD_DIR).glob("*.jsonl"))
        before = sum(path.stat().st_size for path in shard_paths)
        merged: Dict[str, RunRecord] = {}
        for path in shard_paths:
            body, _ = split_lines(path.read_text(encoding="utf-8"))
            records, dropped = self._parse_shard(path.stem, salvage=True)
            total_lines += len(body)
            dropped_corrupt += dropped
            merged.update(records)
        dropped_duplicate = max(0, total_lines - dropped_corrupt - len(merged))

        lines_of = {
            key: json_line({"key": key, "record": record.to_dict()})
            for key, record in merged.items()
        }
        evicted = 0
        if max_records is not None or max_bytes is not None:
            total_bytes = sum(len(line) for line in lines_of.values())
            # Oldest access first; never-accessed records (stamp 0.0) lead.
            for key in sorted(merged, key=lambda k: (self._last_read.get(k, 0.0), k)):
                over_records = max_records is not None and len(merged) > max_records
                over_bytes = max_bytes is not None and total_bytes > max_bytes
                if not (over_records or over_bytes):
                    break
                total_bytes -= len(lines_of.pop(key))
                del merged[key]
                evicted += 1

        by_shard: Dict[str, Dict[str, RunRecord]] = {}
        for key, record in merged.items():
            by_shard.setdefault(key[:2], {})[key] = record
        index_lines = []
        new_index: Dict[str, str] = {}
        with self._locked():
            for path in shard_paths:
                if path.stem not in by_shard:
                    path.unlink()
            for shard, records in sorted(by_shard.items()):
                atomic_write(
                    self._shard_path(shard), "".join(lines_of[key] for key in records)
                )
                for key in records:
                    index_lines.append(json_line({"key": key, "shard": shard}))
                    new_index[key] = shard
            atomic_write(self._index_path, "".join(index_lines))
        after = sum(
            path.stat().st_size for path in (self.root / _SHARD_DIR).glob("*.jsonl")
        )
        self._index = new_index
        self._index_seen = self._index_fingerprint()
        self._shard_cache = dict(by_shard)
        self._truncated_dropped = 0
        self._persist_last_read(
            keep={key: stamp for key, stamp in self._last_read.items() if key in new_index}
        )
        return {
            "kept": len(merged),
            "dropped_corrupt": dropped_corrupt,
            "dropped_duplicate": dropped_duplicate,
            "evicted": evicted,
            "reclaimed_bytes": max(0, before - after),
        }

    def rebuild_index(self) -> int:
        """Rewrite ``index.jsonl`` from a full shard scan; return the count.

        The shards stay untouched — this only reconciles the accelerator
        with them, e.g. after :func:`~repro.store.merge.merge_stores`
        appended records from shipped shards, or when an index is suspected
        stale.  Respects this handle's ``salvage`` tolerance.
        """
        if self._index_handle is not None:
            self._index_handle.close()
            self._index_handle = None
        entries: Dict[str, str] = {}
        with self._locked():
            for path in sorted((self.root / _SHARD_DIR).glob("*.jsonl")):
                for key in self._parse_shard(path.stem, salvage=self.salvage)[0]:
                    entries[key] = path.stem
            atomic_write(
                self._index_path,
                "".join(
                    json_line({"key": key, "shard": shard}) for key, shard in entries.items()
                ),
            )
        self._index = entries
        self._index_seen = self._index_fingerprint()
        return len(entries)

    def stats(self) -> Dict[str, Any]:
        shard_paths = list((self.root / _SHARD_DIR).glob("*.jsonl"))
        writers = {
            stem.split("--", 1)[1] if "--" in stem else ""
            for stem in (path.stem for path in shard_paths)
        }
        return {
            "backend": self.backend,
            "root": str(self.root),
            "records": len(self._index),
            "shards": len(shard_paths),
            "writers": len(writers),
            "bytes": sum(path.stat().st_size for path in shard_paths),
            "truncated_dropped": self._truncated_dropped,
            "last_read_tracked": len(self._last_read),
        }
