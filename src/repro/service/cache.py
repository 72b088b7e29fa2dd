"""Persistent on-disk result cache keyed by job fingerprint.

The :class:`DiskCache` is the second tier behind a
:class:`~repro.api.session.Session`'s in-memory memo: every fresh
compilation is written through as one JSON file per fingerprint, so a
restarted process (or a second process sharing the cache directory)
re-serves earlier results instead of recompiling.

Layout of a cache directory::

    <root>/
        index.jsonl           # advisory metadata journal, rebuildable
        index.lock            # fcntl lock file for index writers
        results/
            <fingerprint>.json

Payload writes are atomic (temp file + ``os.replace`` in the same
directory), so a crashed or killed writer can never leave a half-written
payload under a live fingerprint.  Reads are corruption-tolerant: an
unreadable, truncated or mislabelled payload counts as a miss (and is
recorded in :meth:`DiskCache.stats`), after which the session simply
recompiles and rewrites the entry.

The index is a :mod:`repro.journal` file: a version header, then one
``{"fp": ..., "meta": {...}}`` record per committed entry and one
``{"fp": ..., "drop": true}`` record per eviction.  Loading folds it
(last record wins, a drop removes the entry).  :meth:`DiskCache.flush_index`
appends only the records staged since the last flush, so committing a
fresh result costs the same however large the cache is.  The index is
purely advisory — membership always comes from the payload files — and
is rebuilt from them when it is missing, corrupt, or lists a different
set of fingerprints than ``results/`` holds.  Every index write takes a
best-effort ``fcntl`` file lock shared by all processes over the
directory; a rebuild, :meth:`DiskCache.clear`,
:meth:`DiskCache.gc_orphans` and a load that finds more than twice as
many records as live entries compact the journal to one record per
live entry (temp file, fsync, rename).

With ``max_bytes`` set, the cache enforces a size cap by LRU eviction:
every read hit bumps the payload file's mtime (so recency is shared
across processes), and each write evicts least-recently-accessed
entries until the payload files fit the cap again.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro import journal
from repro.core.result import CompilationResult

#: Payload schema version; bump on incompatible layout changes.
CACHE_VERSION = 1

#: Line 1 of the index journal.
_INDEX_HEADER = {"version": CACHE_VERSION}


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp file)."""
    handle, temp_name = tempfile.mkstemp(dir=str(path.parent),
                                         prefix=path.name + ".",
                                         suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class DiskCache:
    """Maps job fingerprints to persisted :class:`CompilationResult` payloads.

    Safe for concurrent use from one process (writes serialize on an
    internal lock); multiple processes may share a directory — atomic
    replace keeps payloads consistent, and last-writer-wins is correct
    because equal fingerprints mean equal jobs mean (deterministic
    compiler) equal results.

    Args:
        root: Cache directory; created (with parents) if missing.
        max_bytes: Optional size cap over the payload files; writes
            beyond it evict least-recently-accessed entries (the entry
            being written is never evicted by its own put, even when it
            alone exceeds the cap).
    """

    def __init__(self, root, *, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root).expanduser()
        self.results_dir = self.root / "results"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / "index.jsonl"
        self.lock_path = self.root / "index.lock"
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        self.evictions = 0
        self.orphans_removed = 0
        #: Index records not yet appended: fingerprint -> meta, or
        #: None for a drop.
        self._pending: Dict[str, Optional[Dict[str, object]]] = {}
        self._index: Dict[str, Dict[str, object]] = self._load_index()
        #: Running payload-byte estimate so an under-cap put stays O(1);
        #: reconciled against a real directory scan on every eviction.
        self._bytes = self.total_bytes() if max_bytes is not None else 0

    # ------------------------------------------------------------------
    def _result_path(self, fingerprint: str) -> Path:
        return self.results_dir / f"{fingerprint}.json"

    def _read_index(self) -> Tuple[Optional[Dict[str, Dict[str, object]]],
                                   int]:
        """Fold the journal: ``(entries, records)``, where ``entries``
        is None when the journal is missing or has no valid header, and
        ``records`` counts the entry and drop records read."""
        try:
            records, _ = journal.read(self.index_path)
        except OSError:
            return None, 0
        if not records or records[0] != _INDEX_HEADER:
            return None, 0
        entries: Dict[str, Dict[str, object]] = {}
        count = 0
        for record in records[1:]:
            fingerprint = record.get("fp")
            if not isinstance(fingerprint, str):
                continue  # a second header from a racing create
            count += 1
            meta = record.get("meta")
            if record.get("drop") is True:
                entries.pop(fingerprint, None)
            elif isinstance(meta, dict):
                entries[fingerprint] = meta
        return entries, count

    def _load_index(self) -> Dict[str, Dict[str, object]]:
        """Load the advisory index, rebuilding it when missing, corrupt
        or stale (index writes are deferred to :meth:`flush_index`, so a
        killed process can leave the journal behind the payload files)
        and compacting it when more than half its records are dead."""
        entries, records = self._read_index()
        if entries is not None and records <= 2 * len(entries) \
                and sorted(entries) == self.fingerprints():
            return entries
        with self._index_file_lock():
            # Re-read under the lock: another writer may have appended.
            entries, _ = self._read_index()
            if entries is None or sorted(entries) != self.fingerprints():
                entries = self._rebuild_index()
            # Constructor path: the cache is not shared yet.
            self._index = entries  # lint: unlocked
            with contextlib.suppress(OSError):  # advisory: next load retries
                self._compact_locked()
        return entries

    def _rebuild_index(self) -> Dict[str, Dict[str, object]]:
        """Reconstruct index metadata by scanning the payload files."""
        entries: Dict[str, Dict[str, object]] = {}
        for path in sorted(self.results_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                fingerprint = payload["fingerprint"]
                if fingerprint != path.stem:
                    continue
                entries[fingerprint] = dict(payload.get("job") or {})
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return entries

    @contextlib.contextmanager
    def _index_file_lock(self):
        """Best-effort cross-process lock for index writes.

        Two servers sharing one cache directory serialize their index
        appends and compactions on an ``fcntl`` advisory lock, so a
        compaction cannot drop records another writer is appending.  A
        platform without :mod:`fcntl` (or a filesystem refusing to lock)
        degrades to the previous unlocked behaviour — the index is
        advisory and rebuildable, so this is safe, just less tidy.
        """
        if fcntl is None:
            yield
            return
        try:
            handle = open(self.lock_path, "w")
        except OSError:
            yield
            return
        try:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX)
            except OSError:
                pass
            yield
        finally:
            handle.close()  # closing drops any held flock

    def _merge_foreign_entries(self) -> None:
        """Fold other writers' committed index entries into ours.

        Our in-memory view wins for fingerprints we know about (it is
        newer, and locally-evicted keys must stay gone); entries we have
        never seen are adopted when their payload file still exists, so
        a compaction never drops what a sibling process committed.
        Called with the index file lock held.
        """
        entries, _ = self._read_index()
        for fingerprint, meta in (entries or {}).items():
            if fingerprint not in self._index and fingerprint in self:
                self._index[fingerprint] = meta

    def _compact_locked(self) -> None:
        """Rewrite the journal as one record per live entry, which
        commits every staged record.  Called with the index file lock
        held, and with the internal lock too once the cache is shared."""
        with journal.Journal(self.index_path, _INDEX_HEADER) as index:
            index.rewrite({"fp": fingerprint, "meta": meta}
                          for fingerprint, meta in self._index.items())
        self._pending = {}  # lint: unlocked (caller holds lock)

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[CompilationResult]:
        """Fetch a persisted result, or None on miss or corruption.

        A hit bumps the payload file's mtime, which is the cache's
        shared last-access clock: LRU eviction (and any other process
        sharing the directory) orders entries by it.
        """
        path = self._result_path(fingerprint)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        try:
            payload = json.loads(text)
            if payload.get("version") != CACHE_VERSION:
                raise ValueError("payload schema mismatch")
            if payload.get("fingerprint") != fingerprint:
                raise ValueError("payload fingerprint mismatch")
            result = CompilationResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError, AttributeError):
            with self._lock:
                self.corrupt += 1
            return None
        try:
            os.utime(path)  # mark recently used for LRU eviction
        except OSError:
            pass
        with self._lock:
            self.hits += 1
        return result

    def put(self, fingerprint: str, result: CompilationResult,
            job=None) -> None:
        """Persist one result under its fingerprint (atomic write-through).

        Only the payload file is written here.  The index entry (and a
        drop for each entry the size cap evicts) is staged in memory
        and appended to the index journal by :meth:`flush_index`, which
        a :class:`~repro.api.session.Session` calls once per batch; an
        entry is committed, for :meth:`gc_orphans`, only once flushed.

        Args:
            fingerprint: The job fingerprint keying the entry.
            result: The compilation result to persist.
            job: Optional :class:`~repro.api.job.CompileJob`; when given,
                its coordinates are recorded in the payload and the
                index, making cache directories self-describing.
        """
        payload: Dict[str, object] = {
            "version": CACHE_VERSION,
            "fingerprint": fingerprint,
            "result": result.to_dict(),
        }
        meta: Dict[str, object] = {}
        if job is not None:
            meta = {
                "benchmark": job.program_label,
                "policy": job.policy_label,
                "machine": job.machine.describe(),
            }
            payload["job"] = meta
        path = self._result_path(fingerprint)
        with self._lock:
            if self.max_bytes is not None:
                try:
                    overwritten = path.stat().st_size
                except OSError:
                    overwritten = 0
            _atomic_write_text(path, json.dumps(payload, sort_keys=True))
            self._index[fingerprint] = meta
            self._pending[fingerprint] = meta
            self.writes += 1
            if self.max_bytes is not None:
                try:
                    written = path.stat().st_size
                except OSError:
                    written = 0
                self._bytes += written - overwritten
                if self._bytes > self.max_bytes:
                    self._evict_locked(keep=fingerprint)

    def _evict_locked(self, keep: str) -> None:
        """Drop least-recently-accessed payloads until under the cap.

        Last access is the payload file's mtime (bumped by :meth:`get`
        hits and by writes), so processes sharing the directory agree on
        recency.  The entry just written (``keep``) is never evicted by
        its own put.  Caller holds the internal lock; the directory scan
        here also reconciles the running byte estimate (which can drift
        when other processes write the same directory).
        """
        entries = []
        total = 0
        for path in self.results_dir.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            total += stat.st_size
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda entry: entry[0])
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if path.stem == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self._index.pop(path.stem, None)
            self._pending[path.stem] = None
            self.evictions += 1
        self._bytes = total  # lint: unlocked (caller holds lock)

    def flush_index(self) -> None:
        """Append the staged index records (cheap no-op when clean).

        Costs one record per put or eviction since the last flush,
        whatever the size of the cache.  The journal is reopened per
        flush, so another process's compaction (a rename over it) never
        leaves this one appending to an unlinked file.  Membership and
        reads never depend on the index, and a stale index is rebuilt on
        the next :class:`DiskCache` construction, so deferring this
        between batches is always safe.
        """
        with self._lock:
            if not self._pending:
                return
            with self._index_file_lock():
                with journal.Journal(self.index_path, _INDEX_HEADER) as index:
                    for fingerprint, meta in self._pending.items():
                        index.append({"fp": fingerprint, "drop": True}
                                     if meta is None else
                                     {"fp": fingerprint, "meta": meta})
            self._pending = {}

    # ------------------------------------------------------------------
    def __contains__(self, fingerprint: str) -> bool:
        return self._result_path(fingerprint).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.results_dir.glob("*.json"))

    def fingerprints(self) -> List[str]:
        """Every persisted fingerprint, sorted."""
        return sorted(path.stem for path in self.results_dir.glob("*.json"))

    def entries(self) -> Dict[str, Dict[str, object]]:
        """Advisory metadata (job coordinates) per fingerprint."""
        return dict(self._index)

    def clear(self) -> None:
        """Delete every persisted result and reset the index."""
        with self._lock:
            for path in self.results_dir.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
            self._index = {}
            self._bytes = 0
            with self._index_file_lock():
                self._merge_foreign_entries()
                self._compact_locked()

    def gc_orphans(self, min_age_seconds: float = 60.0) -> int:
        """Remove orphaned files a crashed writer left behind; returns
        the number of files deleted.

        Orphans are files in ``results/`` that are not live committed
        cache entries:

        * leftover ``*.tmp`` files from an interrupted atomic write, and
        * payload files whose fingerprint no index ever committed — a
          writer that died between ``put`` and ``flush_index`` in a
          *shared* cache directory (a fresh process over its own
          directory adopts such payloads at startup instead), or
          mislabelled/corrupt strays that never validated into any
          index rebuild.

        Entries committed by other writers sharing the directory are
        merged in first (under the index file lock) and never removed,
        and only files older than ``min_age_seconds`` are candidates —
        a concurrent writer's *in-flight* temp file (mkstemp done,
        ``os.replace`` pending) or just-written payload must never be
        yanked out from under it.  Hygiene for long-lived servers
        sharing one cache directory; safe to call any time — at worst a
        not-yet-flushed entry older than the threshold is swept, which
        only costs a recompile.
        """
        removed = 0
        # Compared against st_mtime, which is wall-clock by definition.
        cutoff = time.time() - max(0.0, min_age_seconds)  # lint: wall-clock
        with self._lock:
            with self._index_file_lock():
                self._merge_foreign_entries()
                for path in sorted(self.results_dir.iterdir()):
                    try:
                        if path.stat().st_mtime > cutoff:
                            continue
                    except OSError:
                        continue
                    if not self._is_orphan_locked(path):
                        continue
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    removed += 1
                # Drop index entries whose payloads are gone (another
                # process may have evicted them) and compact the tidied
                # index so the next load is not flagged stale.
                self._index = {fingerprint: meta for fingerprint, meta
                               in self._index.items() if fingerprint in self}
                self._compact_locked()
            self.orphans_removed += removed
            if self.max_bytes is not None:
                self._bytes = self.total_bytes()
        return removed

    def _is_orphan_locked(self, path: Path) -> bool:
        """True when ``path`` is not a live committed cache entry.

        Pure metadata checks — committed entries (the overwhelming
        common case) are recognised by the merged index without reading
        the payload, so a sweep over a large cache stays cheap while
        both locks are held.  Corrupt-but-committed payloads are left
        alone; the next read miss recompiles over them anyway.
        """
        if not path.is_file():
            return False
        if path.suffix != ".json":
            return True  # stray temp file from an interrupted write
        return path.stem not in self._index

    def total_bytes(self) -> int:
        """Current payload size on disk (what ``max_bytes`` caps)."""
        total = 0
        for path in self.results_dir.glob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def stats(self) -> Dict[str, object]:
        """Counters + size, JSON-compatible (for service telemetry).

        The counters are snapshotted under the cache lock so one call
        reports a mutually consistent set — a concurrent put cannot
        show up in ``writes`` but not yet in ``evictions`` — which is
        what lets ``/stats`` and ``/metrics`` agree on the disk tier.
        """
        size = len(self)
        total = self.total_bytes()
        with self._lock:
            return {
                "root": str(self.root),
                "size": size,
                "bytes": total,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
                "writes": self.writes,
                "evictions": self.evictions,
                "orphans_removed": self.orphans_removed,
            }

    def __repr__(self) -> str:
        return (f"DiskCache(root={str(self.root)!r}, size={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")
