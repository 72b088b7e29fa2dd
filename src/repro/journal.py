"""The one append-only JSONL journal format of the service stack.

The tenancy ``jobs.wal``, the tuner's trial journal, the telemetry
event-log sink and ``bench_history/<suite>.jsonl`` all write through
here and keep only their record schema.  A journal is one JSON object
per line (compact separators, keys in insertion order), an optional
header as line 1, and a flush per append, so a crash leaves at most one
torn final line.  :func:`read` counts that line instead of failing, and
reopening terminates it, so the next record is not glued onto it and
lost on the following replay.  Callers hold their own locks.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["Journal", "read"]


def _encode(record: Mapping[str, object]) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


def read(path) -> Tuple[List[Dict[str, object]], int]:
    """``(records, torn)``: every JSON-object line of ``path`` in order,
    and the count of non-blank lines that are not one.  A missing file
    reads as ``([], 0)``; any JSON-object lines read, whatever their
    separators or key order."""
    try:
        with open(path, "rb") as stream:
            lines = stream.read().splitlines()
    except FileNotFoundError:
        return [], 0
    records: List[Dict[str, object]] = []
    torn = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict):
            records.append(record)
        else:
            torn += 1
    return records, torn


class Journal:
    """An open journal; ``header`` is written as line 1 of an empty file
    and of every :meth:`rewrite`.  The parent directory is created."""

    def __init__(self, path, header: Optional[Mapping[str, object]] = None
                 ) -> None:
        self.path = Path(path)
        self.header = header
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._open()

    def _open(self) -> None:
        self._stream = open(self.path, "ab")
        if self._stream.tell() == 0:
            if self.header is not None:
                self.append(self.header)
            return
        with open(self.path, "rb") as tail:
            tail.seek(-1, os.SEEK_END)
            torn = tail.read(1) != b"\n"
        if torn:
            # A torn final line: end it, so it stays one torn line and
            # the next record starts a line of its own.
            self._stream.write(b"\n")
            self._stream.flush()

    def append(self, record: Mapping[str, object]) -> int:
        """Write one record line, flushed; returns the bytes written."""
        line = _encode(record)
        self._stream.write(line)
        self._stream.flush()
        return len(line)

    def rewrite(self, records: Iterable[Mapping[str, object]]) -> None:
        """Atomically replace the file with header + ``records``.

        Temp file, fsync, rename: a crash leaves the old journal or the
        new one, never a mix, and a failed rename leaves this journal
        appending to the old file.
        """
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as stream:
            if self.header is not None:
                stream.write(_encode(self.header))
            for record in records:
                stream.write(_encode(record))
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, self.path)
        self._stream.close()
        self._open()

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
