"""Tests for :mod:`repro.journal`, the one JSONL journal primitive.

The format contract on its own (header once, torn-line accounting,
atomic rewrite), plus the byte-level pin: the tenancy job store's
``jobs.wal`` for a scripted event sequence must equal, byte for byte,
the WAL the store wrote before it was rebuilt on the primitive.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

from repro import journal
from repro.tenancy.store import JsonlJobStore
from repro.tenancy.tenants import Tenant

HEADER = {"type": "header", "version": 1}


class TestJournal:
    def test_header_is_written_once(self, tmp_path):
        path = tmp_path / "nested" / "log.jsonl"
        with journal.Journal(path, HEADER) as stream:
            stream.append({"n": 1})
        with journal.Journal(path, HEADER) as stream:
            stream.append({"n": 2})
        assert journal.read(path) == ([HEADER, {"n": 1}, {"n": 2}], 0)
        assert path.read_bytes() == (b'{"type":"header","version":1}\n'
                                     b'{"n":1}\n{"n":2}\n')

    def test_missing_file_reads_empty(self, tmp_path):
        assert journal.read(tmp_path / "absent.jsonl") == ([], 0)

    def test_non_object_lines_count_as_torn(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n[1, 2]\n"text"\n\n42\n{"b": 2}\n{"c"')
        assert journal.read(path) == ([{"a": 1}, {"b": 2}], 4)

    def test_append_after_torn_tail_starts_a_new_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"torn')
        with journal.Journal(path, HEADER) as stream:
            written = stream.append({"b": 2})
        assert written == len(b'{"b":2}\n')
        assert journal.read(path) == ([{"a": 1}, {"b": 2}], 1)

    def test_reads_files_written_with_spaces_and_sorted_keys(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"b": 2, "a": 1}\n')
        with journal.Journal(path) as stream:
            stream.append({"z": 0, "y": [1, 2]})
        assert journal.read(path) == ([{"b": 2, "a": 1},
                                       {"z": 0, "y": [1, 2]}], 0)
        assert path.read_text().endswith('{"z":0,"y":[1,2]}\n')

    def test_rewrite_replaces_contents_and_keeps_appending(self, tmp_path):
        path = tmp_path / "log.jsonl"
        stream = journal.Journal(path, HEADER)
        for n in range(3):
            stream.append({"n": n})
        stream.rewrite([{"n": 2}])
        stream.append({"n": 3})
        stream.close()
        assert journal.read(path) == ([HEADER, {"n": 2}, {"n": 3}], 0)
        assert sorted(os.listdir(tmp_path)) == ["log.jsonl"]

    def test_failed_rename_leaves_old_journal_intact(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "log.jsonl"
        stream = journal.Journal(path, HEADER)
        stream.append({"n": 1})
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(journal.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            stream.rewrite([{"n": 99}])
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert journal.read(path) == ([HEADER, {"n": 1}], 0)
        stream.append({"n": 2})  # still open on the old file
        stream.close()
        assert journal.read(path) == ([HEADER, {"n": 1}, {"n": 2}], 0)


# ----------------------------------------------------------------------
# jobs.wal byte-level pin
# ----------------------------------------------------------------------
ALICE = Tenant("alice", role="admin", api_key="k-alice", max_queued=4)


def job(index, tenant=None):
    """A ``QueuedJob`` stand-in with fixed timestamps and trace id."""
    return SimpleNamespace(
        job_id=f"job-{index:06d}", kind="sweep" if index % 2 else "compile",
        payload={"job": {"benchmark": "RD53", "policy": "square"},
                 "zeta": index, "alpha": [1, 2.5, None]},
        priority=index % 3, tenant=tenant, trace_id=f"{index:032x}",
        deadline_seconds=None if index % 2 else 30.0, state="QUEUED",
        submitted_at=1000.0 + index, started_at=None, finished_at=None,
        retries=0, response=None, error=None, entries=[])


def scripted_wal(root):
    """Drive a store through submit/transition/entry/forget/burst,
    automatic and forced compaction and a reopen; returns the WAL text
    just before the first compaction and at the end."""
    store = JsonlJobStore(root, compact_threshold=12)
    jobs = [job(index, ALICE if index == 0 else None) for index in range(6)]
    for queued in jobs[:3]:
        store.record_submit(queued)
    store.record_burst({"alice": 1.5, "bob": 0.25}, at=2000.0)
    first = jobs[0]
    first.state, first.started_at = "RUNNING", 1010.0
    store.record_transition(first)
    store.record_entry(first.job_id, {"ok": True, "index": 0,
                                      "row": {"b": 1, "a": "\u00e9"}})
    first.state, first.finished_at = "DONE", 1011.5
    first.response = {"ok": True, "rows": [{"b": 1, "a": 2}]}
    store.record_transition(first)
    second = jobs[1]
    second.state, second.finished_at = "FAILED", 1012.0
    second.error = {"error_type": "CompilationError", "message": "boom"}
    store.record_transition(second)
    store.forget([second.job_id])
    before_compaction = store.path.read_text(encoding="utf-8")
    store.record_submit(jobs[3])
    store.record_submit(jobs[4])  # line 12: automatic compaction
    assert store.compactions == 1
    jobs[2].state, jobs[2].retries = "RUNNING", 1
    store.record_transition(jobs[2])
    store.record_entry(first.job_id, {"ok": False, "index": 1})
    store.forget([jobs[3].job_id])
    store.compact()
    store.record_submit(jobs[5])
    store.close()
    reopened = JsonlJobStore(root, compact_threshold=12)
    reopened.record_burst({"alice": 0.5}, at=2100.0)
    reopened.close()
    return before_compaction, reopened.path.read_text(encoding="utf-8")


#: The WAL before the automatic compaction: every raw event type.
EXPECTED_BEFORE_COMPACTION = r'''{"type":"header","version":1}
{"job_id":"job-000000","kind":"compile","payload":{"job":{"benchmark":"RD53","policy":"square"},"zeta":0,"alpha":[1,2.5,null]},"priority":0,"tenant":{"name":"alice","role":"admin","max_queued":4},"trace_id":"00000000000000000000000000000000","deadline_seconds":30.0,"state":"QUEUED","submitted_at":1000.0,"started_at":null,"finished_at":null,"retries":0,"response":null,"error":null,"entries":[],"type":"submit"}
{"job_id":"job-000001","kind":"sweep","payload":{"job":{"benchmark":"RD53","policy":"square"},"zeta":1,"alpha":[1,2.5,null]},"priority":1,"tenant":null,"trace_id":"00000000000000000000000000000001","deadline_seconds":null,"state":"QUEUED","submitted_at":1001.0,"started_at":null,"finished_at":null,"retries":0,"response":null,"error":null,"entries":[],"type":"submit"}
{"job_id":"job-000002","kind":"compile","payload":{"job":{"benchmark":"RD53","policy":"square"},"zeta":2,"alpha":[1,2.5,null]},"priority":2,"tenant":null,"trace_id":"00000000000000000000000000000002","deadline_seconds":30.0,"state":"QUEUED","submitted_at":1002.0,"started_at":null,"finished_at":null,"retries":0,"response":null,"error":null,"entries":[],"type":"submit"}
{"scores":{"alice":1.5,"bob":0.25},"at":2000.0,"type":"burst"}
{"type":"state","job_id":"job-000000","state":"RUNNING","started_at":1010.0,"finished_at":null,"retries":0}
{"type":"entry","job_id":"job-000000","record":{"ok":true,"index":0,"row":{"b":1,"a":"\u00e9"}}}
{"type":"state","job_id":"job-000000","state":"DONE","started_at":1010.0,"finished_at":1011.5,"retries":0,"response":{"ok":true,"rows":[{"b":1,"a":2}]}}
{"type":"state","job_id":"job-000001","state":"FAILED","started_at":null,"finished_at":1012.0,"retries":0,"error":{"error_type":"CompilationError","message":"boom"}}
{"type":"forget","job_id":"job-000001"}
'''

#: The final WAL: a compaction, later appends, and a reopened store.
EXPECTED_FINAL = r'''{"type":"header","version":1}
{"job_id":"job-000000","kind":"compile","payload":{"job":{"benchmark":"RD53","policy":"square"},"zeta":0,"alpha":[1,2.5,null]},"priority":0,"tenant":{"name":"alice","role":"admin","max_queued":4},"trace_id":"00000000000000000000000000000000","deadline_seconds":30.0,"state":"DONE","submitted_at":1000.0,"started_at":1010.0,"finished_at":1011.5,"retries":0,"response":{"ok":true,"rows":[{"b":1,"a":2}]},"error":null,"entries":[{"ok":true,"index":0,"row":{"b":1,"a":"\u00e9"}},{"ok":false,"index":1}],"type":"snapshot"}
{"job_id":"job-000002","kind":"compile","payload":{"job":{"benchmark":"RD53","policy":"square"},"zeta":2,"alpha":[1,2.5,null]},"priority":2,"tenant":null,"trace_id":"00000000000000000000000000000002","deadline_seconds":30.0,"state":"RUNNING","submitted_at":1002.0,"started_at":null,"finished_at":null,"retries":1,"response":null,"error":null,"entries":[],"type":"snapshot"}
{"job_id":"job-000004","kind":"compile","payload":{"job":{"benchmark":"RD53","policy":"square"},"zeta":4,"alpha":[1,2.5,null]},"priority":1,"tenant":null,"trace_id":"00000000000000000000000000000004","deadline_seconds":30.0,"state":"QUEUED","submitted_at":1004.0,"started_at":null,"finished_at":null,"retries":0,"response":null,"error":null,"entries":[],"type":"snapshot"}
{"scores":{"alice":1.5,"bob":0.25},"at":2000.0,"type":"burst"}
{"job_id":"job-000005","kind":"sweep","payload":{"job":{"benchmark":"RD53","policy":"square"},"zeta":5,"alpha":[1,2.5,null]},"priority":2,"tenant":null,"trace_id":"00000000000000000000000000000005","deadline_seconds":null,"state":"QUEUED","submitted_at":1005.0,"started_at":null,"finished_at":null,"retries":0,"response":null,"error":null,"entries":[],"type":"submit"}
{"scores":{"alice":0.5},"at":2100.0,"type":"burst"}
'''


def test_jobs_wal_bytes_are_unchanged(tmp_path):
    before, final = scripted_wal(tmp_path)
    assert before == EXPECTED_BEFORE_COMPACTION
    assert final == EXPECTED_FINAL
