"""Tests for ``tools/lint_repro.py``: the concurrency/timing lint.

Seeds each violation class into a temp tree and asserts the matching
rule fires (and that the documented pragmas suppress it), then asserts
the real repo lints clean — the same gate CI runs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "lint_repro", ROOT / "tools" / "lint_repro.py")
lint_repro = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint_repro)


def _lint_source(tmp_path: Path, source: str,
                 relative: str = "queue/sample.py"):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_repro.lint_file(path, tmp_path)


def _rules(findings):
    return [finding.rule for finding in findings]


def test_wall_clock_flagged_in_monotonic_layers(tmp_path):
    findings = _lint_source(tmp_path, "import time\nnow = time.time()\n")
    assert _rules(findings) == ["LR001"]


def test_wall_clock_pragma_suppresses(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import time\nstamp = time.time()  # lint: wall-clock\n")
    assert findings == []


def test_wall_clock_ignored_outside_layers(tmp_path):
    findings = _lint_source(tmp_path, "import time\nnow = time.time()\n",
                            relative="core/sample.py")
    assert findings == []


def test_bare_except_flagged(tmp_path):
    source = "try:\n    pass\nexcept:\n    pass\n"
    findings = _lint_source(tmp_path, source, relative="core/sample.py")
    assert _rules(findings) == ["LR002"]


def test_thread_without_daemon_flagged_and_pragma(tmp_path):
    source = ("import threading\n"
              "a = threading.Thread(target=print)\n"
              "b = threading.Thread(target=print)  # lint: joined-thread\n"
              "c = threading.Thread(target=print, daemon=True)\n")
    findings = _lint_source(tmp_path, source, relative="core/sample.py")
    assert _rules(findings) == ["LR003"]
    assert findings[0].line == 2


def test_lock_guarded_attribute_mutated_bare(tmp_path):
    source = (
        "import threading\n"
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.hits = 0\n"          # constructor: exempt
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.hits += 1\n"     # guarded
        "    def reset(self):\n"
        "        self.hits = 0\n"          # bare: LR004
        "    def reset_quietly(self):\n"
        "        self.hits = 0  # lint: unlocked\n"
    )
    findings = _lint_source(tmp_path, source, relative="core/sample.py")
    assert _rules(findings) == ["LR004"]
    assert findings[0].line == 10


def test_lock_free_class_is_not_checked(tmp_path):
    source = ("class Plain:\n"
              "    def __init__(self):\n"
              "        self.hits = 0\n"
              "    def bump(self):\n"
              "        self.hits += 1\n")
    findings = _lint_source(tmp_path, source, relative="core/sample.py")
    assert findings == []


def test_telemetry_clock_flagged_in_telemetry_layer(tmp_path):
    findings = _lint_source(tmp_path, "import time\nnow = time.time()\n",
                            relative="telemetry/sample.py")
    assert _rules(findings) == ["LR005"]


def test_telemetry_clock_sees_through_module_alias(tmp_path):
    # The compiler's phase timers import `time as _time`; the rule must
    # catch the aliased wall-clock read, and the file is selected by
    # exact path, not layer directory.
    findings = _lint_source(
        tmp_path,
        "import time as _time\nstarted = _time.time()\n",
        relative="core/compiler.py")
    assert _rules(findings) == ["LR005"]


def test_telemetry_clock_sees_from_import(tmp_path):
    findings = _lint_source(
        tmp_path,
        "from time import time as now\nstamp = now()\n",
        relative="telemetry/sample.py")
    assert _rules(findings) == ["LR005"]


def test_telemetry_clock_allows_monotonic_and_pragma(tmp_path):
    source = ("import time\n"
              "a = time.monotonic()\n"
              "b = time.perf_counter()\n"
              "c = time.time()  # lint: wall-clock\n")
    findings = _lint_source(tmp_path, source, relative="telemetry/sample.py")
    assert findings == []


def test_telemetry_clock_ignored_outside_its_files(tmp_path):
    findings = _lint_source(tmp_path, "import time\nnow = time.time()\n",
                            relative="core/other.py")
    assert findings == []


def test_manual_span_start_flagged(tmp_path):
    source = ("from repro.telemetry import Span\n"
              "span = Span('job')\n"
              "span.start()\n")
    findings = _lint_source(tmp_path, source, relative="core/sample.py")
    assert _rules(findings) == ["LR006"]
    assert findings[0].line == 3


def test_inline_span_start_flagged(tmp_path):
    # Span(...).start() discards the only reference — nothing can ever
    # finish it, pragma or not the diagnostic must fire.
    source = ("from repro.telemetry import Span\n"
              "Span('job').start()\n")
    findings = _lint_source(tmp_path, source, relative="core/sample.py")
    assert _rules(findings) == ["LR006"]


def test_span_started_in_try_finally_is_clean(tmp_path):
    source = ("from repro.telemetry import Span\n"
              "span = Span('job')\n"
              "try:\n"
              "    span.start()\n"
              "    work()\n"
              "finally:\n"
              "    span.finish()\n")
    findings = _lint_source(tmp_path, source, relative="core/sample.py")
    assert findings == []


def test_span_context_manager_is_clean(tmp_path):
    source = ("from repro.telemetry import Span\n"
              "with Span('job') as span:\n"
              "    work(span)\n")
    findings = _lint_source(tmp_path, source, relative="core/sample.py")
    assert findings == []


def test_manual_span_pragma_suppresses(tmp_path):
    source = ("from repro.telemetry import Span\n"
              "span = Span('job')\n"
              "span.start()  # lint: manual-span\n")
    findings = _lint_source(tmp_path, source, relative="core/sample.py")
    assert findings == []


def test_unrelated_start_calls_not_flagged(tmp_path):
    # .start() on non-Span objects (threads, consumers) is out of scope.
    source = ("import threading\n"
              "thread = threading.Thread(target=print, daemon=True)\n"
              "thread.start()\n")
    findings = _lint_source(tmp_path, source, relative="core/sample.py")
    assert findings == []


APPEND_SOURCE = ("from pathlib import Path\n"
                 "a = open('x.jsonl', 'a', encoding='utf-8')\n"
                 "b = Path('x.jsonl').open(mode='ab')\n"
                 "c = open('x.jsonl', 'r')\n"
                 "d = open('x.jsonl', 'w')\n"
                 "e = Path('x.jsonl').open()\n")


def test_append_open_flagged_in_repro_package(tmp_path):
    findings = _lint_source(tmp_path, APPEND_SOURCE,
                            relative="repro/tenancy/store.py")
    assert [(f.rule, f.line) for f in findings] == \
        [("LR007", 2), ("LR007", 3)]


def test_append_open_allowed_in_journal_module_and_outside_repro(tmp_path):
    assert _lint_source(tmp_path, APPEND_SOURCE,
                        relative="repro/journal.py") == []
    assert _lint_source(tmp_path, APPEND_SOURCE,
                        relative="scripts/sample.py") == []


def test_journal_append_pragma_suppresses(tmp_path):
    source = "log = open('x.log', 'a')  # lint: journal-append\n"
    assert _lint_source(tmp_path, source,
                        relative="repro/service/sample.py") == []


def test_lint_off_pragma_disables_all_rules(tmp_path):
    findings = _lint_source(tmp_path,
                            "import time\nnow = time.time()  # lint: off\n")
    assert findings == []


def test_repo_lints_clean():
    """The gate CI runs: the shipped tree has no findings."""
    findings = lint_repro.lint_paths(
        [ROOT / "src" / "repro", ROOT / "tools"], ROOT)
    assert findings == [], [finding.describe() for finding in findings]
