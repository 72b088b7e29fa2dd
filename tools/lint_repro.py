#!/usr/bin/env python3
"""Project-specific static lint for concurrency and timing hazards.

Pure-stdlib (``ast``) checks for the failure modes this codebase has
actually hit in its threaded service stack — the classes of bug the
generic linters don't know about:

* **LR001 wall-clock** — ``time.time()`` inside the queue/service/
  cluster layers.  Durations and deadlines there must use
  ``time.monotonic()`` (wall clocks jump under NTP/DST and corrupt
  uptimes and timeouts).  Genuine wall-clock timestamps (wire records,
  file-mtime comparisons) are annotated ``# lint: wall-clock``.
* **LR002 bare-except** — ``except:`` swallows ``KeyboardInterrupt``
  and ``SystemExit``; catch ``Exception`` (or narrower) instead.
* **LR003 thread-daemon** — ``threading.Thread(...)`` without
  ``daemon=``: a forgotten non-daemon thread blocks interpreter exit.
  Threads that are explicitly joined carry ``# lint: joined-thread``.
* **LR004 lock-guard** — an attribute mutated under ``with self.<lock>``
  in one method but mutated bare in another method of the same class is
  a data race.  Constructors are exempt (no sharing yet); intentional
  unguarded writes carry ``# lint: unlocked``.
* **LR005 telemetry-clock** — ``time.time()`` anywhere in
  ``src/repro/telemetry/`` or in the compiler's phase timers
  (``core/compiler.py``).  Timing instruments (histograms, EWMA rates,
  phase timers) must read ``time.monotonic()`` or
  ``time.perf_counter()``; a wall clock that steps under NTP produces
  negative or wildly wrong durations.  Genuine timestamps are annotated
  ``# lint: wall-clock`` like LR001.
* **LR006 manual-span** — a ``Span`` started via ``.start()`` with no
  ``finally`` that finishes it (and ``Span(...).start()`` inline, which
  nothing can ever finish).  An unfinished span never reaches its
  recorder, so the leak is invisible until a waterfall comes up empty;
  open spans with ``with recorder.span(...)`` instead, or close the
  manual start in a ``try/finally``.  Deliberate manual lifecycles
  carry ``# lint: manual-span``.
* **LR007 journal-append** — ``open(...)`` in an append mode anywhere in
  ``src/repro`` outside ``repro/journal.py``.  A hand-rolled append
  journal re-grows the torn-tail bug that module fixes (the first
  record written after a crash glued onto the torn line, then dropped
  by the next replay); append through ``repro.journal.Journal``.

Suppression: a ``# lint: <tag>[, <tag>...]`` comment on the offending
line disables the matching rule there (``# lint: off`` disables all).

Usage::

    python tools/lint_repro.py            # lint src/repro + tools
    python tools/lint_repro.py PATH ...   # lint specific files/trees

Exit status 1 when any finding is reported, 0 when clean.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

#: Rule id -> (pragma tag, one-line description).
RULES: Dict[str, Tuple[str, str]] = {
    "LR001": ("wall-clock",
              "time.time() in queue/service/cluster code; use "
              "time.monotonic() for durations"),
    "LR002": ("bare-except",
              "bare `except:` swallows KeyboardInterrupt/SystemExit"),
    "LR003": ("joined-thread",
              "threading.Thread(...) without daemon=; non-daemon "
              "threads block interpreter exit"),
    "LR004": ("unlocked",
              "lock-guarded attribute mutated outside `with self.<lock>`"),
    "LR005": ("wall-clock",
              "time.time() in telemetry/phase-timing code; timing "
              "instruments must use time.monotonic()/perf_counter()"),
    "LR006": ("manual-span",
              "Span started manually without a finally/with closing "
              "it; unfinished spans never reach their recorder"),
    "LR007": ("journal-append",
              "open(...) in append mode outside repro/journal.py; "
              "append through repro.journal.Journal"),
}

#: Directory names whose files get the LR001 wall-clock rule.
MONOTONIC_LAYERS = ("queue", "service", "cluster", "tenancy")

#: Files whose durations feed metrics directly: the LR005 rule.
TELEMETRY_LAYER = "telemetry"
PHASE_TIMER_FILES = (("core", "compiler.py"),)

#: Package whose files get the LR007 rule, and its one exempt file.
JOURNAL_PACKAGE = "repro"
JOURNAL_FILE = ("repro", "journal.py")

_PRAGMA = re.compile(r"#\s*lint:\s*([\w\-, ]+)")

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore",
                   "BoundedSemaphore"}


class Finding(NamedTuple):
    path: str
    line: int
    rule: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _pragmas(source: str) -> Dict[int, Set[str]]:
    """Per-line suppression tags from ``# lint: ...`` comments."""
    tags: Dict[int, Set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match:
            tags[number] = {tag.strip()
                            for tag in match.group(1).split(",")}
    return tags


def _suppressed(pragmas: Dict[int, Set[str]], line: int, rule: str) -> bool:
    tags = pragmas.get(line, set())
    return "off" in tags or RULES[rule][0] in tags


def _is_call_to(node: ast.AST, module: str, name: str) -> bool:
    """True for ``module.name(...)`` and bare ``name(...)`` calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (func.attr == name and isinstance(func.value, ast.Name)
                and func.value.id == module)
    return isinstance(func, ast.Name) and func.id == name


# ----------------------------------------------------------------------
# LR001 / LR002 / LR003 / LR007: single-pass node checks
# ----------------------------------------------------------------------
def _check_wall_clock(tree: ast.AST) -> Iterable[Tuple[int, str]]:
    for node in ast.walk(tree):
        if _is_call_to(node, "time", "time"):
            yield (node.lineno,
                   "time.time() used here; durations/deadlines need "
                   "time.monotonic() (annotate `# lint: wall-clock` for "
                   "genuine timestamps)")


def _time_aliases(tree: ast.AST) -> Tuple[Set[str], Set[str]]:
    """Names the ``time`` module (and its ``time`` function) is bound to.

    Returns ``(module_names, function_names)`` covering ``import time``,
    ``import time as _time`` and ``from time import time [as now]`` —
    the phase timers alias the module, so a literal ``time.time`` match
    would miss them.
    """
    modules: Set[str] = set()
    functions: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    functions.add(alias.asname or alias.name)
    return modules, functions


def _check_telemetry_clock(tree: ast.AST) -> Iterable[Tuple[int, str]]:
    modules, functions = _time_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        module_call = (isinstance(func, ast.Attribute)
                       and func.attr == "time"
                       and isinstance(func.value, ast.Name)
                       and func.value.id in modules)
        bare_call = (isinstance(func, ast.Name) and func.id in functions)
        if module_call or bare_call:
            yield (node.lineno,
                   "wall clock read in timing instrumentation; use "
                   "time.monotonic()/time.perf_counter() (annotate "
                   "`# lint: wall-clock` for genuine timestamps)")


def _check_bare_except(tree: ast.AST) -> Iterable[Tuple[int, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield (node.lineno,
                   "bare `except:`; catch Exception (or narrower) so "
                   "KeyboardInterrupt/SystemExit still propagate")


def _check_thread_daemon(tree: ast.AST) -> Iterable[Tuple[int, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        named_thread = (isinstance(func, ast.Attribute)
                        and func.attr == "Thread"
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "threading")
        bare_thread = isinstance(func, ast.Name) and func.id == "Thread"
        if not (named_thread or bare_thread):
            continue
        if any(keyword.arg == "daemon" for keyword in node.keywords):
            continue
        yield (node.lineno,
               "threading.Thread without daemon=; pass daemon=True, or "
               "annotate `# lint: joined-thread` when the thread is "
               "explicitly joined")


def _is_append_mode(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "a" in node.value and set(node.value) <= set("rwxabt+"))


def _check_journal_append(tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Flag ``open(path, "a")``, ``io.open(...)`` and ``Path.open("a")``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2]
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            modes = node.args[:2]
        else:
            continue
        modes += [keyword.value for keyword in node.keywords
                  if keyword.arg == "mode"]
        if any(_is_append_mode(mode) for mode in modes):
            yield (node.lineno,
                   "open() in append mode; append through "
                   "repro.journal.Journal, which keeps a torn tail from "
                   "swallowing the next record")


# ----------------------------------------------------------------------
# LR006: span lifecycle discipline
# ----------------------------------------------------------------------
def _is_span_ctor(node: ast.AST) -> bool:
    """True for ``Span(...)`` / ``spans.Span(...)`` constructor calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "Span"
    return isinstance(func, ast.Name) and func.id == "Span"


def _target_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a simple target (``span``, ``self.span``)."""
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)):
        return f"{node.value.id}.{node.attr}"
    return None


def _check_manual_span(tree: ast.AST) -> Iterable[Tuple[int, str]]:
    """Flag ``Span`` objects started manually with nothing closing them.

    A span that is never finished never reaches its recorder — the job
    silently vanishes from every waterfall.  The safe forms are a
    ``with recorder.span(...)`` / ``with Span(...)`` block, or a manual
    ``.start()`` inside a ``try`` whose ``finally`` calls ``.finish()``
    (or ``.close()``) on the same name.
    """
    span_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_span_ctor(node.value):
            for target in node.targets:
                name = _target_name(target)
                if name is not None:
                    span_names.add(name)

    # Line ranges of try-bodies whose finally finishes a given name.
    protected: List[Tuple[int, int, Set[str]]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        finished: Set[str] = set()
        for statement in node.finalbody:
            for call in ast.walk(statement):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("finish", "close")):
                    name = _target_name(call.func.value)
                    if name is not None:
                        finished.add(name)
        if finished:
            low = node.lineno
            high = max(statement.end_lineno or statement.lineno
                       for statement in node.body)
            protected.append((low, high, finished))

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "start"):
            continue
        if _is_span_ctor(func.value):
            yield (node.lineno,
                   "Span(...).start() discards the only reference; the "
                   "span can never be finished — use `with "
                   "recorder.span(...)` instead")
            continue
        name = _target_name(func.value)
        if name is None or name not in span_names:
            continue
        if any(low <= node.lineno <= high and name in names
               for low, high, names in protected):
            continue
        yield (node.lineno,
               f"{name}.start() has no finally/with closing it; an "
               f"unfinished span never reaches its recorder — use "
               f"`with recorder.span(...)`, close it in try/finally, or "
               f"annotate `# lint: manual-span`")


# ----------------------------------------------------------------------
# LR004: lock-guarded attribute discipline, per class
# ----------------------------------------------------------------------
class _Mutation(NamedTuple):
    attr: str
    line: int
    guarded: bool
    method: str


def _lock_attrs(class_node: ast.ClassDef) -> Set[str]:
    """Attributes assigned a ``threading.Lock()``-family object."""
    locks: Set[str] = set()
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        is_lock = any(_is_call_to(value, "threading", factory)
                      for factory in _LOCK_FACTORIES)
        if not is_lock:
            continue
        for target in node.targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                locks.add(target.attr)
    return locks


def _with_holds_lock(node: ast.With, locks: Set[str]) -> bool:
    for item in node.items:
        expr = item.context_expr
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self" and expr.attr in locks):
            return True
    return False


def _self_attr_targets(node: ast.stmt) -> List[Tuple[str, int]]:
    """``self.<attr>`` names written by an Assign/AugAssign statement."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    written = []
    for target in targets:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            written.append((target.attr, node.lineno))
    return written


def _collect_mutations(method: ast.FunctionDef, locks: Set[str],
                       inside: bool = False) -> List[_Mutation]:
    mutations: List[_Mutation] = []

    def visit(statements: Iterable[ast.stmt], guarded: bool) -> None:
        for statement in statements:
            for attr, line in _self_attr_targets(statement):
                mutations.append(_Mutation(attr, line, guarded,
                                           method.name))
            if isinstance(statement, ast.With):
                visit(statement.body,
                      guarded or _with_holds_lock(statement, locks))
            elif isinstance(statement, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                continue  # nested defs run later, under their own rules
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(statement, field, []) or [], guarded)
                for handler in getattr(statement, "handlers", []) or []:
                    visit(handler.body, guarded)

    visit(method.body, inside)
    return mutations


def _check_lock_guard(tree: ast.AST) -> Iterable[Tuple[int, str]]:
    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        locks = _lock_attrs(class_node)
        if not locks:
            continue
        mutations: List[_Mutation] = []
        for node in class_node.body:
            if isinstance(node, ast.FunctionDef):
                mutations.extend(_collect_mutations(node, locks))
        guarded_attrs = {m.attr for m in mutations
                         if m.guarded and m.method != "__init__"}
        for mutation in mutations:
            if mutation.guarded or mutation.method == "__init__":
                continue
            if mutation.attr in locks or mutation.attr not in guarded_attrs:
                continue
            yield (mutation.line,
                   f"self.{mutation.attr} is mutated under a lock "
                   f"elsewhere in {class_node.name} but bare here in "
                   f"{mutation.method}(); wrap in `with self.<lock>` or "
                   f"annotate `# lint: unlocked`")


# ----------------------------------------------------------------------
def lint_file(path: Path, root: Path) -> List[Finding]:
    """Run every applicable rule over one file."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [Finding(str(path), error.lineno or 0, "LR000",
                        f"syntax error: {error.msg}")]
    pragmas = _pragmas(source)
    relative = path.relative_to(root) if path.is_relative_to(root) else path
    checks = [("LR002", _check_bare_except),
              ("LR003", _check_thread_daemon),
              ("LR004", _check_lock_guard),
              ("LR006", _check_manual_span)]
    if any(layer in relative.parts for layer in MONOTONIC_LAYERS):
        checks.insert(0, ("LR001", _check_wall_clock))
    if (TELEMETRY_LAYER in relative.parts
            or relative.parts[-2:] in [tuple(p) for p in PHASE_TIMER_FILES]):
        checks.append(("LR005", _check_telemetry_clock))
    if (JOURNAL_PACKAGE in relative.parts
            and relative.parts[-2:] != JOURNAL_FILE):
        checks.append(("LR007", _check_journal_append))
    findings = []
    for rule, check in checks:
        for line, message in check(tree):
            if not _suppressed(pragmas, line, rule):
                findings.append(Finding(str(relative), line, rule, message))
    return sorted(findings)


def lint_paths(paths: Iterable[Path], root: Path) -> List[Finding]:
    findings: List[Finding] = []
    for path in paths:
        if path.is_dir():
            findings.extend(finding
                            for file in sorted(path.rglob("*.py"))
                            for finding in lint_file(file, root))
        else:
            findings.extend(lint_file(path, root))
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repo-specific concurrency/timing lint (see module "
                    "docstring for the rule table).")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint "
                             "(default: src/repro and tools)")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    paths = args.paths or [root / "src" / "repro", root / "tools"]
    findings = lint_paths(paths, root)
    for finding in findings:
        print(finding.describe())
    if findings:
        print(f"\n{len(findings)} finding(s).", file=sys.stderr)
        return 1
    print("lint_repro: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
