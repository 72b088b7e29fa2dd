"""Golden compile digests: the compiler's output, pinned byte for byte.

Every registry benchmark is compiled at quick scale under the four
policies of Section V on an autosized NISQ lattice and an autosized FT
lattice.  Each result is reduced to the sha256 of its canonical
``CompilationResult.to_dict()`` (timing fields removed, scheduled gates
recorded) and compared with ``tests/golden/compile_digests.json``.  A
refactor or speed-up that claims to keep behaviour must leave every
digest unchanged.

A change that alters compiler output on purpose regenerates the file
with::

    PYTHONPATH=src python tests/test_golden_digests.py --update

and says why in its change notes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

from repro.api import CompileJob, MachineSpec, execute_job
from repro.experiments.runner import ft_lattice_spec, nisq_lattice_spec
from repro.workloads.registry import benchmark_names, benchmark_overrides

GOLDEN_PATH = Path(__file__).parent / "golden" / "compile_digests.json"
POLICIES = ("eager", "lazy", "square-laa", "square")
MACHINES: Dict[str, MachineSpec] = {
    "nisq": nisq_lattice_spec(64),
    "ft": ft_lattice_spec(64),
}
#: ``to_dict`` fields that differ between two compiles of the same job.
TIMING_FIELDS = ("compile_seconds", "phase_seconds")


def result_digest(result_dict: Dict[str, object]) -> str:
    """sha256 of a serialized result without its timing fields."""
    kept = {key: value for key, value in result_dict.items()
            if key not in TIMING_FIELDS}
    canonical = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def golden_jobs() -> Iterator[Tuple[str, CompileJob]]:
    """(key, job) for every benchmark x policy x machine, in a fixed order."""
    for benchmark in benchmark_names():
        overrides = benchmark_overrides(benchmark, "quick")
        for policy in POLICIES:
            for machine_key, spec in MACHINES.items():
                job = CompileJob.for_benchmark(
                    benchmark, spec, policy, overrides=overrides,
                    record_schedule=True)
                yield f"{benchmark}|{policy}|{machine_key}", job


def compute_digests() -> Dict[str, str]:
    """Compile every golden job and digest its result."""
    return {key: result_digest(execute_job(job).to_dict())
            for key, job in golden_jobs()}


def test_compile_digests_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(golden), "golden job set changed"
    changed = sorted(key for key in golden if actual[key] != golden[key])
    assert not changed, f"compiler output changed for {changed}"


def test_digest_ignores_only_timing_fields():
    base = {"gate_count": 3, "compile_seconds": 0.5,
            "phase_seconds": {"allocation": 0.1}}
    retimed = dict(base, compile_seconds=9.0, phase_seconds={})
    assert result_digest(base) == result_digest(retimed)
    assert result_digest(base) != result_digest(dict(base, gate_count=4))


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        pytest.exit("usage: test_golden_digests.py --update", returncode=2)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_digests(), indent=1,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
