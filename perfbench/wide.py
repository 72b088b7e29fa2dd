"""The ``wide-quick`` workload: the Figure 9/10 compile sweep in process.

Five quick-scale programs under the four policies on the autosized NISQ
lattice (Figure 9) and the autosized FT lattice (Figure 10): 40 jobs,
run one by one through a serial ``Session.run`` in the order the seed
permutes.  The compile core does all the work.

The scale is ``quick`` because the host's speed switches between a fast
and a slow state (1.7-2x apart) every few minutes.  At laptop scale a
run took 50-110 s, so ten runs crossed a switch nearly every time; at
quick scale ten runs take a few minutes, like the service workloads.

The job list is timed in ``PASSES`` passes.  A job's latency is its
fastest pass and ``sweep_s`` the wall time of the fastest pass, so a
slow spell during one pass moves neither figure.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import CompileJob, Session, SweepSpec, autosize_compile
from repro.core.result import CompilationResult
from repro.experiments.runner import DEFAULT_POLICIES, ft_lattice_spec, \
    nisq_lattice_spec
from repro.workloads.registry import load_scaled_benchmark

import common

#: MUL32 is the compile hot path of ROADMAP item 2; MODEXP and Belle are
#: the only programs where CER reclaims anything; SHA2 is where SQUARE
#: loses most AQV to Lazy.  ADDER64 is the wide adder.  MUL64 and SALSA20
#: take the same code paths at 2-3x the time, so they are left out.
PROGRAMS = ("ADDER64", "MUL32", "MODEXP", "SHA2", "Belle")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5

#: Timed passes over the job list in an untraced run.
PASSES = 3

#: Program size scale of the sweep (see the module docstring).
SCALE = "quick"

_SETUP_SNIPPET = (
    "from repro.api import Session, SweepSpec\n"
    "from repro.experiments.runner import ft_lattice_spec, nisq_lattice_spec\n"
    "from repro.verify import verify_result\n"
    "SweepSpec(benchmarks={programs!r}, machines=(nisq_lattice_spec(64), "
    "ft_lattice_spec(64)), policies={policies!r}, scales=({scale!r},)).jobs()\n"
)


def sweep_jobs(seed: int) -> List[CompileJob]:
    spec = SweepSpec(benchmarks=PROGRAMS,
                     machines=(nisq_lattice_spec(start_qubits=64),
                               ft_lattice_spec(start_qubits=64)),
                     policies=tuple(DEFAULT_POLICIES), scales=(SCALE,))
    jobs = spec.jobs()
    random.Random(seed).shuffle(jobs)
    return jobs


def measure_setup(src: str) -> List[float]:
    """Seconds for a fresh interpreter to import the sweep's modules and
    expand its job list: the cost paid before the first compile."""
    snippet = _SETUP_SNIPPET.format(programs=PROGRAMS,
                                    policies=tuple(DEFAULT_POLICIES),
                                    scale=SCALE)
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", snippet], check=True,
                       env=dict(os.environ, PYTHONPATH=src),
                       stdout=subprocess.DEVNULL, timeout=60)
        samples.append(time.perf_counter() - started)
    return samples


def run_plain(jobs: Sequence[CompileJob]
              ) -> Tuple[List[Optional[CompilationResult]], List[float], float]:
    """The timed sweep: one ``Session.run`` call per job, in order."""
    session = Session()
    results: List[Optional[CompilationResult]] = []
    latencies: List[float] = []
    started = time.perf_counter()
    for job in jobs:
        begun = time.perf_counter()
        entry = session.run([job], isolate_failures=True)[0]
        latencies.append(time.perf_counter() - begun)
        results.append(entry.result)
    return results, latencies, time.perf_counter() - started


def landed_jobs(jobs: Sequence[CompileJob],
                results: Sequence[CompilationResult]) -> List[CompileJob]:
    """Each job with its autosize search starting where the sweep landed.

    ``autosize_compile`` compiles every size from scratch, so a search
    that starts at the landed size gives the sweep's result without
    repeating the attempts the sweep threw away.  The landed size is the
    first size of the sweep's doubling sequence whose machine has the
    result's machine name.
    """
    landed = []
    for job, result in zip(jobs, results):
        spec = job.machine
        qubits = min(max(spec.start_qubits, result.num_entry_params + 4),
                     spec.max_qubits)
        while spec.build(qubits).name != result.machine_name:
            if qubits >= spec.max_qubits:
                raise ValueError(f"no size of {spec.describe()} builds "
                                 f"{result.machine_name}")
            qubits = min(qubits * 2, spec.max_qubits)
        landed.append(replace(job, machine=replace(spec,
                                                   start_qubits=qubits)))
    return landed


def run_traced(jobs: Sequence[CompileJob], log: common.SpanLog
               ) -> Tuple[List[CompilationResult], List[float], float]:
    """The same sweep with a span around each layer call.

    ``autosize_compile`` gets an instrumented ``machine_for``: each call
    is a build span, and the time from one build's hand-over to the next
    build (or to the return) is a compile attempt.  Attempts followed by
    another build raised ``ResourceExhaustedError`` and were thrown away.
    """
    results: List[CompilationResult] = []
    latencies: List[float] = []
    started = time.perf_counter()
    for job in jobs:
        begun = time.perf_counter()
        program = load_scaled_benchmark(job.benchmark, SCALE)
        loaded = time.perf_counter()
        log.add("workloads.load", loaded - begun)
        root = log.add("api.autosize", 0.0)
        spec = job.machine
        attempt_start: List[float] = []

        def machine_for(qubits: int, spec=spec, root=root,
                        attempt_start=attempt_start):
            now = time.perf_counter()
            if attempt_start:
                log.add("api.autosize.wasted", now - attempt_start[0], root)
            machine = spec.build(qubits)
            built = time.perf_counter()
            log.add("arch.build", built - now, root)
            attempt_start[:] = [built]
            return machine

        result = autosize_compile(program, machine_for, job.config,
                                  start_qubits=spec.start_qubits,
                                  max_qubits=spec.max_qubits)
        finished = time.perf_counter()
        log.durations[root] = finished - loaded
        compiled = log.add("core.compile", finished - attempt_start[0], root)
        for phase, seconds in result.phase_seconds.items():
            log.add(f"phase.{phase}", seconds, compiled)
        latencies.append(finished - begun)
        results.append(result)
    return results, latencies, time.perf_counter() - started


def _check_and_describe(jobs, results, outcome: common.Outcome, seed: int,
                        known: Sequence[str],
                        log: Optional[common.SpanLog]) -> Dict[str, object]:
    """Hard checks and quality ratios over one pass's results."""
    good = [result for result in results if result is not None]
    findings = common.verify_results(good, log)
    if findings:
        outcome.problems.append(f"verify_result reported {findings} "
                                f"finding(s) on the sweep's results")
    outcome.notes.append(f"verify findings = {findings}")
    if len(good) != len(results):
        return {}
    outcome.end_to_end.update(common.quality_metrics(zip(jobs, results),
                                                     log))
    # Each (program, policy) pair is checked on its Figure 9 machine.
    figure9 = [(job, result) for job, result in zip(jobs, results)
               if job.machine.kind == "nisq"]
    checked = common.output_check(landed_jobs(*zip(*figure9)), seed)
    common.output_metrics(checked, known, outcome)
    return common.run_state({job.fingerprint(): result for job, result
                             in zip(jobs, results)}, outcome)


def run(seed: int, seconds: int, traced: bool, src: str,
        known: Sequence[str]) -> Tuple[common.Outcome, Dict[str, object]]:
    """One run of the workload.

    ``seconds`` does not shorten the sweep: the workload is the fixed
    40-job list, timed in ``PASSES`` passes.
    """
    del seconds
    outcome = common.Outcome()
    jobs = sweep_jobs(seed)
    outcome.attempted = len(jobs)
    if not traced:
        outcome.end_to_end["setup_s"] = (
            statistics.median(measure_setup(src)), "s")
        passes = [run_plain(jobs) for _ in range(PASSES)]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        outcome.attempted *= PASSES
        outcome.failed = sum(1 for results, _, _ in passes
                             for result in results if result is None)
        results = passes[0][0]
        if any([canonical(r) for r in other] != [canonical(r) for r in results]
               for other, _, _ in passes[1:]):
            outcome.problems.append("passes over the same job list produced "
                                    "different results")
        latencies = [min(samples) for samples
                     in zip(*(pass_latencies for _, pass_latencies, _
                              in passes))]
        wall = min(pass_wall for _, _, pass_wall in passes)
        outcome.end_to_end["sweep_s"] = (wall, "s")
        outcome.end_to_end.update(common.latency_metrics(latencies, wall))
        outcome.end_to_end["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        state = _check_and_describe(jobs, results, outcome, seed, known, None)
        outcome.notes.append(f"ops_failed_ratio = "
                             f"{outcome.failed / outcome.attempted:.4f} ratio")
        return outcome, state

    # Traced run: an untraced pass for the overhead baseline, then the
    # traced pass whose spans give the layer numbers.
    plain_results, _, plain_wall = run_plain(jobs)
    log = common.SpanLog()
    results, _, wall = run_traced(jobs, log)
    if [canonical(r) for r in plain_results] != [canonical(r) for r in results]:
        outcome.problems.append("traced and untraced passes with the same "
                                "seed produced different results")
    layer_log = common.SpanLog()
    state = _check_and_describe(jobs, results, outcome, seed, known,
                                layer_log)
    selfs = log.self_seconds()
    checks = layer_log.self_seconds()
    layers = outcome.per_layer
    for phase, name in common.PHASE_METRICS.items():
        layers[name] = (selfs.get(f"phase.{phase}", 0.0), "s")
    attempts = log.count("arch.build")
    layers["core.compile_s"] = (selfs.get("core.compile", 0.0), "s")
    layers["arch.build_s"] = (selfs.get("arch.build", 0.0), "s")
    layers["arch.builds"] = (float(attempts), "count")
    layers["workloads.load_s"] = (selfs.get("workloads.load", 0.0), "s")
    layers["api.autosize_self_s"] = (selfs.get("api.autosize", 0.0), "s")
    layers["api.autosize_attempts"] = (float(attempts), "count")
    layers["api.autosize_yield"] = (len(jobs) / attempts, "ratio")
    layers["api.autosize_wasted_s"] = (
        selfs.get("api.autosize.wasted", 0.0), "s")
    layers["verify.check_s"] = (checks.get("verify.check", 0.0), "s")
    layers["noise.estimate_s"] = (checks.get("noise.estimate", 0.0), "s")
    layers.update(state.get("counts", {}))
    common.trace_metrics(outcome, wall, wall, log.root_seconds(),
                         plain_wall, len(log) + len(layer_log), 0.0)
    return outcome, state


def canonical(result: Optional[CompilationResult]) -> Optional[str]:
    return None if result is None else common.canonical_result(
        result.to_dict())
