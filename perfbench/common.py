"""Pieces every workload shares: spans, statistics, checks and quality ratios.

The workload modules run the timed passes and call in here with their
results; the checks record their own spans when given a ``SpanLog``.
The ``repro`` package is importable once ``run.py`` has put the
checkout's ``src`` directory on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.api import CompileJob, execute_job
from repro.core.result import CompilationResult
from repro.ir.classical_sim import simulate_classical
from repro.ir.flatten import flatten_program
from repro.noise.analytical import estimate_success
from repro.verify import verify_result

#: Basis inputs per (program, policy) pair in the independent output check.
OUTPUT_CHECK_INPUTS = 8

#: Worker processes for the output check's recompiles (the box has two
#: cores).
CHECK_WORKERS = 2

#: Compile phases of ``CompilationResult.phase_seconds`` and the layer
#: metric each one is reported under.
PHASE_METRICS = {
    "allocation": "core.allocation_s",
    "reclamation": "core.reclamation_s",
    "mapping_routing": "arch.mapping_routing_s",
    "liveness": "scheduler.liveness_s",
    "validate": "ir.validate_s",
}


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    Attributes:
        attempted: Timed operations sent (jobs or requests).
        failed: Timed operations that failed or were refused.
        problems: Hard-check failures; any entry makes the run incorrect.
        end_to_end: End-to-end metric name -> (value, unit).
        per_layer: Per-layer metric name -> (value, unit); traced runs only.
        notes: Extra report lines (breakdowns, known deviations).
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    per_layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class SpanLog:
    """Spans kept in memory until the run ends.

    A span is a name, a duration and the index of the span that caused
    it.  Self time is a span's duration minus the durations of its
    direct children, so the self times of a tree sum to its root.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[Optional[int]] = []
        self.durations: List[float] = []

    def add(self, name: str, duration: float,
            parent: Optional[int] = None) -> int:
        self.names.append(name)
        self.parents.append(parent)
        self.durations.append(duration)
        return len(self.names) - 1

    def __len__(self) -> int:
        return len(self.names)

    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per span name."""
        children = [0.0] * len(self.names)
        for parent, duration in zip(self.parents, self.durations):
            if parent is not None:
                children[parent] += duration
        totals: Dict[str, float] = {}
        for name, duration, inner in zip(self.names, self.durations,
                                         children):
            totals[name] = totals.get(name, 0.0) + duration - inner
        return totals

    def count(self, name: str) -> int:
        return sum(1 for span_name in self.names if span_name == name)

    def root_seconds(self) -> float:
        return sum(duration for parent, duration
                   in zip(self.parents, self.durations) if parent is None)


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in 0..1) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = share * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_metrics(latencies: Sequence[float], wall: float,
                    slices: int = 1) -> Dict[str, Tuple[float, str]]:
    """p50 and p99 latency in ms, and operations per second.

    With ``slices`` > 1, p99 is taken in that many equal, consecutive
    slices of ``latencies`` and the median is reported, so that one
    burst of interference from the host moves one slice and not the
    figure.
    """
    size = len(latencies) // slices
    tails = [percentile(latencies[start:start + size], 0.99)
             for start in range(0, size * slices, size)]
    return {
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "latency_p99_ms": (1000.0 * statistics.median(tails), "ms"),
        "throughput_rps": (len(latencies) / wall, "1/s"),
    }


# ----------------------------------------------------------------------
# Compiler output: quality ratios, counts and the determinism digest
# ----------------------------------------------------------------------
def _success_log(result: CompilationResult, log: Optional[SpanLog]) -> float:
    """Natural log of the analytical success estimate.

    Summed from the two components so that programs whose product
    underflows a float still compare.
    """
    started = time.perf_counter()
    estimate = estimate_success(result)
    if log is not None:
        log.add("noise.estimate", time.perf_counter() - started)
    if estimate.gate_success <= 0.0 or estimate.coherence <= 0.0:
        raise ValueError(f"success estimate of {result.program_name}/"
                         f"{result.policy_name} underflowed to zero")
    return math.log(estimate.gate_success) + math.log(estimate.coherence)


def quality_metrics(pairs: Iterable[Tuple[CompileJob, CompilationResult]],
                    log: Optional[SpanLog] = None
                    ) -> Dict[str, Tuple[float, str]]:
    """Lazy÷SQUARE AQV per machine kind and SQUARE÷Eager success.

    The ``(job, result)`` pairs are grouped by program and machine; each
    ratio is a geometric mean over the groups.  Success uses the NISQ
    groups only, because the analytical model is the NISQ one of
    Figure 8b.
    """
    groups: Dict[Tuple[str, str, str], Dict[str, CompilationResult]] = {}
    for job, result in pairs:
        key = (job.program_label, job.machine.kind, job.machine.describe())
        groups.setdefault(key, {})[job.policy_label] = result
    aqv: Dict[str, List[float]] = {"nisq": [], "ft": []}
    success: List[float] = []
    for (_program, kind, _machine), by_policy in sorted(groups.items()):
        lazy, square = by_policy["lazy"], by_policy["square"]
        aqv[kind].append(math.log(lazy.active_quantum_volume
                                  / square.active_quantum_volume))
        if kind == "nisq":
            success.append(_success_log(square, log)
                           - _success_log(by_policy["eager"], log))
    return {
        "aqv_reduction_nisq": (math.exp(statistics.fmean(aqv["nisq"])), "x"),
        "aqv_reduction_ft": (math.exp(statistics.fmean(aqv["ft"])), "x"),
        "success_gain_vs_eager": (math.exp(statistics.fmean(success)), "x"),
    }


def count_metrics(results: Iterable[CompilationResult]
                  ) -> Dict[str, Tuple[float, str]]:
    """Deterministic work counts summed over distinct results."""
    totals = dict.fromkeys(
        ("core.gates", "core.uncompute_gates", "core.qubits_used",
         "arch.swaps", "core.reclaim_points", "core.reclaimed",
         "scheduler.segments"), 0)
    for result in results:
        totals["core.gates"] += result.gate_count
        totals["core.uncompute_gates"] += result.uncompute_gate_count
        totals["core.qubits_used"] += result.num_qubits_used
        totals["arch.swaps"] += result.swap_count
        totals["core.reclaim_points"] += result.num_reclamation_points
        totals["core.reclaimed"] += result.num_reclaimed
        totals["scheduler.segments"] += len(result.usage_segments)
    metrics = {name: (float(value), "count") for name, value in totals.items()}
    points = totals["core.reclaim_points"]
    metrics["core.reclaim_yield"] = (
        totals["core.reclaimed"] / points if points else 0.0, "ratio")
    return metrics


def canonical_result(result: Mapping[str, object]) -> str:
    """A serialized result without its timing field, as canonical JSON.

    ``compile_seconds`` is the one field of ``to_dict`` that differs
    between two compiles of the same job.
    """
    kept = {key: value for key, value in result.items()
            if key != "compile_seconds"}
    return json.dumps(kept, sort_keys=True, separators=(",", ":"))


def run_state(results: Mapping[str, CompilationResult],
              outcome: Outcome) -> Dict[str, object]:
    """What a rerun with the same seed must repeat exactly.

    ``results`` maps job fingerprints to results.  The digest covers
    every result without its timing field, plus the quality ratios and
    ``output_match_ratio``; the counts are reported per layer too.
    """
    hasher = hashlib.sha256()
    for fingerprint in sorted(results):
        hasher.update(fingerprint.encode())
        hasher.update(canonical_result(results[fingerprint].to_dict())
                      .encode())
    ratios = {name: value for name, (value, _unit)
              in outcome.end_to_end.items()
              if name in ("aqv_reduction_nisq", "aqv_reduction_ft",
                          "success_gain_vs_eager", "output_match_ratio")}
    hasher.update(json.dumps(ratios, sort_keys=True).encode())
    return {"digest": hasher.hexdigest(),
            "counts": count_metrics(results.values())}


# ----------------------------------------------------------------------
# Hard checks
# ----------------------------------------------------------------------
def verify_results(results: Iterable[CompilationResult],
                   log: Optional[SpanLog] = None) -> int:
    """Run the static verifier over each result; returns the findings."""
    findings = 0
    for result in results:
        started = time.perf_counter()
        findings += len(verify_result(result).findings)
        if log is not None:
            log.add("verify.check", time.perf_counter() - started)
    return findings


def output_check(jobs: Sequence[CompileJob],
                 seed: int) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """Compare compiled outputs with the flattener's reference outputs.

    For each ``(program, policy)`` pair among ``jobs``, the Toffoli-level
    form of the first job with that pair is compiled again with
    ``record_schedule=True``, and the output wires of
    ``result.to_circuit()`` are simulated on seeded basis inputs.  The
    reference is ``simulate_classical`` over ``flatten_program`` of the
    source program, which does not go through the compiler under test.

    Returns:
        ``(program, policy)`` -> ``(inputs matched, inputs checked)``.
    """
    cases: Dict[Tuple[str, str], CompileJob] = {}
    for job in jobs:
        cases.setdefault((job.program_label, job.policy_label), job)
    toffoli_jobs = [replace(job, config=replace(
        job.config, decompose_toffoli=False, record_schedule=True))
        for _pair, job in sorted(cases.items())]
    # The recompiles are independent and outside every timed window, so
    # they share the box's cores.
    with ProcessPoolExecutor(max_workers=CHECK_WORKERS) as pool:
        compiled = list(pool.map(execute_job, toffoli_jobs))
    references: Dict[str, Tuple[List[List[int]], List[tuple]]] = {}
    outcome: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for (program_name, policy), toffoli_job, result in zip(
            sorted(cases), toffoli_jobs, compiled):
        program = toffoli_job.load_program()
        num_params = program.entry.num_params
        num_inputs = num_params - len(program.entry.outputs)
        if program_name not in references:
            flat = flatten_program(program)
            rng = random.Random(f"{seed}:{program_name}")
            inputs = [[rng.randint(0, 1) for _ in range(num_inputs)]
                      + [0] * (num_params - num_inputs)
                      for _ in range(OUTPUT_CHECK_INPUTS)]
            expected = []
            for bits in inputs:
                final = simulate_classical(
                    flat.circuit, dict(zip(flat.param_wires, bits)))
                expected.append(tuple(final[wire] for wire
                                      in flat.param_wires[num_inputs:]))
            references[program_name] = (inputs, expected)
        inputs, expected = references[program_name]
        # Virtual-wire view: wire i is virtual qubit i, and the entry
        # parameters are the first virtual qubits.
        circuit = result.to_circuit()
        matched = 0
        for bits, want in zip(inputs, expected):
            final = simulate_classical(circuit, dict(enumerate(bits)))
            matched += tuple(final[num_inputs:num_params]) == want
        outcome[(program_name, policy)] = (matched, len(inputs))
    return outcome


def output_metrics(checked: Mapping[Tuple[str, str], Tuple[int, int]],
                   known: Sequence[str], outcome: Outcome) -> None:
    """Turn output-check counts into the metric, notes and problems.

    A mismatch on a pair listed in ``known`` (``"program/policy"``) is a
    recorded deviation and only lowers ``output_match_ratio``; a
    mismatch anywhere else fails the run.
    """
    matched = sum(pair[0] for pair in checked.values())
    total = sum(pair[1] for pair in checked.values())
    wrong = sorted(f"{program}/{policy}" for (program, policy), (ok, n)
                   in checked.items() if ok < n)
    outcome.end_to_end["output_match_ratio"] = (matched / total, "ratio")
    outcome.notes.append(f"wrong_output_ratio = {(total - matched) / total:.4f}"
                         f" ratio ({total - matched} of {total} cases)")
    outcome.notes.append(f"wrong-output pairs: {', '.join(wrong) or 'none'}")
    unexpected = sorted(set(wrong) - set(known))
    if unexpected:
        outcome.problems.append(f"outputs differ from the reference on "
                                f"pairs not recorded as known deviations: "
                                f"{', '.join(unexpected)}")


def trace_metrics(outcome: Outcome, wall: float, busy: float,
                  spanned: float, plain_wall: float, spans: int,
                  fetch: float) -> None:
    """Tracing overhead and the time no layer span accounts for.

    ``busy`` is the timed loop's time summed over its connections
    (``wall`` for one serial loop) and ``spanned`` the root spans'
    total, so the layer self times, ``fetch`` and the unattributed
    remainder sum to ``busy``.
    """
    layers = outcome.per_layer
    layers["trace.wall_s"] = (wall, "s")
    layers["trace.untraced_wall_s"] = (plain_wall, "s")
    layers["trace.overhead_ratio"] = (wall / plain_wall - 1.0, "ratio")
    layers["trace.fetch_s"] = (fetch, "s")
    layers["trace.unattributed_s"] = (busy - spanned - fetch, "s")
    layers["trace.spans"] = (float(spans), "count")
