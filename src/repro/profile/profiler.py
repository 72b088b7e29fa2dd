"""Deterministic compile-path profiler.

Wall-clock profiles do not travel: the same compile is "fast" on one
laptop and "slow" on another, so a regression hidden inside phase noise
is invisible in seconds alone.  This profiler therefore pairs every
phase timing with **machine-independent work counters** pulled from the
:class:`~repro.core.result.CompilationResult` itself — gates flattened,
router swaps inserted, liveness segments tracked, uncompute gates
emitted, reclamation decisions taken.  The counters are bit-identical
across machines and runs, so two profiles of the same job differ only
in their seconds column, and throughput (``work / seconds``, e.g.
gates/sec through the allocation phase) becomes the comparable unit the
compile perf trajectory is tracked in (``BENCH_compile.json``).

Profiles are built from *fresh in-process* results
(:func:`profile_benchmarks` compiles through
:func:`repro.api.job.execute_job` directly): ``phase_seconds`` is
telemetry excluded from result serialization, so cached or remote
results profile as all-zero phases and are rejected here rather than
silently reported as infinitely fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ExperimentError
from repro.core.result import CompilationResult

#: Phase -> the work counter that phase's throughput is measured in.
#: Ordered like the pipeline; phases missing from a result (older
#: compilers, timing disabled) simply do not appear in its profile.
#: Reclamation is measured in the uncompute gates it emits, which is where
#: its seconds go; the decisions it takes stay counted as ``reclaim_ops``.
PHASE_WORK: "Dict[str, str]" = {
    "validate": "gates",
    "allocation": "gates",
    "reclamation": "uncompute_gates",
    "liveness": "liveness_events",
    "mapping_routing": "routed_gates",
}

#: Counter key -> human unit label for tables.
COUNTER_UNITS: Dict[str, str] = {
    "gates": "gates",
    "swaps": "swaps",
    "routed_gates": "gates",
    "reclaim_ops": "ops",
    "uncompute_gates": "gates",
    "liveness_events": "segments",
}


def result_counters(result: CompilationResult) -> Dict[str, int]:
    """Machine-independent work counters for one result.

    Every value is a deterministic function of the program x policy x
    machine triple — rerunning the job on any host reproduces them
    exactly, which is what makes cross-machine throughput comparisons
    meaningful.
    """
    return {
        # Gates flattened out of the modular program (excl. router swaps).
        "gates": int(result.gate_count),
        # Swaps the router inserted while mapping to the lattice.
        "swaps": int(result.swap_count),
        # Gate stream the mapping/routing phase actually scheduled.
        "routed_gates": int(result.gate_count + result.swap_count),
        # Reclamation decisions (one heap/CER evaluation per Free).
        "reclaim_ops": int(result.num_reclamation_points),
        # Gates the reclamation phase emitted while uncomputing ancillas.
        "uncompute_gates": int(result.uncompute_gate_count),
        # Qubit lifetime segments the liveness tracker maintained.
        "liveness_events": int(len(result.usage_segments)),
    }


@dataclass(frozen=True)
class JobProfile:
    """Per-phase seconds + work counters for one compiled job.

    Attributes:
        label: Display label, ``benchmark/policy`` by default.
        program_name / policy_name / machine_name: Job coordinates.
        compile_seconds: End-to-end compile wall time.
        phase_seconds: Exclusive seconds per compile phase.
        counters: :func:`result_counters` output.
    """

    label: str
    program_name: str
    policy_name: str
    machine_name: str
    compile_seconds: float
    phase_seconds: Mapping[str, float] = field(default_factory=dict)
    counters: Mapping[str, int] = field(default_factory=dict)

    @classmethod
    def from_result(cls, result: CompilationResult,
                    label: Optional[str] = None) -> "JobProfile":
        """Build a profile from a *fresh* result.

        Raises:
            ExperimentError: The result carries no phase timings —
                typically a cached/deserialized result, whose profile
                would be meaningless.
        """
        if not result.phase_seconds:
            raise ExperimentError(
                f"result for {result.program_name}/{result.policy_name} "
                f"has no phase timings; profile fresh in-process compiles "
                f"(cached and remote results drop phase_seconds)")
        return cls(
            label=label or f"{result.program_name}/{result.policy_name}",
            program_name=result.program_name,
            policy_name=result.policy_name,
            machine_name=result.machine_name,
            compile_seconds=float(result.compile_seconds),
            phase_seconds={name: float(seconds) for name, seconds
                           in sorted(result.phase_seconds.items())},
            counters=result_counters(result),
        )

    # ------------------------------------------------------------------
    def phase_work(self, phase: str) -> int:
        """Work units attributed to ``phase`` (0 for unknown phases)."""
        return int(self.counters.get(PHASE_WORK.get(phase, ""), 0))

    def phase_rate(self, phase: str) -> float:
        """Throughput of ``phase`` in its work units per second.

        0.0 when the phase did no countable work; a phase whose timer
        read zero but did work reports the work count itself (i.e. a
        rate floor of "all of it in under a second").
        """
        work = self.phase_work(phase)
        seconds = float(self.phase_seconds.get(phase, 0.0))
        if work <= 0:
            return 0.0
        if seconds <= 0.0:
            return float(work)
        return work / seconds

    def phase_rates(self) -> Dict[str, float]:
        """``{phase: work units / second}`` for every timed phase."""
        return {phase: self.phase_rate(phase)
                for phase in self.phase_seconds}

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible encoding (keys sorted, floats rounded)."""
        return {
            "label": self.label,
            "program_name": self.program_name,
            "policy_name": self.policy_name,
            "machine_name": self.machine_name,
            "compile_seconds": round(self.compile_seconds, 6),
            "phase_seconds": {name: round(seconds, 6) for name, seconds
                              in sorted(self.phase_seconds.items())},
            "phase_rates": {name: round(rate, 3) for name, rate
                            in sorted(self.phase_rates().items())},
            "counters": dict(sorted(self.counters.items())),
        }


class ProfileReport:
    """A set of :class:`JobProfile` records plus ranked hotspot views.

    The report's orderings are deterministic: hotspots rank by seconds
    with (label, phase) as the tie-break, so two runs that happen to
    time a pair of phases identically still render the same table.
    """

    def __init__(self, profiles: Sequence[JobProfile]) -> None:
        self.profiles: Tuple[JobProfile, ...] = tuple(profiles)

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)

    # ------------------------------------------------------------------
    def total_seconds(self) -> float:
        """Summed end-to-end compile seconds across every profile."""
        return sum(profile.compile_seconds for profile in self.profiles)

    def phase_totals(self) -> Dict[str, float]:
        """Summed seconds per phase across every profile (sorted keys)."""
        totals: Dict[str, float] = {}
        for profile in self.profiles:
            for phase, seconds in profile.phase_seconds.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return dict(sorted(totals.items()))

    def hotspots(self, top: Optional[int] = None) -> List[Dict[str, object]]:
        """Ranked (job, phase) cells, hottest first.

        Each row carries the cell's seconds, its share of the report's
        total phase time, the phase's work count and throughput — the
        table that answers "where does compile time actually go?".
        """
        grand = sum(self.phase_totals().values()) or 1.0
        rows = []
        for profile in self.profiles:
            for phase, seconds in profile.phase_seconds.items():
                rows.append({
                    "label": profile.label,
                    "phase": phase,
                    "seconds": seconds,
                    "share": seconds / grand,
                    "work": profile.phase_work(phase),
                    "unit": COUNTER_UNITS.get(
                        PHASE_WORK.get(phase, ""), "units"),
                    "rate": profile.phase_rate(phase),
                })
        rows.sort(key=lambda row: (-row["seconds"], row["label"],
                                   row["phase"]))
        return rows if top is None else rows[:top]

    def table(self, title: str = "Compile-path profile",
              top: Optional[int] = None) -> str:
        """Deterministic fixed-width hotspot table."""
        header = ("job", "phase", "seconds", "share", "work", "rate/s")
        body: List[Tuple[str, ...]] = []
        for row in self.hotspots(top):
            body.append((
                row["label"],
                row["phase"],
                f"{row['seconds']:.4f}",
                f"{row['share'] * 100:5.1f}%",
                f"{row['work']} {row['unit']}",
                f"{row['rate']:.0f}",
            ))
        widths = [max(len(header[col]),
                      *(len(line[col]) for line in body or [header]))
                  for col in range(len(header))]
        lines = [title,
                 "  ".join(name.ljust(width)
                           for name, width in zip(header, widths))]
        lines.append("  ".join("-" * width for width in widths))
        for line in body:
            lines.append("  ".join(cell.ljust(width)
                                   for cell, width in zip(line, widths)))
        lines.append(f"total: {self.total_seconds():.4f}s across "
                     f"{len(self.profiles)} job(s)")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible encoding of the whole report."""
        return {
            "jobs": [profile.to_dict() for profile in self.profiles],
            "phase_totals": {phase: round(seconds, 6) for phase, seconds
                             in self.phase_totals().items()},
            "total_seconds": round(self.total_seconds(), 6),
        }

    def __repr__(self) -> str:
        return (f"ProfileReport(jobs={len(self.profiles)}, "
                f"total={self.total_seconds():.3f}s)")


# ----------------------------------------------------------------------
def profile_results(results: Iterable[CompilationResult],
                    labels: Optional[Sequence[str]] = None
                    ) -> ProfileReport:
    """Wrap already-compiled fresh results into a report."""
    results = list(results)
    if labels is None:
        labels = [None] * len(results)
    return ProfileReport([JobProfile.from_result(result, label)
                          for result, label in zip(results, labels)])


def profile_benchmarks(names: Sequence[str], machine, *,
                       policies: Sequence[str] = ("square",),
                       scale: str = "quick") -> ProfileReport:
    """Compile ``names`` x ``policies`` fresh and profile every job.

    Compilation happens in-process through
    :func:`repro.api.job.execute_job` — never through a session cache —
    so every result carries live phase timings.  ``machine`` is a
    :class:`~repro.api.job.MachineSpec`.
    """
    from repro.api.job import CompileJob, execute_job
    from repro.workloads.registry import benchmark_overrides

    profiles: List[JobProfile] = []
    for name in names:
        overrides = benchmark_overrides(name, scale)
        for policy in policies:
            job = CompileJob.for_benchmark(name, machine, policy,
                                           overrides=overrides)
            result = execute_job(job)
            profiles.append(JobProfile.from_result(
                result, label=f"{job.program_label}/{policy}"))
    return ProfileReport(profiles)
