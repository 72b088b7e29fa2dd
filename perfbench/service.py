"""The ``service-warm`` and ``service-cold`` workloads: the ``serve`` CLI.

Each pass starts a new server process (``--workers 2 --verify``) with
empty cache and store directories and two tenants, alice (standard) and
bob (batch).  The server's stdout and stderr go to files in the pass's
directory, so nothing has to drain a pipe.  Load is a closed loop of two
connections from this process, one per tenant: each sends its next
``POST /compile`` when the previous response has arrived.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api import CompileJob, MachineSpec, execute_job
from repro.core.result import CompilationResult
from repro.exceptions import ServiceError
from repro.experiments.runner import DEFAULT_POLICIES
from repro.service import ServiceClient
from repro.telemetry import SpanRecorder, coerce_trace_id
from repro.workloads.registry import NISQ_BENCHMARKS

import common

TENANTS = (("alice", "standard", "ak-alice"), ("bob", "batch", "ak-bob"))

#: Requests asked for per ``--seconds``.  They fix the request count, so
#: every run with the same ``--seconds`` sends the same requests: the disk
#: cache rewrites its whole index on every write, so cold latency depends
#: on how many entries a run has written.  On a 2-vCPU x86 box a warm
#: loop takes about ``--seconds`` and a cold one about 1.4 times it.
WARM_RATE = 450
COLD_RATE = 100

#: Cold lattices: rows and cols each in 5..12.
COLD_SIDES = range(5, 13)

#: Server set-ups timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5

#: Consecutive slices of the loop whose p99s give ``latency_p99_ms`` by
#: their median.
LATENCY_SLICES = 5

#: Loop responses compared byte for byte with an in-process compile.
SAMPLE_SIZE = 8

STARTUP_TIMEOUT = 60.0


class Server:
    """One ``python -m repro.experiments serve`` process and its files."""

    def __init__(self, directory: Path, src: str) -> None:
        directory.mkdir(parents=True)
        self.directory = directory
        tenants = directory / "tenants.json"
        tenants.write_text(json.dumps({"tenants": [
            {"name": name, "role": role, "api_key": key}
            for name, role, key in TENANTS]}))
        self._stdout = open(directory / "stdout.txt", "w")
        self._stderr = open(directory / "server.log", "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve",
             "--port", "0", "--workers", "2", "--verify",
             "--cache-dir", str(directory / "cache"),
             "--store-dir", str(directory / "store"),
             "--tenants", str(tenants)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1"),
            stdout=self._stdout, stderr=self._stderr,
            stdin=subprocess.DEVNULL)
        try:
            self.url = self._wait_for_url()
            ServiceClient(self.url, timeout=STARTUP_TIMEOUT,
                          retries=8).health()
        except BaseException:
            self.close()
            raise

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        banner = self.directory / "stdout.txt"
        while time.monotonic() < deadline:
            for word in banner.read_text().split():
                if word.startswith("http://"):
                    return word
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code "
                                   f"{self.process.returncode}; see "
                                   f"{self.directory / 'server.log'}")
            time.sleep(0.005)
        raise RuntimeError("server did not print its address in time")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in the server's /proc status")

    def wal_bytes(self) -> int:
        return (self.directory / "store" / "jobs.wal").stat().st_size

    def close(self) -> None:
        """Stop the server and wait for it.

        SIGTERM rather than SIGINT: a shell that starts the benchmark in
        the background makes its children ignore SIGINT.  The server's
        state lives in the run's scratch directory, so nothing needs a
        clean shutdown.
        """
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._stdout.close()
        self._stderr.close()


def figure8_grid() -> List[CompileJob]:
    """The warm set: the Figure 8 grid on a 5x5 NISQ and a 5x5 FT lattice.

    The FT half gives the warm workload an FT AQV ratio of its own.
    """
    return [CompileJob.for_benchmark(name, MachineSpec(kind=kind, rows=5,
                                                       cols=5),
                                     policy, decompose_toffoli=True)
            for kind in ("nisq", "ft") for name in NISQ_BENCHMARKS
            for policy in DEFAULT_POLICIES]


def cold_jobs(seed: int, seconds: int) -> List[CompileJob]:
    """Distinct jobs on lattice shapes drawn without replacement.

    For every program and machine kind the seed draws a permutation of
    the column counts; shift ``k`` pairs row ``COLD_SIDES[i]`` with the
    column ``k`` places further along it.  Each shift uses every row
    and every column count once, so all draws cover the same spread of
    lattice sizes, and no shape repeats.  Each drawn lattice is
    compiled under all four policies, so every draw yields Lazy/SQUARE
    and SQUARE/Eager pairs.
    """
    sides = list(COLD_SIDES)
    per_shift = len(NISQ_BENCHMARKS) * 2 * len(sides) * len(DEFAULT_POLICIES)
    shifts = max(1, min(len(sides), round(seconds * COLD_RATE / per_shift)))
    rng = random.Random(seed)
    jobs = []
    for name in NISQ_BENCHMARKS:
        for kind in ("nisq", "ft"):
            cols = rng.sample(sides, len(sides))
            for shift in range(shifts):
                for index, rows in enumerate(sides):
                    machine = MachineSpec(
                        kind=kind, rows=rows,
                        cols=cols[(index + shift) % len(sides)])
                    jobs.extend(CompileJob.for_benchmark(
                        name, machine, policy, decompose_toffoli=True)
                        for policy in DEFAULT_POLICIES)
    rng.shuffle(jobs)
    return jobs


class Loop:
    """The closed loop: two connections, one per tenant."""

    def __init__(self, url: str, jobs: Sequence[CompileJob],
                 sample: Sequence[int], traced: bool) -> None:
        self.url = url
        self.jobs = list(jobs)
        self.descriptors = [job.to_dict() for job in jobs]
        self.sample = set(sample)
        self.traced = traced
        self.latencies: List[float] = [0.0] * len(jobs)
        self.responses: Dict[int, Mapping[str, object]] = {}
        self.failures: List[str] = []
        self.findings = 0
        self.busy = 0.0
        self.fetch = 0.0
        #: Per request, when traced: (client span, server spans).
        self.traces: List[Tuple[Mapping[str, object], list]] = []
        self._lock = threading.Lock()

    def _connection(self, index: int, api_key: str) -> None:
        recorder = (SpanRecorder(capacity=len(self.jobs) + 1)
                    if self.traced else None)
        client = ServiceClient(self.url, timeout=120.0, api_key=api_key,
                               spans=recorder)
        fetcher = ServiceClient(self.url, timeout=120.0, api_key=api_key)
        first: Dict[str, int] = {}
        fetched: List[Tuple[str, list]] = []
        fetch = 0.0
        begun = time.perf_counter()
        for position in range(index, len(self.jobs), len(TENANTS)):
            descriptor = self.descriptors[position]
            if self.traced:
                # A trace id per request, so /trace/<id> returns exactly
                # this request's server spans.
                client.trace_id = coerce_trace_id(None)
            sent = time.perf_counter()
            try:
                response = client.compile_job(descriptor)
            except ServiceError as error:
                with self._lock:
                    self.failures.append(f"{position}: {error}")
                continue
            self.latencies[position] = time.perf_counter() - sent
            fingerprint = response.get("fingerprint", "")
            if not response.get("ok"):
                with self._lock:
                    self.failures.append(f"{position}: {response.get('error')}")
                continue
            # The server runs with --verify, so a response without a
            # report counts as a finding.
            verification = response.get("verification")
            findings = len(verification["findings"]) if verification else 1
            if position in self.sample or fingerprint not in first \
                    or findings:
                first.setdefault(fingerprint, position)
                with self._lock:
                    self.responses[position] = response
                    self.findings += findings
            if self.traced:
                # The handler span closes before the response is sent,
                # so the request's server spans are all recorded by now.
                started = time.perf_counter()
                payload = fetcher.trace(client.trace_id)
                fetch += time.perf_counter() - started
                fetched.append((client.trace_id, payload.get("spans", [])))
        busy = time.perf_counter() - begun
        with self._lock:
            self.busy += busy
            self.fetch += fetch
            if recorder is not None:
                by_trace = {span.trace_id: span.to_dict()
                            for span in recorder.snapshot()
                            if span.name == "client.request"}
                self.traces.extend((by_trace[trace], spans)
                                   for trace, spans in fetched)

    def run(self) -> float:
        threads = [threading.Thread(target=self._connection,
                                    args=(index, key), daemon=True)
                   for index, (_name, _role, key) in enumerate(TENANTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started


def _span_log(traces) -> common.SpanLog:
    """Client span as root, the server's handler span under it."""
    log = common.SpanLog()
    for client_span, server_spans in traces:
        root = log.add("client.request", client_span["duration"])
        index: Dict[str, int] = {}
        pending = list(server_spans)
        # A span can be added once its parent has been.
        while pending:
            later = []
            for span in pending:
                parent = span["parent_id"]
                if parent is None:
                    index[span["span_id"]] = log.add(span["name"],
                                                     span["duration"], root)
                elif parent in index:
                    index[span["span_id"]] = log.add(
                        span["name"], span["duration"], index[parent])
                else:
                    later.append(span)
            if len(later) == len(pending):
                raise RuntimeError("server trace has spans whose parent "
                                   "is missing")
            pending = later
    return log


def _stats_delta(before: Mapping, after: Mapping) -> Dict[str, float]:
    def pick(stats, *path):
        for key in path:
            stats = stats[key]
        return stats
    hits = (pick(after, "session", "cache_hits")
            - pick(before, "session", "cache_hits"))
    misses = (pick(after, "session", "cache_misses")
              - pick(before, "session", "cache_misses"))
    return {
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "disk_writes": (pick(after, "session", "disk_cache", "writes")
                        - pick(before, "session", "disk_cache", "writes")),
        "index_entries": pick(after, "session", "disk_cache", "size"),
        "events": (pick(after, "events", "recorded")
                   - pick(before, "events", "recorded")),
        "wal_appends": (pick(after, "queue", "store", "appended")
                        - pick(before, "queue", "store", "appended")),
    }


class Pass:
    """One server, optionally warmed, and one timed loop against it."""

    def __init__(self, directory: Path, src: str,
                 warm: Sequence[CompileJob]) -> None:
        started = time.perf_counter()
        self.server = Server(directory, src)
        self.warm_results: Dict[str, CompilationResult] = {}
        try:
            if warm:
                sweep = ServiceClient(self.server.url, timeout=300.0).run(
                    list(warm))
                for job, entry in zip(warm, sweep):
                    if entry.ok:
                        self.warm_results[job.fingerprint()] = entry.result
        except BaseException:
            self.server.close()
            raise
        self.setup = time.perf_counter() - started

    def loop(self, jobs: Sequence[CompileJob], sample: Sequence[int],
             traced: bool) -> Tuple[Loop, float, Dict[str, float]]:
        # Write back what set-up left dirty, so the loop does not pay
        # for it.
        os.sync()
        stats = ServiceClient(self.server.url)
        before = stats.stats()
        loop = Loop(self.server.url, jobs, sample, traced)
        wall = loop.run()
        self.peak_rss = self.server.peak_rss_mb()
        after = stats.stats()
        delta = _stats_delta(before, after)
        delta["wal_bytes"] = self.server.wal_bytes()
        return loop, wall, delta

    def close(self) -> None:
        self.server.close()


def _results(loop: Loop, jobs: Sequence[CompileJob]
             ) -> Dict[str, Tuple[CompileJob, CompilationResult]]:
    distinct = {}
    for position, response in sorted(loop.responses.items()):
        distinct.setdefault(response["fingerprint"], (
            jobs[position], CompilationResult.from_dict(response["result"])))
    return distinct


def _checks(jobs: Sequence[CompileJob], loop: Loop,
            warm: Sequence[CompileJob],
            warm_results: Mapping[str, CompilationResult],
            outcome: common.Outcome, seed: int, known: Sequence[str],
            log: Optional[common.SpanLog]) -> Dict[str, object]:
    """Hard checks, quality ratios and the determinism digest."""
    outcome.attempted = len(jobs)
    outcome.failed = len(loop.failures)
    for failure in loop.failures[:5]:
        outcome.notes.append(f"failed request {failure}")
    outcome.notes.append(f"ops_failed_ratio = "
                         f"{outcome.failed / outcome.attempted:.4f} ratio")
    if loop.findings:
        outcome.problems.append(f"the server's --verify reported "
                                f"{loop.findings} finding(s)")
    distinct = _results(loop, jobs)
    for fingerprint, (job, result) in distinct.items():
        served = warm_results.get(fingerprint)
        if served is not None and common.canonical_result(
                served.to_dict()) != common.canonical_result(result.to_dict()):
            outcome.problems.append(f"{job.program_label}/{job.policy_label}:"
                                    f" loop response differs from the "
                                    f"warm-up response")
    for position in sorted(set(loop.responses) & loop.sample):
        local = execute_job(jobs[position]).to_dict()
        if common.canonical_result(local) != common.canonical_result(
                loop.responses[position]["result"]):
            outcome.problems.append(f"request {position}: response differs "
                                    f"from the in-process execute_job")
    results = {fingerprint: result
               for fingerprint, (_job, result) in distinct.items()}
    results.update(warm_results)
    findings = common.verify_results(results.values(), log)
    if findings:
        outcome.problems.append(f"verify_result reported {findings} "
                                f"finding(s) on the served results")
    outcome.notes.append(f"verify findings = {loop.findings} (server), "
                         f"{findings} (in process)")
    if outcome.failed:
        return {}
    job_of = {job.fingerprint(): job for job in list(jobs) + list(warm)}
    outcome.end_to_end.update(common.quality_metrics(
        ((job_of[fingerprint], result)
         for fingerprint, result in results.items()), log))
    common.output_metrics(common.output_check(jobs, seed), known, outcome)
    return common.run_state(results, outcome)


def _workload(name: str, seed: int, seconds: int):
    rng = random.Random(f"{name}:{seed}")
    if name == "service-warm":
        warm = figure8_grid()
        jobs = [rng.choice(warm) for _ in range(seconds * WARM_RATE)]
    else:
        warm = []
        jobs = cold_jobs(seed, seconds)
    sample = rng.sample(range(len(jobs)), SAMPLE_SIZE)
    return warm, jobs, sample


def run(name: str, seed: int, seconds: int, traced: bool, src: str,
        known: Sequence[str], scratch: Path
        ) -> Tuple[common.Outcome, Dict[str, object]]:
    """One run of ``service-warm`` or ``service-cold``."""
    outcome = common.Outcome()
    warm, jobs, sample = _workload(name, seed, seconds)
    if not traced:
        setups = []
        for attempt in range(SETUP_SAMPLES):
            current = Pass(scratch / f"server-{attempt}", src, warm)
            setups.append(current.setup)
            if attempt + 1 < SETUP_SAMPLES:
                current.close()
        try:
            loop, wall, delta = current.loop(jobs, sample, traced=False)
        finally:
            current.close()
        outcome.notes.append(f"final state: {delta['index_entries']} disk "
                             f"index entries, {delta['wal_bytes']} WAL bytes")
        outcome.end_to_end["setup_s"] = (statistics.median(setups), "s")
        outcome.end_to_end["sweep_s"] = (wall, "s")
        # Requests in the order they were sent; failed ones have no
        # latency.
        latencies = [latency for latency in loop.latencies if latency > 0.0]
        outcome.end_to_end.update(common.latency_metrics(
            latencies, wall, slices=LATENCY_SLICES))
        outcome.end_to_end["peak_rss_mb"] = (current.peak_rss, "MB")
        state = _checks(jobs, loop, warm, current.warm_results, outcome,
                        seed, known, None)
        return outcome, state

    # Traced run: an untraced pass for the overhead baseline, then the
    # traced pass on a new server.
    plain = Pass(scratch / "server-plain", src, warm)
    try:
        plain_loop, plain_wall, _ = plain.loop(jobs, sample, traced=False)
    finally:
        plain.close()
    current = Pass(scratch / "server-traced", src, warm)
    try:
        loop, wall, delta = current.loop(jobs, sample, traced=True)
    finally:
        current.close()
    check_log = common.SpanLog()
    state = _checks(jobs, loop, warm, current.warm_results, outcome, seed,
                    known, check_log)
    plain_state = _checks(jobs, plain_loop, warm, plain.warm_results,
                          common.Outcome(), seed, known, None)
    if plain_state.get("digest") != state.get("digest"):
        outcome.problems.append("traced and untraced passes with the same "
                                "seed produced different results")
    log = _span_log(loop.traces)
    selfs = log.self_seconds()
    checks = check_log.self_seconds()
    layers = outcome.per_layer
    for phase, metric in common.PHASE_METRICS.items():
        layers[metric] = (selfs.get(f"phase.{phase}", 0.0), "s")
    spans = {
        "service.client_s": "client.request",
        "service.handle_self_s": "server.handle",
        "queue.wait_s": "queue.wait",
        "service.job_self_s": "job.run",
        "api.memo_s": "cache.memory",
        "service.cache.disk_lookup_s": "cache.disk",
        "api.session_compile_s": "session.compile",
        "core.compile_s": "compile",
    }
    for metric, span in spans.items():
        layers[metric] = (selfs.get(span, 0.0), "s")
    requests = len(jobs)
    layers["verify.check_s"] = (checks.get("verify.check", 0.0), "s")
    layers["noise.estimate_s"] = (checks.get("noise.estimate", 0.0), "s")
    layers["service.cache.hit_ratio"] = (delta["hit_ratio"], "ratio")
    layers["service.cache.disk_writes"] = (float(delta["disk_writes"]),
                                           "count")
    layers["service.cache.index_entries"] = (float(delta["index_entries"]),
                                             "count")
    layers["tenancy.wal_bytes_per_request"] = (
        delta["wal_bytes"] / requests, "B")
    layers["tenancy.wal_appends_per_request"] = (
        delta["wal_appends"] / requests, "count")
    layers["telemetry.log_events_per_request"] = (
        delta["events"] / requests, "count")
    layers.update(state.get("counts", {}))
    common.trace_metrics(outcome, wall, loop.busy, log.root_seconds(),
                         plain_wall, len(log) + len(check_log), loop.fetch)
    return outcome, state
