"""Tests for repro.bench: versioned records, history, regression gate.

Unit-level: record schema + legacy up-conversion, the torn-tail
tolerant history journal, per-metric direction/tolerance policies, and
the compare verdicts (identical runs pass, a 2x slowdown fails with
the metric named).  CLI-level: ``bench list|compare|trend`` through
the real argparse entry point, including exit codes.
"""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.exceptions import BenchError


def _record(metrics, suite="telemetry", stamp="2026-01-01T00:00:00Z"):
    return bench.make_record(suite, metrics, generated_at=stamp)


BASE_METRICS = {
    "compile_seconds": 10.0,
    "verify_gates_per_second": 50000.0,
    "span_overhead_ratio": 0.004,
    "scrape_latency_ms": 2.5,
    "scrape_bytes": 4096,
    "jobs": 18,
    "phase_seconds": {"allocation": 4.0, "validate": 1.0},
}


# ----------------------------------------------------------------------
# Records + history
# ----------------------------------------------------------------------
class TestRecords:
    def test_make_record_is_versioned(self):
        record = _record(BASE_METRICS)
        assert record["bench_version"] == bench.BENCH_VERSION
        assert record["suite"] == "telemetry"

    def test_legacy_dict_upconverts_as_version_zero(self):
        legacy = {"suite": "verify", "generated_at": "2025-12-01T00:00:00Z",
                  "metrics": {"compile_seconds": 3.0}}
        record = bench.upconvert(legacy)
        assert record["bench_version"] == bench.BENCH_VERSION
        assert record["metrics"] == {"compile_seconds": 3.0}

    def test_future_version_rejected(self):
        with pytest.raises(BenchError):
            bench.upconvert({"bench_version": 99, "metrics": {}})

    def test_junk_rejected(self):
        with pytest.raises(BenchError):
            bench.upconvert(["not", "a", "record"])
        with pytest.raises(BenchError):
            bench.upconvert({"suite": "x"})  # no metrics

    def test_write_bench_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_telemetry.json"
        bench.write_bench(str(path), "telemetry", BASE_METRICS,
                          generated_at="2026-01-01T00:00:00Z")
        loaded = bench.load_bench(str(path))
        assert loaded["metrics"]["compile_seconds"] == 10.0
        assert loaded["bench_version"] == bench.BENCH_VERSION

    def test_write_bench_appends_history(self, tmp_path):
        path = tmp_path / "BENCH_telemetry.json"
        history = tmp_path / "bench_history"
        for stamp in ("2026-01-01T00:00:00Z", "2026-01-02T00:00:00Z"):
            bench.write_bench(str(path), "telemetry", BASE_METRICS,
                              history_dir=str(history),
                              generated_at=stamp)
        journal = bench.read_history(str(history), "telemetry")
        assert [r["generated_at"] for r in journal["records"]] == \
            ["2026-01-01T00:00:00Z", "2026-01-02T00:00:00Z"]
        assert bench.list_suites(str(history)) == ["telemetry"]

    def test_history_tolerates_torn_tail(self, tmp_path):
        history = tmp_path / "bench_history"
        bench.append_history(str(history), _record(BASE_METRICS))
        with open(bench.history_path(str(history), "telemetry"), "a",
                  encoding="utf-8") as stream:
            stream.write('{"bench_version": 1, "su')  # torn mid-append
        journal = bench.read_history(str(history), "telemetry")
        assert len(journal["records"]) == 1
        assert journal["torn_lines"] == 1
        # The next record after the crash is kept, on its own line.
        bench.append_history(str(history), _record(BASE_METRICS))
        journal = bench.read_history(str(history), "telemetry")
        assert len(journal["records"]) == 2
        assert journal["torn_lines"] == 1

    def test_missing_history_is_empty_not_fatal(self, tmp_path):
        journal = bench.read_history(str(tmp_path / "nowhere"), "x")
        assert journal == {"records": [], "torn_lines": 0}


# ----------------------------------------------------------------------
# Policies + compare
# ----------------------------------------------------------------------
class TestPolicies:
    def test_directions_follow_naming_convention(self):
        assert bench.metric_policy("compile_seconds")[0] == "lower"
        assert bench.metric_policy("scrape_latency_ms")[0] == "lower"
        assert bench.metric_policy("counter_increment_ns")[0] == "lower"
        assert bench.metric_policy("wal_replay_jobs_per_second")[0] \
            == "higher"
        assert bench.metric_policy("span_overhead_ratio") \
            == ("lower", "absolute", bench.compare.__globals__[
                "ABSOLUTE_TOLERANCE_RATIO"])
        assert bench.metric_policy("scrape_bytes")[0] == "lower"
        assert bench.metric_policy("jobs")[0] is None
        assert bench.metric_policy("phase_seconds.allocation")[0] \
            == "lower"

    def test_flatten_dots_nested_dicts_and_skips_lists(self):
        flat = bench.flatten_metrics({
            "a_seconds": 1.0, "nested": {"b": 2},
            "trials": [1, 2, 3], "label": "text", "flag": True})
        assert flat == {"a_seconds": 1.0, "nested.b": 2.0}


class TestCompare:
    def test_identical_runs_pass(self):
        record = _record(BASE_METRICS)
        report = bench.compare(record, record)
        assert report["ok"] and report["regressions"] == []

    def test_noise_inside_the_band_passes(self):
        noisy = dict(BASE_METRICS,
                     compile_seconds=11.5,                 # +15%
                     verify_gates_per_second=42000.0,      # -16%
                     span_overhead_ratio=0.015)            # +0.011 abs
        report = bench.compare(_record(BASE_METRICS), _record(noisy))
        assert report["ok"], report["regressions"]

    def test_2x_slowdown_fails_with_named_metric(self):
        slow = dict(BASE_METRICS, compile_seconds=20.0)
        report = bench.compare(_record(BASE_METRICS), _record(slow))
        assert not report["ok"]
        assert report["regressions"] == ["compile_seconds"]
        row = next(r for r in report["rows"]
                   if r["metric"] == "compile_seconds")
        assert row["delta_pct"] == 100.0
        text = bench.render_compare(report)
        assert "[REGRESSION] compile_seconds: 10 -> 20 (+100.0%)" in text

    def test_throughput_collapse_fails(self):
        slow = dict(BASE_METRICS, verify_gates_per_second=25000.0)
        report = bench.compare(_record(BASE_METRICS), _record(slow))
        assert report["regressions"] == ["verify_gates_per_second"]

    def test_ratio_blowup_fails_on_absolute_band(self):
        bloated = dict(BASE_METRICS, span_overhead_ratio=0.05)
        report = bench.compare(_record(BASE_METRICS), _record(bloated))
        assert report["regressions"] == ["span_overhead_ratio"]

    def test_nested_phase_regression_is_named_dotted(self):
        slow = dict(BASE_METRICS,
                    phase_seconds={"allocation": 9.0, "validate": 1.0})
        report = bench.compare(_record(BASE_METRICS), _record(slow))
        assert report["regressions"] == ["phase_seconds.allocation"]

    def test_info_metrics_never_regress(self):
        changed = dict(BASE_METRICS, jobs=999)
        report = bench.compare(_record(BASE_METRICS), _record(changed))
        assert report["ok"]

    def test_new_and_missing_metrics_are_flagged_not_fatal(self):
        base = _record({"compile_seconds": 1.0, "old_seconds": 2.0})
        cur = _record({"compile_seconds": 1.0, "new_seconds": 3.0})
        report = bench.compare(base, cur)
        statuses = {row["metric"]: row["status"] for row in report["rows"]}
        assert statuses["new_seconds"] == "new"
        assert statuses["old_seconds"] == "missing"
        assert report["ok"]

    def test_compare_output_is_deterministic(self):
        report = bench.compare(_record(BASE_METRICS), _record(BASE_METRICS))
        assert bench.render_compare(report) == bench.render_compare(
            bench.compare(_record(BASE_METRICS), _record(BASE_METRICS)))


# ----------------------------------------------------------------------
# The bench CLI
# ----------------------------------------------------------------------
class TestBenchCli:
    def _main(self, argv, capsys):
        from repro.experiments.__main__ import main

        try:
            code = main(argv)
        except SystemExit as error:
            code = error.code
        out, err = capsys.readouterr()
        return code, out, err

    def _seed(self, tmp_path, current_metrics):
        history = tmp_path / "bench_history"
        bench.append_history(str(history), _record(BASE_METRICS))
        snapshot = tmp_path / "BENCH_telemetry.json"
        with open(snapshot, "w", encoding="utf-8") as stream:
            json.dump(_record(current_metrics,
                              stamp="2026-01-02T00:00:00Z"), stream)
        return str(history), str(snapshot)

    def test_compare_identical_exits_zero(self, tmp_path, capsys):
        history, snapshot = self._seed(tmp_path, BASE_METRICS)
        code, out, _ = self._main(
            ["bench", "compare", "--suite", "telemetry",
             "--history", history, "--bench-file", snapshot], capsys)
        assert code == 0
        assert "no regressions" in out

    def test_compare_slowdown_exits_one_and_names_metric(self, tmp_path,
                                                         capsys):
        history, snapshot = self._seed(
            tmp_path, dict(BASE_METRICS, compile_seconds=20.0))
        code, out, _ = self._main(
            ["bench", "compare", "--suite", "telemetry",
             "--history", history, "--bench-file", snapshot], capsys)
        assert code == 1
        assert "[REGRESSION] compile_seconds" in out
        assert "+100.0%" in out

    def test_compare_without_baseline_exits_two(self, tmp_path, capsys):
        _, snapshot = self._seed(tmp_path, BASE_METRICS)
        code, _, err = self._main(
            ["bench", "compare", "--suite", "telemetry",
             "--history", str(tmp_path / "empty"),
             "--bench-file", snapshot], capsys)
        assert code == 2
        assert "no baseline" in err

    def test_list_and_trend(self, tmp_path, capsys):
        history, _ = self._seed(tmp_path, BASE_METRICS)
        code, out, _ = self._main(["bench", "list", "--history", history],
                                  capsys)
        assert code == 0 and "telemetry" in out
        code, out, _ = self._main(
            ["bench", "trend", "--suite", "telemetry",
             "--history", history, "--metric", "compile_seconds"], capsys)
        assert code == 0
        assert "compile_seconds" in out and "1 run(s)" in out

    def test_bench_rejects_unknown_action(self, tmp_path, capsys):
        code, _, err = self._main(["bench", "trend", "compare"], capsys)
        assert code == 2
        assert "exactly one action" in err
