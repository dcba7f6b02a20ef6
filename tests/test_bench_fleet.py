"""Benchmark fleet: matrix, history series, trends, gating and bisection."""

from pathlib import Path

import pytest

from repro.bench import (
    bisect_regression,
    default_matrix,
    expand,
    gate_fleet,
    load_bench,
    ordered_history,
    previous_bucket,
    record_bucket,
    render_trend,
    run_fleet,
    select,
)
from repro.bench.history import current_commit, record_bench
from repro.bench.matrix import TIERS, build_scenario
from repro.bench.runner import CaseResult
from repro.cli import main
from repro.registry import get_spec

CASE = "algorithm1_benign_n48_columnar_timeline"
#: the absolute-time reference sibling of CASE (full tier only)
REF_CASE = "algorithm1_benign_n48_reference_timeline"
OTHER_CASE = "flood-all_benign_n48_columnar_timeline"

#: the five quick-tier gate cases and the gate kind an injected slowdown trips
GATES = {
    "algorithm1_hinet47_n100_columnar_timeline": "speedup",
    "algorithm1_star_n10000_columnar_timeline": "budget",
    "algorithm1_hinet47_n100_columnar_trace": "overhead",
    "algorithm1_hinet47_n100_columnar_record": "overhead",
    "algorithm1_hinet47_n100_columnar_timeline_stream": "overhead",
}
SPEEDUP_GATE = "algorithm1_hinet47_n100_columnar_timeline"
BUDGET_GATE = "algorithm1_star_n10000_columnar_timeline"


class TestMatrix:
    def test_expansion_is_valid_and_unique(self):
        matrix = default_matrix()
        names = [case.name for case in matrix]
        assert len(set(names)) == len(names)
        for case in matrix:
            spec = get_spec(case.algorithm)
            assert case.family in spec.families
            if case.engine == "columnar":
                assert spec.columnar
            assert ":" not in case.name  # the --inject-slowdown separator
            assert case.budget_ms > 0 and case.memory_budget_mb > 0
            assert set(case.tiers) <= set(TIERS)

    def test_quick_tier_is_a_subset_of_full(self):
        quick = {case.name for case in expand("quick")}
        full = {case.name for case in expand("full")}
        assert quick and quick < full
        assert full == {case.name for case in default_matrix()}

    def test_unknown_tier_and_case_raise(self):
        with pytest.raises(ValueError):
            expand("hourly")
        with pytest.raises(KeyError):
            select(["no_such_case"])

    def test_scenarios_match_case_axes(self):
        for name in (CASE, "flood-all_adversarial_n48_columnar_timeline",
                     "algorithm2_lossy_n48_columnar_timeline", *GATES):
            case = select([name])[0]
            scenario = build_scenario(case)
            assert scenario.n == case.n
            assert scenario.k == case.k
            assert scenario.family == case.family


class TestHistory:
    def test_bucket_merge_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        record_bucket(path, {"a": {"median_ms": 1.0}}, commit="c1")
        record_bucket(path, {"b": {"median_ms": 2.0}}, commit="c1")
        # same case again: stat keys merge instead of clobbering
        record_bucket(path, {"a": {"speedup": 3.0}}, commit="c1")
        data = load_bench(path)
        bucket = data["history"]["c1"]
        assert bucket["a"] == {"median_ms": 1.0, "speedup": 3.0}
        assert bucket["b"] == {"median_ms": 2.0}

    def test_ordered_history_uses_seq_not_json_order(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        # labels chosen so sort_keys order (aaa < zzz) fights seq order
        record_bucket(path, {"a": {"median_ms": 1.0}}, commit="zzz",
                      bucket_meta={"repeats": 3})
        record_bucket(path, {"a": {"median_ms": 2.0}}, commit="aaa",
                      bucket_meta={"repeats": 3})
        data = load_bench(path)
        labels = [label for label, _, _ in ordered_history(data)]
        assert labels == ["zzz", "aaa"]
        prev = previous_bucket(data, "aaa")
        assert prev is not None and prev[0] == "zzz"
        # a run never gates against its own label, only other buckets
        assert previous_bucket(data, "zzz")[0] == "aaa"
        assert previous_bucket({"history": {}}, "zzz") is None

    def test_dirty_tree_gets_its_own_bucket(self, tmp_path, monkeypatch):
        from repro.bench import history

        outputs = {
            ("rev-parse", "--short", "HEAD"): "abc1234\n",
            ("status", "--porcelain"): " M src/file.py\n",
        }
        monkeypatch.setattr(
            history, "_git", lambda args, cwd: outputs.get(tuple(args))
        )
        assert current_commit(tmp_path) == "abc1234-dirty"
        outputs[("status", "--porcelain")] = ""
        assert current_commit(tmp_path) == "abc1234"
        path = tmp_path / "BENCH_engine.json"
        record_bucket(path, {"a": {"median_ms": 1.0}})  # clean
        outputs[("status", "--porcelain")] = " M x\n"
        record_bucket(path, {"a": {"median_ms": 9.0}})  # dirty
        history_data = load_bench(path)["history"]
        assert history_data["abc1234"]["a"]["median_ms"] == 1.0
        assert history_data["abc1234-dirty"]["a"]["median_ms"] == 9.0

    def test_record_bench_snapshots_latest_case(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        record_bench(path, "case", {"median_ms": 5.0})
        data = load_bench(path)
        assert data["cases"]["case"]["median_ms"] == 5.0
        assert any("case" in cases for _, cases, _ in ordered_history(data))

    def test_previous_bucket_skips_dirty_and_thin_buckets(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        for label, repeats in (("c1", 3), ("c2", 5), ("thin", 1),
                               ("abc-dirty", 5), ("legacy", None)):
            record_bucket(path, {"a": {"median_ms": 1.0}}, commit=label,
                          bucket_meta={"repeats": repeats})
        data = load_bench(path)
        skipped = []
        prev = previous_bucket(data, "new", skipped)
        assert prev is not None and prev[0] == "c2"
        assert [label for label, _ in skipped] == ["legacy", "abc-dirty",
                                                   "thin"]
        assert "dirty working tree" in dict(skipped)["abc-dirty"]
        assert "repeats=1" in dict(skipped)["thin"]
        assert "repeats=None" in dict(skipped)["legacy"]
        # nothing usable at all: no baseline, every bucket accounted for
        thin = tmp_path / "thin.json"
        record_bucket(thin, {"a": {}}, commit="t", bucket_meta={"repeats": 1})
        skipped = []
        assert previous_bucket(load_bench(thin), "new", skipped) is None
        assert [label for label, _ in skipped] == ["t"]

    def test_cli_reports_skipped_baselines(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        record_bucket(path, {CASE: {"median_ms": 1.0}}, commit="c1",
                      bucket_meta={"repeats": 3})
        record_bucket(path, {CASE: {"median_ms": 1.0}}, commit="c2-dirty",
                      bucket_meta={"repeats": 3})
        assert main(["bench", "--cases", CASE, "--repeats", "1",
                     "--no-memory", "--commit", "c3",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert ("skipped bucket 'c2-dirty' as a baseline: recorded from a "
                "dirty working tree") in out
        assert "gating against bucket 'c1'" in out


def _synthetic_history(tmp_path) -> Path:
    path = tmp_path / "BENCH_engine.json"
    for label, speedup in (("c1", 2.0), ("c2", 2.2), ("c3", 1.1)):
        record_bucket(
            path,
            {
                CASE: {"speedup": speedup, "median_ms": 10.0 / speedup},
                "abs_case": {"median_ms": 100.0},
            },
            commit=label,
        )
    return path


class TestTrend:
    def test_text_dashboard(self, tmp_path):
        text = render_trend(load_bench(_synthetic_history(tmp_path)))
        assert "c1 c2 c3" in text
        assert CASE in text and "[speedup]" in text
        assert "abs_case" in text and "[median_ms]" in text
        assert "Δ vs prev -50.0%" in text  # 2.2 -> 1.1
        assert "p50" in text and "latest 1.10x" in text

    def test_markdown_dashboard(self, tmp_path):
        text = render_trend(load_bench(_synthetic_history(tmp_path)),
                            markdown=True)
        assert text.startswith("### Benchmark fleet trend")
        assert f"| {CASE} | speedup | 3 " in text
        assert "-50.0%" in text

    def test_empty_and_single_bucket(self, tmp_path):
        assert "no history" in render_trend({"history": {}})
        path = tmp_path / "BENCH_engine.json"
        record_bucket(path, {CASE: {"speedup": 2.0}}, commit="only")
        text = render_trend(load_bench(path))
        assert "single bucket" in text


class TestFleetEndToEnd:
    def test_quick_run_appends_commit_keyed_bucket(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        rc = main(["bench", "--cases", CASE, OTHER_CASE,
                   "--repeats", "1", "--no-memory",
                   "--commit", "c1", "--json", str(path)])
        assert rc == 0
        data = load_bench(path)
        bucket = data["history"]["c1"]
        assert set(bucket) == {"_meta", CASE, OTHER_CASE}
        stats = bucket[CASE]
        assert stats["identical"] is True
        assert stats["rounds"] > 0 and stats["speedup"] > 0
        assert bucket["_meta"]["tier"] == "quick"
        out = capsys.readouterr().out
        assert "no previous bucket" in out and "OK" in out

    def test_injected_slowdown_fails_gate_and_bisect_names_pair(
            self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        # a baseline needs >= 3 repeats
        assert main(["bench", "--cases", CASE, OTHER_CASE,
                     "--repeats", "3", "--no-memory",
                     "--commit", "c1", "--json", str(path)]) == 0
        capsys.readouterr()
        report = tmp_path / "bisect.txt"
        rc = main(["bench", "--cases", CASE, OTHER_CASE,
                   "--repeats", "1", "--no-memory",
                   "--commit", "c2", "--json", str(path),
                   "--inject-slowdown", f"{CASE}:200",
                   "--bisect", "--bisect-report", str(report)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL: [speedup]" in out
        assert f"offender: case={CASE} engine=columnar" in out
        text = report.read_text()
        assert f"case={CASE} engine=columnar" in text
        # the reference sibling is re-measured in the evidence table
        assert REF_CASE in text
        # both runs landed as separate buckets
        assert set(load_bench(path)["history"]) == {"c1", "c2"}


class TestFleetHeartbeat:
    def test_heartbeats_bracket_every_case(self):
        events = []
        results = run_fleet(select([CASE]), repeats=1, memory=False,
                            heartbeat=events.append)
        assert len(results) == 1
        assert [(e["case"], e["status"]) for e in events] == [
            (CASE, "start"), (CASE, "done")]
        assert all(e["type"] == "case" for e in events)
        assert events[-1]["ms"] > 0

    def test_watchdog_flags_slow_case_without_killing_it(self):
        # a 1 ms stall limit trips immediately; the case still finishes
        events = []
        results = run_fleet(select([CASE]), repeats=1, memory=False,
                            heartbeat=events.append, stall_after_ms=1.0)
        assert len(results) == 1 and results[0].stats["rounds"] > 0
        stalls = [e for e in events if e["status"] == "stall"]
        assert len(stalls) == 1  # flagged once, not once per poll
        assert stalls[0]["case"] == CASE
        assert stalls[0]["elapsed_ms"] > 1.0
        assert stalls[0]["stall_after_ms"] == 1.0
        assert [e["status"] for e in events][-1] == "done"

    def test_cli_heartbeat_prints_case_lines(self, tmp_path, capsys):
        rc = main(["bench", "--cases", CASE, "--repeats", "1",
                   "--no-memory", "--no-gate", "--heartbeat",
                   "--json", str(tmp_path / "b.json")])
        assert rc == 0
        err = capsys.readouterr().err
        assert f"[bench] case {CASE} start" in err
        assert f"[bench] case {CASE} done (" in err

    def test_cli_heartbeat_stall_line(self, tmp_path, capsys):
        rc = main(["bench", "--cases", CASE, "--repeats", "1",
                   "--no-memory", "--no-gate", "--heartbeat",
                   "--stall-after-ms", "1",
                   "--json", str(tmp_path / "b.json")])
        assert rc == 0
        err = capsys.readouterr().err
        assert f"[bench] case {CASE} stall STALL:" in err

    def test_counter_drift_trips_gate_and_attaches_divergence(self, tmp_path):
        results = run_fleet(select([CASE]), repeats=1, memory=False)
        stats = dict(results[0].stats)
        previous = {CASE: dict(stats, tokens_sent=stats["tokens_sent"] + 1)}
        violations = gate_fleet(results, previous)
        assert [v.kind for v in violations] == ["counter"]
        reports = bisect_regression(violations, default_matrix(), previous,
                                    repeats=1)
        assert reports[0].kind == "counter"
        assert reports[0].divergence is not None
        # engines actually agree here, and the probe says so
        assert "identical" in reports[0].divergence

    def test_gate_passes_against_own_history(self, tmp_path):
        cases = select([CASE])
        baseline = run_fleet(cases, repeats=2, memory=False)
        previous = {r.name: dict(r.stats) for r in baseline}
        fresh = run_fleet(cases, repeats=2, memory=False)
        assert gate_fleet(fresh, previous, threshold=0.9) == []

    def test_list_needs_no_execution(self, capsys):
        assert main(["bench", "--list", "--full"]) == 0
        out = capsys.readouterr().out
        assert "budget_ms" in out
        assert CASE in out
        assert "algorithm1_benign_n160_columnar_timeline" in out  # full-only

    def test_report_renders_from_two_buckets(self, tmp_path, capsys):
        path = _synthetic_history(tmp_path)
        assert main(["bench", "--report", "--json", str(path)]) == 0
        assert "c1 c2 c3" in capsys.readouterr().out

    def test_bad_inject_spec_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--cases", CASE, "--json",
                  str(tmp_path / "b.json"), "--inject-slowdown", "nocolon"])
        with pytest.raises(SystemExit):
            main(["bench", "--cases", CASE, "--json",
                  str(tmp_path / "b.json"),
                  "--inject-slowdown", "unknown_case:50"])
        with pytest.raises(SystemExit):
            main(["bench", "--cases", CASE, "--json",
                  str(tmp_path / "b.json"),
                  "--inject-envelope", "unknown_case:50"])


class TestEnvelopeGate:
    def test_benign_case_carries_envelope_columns(self):
        results = run_fleet(select([CASE]), repeats=1, memory=False)
        stats = results[0].stats
        assert stats["envelope_ok"] is True
        assert stats["envelope_tokens"] >= stats["tokens_sent"]
        for key, counter in (("envelope_ratio_rounds", "rounds"),
                             ("envelope_ratio_messages", "messages_sent"),
                             ("envelope_ratio_tokens", "tokens_sent")):
            assert 0 < stats[key] <= 1.0
            assert stats[key] == pytest.approx(
                stats[counter] / stats[f"envelope_{counter.split('_')[0]}"],
                abs=1e-4)

    def test_adversarial_case_has_no_envelope_gate(self):
        results = run_fleet(
            select(["flood-all_adversarial_n48_columnar_timeline"]),
            repeats=1, memory=False)
        assert "envelope_ok" not in results[0].stats

    def test_injected_excursion_fails_absolute_gate(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        rc = main(["bench", "--cases", CASE, "--repeats", "1",
                   "--no-memory", "--commit", "c1", "--json", str(path),
                   "--inject-envelope", f"{CASE}:100"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL: [envelope]" in out
        assert "exited the analytical envelope" in out
        # the injection scales ratios only: counters stay truthful
        stats = load_bench(path)["history"]["c1"][CASE]
        assert stats["tokens_sent"] <= stats["envelope_tokens"]
        assert stats["envelope_ratio_tokens"] > 1.0

    def test_ratio_drift_vs_previous_bucket_trips_gate(self):
        results = run_fleet(select([CASE]), repeats=1, memory=False)
        stats = dict(results[0].stats)
        previous = {CASE: dict(
            stats,
            envelope_ratio_tokens=stats["envelope_ratio_tokens"] / 2,
        )}
        violations = gate_fleet(results, previous)
        assert [v.kind for v in violations] == ["envelope"]
        assert "ratio drifted 100%" in violations[0].message
        # a wider allowance waves the same drift through
        assert gate_fleet(results, previous, envelope_drift=1.5) == []

    def test_trend_dashboard_shows_envelope_columns(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        record_bucket(path, {CASE: {
            "speedup": 2.0, "envelope_ratio_tokens": 0.62,
            "envelope_ok": True,
        }}, commit="c1")
        record_bucket(path, {CASE: {
            "speedup": 2.1, "envelope_ratio_tokens": 1.31,
            "envelope_ok": False,
        }}, commit="c2")
        text = render_trend(load_bench(path))
        assert "envelope: measured/predicted tokens 1.310  OUTSIDE" in text
        md = render_trend(load_bench(path), markdown=True)
        assert "| env ratio | in env |" in md
        assert "1.31" in md and "**NO**" in md

    def test_report_without_history_prints_message(self, tmp_path, capsys):
        """Satellite: an empty or missing history file yields a clear
        one-liner, not a traceback."""
        rc = main(["bench", "--report",
                   "--json", str(tmp_path / "missing.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no history buckets recorded yet" in out
        empty = tmp_path / "empty.json"
        empty.write_text('{"history": {}}')
        assert main(["bench", "--report", "--json", str(empty)]) == 0
        assert "no history buckets" in capsys.readouterr().out


class TestGateCases:
    """The five gate cases: each passes on a healthy engine and exits 1
    with its gate kind under an injected slowdown."""

    def test_quick_tier_carries_gate_cases_and_one_vectorised_engine(
            self, capsys):
        assert main(["bench", "--list", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "_fast_" not in out
        for name in GATES:
            assert name in out
        assert len(default_matrix()) <= 51
        quick = expand("quick")
        assert len([c for c in quick if c.pinned is None]) == 10

    # the n0 = 100 HiNet gate cases run in tests/test_obs.py::TestRegressionGate
    def test_budget_gate_passes_on_healthy_engine(self, gate_passes):
        gate_passes(BUDGET_GATE)

    def test_budget_gate_fails_under_injected_slowdown(self, gate_trips):
        gate_trips(BUDGET_GATE, "budget")

    def test_speedup_gate_case_keeps_a_25_percent_floor(self):
        gate, plain = select([SPEEDUP_GATE, CASE])
        results = [CaseResult(gate, {"speedup": 0.7}),
                   CaseResult(plain, {"speedup": 0.7})]
        previous = {gate.name: {"speedup": 1.0}, plain.name: {"speedup": 1.0}}
        # a 30% loss passes the fleet-wide 50% threshold, not the case's 25%
        violations = gate_fleet(results, previous, threshold=0.5)
        assert [(v.case, v.kind) for v in violations] == [
            (SPEEDUP_GATE, "speedup")]
        assert "threshold 25%" in violations[0].message

    def test_unknown_case_exits(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--cases", "no_such_case",
                  "--json", str(tmp_path / "b.json")])
        assert "no_such_case" in str(exc.value.code)

    def test_equivalence_failure_bisect_reports_divergence(
            self, tmp_path, capsys, vectorised_fault):
        """Under an injected vectorised-engine fault the n0 = 100 gate
        case fails equivalence and the bisection report pinpoints the
        exact round and node."""
        vectorised_fault(3, 5, 0)
        report = tmp_path / "bisect.txt"
        rc = main(["bench", "--cases", SPEEDUP_GATE, "--repeats", "1",
                   "--no-memory", "--json", str(tmp_path / "b.json"),
                   "--bisect", "--bisect-report", str(report)])
        assert rc == 1
        assert f"FAIL: [equivalence] {SPEEDUP_GATE}" in capsys.readouterr().out
        text = report.read_text()
        assert "DIVERGENCE" in text
        assert "first diverging round: 3" in text
        assert "node 5" in text
