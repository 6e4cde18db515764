"""Tests for the `python -m repro.bench` runner and its CI perf gate."""

from __future__ import annotations

import pytest

from repro.bench import (STAGES, check_regressions, find_regressions, list_stages,
                         run_suite, select_scale)
from repro.bench.runner import summarize_latency_samples
from repro.bench.__main__ import build_parser
from repro.experiments import ExperimentScale
from repro.experiments.registry import EXPERIMENTS


class TestScaleSelection:
    def test_named_scales(self):
        assert select_scale("smoke")[1] == ExperimentScale.smoke()
        assert select_scale("paper")[1] == ExperimentScale.paper()
        name, scale = select_scale("bench")
        assert name == "bench"
        assert isinstance(scale, ExperimentScale)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert select_scale()[0] == "smoke"
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert select_scale()[0] == "bench"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark scale"):
            select_scale("gigantic")


class TestStageRegistry:
    def test_every_experiment_has_a_stage(self):
        """The bench suite covers every registered figure/table experiment."""
        stage_names = {name for name, _ in list_stages()}
        for identifier in EXPERIMENTS:
            assert any(identifier.startswith(name) or name.startswith(identifier)
                       for name in stage_names), identifier

    def test_stage_names_unique(self):
        names = [stage.name for stage in STAGES]
        assert len(names) == len(set(names))

    def test_unknown_stage_rejected(self):
        with pytest.raises(KeyError, match="unknown bench stages"):
            run_suite(scale_name="smoke", stages=["nonexistent"])

    def test_serve_online_stage_registered(self):
        assert "serve_online" in {name for name, _ in list_stages()}

    def test_obs_overhead_stage_registered(self):
        assert "obs_overhead" in {name for name, _ in list_stages()}

    def test_obs_distributed_stage_registered(self):
        assert "obs_distributed" in {name for name, _ in list_stages()}

    def test_store_recovery_stage_registered(self):
        assert "store_recovery" in {name for name, _ in list_stages()}


class TestLatencyPercentiles:
    def test_samples_fold_into_millisecond_percentiles(self):
        extras = {
            "throughput": 100.0,
            "query_latency_samples": [0.001 * i for i in range(1, 101)],
        }
        summarized = summarize_latency_samples(extras)
        assert summarized["throughput"] == 100.0
        assert "query_latency_samples" not in summarized
        assert summarized["query_latency_count"] == 100.0
        assert (summarized["query_latency_p50_ms"]
                <= summarized["query_latency_p95_ms"]
                <= summarized["query_latency_p99_ms"])
        # Samples are seconds, snapshot keys are milliseconds.
        assert summarized["query_latency_p50_ms"] == pytest.approx(50.5, rel=0.02)

    def test_empty_samples_stay_json_clean(self):
        summarized = summarize_latency_samples({"upsert_latency_samples": []})
        assert summarized["upsert_latency_p99_ms"] == 0.0
        assert summarized["upsert_latency_count"] == 0.0

    def test_extras_without_samples_pass_through(self):
        extras = {"seconds": 1.0, "speedup": 2.0}
        assert summarize_latency_samples(extras) == extras


class TestEncoderStage:
    def test_encoder_stage_reports_speedup(self):
        """The encoder micro-stage runs, validates bit-equality internally,
        and reports the vectorised speedup."""
        payload = run_suite(scale_name="smoke", seed=0, stages=["encoder"])
        assert payload["scale"] == "smoke"
        entry = payload["stages"]["encoder"]
        assert entry["seconds"] >= 0
        assert entry["num_pairs"] > 0
        assert entry["speedup"] > 0
        assert entry["cached_speedup"] >= entry["speedup"] * 0.1
        assert payload["schema_version"] == 1


class TestPerfGate:
    @staticmethod
    def payload(scale="smoke", **stage_seconds):
        return {"scale": scale,
                "stages": {name: {"seconds": seconds}
                           for name, seconds in stage_seconds.items()}}

    def test_passes_within_tolerance(self):
        baseline = self.payload(figure6=10.0)
        current = self.payload(figure6=12.0)
        assert check_regressions(current, baseline, tolerance=0.25) == []

    def test_fails_beyond_tolerance(self):
        baseline = self.payload(figure6=10.0)
        current = self.payload(figure6=13.0)
        problems = check_regressions(current, baseline, tolerance=0.25)
        assert len(problems) == 1
        assert "figure6" in problems[0]

    def test_ignores_noise_floor_stages(self):
        baseline = self.payload(tiny=0.01)
        current = self.payload(tiny=10.0)
        assert check_regressions(current, baseline, min_seconds=0.05) == []

    def test_missing_stage_reported(self):
        baseline = self.payload(figure6=10.0, figure7=5.0)
        current = self.payload(figure6=10.0)
        problems = check_regressions(current, baseline)
        assert any("figure7" in problem for problem in problems)

    def test_scale_mismatch_reported(self):
        baseline = self.payload(scale="bench", figure6=10.0)
        current = self.payload(scale="smoke", figure6=10.0)
        problems = check_regressions(current, baseline)
        assert len(problems) == 1
        assert "scale mismatch" in problems[0]

    def test_faster_is_never_a_regression(self):
        baseline = self.payload(figure6=10.0)
        current = self.payload(figure6=1.0)
        assert check_regressions(current, baseline) == []

    def test_find_regressions_names_retryable_stages(self):
        """A timing regression carries its stage name so the CLI can re-time
        just that stage; structural problems carry ``None`` (not retryable)."""
        baseline = self.payload(figure6=10.0, figure7=5.0)
        current = self.payload(figure6=13.0)
        names = [name for name, _ in find_regressions(current, baseline, tolerance=0.25)]
        assert names == ["figure6", None]

    def test_find_regressions_scale_mismatch_not_retryable(self):
        baseline = self.payload(scale="bench", figure6=10.0)
        current = self.payload(scale="smoke", figure6=10.0)
        assert [name for name, _ in find_regressions(current, baseline)] == [None]

    def test_machine_ratio_relaxes_budgets_on_slower_hardware(self):
        """A uniformly 2x-slower machine (per the encoder calibration
        workload) must not fail stages that merely scaled with the machine."""
        baseline = self.payload(figure6=10.0)
        current = self.payload(figure6=20.0)
        baseline["stages"]["encoder"] = {"seconds": 1.0, "reference_seconds": 1.0}
        current["stages"]["encoder"] = {"seconds": 2.0, "reference_seconds": 2.0}
        assert check_regressions(current, baseline, tolerance=0.25) == []
        # A genuine regression on top of the machine ratio still fails.
        current["stages"]["figure6"]["seconds"] = 30.0
        assert len(check_regressions(current, baseline, tolerance=0.25)) == 1

    def test_machine_ratio_never_tightens_budgets(self):
        """A faster machine (ratio < 1) keeps the baseline's absolute budget."""
        baseline = self.payload(figure6=10.0)
        current = self.payload(figure6=12.0)  # within +25% of baseline
        baseline["stages"]["encoder"] = {"seconds": 2.0, "reference_seconds": 2.0}
        current["stages"]["encoder"] = {"seconds": 1.0, "reference_seconds": 1.0}
        assert check_regressions(current, baseline, tolerance=0.25) == []

    @staticmethod
    def overhead_payload(serve_ratio, train_ratio, seconds=2.0):
        return {"scale": "smoke",
                "stages": {"obs_overhead": {"seconds": seconds,
                                            "serve_overhead_ratio": serve_ratio,
                                            "train_overhead_ratio": train_ratio}}}

    def test_overhead_ratio_within_ceiling_passes(self):
        baseline = self.overhead_payload(1.02, 1.01)
        current = self.overhead_payload(1.05, 0.99)
        assert check_regressions(current, baseline) == []

    def test_overhead_ratio_over_ceiling_fails_and_is_retryable(self):
        """The 5% telemetry budget is absolute: it fails even when the
        baseline recorded a similar ratio, and carries the stage name so the
        ``--check`` retry loop re-times it before failing the gate."""
        baseline = self.overhead_payload(1.08, 1.0)  # a bad baseline is no excuse
        current = self.overhead_payload(1.08, 1.0)
        problems = find_regressions(current, baseline)
        assert [name for name, _ in problems] == ["obs_overhead"]
        assert "serve_overhead_ratio" in problems[0][1]
        assert "5%" in problems[0][1]

    def test_overhead_ratio_missing_from_run_is_reported(self):
        baseline = self.overhead_payload(1.0, 1.0)
        current = {"scale": "smoke", "stages": {"obs_overhead": {"seconds": 2.0}}}
        problems = find_regressions(current, baseline)
        assert len(problems) == 2  # both ratios gone
        assert all(name is None for name, _ in problems)

    def test_overhead_ratio_ignores_machine_ratio_relaxation(self):
        """Both sides of an overhead ratio come from one machine, so the
        encoder-based machine ratio must not relax the 5% ceiling."""
        baseline = self.overhead_payload(1.0, 1.0)
        current = self.overhead_payload(1.2, 1.0)
        baseline["stages"]["encoder"] = {"seconds": 1.0, "reference_seconds": 1.0}
        current["stages"]["encoder"] = {"seconds": 4.0, "reference_seconds": 4.0}
        problems = find_regressions(current, baseline)
        assert [name for name, _ in problems] == ["obs_overhead"]

    @staticmethod
    def distributed_payload(merge_ratio=1.05, coverage=1.0, span_parity=1.0,
                            once_parity=1.0, fork_parity=1.0, seconds=1.5):
        return {"scale": "smoke",
                "stages": {"obs_distributed": {
                    "seconds": seconds,
                    "merge_overhead_ratio": merge_ratio,
                    "worker_span_coverage": coverage,
                    "worker_span_parity": span_parity,
                    "shard_seconds_once_parity": once_parity,
                    "worker_span_fork_parity": fork_parity}}}

    def test_obs_distributed_clean_run_passes(self):
        baseline = self.distributed_payload()
        current = self.distributed_payload(merge_ratio=1.12, coverage=0.95)
        assert check_regressions(current, baseline) == []

    def test_obs_distributed_merge_ratio_has_its_own_wider_ceiling(self):
        """1.06 < ratio <= 1.20 passes here (the smoke workload is tens of
        milliseconds; the generic 5% budget would flake), above 1.20 fails
        and is retryable."""
        baseline = self.distributed_payload()
        assert find_regressions(self.distributed_payload(merge_ratio=1.19),
                                baseline) == []
        problems = find_regressions(self.distributed_payload(merge_ratio=1.3),
                                    baseline)
        assert [name for name, _ in problems] == ["obs_distributed"]
        assert "1.20x" in problems[0][1]

    @pytest.mark.parametrize("coverage", [0.5, 0.89, 1.11, 2.0])
    def test_obs_distributed_coverage_outside_band_fails(self, coverage):
        problems = find_regressions(self.distributed_payload(coverage=coverage),
                                    self.distributed_payload())
        assert [name for name, _ in problems] == ["obs_distributed"]
        assert "coverage" in problems[0][1]

    @pytest.mark.parametrize("flag", ["worker_span_parity",
                                      "shard_seconds_once_parity",
                                      "worker_span_fork_parity"])
    def test_obs_distributed_parity_flags_are_exact(self, flag):
        current = self.distributed_payload(**{
            {"worker_span_parity": "span_parity",
             "shard_seconds_once_parity": "once_parity",
             "worker_span_fork_parity": "fork_parity"}[flag]: 0.0})
        problems = find_regressions(current, self.distributed_payload())
        assert len(problems) == 1
        assert problems[0][0] is None  # deterministic: not retryable
        assert flag in problems[0][1]

    @staticmethod
    def parallel_payload(speedup=3.5, cpus=4.0, parity=1.0):
        return {"scale": "smoke",
                "stages": {"pipeline_parallel": {
                    "seconds": 1.0, "speedup_4w": speedup, "cpu_count": cpus,
                    "sharded_parity": parity, "sharded_bitwise_parity": parity}}}

    def test_pipeline_parallel_speedup_floor_applies_on_four_cpus(self):
        baseline = self.parallel_payload()
        assert find_regressions(self.parallel_payload(), baseline) == []
        problems = find_regressions(self.parallel_payload(speedup=2.0), baseline)
        assert [name for name, _ in problems] == ["pipeline_parallel"]
        assert "3.0x" in problems[0][1]
        # Below 4 CPUs there is no parallelism to demand; parity still gates.
        assert find_regressions(self.parallel_payload(speedup=0.5, cpus=2.0),
                                baseline) == []
        problems = find_regressions(
            self.parallel_payload(speedup=0.5, cpus=2.0, parity=0.0), baseline)
        assert len(problems) == 2 and all(name is None for name, _ in problems)

    def test_obs_distributed_missing_keys_reported(self):
        current = {"scale": "smoke",
                   "stages": {"obs_distributed": {"seconds": 1.5}}}
        problems = find_regressions(current, self.distributed_payload())
        messages = " ".join(problem for _, problem in problems)
        assert "worker_span_coverage" in messages
        assert "merge_overhead_ratio" in messages

    @staticmethod
    def recovery_payload(speedup=2.0, recovery=1.0, full_replay=1.0,
                         sqlite=1.0, seconds=0.6):
        return {"scale": "smoke",
                "stages": {"store_recovery": {
                    "seconds": seconds,
                    "restore_speedup": speedup,
                    "recovery_parity": recovery,
                    "full_replay_parity": full_replay,
                    "sqlite_backend_parity": sqlite}}}

    def test_store_recovery_clean_run_passes(self):
        assert check_regressions(self.recovery_payload(speedup=1.3),
                                 self.recovery_payload()) == []

    def test_store_recovery_speedup_below_floor_fails_and_is_retryable(self):
        """Tail restore must beat full replay by 1.2x even when the baseline
        machine recorded a similarly bad number."""
        baseline = self.recovery_payload(speedup=1.1)
        problems = find_regressions(self.recovery_payload(speedup=1.1), baseline)
        assert [name for name, _ in problems] == ["store_recovery"]
        assert "1.2x" in problems[0][1]

    def test_store_recovery_missing_speedup_reported(self):
        current = {"scale": "smoke",
                   "stages": {"store_recovery": {"seconds": 0.6,
                                                 "recovery_parity": 1.0,
                                                 "full_replay_parity": 1.0,
                                                 "sqlite_backend_parity": 1.0}}}
        problems = find_regressions(current, self.recovery_payload())
        assert any("restore_speedup" in message for _, message in problems)

    @pytest.mark.parametrize("flag", ["recovery_parity", "full_replay_parity",
                                      "sqlite_backend_parity"])
    def test_store_recovery_parity_flags_are_exact(self, flag):
        current = self.recovery_payload(**{
            {"recovery_parity": "recovery",
             "full_replay_parity": "full_replay",
             "sqlite_backend_parity": "sqlite"}[flag]: 0.0})
        problems = find_regressions(current, self.recovery_payload())
        assert len(problems) == 1
        assert problems[0][0] is None  # deterministic: not retryable
        assert flag in problems[0][1]


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.scale is None
        assert args.check is None
        assert args.tolerance == 0.25
        assert args.retries == 2

    def test_check_without_value_uses_default_snapshot(self):
        args = build_parser().parse_args(["--check"])
        assert args.check == "BENCH_core.json"

    def test_check_with_explicit_baseline(self):
        args = build_parser().parse_args(["--check", "other.json", "--scale", "smoke"])
        assert args.check == "other.json"
        assert args.scale == "smoke"
