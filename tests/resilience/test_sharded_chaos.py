"""Chaos parity: the forked sharded pipeline under injected faults.

The acceptance bar for ``repro.resilience``: kill a worker mid-run and
delay a fraction of scoring batches, and the run must still be
bit-identical to a fault-free one — retries re-execute deterministic
chunk tasks, so absorbed faults cost wall-clock, never output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.infer import BatchedPredictor
from repro.pipeline import PipelineConfig, ShardConfig, ShardedPipeline
from repro.resilience import faults
from repro.resilience.faults import FaultSpec

pytestmark = pytest.mark.skipif(not ShardedPipeline.fork_available(),
                                reason="fork start method unavailable")


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


def _run(predictor, records):
    # Several chunk tasks per run, so the pool has work to lose and retry.
    return ShardedPipeline(
        predictor, config=PipelineConfig(scoring_chunk_size=64),
        shards=ShardConfig(workers=2)).run(list(records))


@pytest.fixture(autouse=True)
def clean_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


def _pair_keys(result):
    return [(pair.left.record_id, pair.right.record_id)
            for pair in result.scored.pairs]


def _assert_bit_identical(chaotic, baseline):
    assert _pair_keys(chaotic) == _pair_keys(baseline)
    assert np.array_equal(chaotic.scored.scores, baseline.scored.scores)
    assert chaotic.clusters.clusters == baseline.clusters.clusters
    assert chaotic.clusters.assignments == baseline.clusters.assignments
    assert chaotic.index_stats == baseline.index_stats


class TestForkedChaosParity:
    def test_fault_free_run_reports_a_clean_fault_report(
            self, predictor, tiny_music_corpus):
        result = _run(predictor, tiny_music_corpus.records)
        report = result.shard_report.fault_report
        assert report.attempts > 0
        assert report.faults_absorbed == 0
        assert report.worker_deaths == 0
        assert report.quarantined == []
        assert result.shard_report.as_dict()["faults"]["retries"] == 0

    def test_one_kill_per_phase_plus_scoring_delays_is_bit_identical(
            self, predictor, tiny_music_corpus, tmp_path):
        records = list(tiny_music_corpus.records)
        baseline = _run(predictor, records)
        specs = [
            # Kill exactly one worker (the token latch keeps rebuilt pools —
            # which fork fresh hit counters — from dying too).
            FaultSpec(site="sharded.score", kind="kill", every=1,
                      scope="worker", token=str(tmp_path / "kill-score")),
            # ... and stall every other scoring chunk.
            FaultSpec(site="scoring.batch", kind="delay", every=2,
                      delay_seconds=0.002, scope="worker"),
        ]
        with faults.plan_scope(specs):
            chaotic = _run(predictor, records)
        _assert_bit_identical(chaotic, baseline)
        report = chaotic.shard_report.fault_report
        assert report.worker_deaths >= 1
        assert report.retries >= 1
        assert report.wall_seconds_lost > 0.0

    def test_raised_worker_errors_are_retried_to_parity(
            self, predictor, tiny_music_corpus, tmp_path):
        records = list(tiny_music_corpus.records)
        baseline = _run(predictor, records)
        specs = [
            FaultSpec(site="sharded.score", kind="raise", every=1,
                      scope="worker", token=str(tmp_path / "raise-once")),
        ]
        with faults.plan_scope(specs):
            chaotic = _run(predictor, records)
        _assert_bit_identical(chaotic, baseline)
        report = chaotic.shard_report.fault_report
        assert report.retries >= 1
        assert report.worker_deaths == 0  # an exception is not a death

    def test_partial_worker_answers_are_treated_as_failures(
            self, predictor, tiny_music_corpus, tmp_path):
        records = list(tiny_music_corpus.records)
        baseline = _run(predictor, records)
        specs = [
            FaultSpec(site="sharded.score", kind="partial", every=1,
                      scope="worker", token=str(tmp_path / "partial-once")),
        ]
        with faults.plan_scope(specs):
            chaotic = _run(predictor, records)
        _assert_bit_identical(chaotic, baseline)
        report = chaotic.shard_report.fault_report
        assert report.partial_results >= 1
        assert report.retries >= 1
