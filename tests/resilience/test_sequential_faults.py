"""The sequential (no-fork) sharded path honors the same retry semantics.

``workers=1`` runs the exact same :class:`TaskExecutor` accounting inline,
so platforms without ``fork`` keep the full retry / fallback / FaultReport
contract — only per-attempt deadlines (a pooled-only knob) are absent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.infer import BatchedPredictor
from repro.pipeline import PipelineConfig, ShardConfig, ShardedPipeline
from repro.resilience import faults
from repro.resilience.faults import FaultInjected, FaultSpec
from repro.resilience.retry import RetryPolicy


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


@pytest.fixture(autouse=True)
def clean_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


def _pair_keys(result):
    return [(pair.left.record_id, pair.right.record_id)
            for pair in result.scored.pairs]


def _run(predictor, records, **config):
    config.setdefault("workers", 1)
    # Several chunk tasks, so faults can target more than one.
    return ShardedPipeline(
        predictor, config=PipelineConfig(scoring_chunk_size=64),
        shards=ShardConfig(**config)).run(list(records))


class TestSequentialFaultParity:
    def test_one_raise_per_phase_is_retried_to_parity(
            self, predictor, tiny_music_corpus):
        records = list(tiny_music_corpus.records)
        baseline = _run(predictor, records)
        specs = [
            FaultSpec(site="sharded.score", kind="raise"),  # first hit only
            FaultSpec(site="sharded.score", kind="raise", match={"shard": 2}),
        ]
        with faults.plan_scope(specs):
            faulty = _run(predictor, records)
        assert _pair_keys(faulty) == _pair_keys(baseline)
        assert np.array_equal(faulty.scored.scores, baseline.scored.scores)
        assert faulty.clusters.clusters == baseline.clusters.clusters
        report = faulty.shard_report.fault_report
        assert not faulty.shard_report.used_processes
        assert report.retries == 2
        assert report.fallbacks == 0
        assert report.wall_seconds_lost > 0.0

    def test_partial_answers_are_failures_inline_too(
            self, predictor, tiny_music_corpus):
        records = list(tiny_music_corpus.records)
        baseline = _run(predictor, records)
        specs = [FaultSpec(site="sharded.score", kind="partial"),
                 FaultSpec(site="sharded.score", kind="partial",
                           match={"shard": 2})]
        with faults.plan_scope(specs):
            faulty = _run(predictor, records)
        assert _pair_keys(faulty) == _pair_keys(baseline)
        report = faulty.shard_report.fault_report
        assert report.partial_results == 2
        assert report.retries == 2

    def test_exhausted_task_falls_back_and_quarantines_its_label(
            self, predictor, tiny_music_corpus):
        records = list(tiny_music_corpus.records)
        baseline = _run(predictor, records)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0,
                            jitter=0.0)
        # Fails both regular attempts of the first chunk task; the
        # in-process fallback (the 3rd call) succeeds.
        specs = [FaultSpec(site="sharded.score", kind="raise", every=1,
                           max_triggers=2)]
        with faults.plan_scope(specs):
            faulty = _run(predictor, records, retry=retry)
        assert _pair_keys(faulty) == _pair_keys(baseline)
        report = faulty.shard_report.fault_report
        assert report.fallbacks == 1
        assert len(report.quarantined) == 1
        assert report.quarantined == ["chunk-0"]

    def test_persistent_fault_without_fallback_surfaces_the_error(
            self, predictor, tiny_music_corpus):
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0,
                            jitter=0.0, fallback_in_process=False)
        specs = [FaultSpec(site="sharded.score", kind="raise", every=1)]
        with faults.plan_scope(specs):
            with pytest.raises(FaultInjected):
                _run(predictor, tiny_music_corpus.records, retry=retry)

    def test_shard_config_serializes_its_retry_policy(self):
        retry = RetryPolicy(max_attempts=5, task_timeout=2.0)
        payload = ShardConfig(workers=1, retry=retry).as_dict()
        assert payload["retry"] == retry.as_dict()
        assert RetryPolicy.from_dict(payload["retry"]) == retry
