"""Tests for the parallel pipeline: parity, the ingest rule, telemetry, CLI."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.data.records import Record
from repro.data.storage import write_records_csv
from repro.infer import BatchedPredictor, save_model
from repro.pipeline import (
    LinkagePipeline,
    PipelineConfig,
    ShardConfig,
    ShardedPipeline,
)
from repro.pipeline.__main__ import main as pipeline_main

# Small enough that the tiny corpus splits into several chunk tasks.
CONFIG = PipelineConfig(scoring_chunk_size=64)

needs_fork = pytest.mark.skipif(not ShardedPipeline.fork_available(),
                                reason="fork start method unavailable")


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


def _pair_keys(result):
    return [(pair.left.record_id, pair.right.record_id)
            for pair in result.scored.pairs]


def _walk(spans, name):
    found, stack = [], list(spans)
    while stack:
        span = stack.pop()
        if span.name == name:
            found.append(span)
        stack.extend(span.children)
    return found


def _run_both(predictor, records, workers, monkeypatch=None):
    """Run the batch engine and the parallel one on the same input."""
    if monkeypatch is not None:
        monkeypatch.setattr(ShardedPipeline, "fork_available",
                            staticmethod(lambda: False))
    batch = LinkagePipeline(predictor, config=CONFIG).run(list(records))
    sharded = ShardedPipeline(predictor, config=CONFIG,
                              shards=ShardConfig(workers=workers)).run(list(records))
    return batch, sharded


def _assert_matches_batch(sharded, batch):
    assert _pair_keys(sharded) == _pair_keys(batch)
    assert np.array_equal(sharded.scored.scores, batch.scored.scores)
    assert sharded.clusters.clusters == batch.clusters.clusters
    assert sharded.clusters.assignments == batch.clusters.assignments
    assert sharded.index_stats == batch.index_stats
    assert sharded.candidates.stats == batch.candidates.stats
    report = sharded.shard_report
    assert len(report.shard_candidates) > 1
    assert sum(report.shard_candidates) == len(batch.scored.pairs)
    assert all(size == CONFIG.scoring_chunk_size
               for size in report.shard_candidates[:-1])


class TestSingleWorkerParity:
    """ShardedPipeline(workers=1) must be bit-identical to the batch engine."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_on_shuffled_inputs(self, predictor, tiny_music_corpus,
                                              seed):
        records = list(tiny_music_corpus.records)
        random.Random(seed).shuffle(records)
        batch, sharded = _run_both(predictor, records, workers=1)
        _assert_matches_batch(sharded, batch)
        assert not sharded.shard_report.used_processes

    def test_pair_stats_match_batch_core_keys(self, predictor, tiny_music_corpus):
        batch, sharded = _run_both(predictor, tiny_music_corpus.records, workers=1)
        for key in ("num_records", "num_candidates", "possible_pairs",
                    "reduction_ratio", "pair_reduction_factor", "recall",
                    "num_true_pairs"):
            assert sharded.candidates.stats[key] == batch.candidates.stats[key]


class TestMultiShardParity:
    """Any worker count, scoring inline, reproduces the batch engine."""

    @pytest.mark.parametrize("workers", [2, 4, 7])
    def test_in_process_shards_match_batch(self, predictor, tiny_music_corpus,
                                           monkeypatch, workers):
        records = list(tiny_music_corpus.records)
        random.Random(workers).shuffle(records)
        batch, sharded = _run_both(predictor, records, workers, monkeypatch)
        _assert_matches_batch(sharded, batch)
        assert sharded.shard_report.workers == workers
        assert not sharded.shard_report.used_processes

    def test_sharded_run_is_deterministic(self, predictor, tiny_music_corpus):
        records = list(tiny_music_corpus.records)
        config = ShardConfig(workers=3)
        first = ShardedPipeline(predictor, config=CONFIG,
                                shards=config).run(list(records))
        second = ShardedPipeline(predictor, config=CONFIG,
                                 shards=config).run(list(records))
        assert np.array_equal(first.scored.scores, second.scored.scores)
        assert first.clusters.clusters == second.clusters.clusters
        assert first.shard_report.shard_candidates == \
            second.shard_report.shard_candidates


class TestParity:
    """Scoring on a forked pool reproduces the batch engine."""

    @pytest.mark.parametrize("mode,workers", [
        pytest.param("forked", 2, marks=needs_fork),
        pytest.param("forked", 4, marks=needs_fork),
    ])
    def test_matches_linkage_pipeline(self, predictor, tiny_music_corpus,
                                      mode, workers):
        records = list(tiny_music_corpus.records)
        random.Random(workers).shuffle(records)
        batch, sharded = _run_both(predictor, records, workers)
        _assert_matches_batch(sharded, batch)
        assert sharded.shard_report.used_processes


class TestRepeatedRecordIds:
    """One ingest rule for every engine: ignore exact repeats, reject edits."""

    @staticmethod
    def _engine(predictor, workers):
        if workers is None:
            return LinkagePipeline(predictor, config=CONFIG)
        return ShardedPipeline(predictor, config=CONFIG,
                               shards=ShardConfig(workers=workers))

    @pytest.mark.parametrize("workers", [None, 1, 2],
                             ids=["batch", "workers1", "workers2"])
    def test_identical_repeat_keeps_the_first(self, predictor,
                                              tiny_music_corpus, workers):
        records = list(tiny_music_corpus.records)
        # The same objects again, plus equal-content copies.
        repeats = records[:5] + [Record(record_id=record.record_id,
                                        source=record.source,
                                        attributes=dict(record.attributes))
                                 for record in records[5:10]]
        reference = LinkagePipeline(predictor, config=CONFIG).run(records)
        result = self._engine(predictor, workers).run(records + repeats)
        assert [r.record_id for r in result.records] == \
            [r.record_id for r in records]
        assert _pair_keys(result) == _pair_keys(reference)
        assert np.array_equal(result.scored.scores, reference.scored.scores)
        assert result.clusters.clusters == reference.clusters.clusters

    @pytest.mark.parametrize("workers", [None, 1, 2],
                             ids=["batch", "workers1", "workers2"])
    def test_conflicting_repeat_raises(self, predictor, tiny_music_corpus,
                                       workers):
        records = list(tiny_music_corpus.records)
        changed = Record(record_id=records[3].record_id, source=records[3].source,
                         attributes={**dict(records[3].attributes),
                                     "name": "someone else"})
        with pytest.raises(ValueError, match="append-only"):
            self._engine(predictor, workers).run(records + [changed])


class TestShardedTelemetry:
    def test_run_records_convention_valid_metrics(self, predictor,
                                                  tiny_music_corpus):
        import repro.obs as obs
        from repro.obs.metrics import valid_metric_name

        with obs.telemetry() as session:
            ShardedPipeline(predictor, config=CONFIG,
                            shards=ShardConfig(workers=1)).run(
                list(tiny_music_corpus.records))
        names = {entry["name"] for entry in session.registry.snapshot()}
        expected = {"pipeline_sharded_runs_total",
                    "pipeline_sharded_workers_count",
                    "pipeline_sharded_shard_seconds"}
        assert expected <= names
        offenders = [name for name in names if not valid_metric_name(name)]
        assert offenders == []

    @staticmethod
    def _span_shape(span):
        """(name, sorted child shapes) — attribute- and timing-free."""
        return (span.name,
                tuple(sorted(TestShardedTelemetry._span_shape(child)
                             for child in span.children)))

    @staticmethod
    def _run_with_telemetry(predictor, records, workers):
        import repro.obs as obs

        with obs.telemetry() as session:
            result = ShardedPipeline(
                predictor, config=CONFIG,
                shards=ShardConfig(workers=workers)).run(list(records))
        return result, session

    @staticmethod
    def _score_seconds_counts(session):
        return {entry["labels"]["phase"]: entry["count"]
                for entry in session.registry.snapshot()
                if entry["name"] == "pipeline_sharded_shard_seconds"}

    def test_worker_spans_merge_into_one_driver_tree(self, predictor,
                                                     tiny_music_corpus):
        result, session = self._run_with_telemetry(
            predictor, tiny_music_corpus.records, workers=1)
        (root,) = [span for span in session.collector.roots()
                   if span.name == "sharded.run"]
        (score,) = _walk([root], "sharded.score")
        workers = [span for span in score.children
                   if span.name == "sharded.worker"]
        expected = len(result.shard_report.shard_candidates)
        assert len(workers) == expected > 1
        assert len(_walk([root], "sharded.worker")) == expected
        assert sorted(span.attributes["shard"] for span in workers) == \
            list(range(expected))
        # In-process tasks run back to back inside sharded.score, so their
        # wall time accounts for most of it (soft bound: the parent also
        # merges payloads inside the span).
        assert sum(span.seconds for span in workers) >= 0.5 * score.seconds

    def test_shard_seconds_observed_once_per_shard_per_phase(self, predictor,
                                                             tiny_music_corpus):
        """Regression: the parent must not re-observe what the tasks
        already shipped — one score-phase observation per task, exactly."""
        result, session = self._run_with_telemetry(
            predictor, tiny_music_corpus.records, workers=1)
        expected = len(result.shard_report.shard_candidates)
        assert self._score_seconds_counts(session) == {"score": expected}

    @needs_fork
    def test_forked_run_has_identical_span_structure(self, predictor,
                                                     tiny_music_corpus):
        """A 4-worker forked export must be span-identical (same tree shape)
        to the in-process 1-worker run — worker payloads ship across the
        pipe instead of the call stack, but the story reads the same."""
        _, inline = self._run_with_telemetry(
            predictor, tiny_music_corpus.records, workers=1)
        _, forked = self._run_with_telemetry(
            predictor, tiny_music_corpus.records, workers=4)
        shape = [self._span_shape(span) for span in inline.collector.roots()]
        assert [self._span_shape(span)
                for span in forked.collector.roots()] == shape

    @needs_fork
    def test_forked_metrics_match_inline(self, predictor, tiny_music_corpus):
        result, session = self._run_with_telemetry(
            predictor, tiny_music_corpus.records, workers=4)
        expected = len(result.shard_report.shard_candidates)
        assert self._score_seconds_counts(session) == {"score": expected}


class TestShardedCLI:
    @pytest.mark.slow
    def test_cli_workers_flag_runs_sharded(self, predictor, music_scenario,
                                           fast_config, tiny_music_corpus,
                                           tmp_path):
        trainer = AdaMELHybrid(fast_config)
        trainer.fit(music_scenario)
        bundle = save_model(trainer, tmp_path / "bundle")
        records_csv = write_records_csv(tiny_music_corpus.records,
                                        tmp_path / "records.csv")
        exit_code = pipeline_main([
            "--records", str(records_csv),
            "--model", str(bundle),
            "--workers", "2",
            "--chunk-size", "64",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert exit_code == 0
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        sharding = stats["sharding"]
        assert sharding["workers"] == 2
        assert sum(sharding["shard_candidates"]) == \
            stats["stages"]["pair"]["num_candidates"]
        assert len(sharding["shard_score_seconds"]) == \
            len(sharding["shard_candidates"]) > 1
        assert sharding["faults"]["retries"] == 0
