"""EntityStore: incremental-vs-batch parity, persistence, online queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.data.records import Record
from repro.infer import BatchedPredictor
from repro.pipeline import LinkagePipeline
from repro.serve import EntityStore, StoreConfig
from repro.storage.snapshots import (SnapshotError, SnapshotManager,
                                     load_store_snapshot, publish_store_snapshot)


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


@pytest.fixture(scope="module")
def streamed_store(predictor, tiny_music_corpus):
    store = EntityStore(score_fn=predictor.predict_proba)
    for record in tiny_music_corpus.records:
        store.upsert(record)
    return store


@pytest.fixture(scope="module")
def batch_result(predictor, tiny_music_corpus):
    return LinkagePipeline(predictor).run(tiny_music_corpus.records)


class TestBatchParity:
    def test_streaming_upserts_match_batch_pipeline(self, streamed_store, batch_result):
        assert streamed_store.clusters() == batch_result.clusters.clusters

    def test_parity_holds_for_shuffled_input_order(self, predictor, tiny_music_corpus):
        records = list(tiny_music_corpus.records)
        np.random.default_rng(19).shuffle(records)
        store = EntityStore(score_fn=predictor.predict_proba)
        for record in records:
            store.upsert(record)
        batch = LinkagePipeline(predictor).run(records)
        assert store.clusters() == batch.clusters.clusters

    def test_parity_survives_bucket_overflow_retraction(self, predictor,
                                                        tiny_music_corpus):
        # Tight caps force buckets to overflow mid-stream, so candidate pairs
        # emitted early must be retracted exactly as batch blocking would
        # never have emitted them.
        config = StoreConfig(lsh_max_bucket_size=2, max_postings=2,
                             initials_max_bucket_size=2)
        store = EntityStore(score_fn=predictor.predict_proba, config=config)
        for record in tiny_music_corpus.records:
            store.upsert(record)
        assert store.counters.pairs_retracted > 0  # the regime is exercised
        batch = LinkagePipeline(
            predictor, config=config.to_pipeline_config()).run(tiny_music_corpus.records)
        assert store.clusters() == batch.clusters.clusters

    def test_repeated_record_ids_follow_the_batch_ingest_rule(
            self, predictor, tiny_music_corpus):
        # Exact repeats are ignored by both engines; edits raise in both.
        records = list(tiny_music_corpus.records)
        stream = records + records[:8]
        store = EntityStore(score_fn=predictor.predict_proba)
        for record in stream:
            store.upsert(record)
        assert len(store) == len(records)
        assert store.clusters() == LinkagePipeline(predictor).run(stream).clusters.clusters
        changed = Record(record_id=records[0].record_id, source=records[0].source,
                         attributes={**dict(records[0].attributes), "name": "someone else"})
        with pytest.raises(ValueError, match="append-only"):
            store.upsert(changed)
        with pytest.raises(ValueError, match="append-only"):
            LinkagePipeline(predictor).run(records + [changed])

    def test_every_record_in_exactly_one_entity(self, streamed_store, tiny_music_corpus):
        clustered = [record_id for members in streamed_store.clusters()
                     for record_id in members]
        assert sorted(clustered) == sorted(
            record.record_id for record in tiny_music_corpus.records)


class TestUpsertSemantics:
    def test_upsert_returns_stable_entity_membership(self, streamed_store,
                                                     tiny_music_corpus):
        record = tiny_music_corpus.records[0]
        entity_id = streamed_store.entity_of(record.record_id)
        assert record.record_id in streamed_store.entity_members(entity_id)

    def test_identical_reupsert_is_idempotent(self, predictor, tiny_music_corpus):
        store = EntityStore(score_fn=predictor.predict_proba)
        first = store.upsert(tiny_music_corpus.records[0])
        before = store.stats()
        assert store.upsert(tiny_music_corpus.records[0]) == first
        assert store.stats() == before

    def test_conflicting_content_is_rejected(self, predictor, tiny_music_corpus):
        store = EntityStore(score_fn=predictor.predict_proba)
        record = tiny_music_corpus.records[0]
        store.upsert(record)
        changed = Record(record_id=record.record_id, source=record.source,
                         attributes={**dict(record.attributes), "name": "someone else"})
        with pytest.raises(ValueError, match="append-only"):
            store.upsert(changed)

    def test_store_without_score_fn_rejects_upsert(self, tiny_music_corpus):
        store = EntityStore()
        with pytest.raises(RuntimeError, match="score_fn"):
            store.upsert(tiny_music_corpus.records[0])

    def test_scoring_failure_leaves_store_untouched_and_is_retryable(
            self, predictor, tiny_music_corpus):
        # A scoring error (model failure, coalescer timeout/shutdown) must
        # not leave a half-ingested record behind: the same upsert retried
        # with a healthy scorer must land, with full batch parity.
        records = tiny_music_corpus.records
        store = EntityStore(score_fn=predictor.predict_proba)
        for record in records[:10]:
            store.upsert(record)
        clusters_before = store.clusters()
        stats_before = store.stats()

        def broken(pairs):
            raise TimeoutError("scoring request not completed")

        store.bind_score_fn(broken)
        with pytest.raises(TimeoutError):
            store.upsert(records[10])
        assert records[10].record_id not in store
        assert store.clusters() == clusters_before
        assert store.stats() == stats_before

        store.bind_score_fn(predictor.predict_proba)
        for record in records[10:]:
            store.upsert(record)
        batch = LinkagePipeline(predictor).run(records)
        assert store.clusters() == batch.clusters.clusters


class TestQuery:
    def test_query_finds_the_probed_entity(self, streamed_store, tiny_music_corpus):
        # Probe with a copy of a stored record from a brand-new source: its
        # own entity must rank among the matches.
        record = tiny_music_corpus.records[0]
        probe = Record(record_id="probe#query", source="unseen-source",
                       attributes=dict(record.attributes))
        matches = streamed_store.query(probe, top_k=5)
        assert matches, "probing a stored record's content found nothing"
        assert all(0.0 <= match.score <= 1.0 for match in matches)
        scores = [match.score for match in matches]
        assert scores == sorted(scores, reverse=True)
        assert streamed_store.entity_of(record.record_id) in {
            match.entity_id for match in matches}

    def test_query_does_not_mutate_the_store(self, streamed_store, tiny_music_corpus):
        clusters_before = streamed_store.clusters()
        records_before = len(streamed_store)
        probe = Record(record_id="probe#readonly", source="unseen-source",
                       attributes=dict(tiny_music_corpus.records[3].attributes))
        streamed_store.query(probe)
        assert len(streamed_store) == records_before
        assert streamed_store.clusters() == clusters_before

    def test_query_respects_top_k(self, streamed_store, tiny_music_corpus):
        probe = Record(record_id="probe#topk", source="unseen-source",
                       attributes=dict(tiny_music_corpus.records[0].attributes))
        assert len(streamed_store.query(probe, top_k=1)) <= 1
        with pytest.raises(ValueError, match="top_k"):
            streamed_store.query(probe, top_k=0)


def snapshot_round_trip(store, directory, score_fn=None):
    """Publish ``store`` as a snapshot file under ``directory``, load it back."""
    manager = SnapshotManager(directory)
    publish_store_snapshot(manager, store.freeze_state(), lsn=len(store))
    lsn, restored = load_store_snapshot(manager, score_fn=score_fn)
    assert lsn == len(store)
    return restored


class TestSnapshotRestore:
    def test_round_trip_is_bit_exact(self, streamed_store, tmp_path):
        restored = snapshot_round_trip(streamed_store, tmp_path / "store")
        assert restored.clusters() == streamed_store.clusters()
        assert restored.entities() == streamed_store.entities()
        # Internal candidate state is reproduced exactly, not just clusters.
        assert restored._support == streamed_store._support
        assert restored._scores == streamed_store._scores
        assert restored.state_dict() == streamed_store.state_dict()

    def test_restored_store_is_read_only_until_bound(self, streamed_store,
                                                     predictor, tiny_music_corpus,
                                                     tmp_path):
        restored = snapshot_round_trip(streamed_store, tmp_path / "store")
        probe = tiny_music_corpus.records[0]
        with pytest.raises(RuntimeError, match="score_fn"):
            restored.query(probe)
        restored.bind_score_fn(predictor.predict_proba)
        assert restored.upsert(probe) == streamed_store.entity_of(probe.record_id)

    def test_restore_continues_streaming_with_parity(self, predictor,
                                                     tiny_music_corpus, tmp_path):
        records = list(tiny_music_corpus.records)
        half = len(records) // 2
        store = EntityStore(score_fn=predictor.predict_proba)
        for record in records[:half]:
            store.upsert(record)
        restored = snapshot_round_trip(store, tmp_path / "half",
                                       score_fn=predictor.predict_proba)
        for record in records[half:]:
            restored.upsert(record)
        batch = LinkagePipeline(predictor).run(records)
        assert restored.clusters() == batch.clusters.clusters

    def test_unknown_format_version_rejected(self, streamed_store, tmp_path):
        from repro.utils.serialization import load_json, save_json

        manager = SnapshotManager(tmp_path / "store")
        path = publish_store_snapshot(manager, streamed_store.freeze_state(),
                                      lsn=len(streamed_store))
        envelope = load_json(path)
        envelope["format_version"] = 999
        save_json(envelope, path)
        with pytest.raises(SnapshotError, match="format version"):
            load_store_snapshot(manager)


class TestConfigBridge:
    def test_store_config_round_trips_through_pipeline_config(self):
        config = StoreConfig(num_perm=64, bands=16, score_threshold=0.7,
                             cross_source_only=False)
        assert StoreConfig.from_pipeline_config(config.to_pipeline_config()) == config

    def test_stats_are_json_clean(self, streamed_store):
        import json
        import math

        stats = streamed_store.stats()
        assert all(math.isfinite(value) for value in stats.values())
        assert json.dumps(stats)
