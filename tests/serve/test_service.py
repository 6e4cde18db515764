"""LinkageService end-to-end, the load generator and the serve CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.data.records import Record
from repro.infer import BatchedPredictor
from repro.pipeline import LinkagePipeline
from repro.serve import (EntityStore, LinkageService, ServiceConfig, StoreConfig,
                         latency_percentiles, replay_queries, replay_upserts)
from repro.serve.__main__ import main as serve_main
from repro.storage.snapshots import SnapshotManager, load_store_snapshot


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


@pytest.fixture()
def service(predictor):
    config = ServiceConfig(max_batch_size=16, max_wait_ms=2.0, top_k=3)
    with LinkageService(predictor, service_config=config) as running:
        yield running


class TestLinkageService:
    def test_upserts_then_queries_resolve_entities(self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        for record in records[:20]:
            result = service.upsert(record)
            assert result.entity_id == service.store.entity_of(record.record_id)
            assert result.seconds >= 0.0
        probe = Record(record_id="probe#svc", source="unseen-source",
                       attributes=dict(records[0].attributes))
        response = service.query(probe)
        assert len(response.matches) <= 3
        assert response.best is None or 0.0 <= response.best.score <= 1.0

    def test_concurrent_query_load_is_served_through_the_coalescer(
            self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        replay_upserts(service, records)
        report = replay_queries(service, records, num_workers=4)
        assert report.num_workers == 4
        assert report.operations == len(records)
        assert report.errors == 0
        percentiles = report.percentiles()
        assert 0.0 < percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]
        stats = service.coalescer.stats()
        assert stats["requests"] > 0
        assert stats["batches"] > 0
        # All scoring flows through the coalescer (upserts + queries), so the
        # executor can never run more fused batches than requests.  Actual
        # fusion of concurrent submitters is asserted deterministically in
        # test_coalescer.py, where the score function is gated.
        assert stats["batches"] <= stats["requests"]
        assert stats["pairs_scored"] >= stats["requests"]

    def test_service_parity_with_batch_pipeline(self, service, predictor,
                                                tiny_music_corpus):
        records = list(tiny_music_corpus.records)
        replay_upserts(service, records)
        batch = LinkagePipeline(predictor).run(records)
        assert service.store.clusters() == batch.clusters.clusters

    def test_stats_are_nested_and_numeric(self, service, tiny_music_corpus):
        service.upsert(tiny_music_corpus.records[0])
        stats = service.stats()
        assert set(stats) == {"service", "store", "coalescer", "predictor"}
        for section in stats.values():
            assert all(isinstance(value, float) for value in section.values())

    def test_serving_a_restored_store(self, service, predictor, tiny_music_corpus,
                                      tmp_path):
        records = tiny_music_corpus.records
        replay_upserts(service, records[:15])
        service.snapshot(tmp_path / "store")
        _, restored = load_store_snapshot(SnapshotManager(tmp_path / "store"))
        with LinkageService(predictor, store=restored) as resumed:
            for record in records[15:30]:
                resumed.upsert(record)
            assert len(resumed.store) == 30

    def test_snapshot_without_storage_uses_the_storage_loader(
            self, service, predictor, tiny_music_corpus, tmp_path):
        """LinkageService.snapshot(path) writes the snapshot-<lsn>.json file
        Storage.recover reads; the loaded store equals the live one and is
        read-only until a scorer is bound."""
        records = tiny_music_corpus.records
        replay_upserts(service, records[:20])
        out = service.snapshot(tmp_path / "snap")
        assert sorted(p.name for p in out.parent.iterdir()) == \
            [f"snapshot-{20:016d}.json"]
        lsn, restored = load_store_snapshot(SnapshotManager(out.parent))
        assert lsn == 20
        assert restored.state_dict() == service.store.state_dict()
        assert restored.clusters() == service.store.clusters()
        with pytest.raises(RuntimeError, match="score_fn"):
            restored.upsert(records[20])
        restored.bind_score_fn(predictor.predict_proba)
        restored.upsert(records[20])
        assert len(restored) == 21

    def test_existing_store_and_store_config_conflict(self, predictor):
        with pytest.raises(ValueError, match="not both"):
            LinkageService(predictor, store_config=StoreConfig(),
                           store=EntityStore())


class TestLoadgen:
    def test_latency_percentiles_shape(self):
        samples = [0.001 * i for i in range(1, 101)]
        percentiles = latency_percentiles(samples)
        assert set(percentiles) == {"p50", "p95", "p99"}
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]
        assert latency_percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_upsert_replay_reports_throughput_and_percentiles(self, service,
                                                              tiny_music_corpus):
        report = replay_upserts(service, tiny_music_corpus.records[:10])
        assert report.operations == 10
        assert report.throughput > 0.0
        percentiles = report.percentiles()
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]

    def test_replay_queries_rejects_bad_worker_count(self, service):
        with pytest.raises(ValueError, match="num_workers"):
            replay_queries(service, [], num_workers=0)


class TestServeCLI:
    def test_no_demo_flag_prints_help(self, capsys):
        assert serve_main([]) == 2
        assert "--demo" in capsys.readouterr().out

    @pytest.mark.slow
    def test_demo_streams_and_passes_parity(self, capsys):
        exit_code = serve_main(["--demo", "--scale", "smoke", "--epochs", "3",
                                "--queries", "30", "--workers", "4"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "parity OK" in output
        assert "query latency" in output
