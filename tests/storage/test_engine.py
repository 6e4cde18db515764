"""Storage engine: meta, auto-snapshot cadence, open/recover guards, and
the durable-service wiring (WAL fsync SLO, storage stats)."""

from __future__ import annotations

import json

import pytest

import _crash_child as child
from repro.resilience import FaultInjected, FaultSpec, faults
from repro.serve.service import LinkageService, ServiceConfig
from repro.serve.store import EntityStore, StoreConfig
from repro.storage import (META_FILENAME, STORAGE_FORMAT_VERSION, Storage,
                           StorageConfig, StorageError)


@pytest.fixture(scope="module")
def records():
    return child.build_records()


def fresh_storage(data_dir, **overrides) -> Storage:
    defaults = dict(snapshot_every=child.SNAPSHOT_EVERY,
                    wal_segment_max_entries=child.SEGMENT_MAX_ENTRIES)
    defaults.update(overrides)
    return Storage(data_dir, score_fn=child.score_fn,
                   store_config=child.store_config(),
                   config=StorageConfig(**defaults))


class TestLifecycle:
    def test_meta_file_pins_the_store_config(self, tmp_path, records):
        storage = fresh_storage(tmp_path)
        storage.close()
        meta = json.loads((tmp_path / META_FILENAME).read_text(encoding="utf-8"))
        assert meta["format_version"] == STORAGE_FORMAT_VERSION
        assert StoreConfig.from_dict(meta["store_config"]) == \
            child.store_config()

    def test_recover_uses_the_meta_config_without_being_told(self, tmp_path,
                                                             records):
        storage = fresh_storage(tmp_path)
        for record in records[:5]:
            storage.upsert(record)
        storage.close()
        recovered = Storage.recover(tmp_path, score_fn=child.score_fn)
        try:
            assert recovered.store.config == child.store_config()
            assert len(recovered.store) == 5
        finally:
            recovered.close()

    def test_constructing_over_a_populated_directory_refuses(self, tmp_path,
                                                             records):
        storage = fresh_storage(tmp_path)
        for record in records[:3]:
            storage.upsert(record)
        storage.close()
        with pytest.raises(StorageError, match="recover"):
            Storage(tmp_path, score_fn=child.score_fn,
                    store_config=child.store_config())

    def test_open_dispatches_fresh_vs_recover(self, tmp_path, records):
        first = Storage.open(tmp_path / "data", score_fn=child.score_fn,
                             store_config=child.store_config())
        for record in records[:4]:
            first.upsert(record)
        first.close()
        second = Storage.open(tmp_path / "data", score_fn=child.score_fn)
        try:
            assert second.last_recovery is not None
            assert len(second.store) == 4
        finally:
            second.close()

    def test_wal_holds_one_entry_per_upsert(self, tmp_path, records):
        storage = fresh_storage(tmp_path, snapshot_every=None)
        for record in records[:6]:
            storage.upsert(record)
        # Idempotent re-upserts commit nothing and must not be logged.
        storage.upsert(records[0])
        assert storage.wal.last_lsn == 6
        assert len(storage.fsync_latency_samples()) == 6
        storage.close()

    def test_after_commit_fault_skips_ignored_repeats(self, tmp_path, records):
        # An exact repeat writes no WAL entry, so it is not a commit: a
        # fault armed at the 2nd commit must fire on records[1].
        storage = fresh_storage(tmp_path, snapshot_every=None)
        spec = FaultSpec(site="storage.after_commit", kind="raise", at_hit=2)
        try:
            with faults.plan_scope([spec]):
                storage.upsert(records[0])
                storage.upsert(records[0])
                with pytest.raises(FaultInjected):
                    storage.upsert(records[1])
            assert storage.wal.last_lsn == 2
        finally:
            storage.close()


class TestCompaction:
    def test_auto_snapshot_cadence_and_wal_pruning(self, tmp_path, records):
        storage = fresh_storage(tmp_path)
        for record in records[:25]:
            storage.upsert(record)
        try:
            lsns = [lsn for lsn, _ in storage.snapshots.list()]
            assert lsns == [10, 20]  # keep=2 of the cadence snapshots
            stats = storage.stats()
            assert stats["snapshot_lsn"] == 20.0
            assert stats["wal_tail_entries"] == 5.0
            # Pruning dropped every segment fully covered by the snapshot.
            assert stats["wal_entries"] < 25
        finally:
            storage.close()

    def test_recovery_replays_only_the_tail(self, tmp_path, records):
        storage = fresh_storage(tmp_path)
        for record in records[:25]:
            storage.upsert(record)
        storage.close()
        recovered = Storage.recover(tmp_path, score_fn=child.score_fn,
                                    config=child.storage_config())
        try:
            report = recovered.last_recovery
            assert report.snapshot_lsn == 20
            assert report.replayed_entries == 5
            assert report.records == 25
        finally:
            recovered.close()

    def test_manual_snapshot_without_cadence(self, tmp_path, records):
        storage = fresh_storage(tmp_path, snapshot_every=None)
        for record in records[:7]:
            storage.upsert(record)
        path = storage.snapshot()
        try:
            assert path.exists()
            assert storage.stats()["wal_tail_entries"] == 0.0
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["lsn"] == 7
            assert EntityStore.from_state_dict(payload["store"]).clusters() \
                == storage.store.clusters()
        finally:
            storage.close()


class TestRecoveryGuards:
    def test_snapshot_ahead_of_wal_is_an_error(self, tmp_path, records):
        storage = fresh_storage(tmp_path)
        for record in records[:12]:
            storage.upsert(record)
        storage.close()
        for segment in list(tmp_path.glob("wal-*.log")):
            segment.unlink()
        with pytest.raises(StorageError, match="missing"):
            Storage.recover(tmp_path, score_fn=child.score_fn)

    def test_tampered_scores_fail_replay_loudly(self, tmp_path, records):
        storage = fresh_storage(tmp_path, snapshot_every=None)
        for record in records[:6]:
            storage.upsert(record)
        storage.close()
        # Drop a score from some WAL entry that recorded one: replay must
        # refuse to guess.
        segment = sorted(tmp_path.glob("wal-*.log"))[0]
        lines = []
        tampered = False
        import struct
        from zlib import crc32
        blob = segment.read_bytes()
        offset, out = 0, b""
        header = struct.Struct(">II")
        while offset < len(blob):
            length, _ = header.unpack_from(blob, offset)
            start = offset + header.size
            payload = json.loads(blob[start:start + length])
            if not tampered and payload["scores"]:
                payload["scores"].popitem()
                tampered = True
            raw = json.dumps(payload, sort_keys=True).encode("utf-8")
            out += header.pack(len(raw), crc32(raw)) + raw
            offset = start + length
        assert tampered
        segment.write_bytes(out)
        with pytest.raises(StorageError):
            Storage.recover(tmp_path, score_fn=child.score_fn)


class TestDurableService:
    def test_storage_is_mutually_exclusive_with_store_config(self, tmp_path):
        storage = fresh_storage(tmp_path)
        try:
            with pytest.raises(ValueError, match="storage"):
                LinkageService(child.HashPredictor(), storage=storage,
                               store_config=child.store_config())
        finally:
            storage.close()

    def test_durable_service_feeds_the_wal_fsync_slo(self, tmp_path, records):
        storage = fresh_storage(tmp_path, snapshot_every=None)
        config = ServiceConfig(max_wait_ms=0.5, request_timeout=30.0)
        with LinkageService(child.HashPredictor(), storage=storage,
                            service_config=config) as service:
            for record in records[:8]:
                service.upsert(record)
            assert storage.wal.last_lsn == 8
            report = service.health()
            by_name = {o["name"]: o for o in report["objectives"]}
            fsync = by_name["wal_fsync_latency"]
            assert fsync["status"] != "no_data"
            assert fsync["windows"]["600s"]["total"] == 8.0
            stats = service.stats()
            assert stats["storage"]["wal_last_lsn"] == 8.0
            out = service.snapshot()  # no path: compacted engine snapshot
            assert out.name.startswith("snapshot-")
        storage.close()
