"""SnapshotManager protocol + the store snapshot envelope.

The second half covers the one snapshot file format as the serve layer
writes it (``LinkageService.snapshot(path)``): the store lock is not held
while the file is written (a concurrent upsert completes while a snapshot
is mid-write), the file is published atomically, and the shared loader
rejects a bad envelope but tolerates counter-schema drift.
"""

from __future__ import annotations

import json
import threading

import pytest

import _crash_child as child
from repro.serve.service import LinkageService
from repro.serve.store import EntityStore
from repro.storage.snapshots import (STORAGE_FORMAT_VERSION, SnapshotError,
                                     SnapshotManager, load_store_snapshot)


class TestSnapshotManager:
    def test_take_and_load_latest_round_trip(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        manager.take({"value": 1}, lsn=10)
        manager.take({"value": 2}, lsn=25)
        lsn, payload = manager.load_latest()
        assert (lsn, payload) == (25, {"value": 2})

    def test_list_is_sorted_by_lsn(self, tmp_path):
        manager = SnapshotManager(tmp_path, keep=5)
        for lsn in (30, 10, 20):
            manager.take({"lsn_was": lsn}, lsn=lsn)
        assert [lsn for lsn, _ in manager.list()] == [10, 20, 30]

    def test_retention_prunes_oldest(self, tmp_path):
        manager = SnapshotManager(tmp_path, keep=2)
        for lsn in (10, 20, 30):
            manager.take({}, lsn=lsn)
        assert [lsn for lsn, _ in manager.list()] == [20, 30]

    def test_no_temp_files_survive_publication(self, tmp_path):
        SnapshotManager(tmp_path).take({"value": 1}, lsn=1)
        assert [p.name for p in tmp_path.iterdir()] == \
            [f"snapshot-{1:016d}.json"]

    def test_cleanup_removes_stale_temp_files_only(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        manager.take({}, lsn=5)
        stale = tmp_path / ".snapshot-0000000000000009.json.tmp"
        stale.write_text("{", encoding="utf-8")
        assert manager.cleanup() == 1
        assert not stale.exists()
        assert manager.latest()[0] == 5

    def test_damaged_newest_degrades_to_previous(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        manager.take({"value": 1}, lsn=10)
        manager.take({"value": 2}, lsn=20)
        newest = manager.latest()[1]
        newest.write_text("not json", encoding="utf-8")
        assert manager.load_latest() == (10, {"value": 1})

    def test_empty_directory_has_nothing_to_load(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        assert manager.latest() is None
        assert manager.load_latest() is None

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            SnapshotManager(tmp_path, keep=0)


@pytest.fixture()
def streamed_store(tiny_music_corpus):
    store = EntityStore(score_fn=child.score_fn, config=child.store_config())
    for record in tiny_music_corpus.records[:20]:
        store.upsert(record)
    return store


@pytest.fixture()
def service(streamed_store):
    with LinkageService(child.HashPredictor(), store=streamed_store) as running:
        yield running


class TestLegacySnapshotLocking:
    def test_concurrent_upsert_completes_while_snapshot_is_mid_write(
            self, service, tiny_music_corpus, tmp_path, monkeypatch):
        """The file is written outside the store lock: park the snapshot
        thread inside its file-writing phase and prove an upsert still
        goes through before the snapshot finishes."""
        mid_write = threading.Event()
        release = threading.Event()
        real_take = SnapshotManager.take

        def parked_take(manager, payload, lsn):
            mid_write.set()
            assert release.wait(timeout=10.0)
            return real_take(manager, payload, lsn)

        monkeypatch.setattr(SnapshotManager, "take", parked_take)
        snapshotter = threading.Thread(
            target=service.snapshot, args=(tmp_path / "snap",))
        snapshotter.start()
        try:
            assert mid_write.wait(timeout=10.0)
            upserted = threading.Event()

            def upsert():
                service.upsert(tiny_music_corpus.records[20])
                upserted.set()

            writer = threading.Thread(target=upsert)
            writer.start()
            finished = upserted.wait(timeout=10.0)
            writer.join(timeout=10.0)
            assert finished, "upsert blocked behind a mid-write snapshot"
        finally:
            release.set()
            snapshotter.join(timeout=10.0)
        # The snapshot captured the pre-upsert state it froze under the lock.
        lsn, restored = load_store_snapshot(SnapshotManager(tmp_path / "snap"))
        assert lsn == len(restored) == 20
        assert len(service.store) == 21

    def test_snapshot_publishes_atomically(self, service, tmp_path):
        out = service.snapshot(tmp_path / "snap")
        assert sorted(p.name for p in out.parent.iterdir()) == \
            [f"snapshot-{20:016d}.json"]  # no .tmp leftovers
        envelope = json.loads(out.read_text(encoding="utf-8"))
        assert envelope["format_version"] == STORAGE_FORMAT_VERSION
        assert envelope["lsn"] == 20


class TestLegacyRestoreTolerance:
    def rewrite_envelope(self, path, mutate):
        envelope = json.loads(path.read_text(encoding="utf-8"))
        mutate(envelope)
        path.write_text(json.dumps(envelope), encoding="utf-8")

    def test_unknown_format_version_is_rejected(self, service, tmp_path):
        out = service.snapshot(tmp_path / "snap")
        self.rewrite_envelope(out, lambda e: e.update(format_version=99))
        with pytest.raises(SnapshotError, match="format version"):
            load_store_snapshot(SnapshotManager(out.parent))

    def test_lsn_differing_from_the_file_name_is_rejected(self, service,
                                                          tmp_path):
        out = service.snapshot(tmp_path / "snap")
        self.rewrite_envelope(out, lambda e: e.update(lsn=7))
        with pytest.raises(SnapshotError, match="lsn"):
            load_store_snapshot(SnapshotManager(out.parent))

    def test_counter_schema_drift_is_tolerated(self, service, streamed_store,
                                               tmp_path):
        out = service.snapshot(tmp_path / "snap")

        def drift(envelope):
            counters = envelope["store"]["counters"]
            counters.pop("pairs_scored")       # older snapshot
            counters["counter_from_the_future"] = 7

        self.rewrite_envelope(out, drift)
        _, restored = load_store_snapshot(SnapshotManager(out.parent))
        assert restored.clusters() == streamed_store.clusters()
        # The missing key falls back to zero; the unknown key is dropped.
        assert restored.counters.pairs_scored == 0
        assert restored.counters.upserts == streamed_store.counters.upserts
        assert not hasattr(restored.counters, "counter_from_the_future")
