"""The durable storage engine: WAL + snapshots around an ``EntityStore``.

:class:`Storage` owns a data directory and wires three pieces together:

* every committed upsert appends one fsync'd WAL entry (record, the pair
  scores the upsert produced, the bucket retractions it planned) *before*
  the store mutates — :mod:`repro.storage.wal`;
* periodic compacted snapshots of the materialized store state, taken
  without blocking upserts (freeze under the store lock, serialize and
  write outside it) and followed by WAL pruning —
  :mod:`repro.storage.snapshots`;
* :meth:`Storage.recover` = load newest snapshot + replay the WAL tail,
  restoring a state bit-exact with a never-crashed store in
  O(snapshot + tail) — not O(corpus).

Why replay is exact: the WAL entry carries the scores its upsert computed,
so replay re-runs the *deterministic* part of an upsert (blocking, support
bookkeeping, retraction, component re-resolution) against the *recorded*
stochastic part (model scores).  The entry's retraction plan is re-checked
during replay — a divergence means the log and the code disagree and
recovery refuses to guess.

Crash-safety contract (exercised point-by-point by ``tests/storage``,
which arms ``kill`` faults at the ``storage.*`` sites of
:mod:`repro.resilience.faults`):
the store lock is held from WAL append through in-memory commit, and the
append is durable first — so a crash anywhere leaves the WAL holding
exactly the committed prefix plus at most one torn entry, which open-time
truncation discards.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Union

import numpy as np

from .. import obs
from ..data.records import Record
from ..obs import BoundHandles
from ..resilience import faults
from ..resilience.faults import FaultInjected
from ..serve.store import EntityStore, ScoreFn, StoreConfig
from .errors import StorageError, StorageLocked, StorageReadOnly
from .locks import DirectoryLock
from .snapshots import (STORAGE_FORMAT_VERSION, SnapshotManager,
                        load_store_snapshot, publish_store_snapshot)
from .wal import WALError, WriteAheadLog

__all__ = ["Storage", "StorageConfig", "StorageError", "StorageLocked",
           "StorageReadOnly", "RecoveryReport",
           "STORAGE_FORMAT_VERSION", "META_FILENAME"]

META_FILENAME = "storage_meta.json"
_MAX_FSYNC_SAMPLES = 65536


@dataclass(frozen=True)
class StorageConfig:
    """Durability / compaction knobs of the storage engine."""

    fsync: bool = True                       # fsync every WAL append
    snapshot_every: Optional[int] = None     # auto-snapshot cadence (upserts)
    wal_segment_max_entries: int = 256       # rotation (= pruning) grain
    prune_wal: bool = True                   # drop segments a snapshot covers
    snapshots_keep: int = 2                  # retained snapshot generations


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`Storage.recover` call restored."""

    snapshot_lsn: int       # 0 when no snapshot existed
    replayed_entries: int   # WAL tail length
    records: int            # records in the restored store
    seconds: float


class _StorageInstruments(NamedTuple):
    wal_appends: object
    wal_bytes: object
    fsync_seconds: object
    snapshots: object
    compaction_seconds: object
    segments_pruned: object
    recovery_seconds: object
    recovered_entries: object


def _bind_storage_instruments(registry) -> _StorageInstruments:
    return _StorageInstruments(
        wal_appends=registry.counter("storage_wal_appends_total",
                                     "WAL entries appended"),
        wal_bytes=registry.counter("storage_wal_bytes",
                                   "WAL bytes written (headers + payloads)"),
        fsync_seconds=registry.histogram("storage_wal_fsync_seconds",
                                         "Per-append WAL fsync latency"),
        snapshots=registry.counter("storage_snapshots_total",
                                   "Snapshots published"),
        compaction_seconds=registry.histogram(
            "storage_compaction_seconds",
            "Snapshot serialize+write+prune duration"),
        segments_pruned=registry.counter("storage_segments_pruned_total",
                                         "WAL segments deleted by compaction"),
        recovery_seconds=registry.histogram("storage_recovery_seconds",
                                            "Snapshot-load + tail-replay time"),
        recovered_entries=registry.counter("storage_recovered_entries",
                                           "WAL tail entries replayed"),
    )


class Storage:
    """A durable :class:`~repro.serve.EntityStore` in one data directory.

    Construct directly over a fresh/empty directory, or via
    :meth:`recover` (snapshot + WAL tail) / :meth:`open` (recover when the
    directory holds state, else start fresh).  The wrapped store stays
    fully usable as-is — ``storage.store`` — with every committed upsert
    WAL-logged transparently through the store's commit hook.
    """

    def __init__(self, data_dir: Union[str, Path],
                 store: Optional[EntityStore] = None,
                 score_fn: Optional[ScoreFn] = None,
                 store_config: Optional[StoreConfig] = None,
                 config: Optional[StorageConfig] = None,
                 _wal: Optional[WriteAheadLog] = None,
                 _snapshot_lsn: int = 0,
                 _lock: Optional[DirectoryLock] = None) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        # One live engine per directory: two writers appending to the same
        # WAL segment would interleave entries.  ``recover`` passes the
        # lock it already took; a direct construction takes it here.
        self._lock = _lock if _lock is not None else DirectoryLock.acquire(
            self.data_dir)
        try:
            self.config = config or StorageConfig()
            if store is None:
                store_config = (store_config or self._meta_store_config()
                                or StoreConfig())
                store = EntityStore(score_fn=score_fn, config=store_config)
            self._store = store
            self._write_meta_if_absent()
            self._wal = _wal if _wal is not None else WriteAheadLog(
                self.data_dir, fsync=self.config.fsync,
                segment_max_entries=self.config.wal_segment_max_entries)
            if _wal is None and self._wal.last_lsn != len(store):
                raise StorageError(
                    f"data dir {self.data_dir} holds a WAL at lsn "
                    f"{self._wal.last_lsn} but the store has {len(store)} "
                    f"records; use Storage.recover() (or Storage.open())")
        except BaseException:
            self._lock.release()
            raise
        self._snapshots = SnapshotManager(self.data_dir,
                                          keep=self.config.snapshots_keep)
        self._snapshot_lsn = _snapshot_lsn
        self._obs = BoundHandles(_bind_storage_instruments)
        self._fsync_samples: List[float] = []
        self._read_only = False
        #: Optional per-append callback with the fsync latency (seconds);
        #: the serve layer points this at its SLO monitor.
        self.fsync_listener: Optional[Callable[[float], None]] = None
        self.last_recovery: Optional[RecoveryReport] = None
        store.set_commit_hook(self._on_commit)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> EntityStore:
        return self._store

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def read_only(self) -> bool:
        """True after a WAL append failure: writes refused, reads serving."""
        return self._read_only

    @property
    def snapshots(self) -> SnapshotManager:
        return self._snapshots

    def _meta_path(self) -> Path:
        return self.data_dir / META_FILENAME

    def _meta_store_config(self) -> Optional[StoreConfig]:
        path = self._meta_path()
        if not path.exists():
            return None
        meta = json.loads(path.read_text(encoding="utf-8"))
        version = meta.get("format_version")
        if version != STORAGE_FORMAT_VERSION:
            raise StorageError(f"unsupported storage meta version {version!r}")
        return StoreConfig.from_dict(meta["store_config"])

    def _write_meta_if_absent(self) -> None:
        path = self._meta_path()
        if path.exists():
            return
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "format_version": STORAGE_FORMAT_VERSION,
            "store_config": self._store.config.as_dict(),
        }, sort_keys=True, indent=2), encoding="utf-8")
        os.replace(tmp, path)

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def upsert(self, record: Record) -> str:
        """Upsert through the store (WAL entry first, via the commit hook),
        then take an automatic snapshot when the cadence says so."""
        if self._read_only:
            raise StorageReadOnly(
                f"storage at {self.data_dir} is read-only after a WAL "
                f"append failure; reads still serve — reopen via "
                f"Storage.recover() once the log is writable again")
        last_lsn = self._wal.last_lsn
        entity_id = self._store.upsert(record)
        if self._wal.last_lsn != last_lsn:
            # An ignored exact repeat wrote no WAL entry: not a commit.
            faults.check("storage.after_commit")
        every = self.config.snapshot_every
        if every and self._wal.last_lsn - self._snapshot_lsn >= every:
            self.snapshot()
        return entity_id

    def _on_commit(self, record: Record, pair_scores: Dict[str, float],
                   retracted: List[List[int]]) -> None:
        """The store's commit hook: durable WAL append before any mutation.

        Runs under the store lock, after scoring, before the in-memory
        commit — an exception here aborts the upsert with the store
        untouched, and a crash after it leaves a WAL entry recovery will
        replay.
        """
        faults.check("storage.before_wal_append")
        try:
            faults.check("storage.wal_append")
            result = self._wal.append({
                "record": record.to_dict(),
                "scores": pair_scores,
                "retracted": [list(members) for members in retracted],
            })
        except (OSError, WALError, FaultInjected) as error:
            # The durable log can no longer be trusted to stay ahead of
            # memory.  The hook runs before any mutation, so the store is
            # still exactly the committed prefix — flip to read-only and
            # fail this upsert; reads keep serving that prefix.
            self._read_only = True
            obs.counter("storage_read_only_total",
                        "Engines flipped read-only by a WAL append failure"
                        ).inc()
            raise StorageReadOnly(
                f"WAL append failed at {self.data_dir} ({error}); storage "
                f"is now read-only") from error
        instruments = self._obs.get()
        if instruments is not None:
            instruments.wal_appends.inc()
            instruments.wal_bytes.inc(result.nbytes)
            instruments.fsync_seconds.observe(result.fsync_seconds)
        if len(self._fsync_samples) >= _MAX_FSYNC_SAMPLES:
            del self._fsync_samples[:_MAX_FSYNC_SAMPLES // 2]
        self._fsync_samples.append(result.fsync_seconds)
        if self.fsync_listener is not None:
            self.fsync_listener(result.fsync_seconds)
        faults.check("storage.after_wal_append")

    def fsync_latency_samples(self) -> List[float]:
        """Recent per-append fsync latencies (seconds), oldest first."""
        return list(self._fsync_samples)

    # ------------------------------------------------------------------ #
    # Snapshot / compaction
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Path:
        """Publish a compacted snapshot of the current state; prune the WAL.

        Upserts only block for the freeze (cheap python copies under the
        store lock); serialization, the fsync'd write, the atomic rename,
        and segment pruning all run outside it.
        """
        started = time.perf_counter()
        with obs.trace("storage.snapshot"):
            with self._store.lock:
                frozen = self._store.freeze_state()
                lsn = self._wal.last_lsn
            path = publish_store_snapshot(self._snapshots, frozen, lsn)
            pruned = self._wal.prune(lsn) if self.config.prune_wal else 0
            self._snapshot_lsn = lsn
        elapsed = time.perf_counter() - started
        instruments = self._obs.get()
        if instruments is not None:
            instruments.snapshots.inc()
            instruments.compaction_seconds.observe(elapsed)
            if pruned:
                instruments.segments_pruned.inc(pruned)
        return path

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    @classmethod
    def recover(cls, data_dir: Union[str, Path],
                score_fn: Optional[ScoreFn] = None,
                store_config: Optional[StoreConfig] = None,
                config: Optional[StorageConfig] = None) -> "Storage":
        """Restore a :class:`Storage` from its data directory.

        Loads the newest snapshot (if any), replays the WAL entries past
        its LSN through the normal upsert path with recorded scores, and
        returns a live engine whose store is bit-exact with one that never
        crashed.  ``score_fn`` is bound afterwards for further traffic;
        without it the store is read-only.
        """
        config = config or StorageConfig()
        data_dir = Path(data_dir)
        started = time.perf_counter()
        # Take the directory lock before reading anything: recovery must
        # not race a live engine still appending to the log it replays.
        lock = DirectoryLock.acquire(data_dir)
        try:
            return cls._recover_locked(data_dir, lock, score_fn,
                                       store_config, config, started)
        except BaseException:
            lock.release()
            raise

    @classmethod
    def _recover_locked(cls, data_dir: Path, lock: DirectoryLock,
                        score_fn: Optional[ScoreFn],
                        store_config: Optional[StoreConfig],
                        config: StorageConfig, started: float) -> "Storage":
        with obs.trace("storage.recover"):
            snapshots = SnapshotManager(data_dir, keep=config.snapshots_keep)
            snapshots.cleanup()
            loaded = load_store_snapshot(snapshots)
            if loaded is not None:
                snapshot_lsn, store = loaded
            else:
                snapshot_lsn = 0
                meta_path = data_dir / META_FILENAME
                if store_config is None and meta_path.exists():
                    meta = json.loads(meta_path.read_text(encoding="utf-8"))
                    store_config = StoreConfig.from_dict(meta["store_config"])
                store = EntityStore(config=store_config or StoreConfig())
            wal = WriteAheadLog(data_dir, fsync=config.fsync,
                                segment_max_entries=config.wal_segment_max_entries)
            if wal.last_lsn < snapshot_lsn:
                raise StorageError(
                    f"snapshot at lsn {snapshot_lsn} is ahead of the WAL "
                    f"(lsn {wal.last_lsn}); log segments are missing")
            replayed = cls._replay_tail(store, wal, snapshot_lsn)
            if len(store) != wal.last_lsn:
                raise StorageError(
                    f"recovery replayed to {len(store)} records but the WAL "
                    f"ends at lsn {wal.last_lsn}")
            store.set_commit_hook(None)
            store.bind_score_fn(score_fn)  # type: ignore[arg-type]
            storage = cls(data_dir, store=store, config=config,
                          _wal=wal, _snapshot_lsn=snapshot_lsn, _lock=lock)
        elapsed = time.perf_counter() - started
        storage.last_recovery = RecoveryReport(
            snapshot_lsn=snapshot_lsn, replayed_entries=replayed,
            records=len(store), seconds=elapsed)
        instruments = storage._obs.get()
        if instruments is not None:
            instruments.recovery_seconds.observe(elapsed)
            if replayed:
                instruments.recovered_entries.inc(replayed)
        return storage

    @staticmethod
    def _replay_tail(store: EntityStore, wal: WriteAheadLog,
                     after_lsn: int) -> int:
        """Replay WAL entries past ``after_lsn`` through the upsert path.

        Each entry's recorded scores stand in for the model; its recorded
        retraction plan is cross-checked against what the replayed upsert
        actually plans, so silent divergence fails loudly.
        """
        current: Dict[str, object] = {}

        def validator(record: Record, pair_scores: Dict[str, float],
                      retracted: List[List[int]]) -> None:
            entry = current["entry"]
            if [list(members) for members in retracted] != entry["retracted"]:
                raise StorageError(
                    f"replay of lsn {entry['lsn']} planned retractions "
                    f"{retracted!r}, but the WAL recorded "
                    f"{entry['retracted']!r}")
            if set(pair_scores) != set(entry["scores"]):
                raise StorageError(
                    f"replay of lsn {entry['lsn']} scored pairs "
                    f"{sorted(pair_scores)}, but the WAL recorded "
                    f"{sorted(entry['scores'])}")

        store.set_commit_hook(validator)
        replayed = 0
        for entry in wal.replay(after_lsn=after_lsn):
            scores = {pair_id: float(score)
                      for pair_id, score in entry["scores"].items()}

            def lookup(pairs, _scores=scores, _lsn=entry["lsn"]):
                try:
                    return np.array([_scores[pair.pair_id] for pair in pairs])
                except KeyError as error:
                    raise StorageError(
                        f"WAL entry {_lsn} is missing the score for pair "
                        f"{error.args[0]!r}") from error

            current["entry"] = entry
            store.bind_score_fn(lookup)
            store.upsert(Record.from_dict(entry["record"]))
            replayed += 1
        return replayed

    @classmethod
    def open(cls, data_dir: Union[str, Path],
             score_fn: Optional[ScoreFn] = None,
             store_config: Optional[StoreConfig] = None,
             config: Optional[StorageConfig] = None) -> "Storage":
        """Recover when ``data_dir`` holds prior state, else start fresh."""
        data_dir = Path(data_dir)
        if (data_dir / META_FILENAME).exists():
            return cls.recover(data_dir, score_fn=score_fn,
                               store_config=store_config, config=config)
        return cls(data_dir, score_fn=score_fn, store_config=store_config,
                   config=config)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        wal_stats = self._wal.stats()
        return {
            "records": float(len(self._store)),
            "wal_last_lsn": float(wal_stats["last_lsn"]),
            "wal_segments": float(wal_stats["segments"]),
            "wal_entries": float(wal_stats["entries"]),
            "wal_bytes": float(wal_stats["bytes"]),
            "snapshot_lsn": float(self._snapshot_lsn),
            "wal_tail_entries": float(wal_stats["last_lsn"]
                                      - self._snapshot_lsn),
            "read_only": float(self._read_only),
        }

    def close(self) -> None:
        self._store.set_commit_hook(None)
        self._wal.close()
        self._lock.release()

    def __enter__(self) -> "Storage":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
