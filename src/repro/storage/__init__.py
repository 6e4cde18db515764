"""repro.storage — durability under the serve layer.

A write-ahead log (:mod:`~repro.storage.wal`), compacted snapshots
(:mod:`~repro.storage.snapshots`), the :class:`Storage` engine tying them
around an :class:`~repro.serve.EntityStore`
(:mod:`~repro.storage.engine`), a SQLite posting-list backend for the
blocking indexes (:mod:`~repro.storage.backends`), an advisory directory
lock guaranteeing one live engine per data dir
(:mod:`~repro.storage.locks`).  The engine's ``storage.*`` fault sites
(:mod:`repro.resilience.faults`) are where the recovery property tests kill
processes.

See ``docs/storage.md`` for the on-disk formats and the recovery
invariants, and ``docs/resilience.md`` for the failure modes
(:class:`StorageReadOnly`, :class:`StorageLocked`).
"""

from __future__ import annotations

from .backends import SQLiteBucketStore, SQLiteIndexBackend
from .engine import (META_FILENAME, RecoveryReport, STORAGE_FORMAT_VERSION,
                     Storage, StorageConfig, StorageError, StorageLocked,
                     StorageReadOnly)
from .locks import DirectoryLock
from .snapshots import SnapshotError, SnapshotManager
from .wal import WALAppend, WALError, WriteAheadLog

__all__ = [
    "Storage", "StorageConfig", "StorageError", "StorageLocked",
    "StorageReadOnly", "RecoveryReport",
    "STORAGE_FORMAT_VERSION", "META_FILENAME", "DirectoryLock",
    "WriteAheadLog", "WALAppend", "WALError",
    "SnapshotManager", "SnapshotError",
    "SQLiteIndexBackend", "SQLiteBucketStore",
]
