"""Compacted, atomically-published snapshots of the store state.

A snapshot is one JSON file, ``snapshot-<lsn:016d>.json``, holding the
*materialized* store state (records, pair scores and support, resolved
entities, index bucket state) as of WAL sequence number ``lsn``.  Restore is
therefore a deserialization, not a replay — the compaction half of the
O(snapshot + WAL tail) recovery bound.

This is the one on-disk store format: :func:`publish_store_snapshot` wraps a
frozen store state in the ``{"format_version", "lsn", "store"}`` envelope
and :func:`load_store_snapshot` checks the envelope and rebuilds the store.
Both :class:`repro.storage.Storage` and ``LinkageService.snapshot(path)``
(a service without storage, where ``lsn`` is the record count) use them.

Publication protocol (crash-safe at every instruction):

1. serialize to ``.snapshot-<lsn>.json.tmp`` in the same directory,
   ``flush`` + ``fsync``;
2. ``os.replace`` onto the final name — atomic on POSIX, so readers only
   ever see absent-or-complete snapshots;
3. fsync the directory, making the rename durable;
4. delete snapshots older than the retention count.

The serialization and write happen on the caller's thread *outside* the
store lock — the caller passes an already-frozen state copy — so upserts
never stall behind a snapshot write.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..resilience import faults
from ..serve.store import EntityStore, ScoreFn

__all__ = ["SnapshotManager", "SnapshotError", "SNAPSHOT_PREFIX",
           "STORAGE_FORMAT_VERSION", "publish_store_snapshot",
           "load_store_snapshot"]

#: Version of the on-disk storage formats: the snapshot envelope and the
#: data directory's meta file.
STORAGE_FORMAT_VERSION = 1
SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_SUFFIX = ".json"
_TMP_SUFFIX = ".tmp"


class SnapshotError(RuntimeError):
    """A snapshot envelope that must not be loaded: an unknown format
    version, or an ``lsn`` that differs from the one in its file name."""


def _snapshot_name(lsn: int) -> str:
    return f"{SNAPSHOT_PREFIX}{lsn:016d}{SNAPSHOT_SUFFIX}"


def _parse_lsn(path: Path) -> Optional[int]:
    stem = path.name[len(SNAPSHOT_PREFIX):-len(SNAPSHOT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        return None


class SnapshotManager:
    """Takes, lists, prunes, and loads snapshots under one directory."""

    def __init__(self, directory: Union[str, Path], keep: int = 2) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Write
    # ------------------------------------------------------------------ #
    def take(self, payload: Dict[str, object], lsn: int) -> Path:
        """Serialize ``payload`` and atomically publish it as the snapshot
        at ``lsn``.  ``payload`` must be a frozen (no longer mutated) copy
        of the store state — this call does the slow work lock-free."""
        final = self.directory / _snapshot_name(lsn)
        tmp = self.directory / f".{_snapshot_name(lsn)}{_TMP_SUFFIX}"
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        with tmp.open("wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        faults.check("storage.before_snapshot_rename")
        os.replace(tmp, final)
        self._fsync_directory()
        faults.check("storage.after_snapshot_rename")
        self._prune_old()
        return final

    def _prune_old(self) -> None:
        snapshots = self.list()
        for _, path in snapshots[:-self.keep]:
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def cleanup(self) -> int:
        """Remove stale temp files a crash left behind (never a published
        snapshot).  Returns how many were removed."""
        removed = 0
        for path in self.directory.glob(f".{SNAPSHOT_PREFIX}*{_TMP_SUFFIX}"):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        return removed

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ #
    # Read
    # ------------------------------------------------------------------ #
    def list(self) -> List[Tuple[int, Path]]:
        """Published snapshots as ``(lsn, path)``, oldest first."""
        found = []
        for path in self.directory.glob(SNAPSHOT_PREFIX + "*" + SNAPSHOT_SUFFIX):
            lsn = _parse_lsn(path)
            if lsn is not None:
                found.append((lsn, path))
        found.sort()
        return found

    def latest(self) -> Optional[Tuple[int, Path]]:
        snapshots = self.list()
        return snapshots[-1] if snapshots else None

    def load(self, path: Union[str, Path]) -> Dict[str, object]:
        with Path(path).open("r", encoding="utf-8") as handle:
            return json.load(handle)

    def load_latest(self) -> Optional[Tuple[int, Dict[str, object]]]:
        """Newest loadable snapshot as ``(lsn, payload)``, or ``None``.

        The atomic-rename protocol makes a published snapshot complete by
        construction; this still walks newest → oldest so a manually
        damaged file degrades to the previous snapshot instead of failing
        recovery outright.
        """
        for lsn, path in reversed(self.list()):
            try:
                return lsn, self.load(path)
            except (OSError, json.JSONDecodeError):
                continue
        return None


def publish_store_snapshot(manager: SnapshotManager, frozen: Dict[str, object],
                           lsn: int) -> Path:
    """Publish a :meth:`EntityStore.freeze_state` copy as the snapshot at
    ``lsn``.  Call it outside the store lock: serializing and the fsync'd
    write are the slow part."""
    return manager.take({
        "format_version": STORAGE_FORMAT_VERSION,
        "lsn": lsn,
        "store": EntityStore.serialize_state(frozen),
    }, lsn)


def load_store_snapshot(manager: SnapshotManager,
                        score_fn: Optional[ScoreFn] = None
                        ) -> Optional[Tuple[int, EntityStore]]:
    """The newest snapshot as ``(lsn, store)``, or ``None`` when there is none.

    Raises :class:`SnapshotError` for an envelope of an unknown format
    version, or one whose ``lsn`` differs from the one in its file name.
    Without ``score_fn`` the store is read-only until
    :meth:`EntityStore.bind_score_fn`.
    """
    loaded = manager.load_latest()
    if loaded is None:
        return None
    lsn, payload = loaded
    version = payload.get("format_version")
    if version != STORAGE_FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot format version {version!r} "
                            f"(supported: {STORAGE_FORMAT_VERSION})")
    if payload.get("lsn") != lsn:
        raise SnapshotError(f"snapshot file for lsn {lsn} holds lsn "
                            f"{payload.get('lsn')!r}")
    return lsn, EntityStore.from_state_dict(payload["store"], score_fn=score_fn)
