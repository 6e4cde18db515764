"""Append-only, checksummed, segmented write-ahead log.

One entry per committed upsert, written *before* the in-memory commit: if
the process dies at any instant, the WAL prefix that survives is exactly
the committed-upsert prefix (modulo the one in-flight entry, which torn-tail
truncation drops).  Entries are length-prefixed and CRC-checksummed::

    +----------------+----------------+------------------------+
    | length (4B BE) | crc32 (4B BE)  | payload (length bytes) |
    +----------------+----------------+------------------------+

where the payload is canonical JSON (``sort_keys=True``) of the entry dict
including its log sequence number (``lsn``, 1-based, dense).  Each append is
``flush`` + ``fsync`` (configurable) so a completed :meth:`append` is
durable.

The log is split into segments named ``wal-<first_lsn:016d>.log``; a segment
is closed after ``segment_max_entries`` entries and the next append starts a
new one.  Segments are the unit of pruning: after a snapshot at LSN *s*,
every segment whose entries are all ``<= s`` is deleted
(:meth:`prune`) — compaction without ever rewriting a live file.

Opening the log validates every retained entry (checksum + dense LSNs).  A
torn tail — a crash mid-append left a truncated or checksum-failing final
entry — is detected and truncated away; corruption anywhere *else* raises
:class:`WALError`, because append-only writes can only tear the tail.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union
from zlib import crc32

from ..resilience import faults

__all__ = ["WriteAheadLog", "WALError", "WALAppend", "SEGMENT_PREFIX"]

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"
_HEADER = struct.Struct(">II")  # (payload length, payload crc32)


class WALError(RuntimeError):
    """The log on disk violates an invariant truncation cannot repair."""


@dataclass(frozen=True)
class WALAppend:
    """What one :meth:`WriteAheadLog.append` did."""

    lsn: int
    nbytes: int          # header + payload bytes written
    fsync_seconds: float  # 0.0 when fsync is disabled


def _segment_name(first_lsn: int) -> str:
    return f"{SEGMENT_PREFIX}{first_lsn:016d}{SEGMENT_SUFFIX}"


def _parse_first_lsn(path: Path) -> int:
    stem = path.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError as error:
        raise WALError(f"malformed WAL segment name {path.name!r}") from error


def _scan_blob(blob: bytes) -> Tuple[List[Dict[str, object]], int, bool]:
    """Parse one segment's bytes.

    Returns ``(entries, good_length, torn)``: the decoded entries, the byte
    offset up to which the segment is valid, and whether trailing bytes had
    to be discarded (truncated or checksum-failing final entry).
    """
    entries: List[Dict[str, object]] = []
    offset = 0
    total = len(blob)
    while offset < total:
        if offset + _HEADER.size > total:
            return entries, offset, True
        length, checksum = _HEADER.unpack_from(blob, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return entries, offset, True
        payload = blob[start:end]
        if crc32(payload) != checksum:
            return entries, offset, True
        entries.append(json.loads(payload.decode("utf-8")))
        offset = end
    return entries, offset, False


class _Segment:
    __slots__ = ("first_lsn", "path", "entry_count")

    def __init__(self, first_lsn: int, path: Path, entry_count: int) -> None:
        self.first_lsn = first_lsn
        self.path = path
        self.entry_count = entry_count


class WriteAheadLog:
    """A durable log of upsert entries under ``directory``.

    Thread safety: appends are expected to be serialized by the caller (the
    store's single-writer lock), but :meth:`prune` may run concurrently from
    a snapshotting thread — all segment bookkeeping is behind an internal
    lock.
    """

    def __init__(self, directory: Union[str, Path], fsync: bool = True,
                 segment_max_entries: int = 256) -> None:
        if segment_max_entries < 1:
            raise ValueError(f"segment_max_entries must be >= 1, "
                             f"got {segment_max_entries}")
        self.directory = Path(directory)
        self.fsync = fsync
        self.segment_max_entries = segment_max_entries
        self._lock = threading.Lock()
        self._handle = None  # open append handle of the active segment
        self._segments: List[_Segment] = []
        self._last_lsn = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        self._open_existing()

    # ------------------------------------------------------------------ #
    # Open / validate
    # ------------------------------------------------------------------ #
    def _open_existing(self) -> None:
        paths = sorted(self.directory.glob(SEGMENT_PREFIX + "*" + SEGMENT_SUFFIX),
                       key=_parse_first_lsn)
        expected = None  # the first retained segment fixes the starting lsn
        for position, path in enumerate(paths):
            first_lsn = _parse_first_lsn(path)
            entries, good_length, torn = _scan_blob(path.read_bytes())
            if torn:
                if position != len(paths) - 1:
                    raise WALError(
                        f"WAL segment {path.name} is corrupt before the final "
                        f"segment; append-only logs can only tear at the tail")
                self._truncate(path, good_length)
            if entries and int(entries[0]["lsn"]) != first_lsn:
                raise WALError(f"segment {path.name} starts at lsn "
                               f"{entries[0]['lsn']}, not its named {first_lsn}")
            for entry in entries:
                lsn = int(entry["lsn"])
                if expected is not None and lsn != expected:
                    raise WALError(f"WAL lsn gap in {path.name}: found {lsn}, "
                                   f"expected {expected}")
                expected = lsn + 1
                self._last_lsn = lsn
            if not entries:
                # A torn-away or crash-created empty segment: rotation names
                # segments after their first lsn, so the log ends just below.
                self._last_lsn = max(self._last_lsn, first_lsn - 1)
                expected = first_lsn if expected is None else expected
            self._segments.append(_Segment(first_lsn, path, len(entries)))

    @staticmethod
    def _truncate(path: Path, good_length: int) -> None:
        with path.open("r+b") as handle:
            handle.truncate(good_length)
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def last_lsn(self) -> int:
        """LSN of the newest durable entry (0 when the log is empty)."""
        with self._lock:
            return self._last_lsn

    def segments(self) -> List[Path]:
        """Paths of the retained segments, oldest first."""
        with self._lock:
            return [segment.path for segment in self._segments]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "last_lsn": self._last_lsn,
                "segments": len(self._segments),
                "entries": sum(s.entry_count for s in self._segments),
                "bytes": sum(s.path.stat().st_size for s in self._segments
                             if s.path.exists()),
            }

    # ------------------------------------------------------------------ #
    # Append
    # ------------------------------------------------------------------ #
    def append(self, payload: Mapping[str, object]) -> WALAppend:
        """Durably append one entry; returns its assigned LSN.

        ``payload`` must be JSON-serializable and must not carry an ``lsn``
        key (the log owns sequencing).  The entry is on disk (fsync'd when
        ``fsync`` is on) before this returns.
        """
        if "lsn" in payload:
            raise ValueError("payload must not carry 'lsn'; the log assigns it")
        with self._lock:
            lsn = self._last_lsn + 1
            handle = self._active_handle(lsn)
            entry = {"lsn": lsn}
            entry.update(payload)
            blob = json.dumps(entry, sort_keys=True).encode("utf-8")
            header = _HEADER.pack(len(blob), crc32(blob))
            handle.write(header)
            if faults.armed("storage.mid_wal_append"):
                # Make the torn state real before dying: header durable,
                # payload missing.
                handle.flush()
                os.fsync(handle.fileno())
                faults.check("storage.mid_wal_append")
            handle.write(blob)
            handle.flush()
            started = time.perf_counter()
            if self.fsync:
                os.fsync(handle.fileno())
                fsync_seconds = time.perf_counter() - started
            else:
                fsync_seconds = 0.0
            self._last_lsn = lsn
            self._segments[-1].entry_count += 1
            return WALAppend(lsn=lsn, nbytes=len(header) + len(blob),
                             fsync_seconds=fsync_seconds)

    def _active_handle(self, next_lsn: int):
        """The open handle of the segment ``next_lsn`` belongs in, rotating
        to a fresh segment when the active one is full."""
        if (not self._segments
                or self._segments[-1].entry_count >= self.segment_max_entries):
            self._close_handle()
            path = self.directory / _segment_name(next_lsn)
            self._segments.append(_Segment(next_lsn, path, 0))
            self._handle = path.open("ab")
            self._fsync_directory()
        elif self._handle is None:
            self._handle = self._segments[-1].path.open("ab")
        return self._handle

    def _fsync_directory(self) -> None:
        """Make segment creation/deletion durable (POSIX directory fsync)."""
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # platforms without directory fds
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ #
    # Replay / prune
    # ------------------------------------------------------------------ #
    def replay(self, after_lsn: int = 0) -> Iterator[Dict[str, object]]:
        """Yield entries with ``lsn > after_lsn``, oldest first.

        Whole segments below the horizon are skipped without reading — the
        O(WAL tail) half of the recovery cost.
        """
        with self._lock:
            segments = list(self._segments)
        for position, segment in enumerate(segments):
            nxt = segments[position + 1] if position + 1 < len(segments) else None
            if nxt is not None and nxt.first_lsn <= after_lsn + 1:
                continue  # every entry here is <= after_lsn
            entries, _, torn = _scan_blob(segment.path.read_bytes())
            if torn and position != len(segments) - 1:
                raise WALError(f"WAL segment {segment.path.name} corrupt "
                               f"during replay")
            for entry in entries:
                if int(entry["lsn"]) > after_lsn:
                    yield entry

    def prune(self, up_to_lsn: int) -> int:
        """Delete segments whose entries are all ``<= up_to_lsn``.

        The active (last) segment is never deleted.  Returns the number of
        segments removed.
        """
        removed = 0
        with self._lock:
            while len(self._segments) > 1:
                nxt = self._segments[1]
                # The first segment's last entry is nxt.first_lsn - 1.
                if nxt.first_lsn - 1 > up_to_lsn:
                    break
                segment = self._segments.pop(0)
                try:
                    segment.path.unlink()
                except FileNotFoundError:
                    pass
                removed += 1
            if removed:
                self._fsync_directory()
        return removed

    def close(self) -> None:
        with self._lock:
            self._close_handle()

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
