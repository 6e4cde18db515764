"""The incremental entity store: online upserts with batch-parity clustering.

:class:`EntityStore` is the stateful heart of the serving layer.  Where the
batch :class:`~repro.pipeline.LinkagePipeline` freezes a corpus and resolves
it once, the store keeps the resolved world *live*: every
:meth:`~EntityStore.upsert` feeds one record through the same MinHash-LSH /
inverted-token / initials indexes, scores only the candidate pairs the new
record created, and re-resolves only the connected components the new (or
retracted) match edges touched.

The store maintains exact parity with the batch pipeline: after streaming any
record sequence through ``upsert``, :meth:`clusters` equals
``LinkagePipeline.run`` over the same sequence.  Three properties make that
hold:

* **bucket parity** — :meth:`~repro.pipeline.index._BucketedIndex.ingest_one`
  reproduces bulk bucket state bit-exactly, and per-bucket *support counting*
  mirrors the overflow-cap semantics: a pair is a candidate while at least
  one live (non-overflowed) bucket contains both records, so when a bucket
  overflows mid-stream the pairs it alone supported are retracted, exactly as
  batch ``candidate_pairs`` would never have emitted them;
* **component locality** — the greedy source-consistent merge
  (:func:`~repro.pipeline.clustering.apply_match_edges`) decides each edge
  from the state of its own connected component only, so re-resolving the
  affected components from scratch equals a global re-run;
* **canonical edge order** — both paths sort match edges with
  :func:`~repro.pipeline.clustering.order_match_edges`.

:meth:`state_dict` / :meth:`from_state_dict` persist the materialized state
(records, pair scores and support, entities, index buckets), so a loaded
store is bit-exact without needing the model at load time; the on-disk
envelope around it lives in :mod:`repro.storage.snapshots`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, fields, replace
from itertools import combinations
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from ..data.records import EntityPair, Record, is_repeat
from ..obs import BoundHandles
from ..pipeline.clustering import (MatchEdge, UnionFind, apply_match_edges,
                                   order_match_edges)
from ..pipeline.engine import PipelineConfig
from ..pipeline.index import build_blocking_indexes

__all__ = ["EntityStore", "StoreConfig", "QueryMatch", "STATE_FORMAT_VERSION"]

# Materialized state dicts (freeze_state()/from_state_dict()), used by the
# repro.storage snapshot files.
STATE_FORMAT_VERSION = 1
SUPPORTED_STATE_VERSIONS = (1,)

ScoreFn = Callable[[Sequence[EntityPair]], np.ndarray]
PairKey = Tuple[int, int]  # (smaller position, larger position)
#: Commit hook: (record, {pair_id: score}, planned bucket retractions) —
#: called after scoring, before any mutation; see set_commit_hook().
CommitHook = Callable[[Record, Dict[str, float], List[List[int]]], None]


def _pair_key_str(key: PairKey) -> str:
    return f"{key[0]},{key[1]}"


def _parse_pair_key(text: str) -> PairKey:
    left, right = text.split(",")
    return (int(left), int(right))


@dataclass(frozen=True)
class StoreConfig:
    """Blocking / clustering knobs of the entity store.

    Defaults mirror :class:`~repro.pipeline.PipelineConfig`, so a store and a
    batch pipeline built from matching configs resolve identically.
    """

    blocking_attributes: Optional[Sequence[str]] = None
    num_perm: int = 128
    bands: int = 32
    lsh_max_bucket_size: int = 8
    max_postings: int = 8
    initials_max_bucket_size: int = 16
    min_token_length: int = 3
    cross_source_only: bool = True
    score_threshold: float = 0.5
    source_consistent: bool = True
    seed: int = 7
    # Posting-list backend of the blocking indexes: "memory" (default) or
    # "sqlite" (repro.storage.backends — bucket state pages from disk).
    # backend_path is the SQLite database file; None keeps it in memory.
    backend: str = "memory"
    backend_path: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "blocking_attributes": (list(self.blocking_attributes)
                                    if self.blocking_attributes is not None else None),
            "num_perm": self.num_perm,
            "bands": self.bands,
            "lsh_max_bucket_size": self.lsh_max_bucket_size,
            "max_postings": self.max_postings,
            "initials_max_bucket_size": self.initials_max_bucket_size,
            "min_token_length": self.min_token_length,
            "cross_source_only": self.cross_source_only,
            "score_threshold": self.score_threshold,
            "source_consistent": self.source_consistent,
            "seed": self.seed,
            "backend": self.backend,
            "backend_path": self.backend_path,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "StoreConfig":
        return cls(**payload)  # type: ignore[arg-type]

    @classmethod
    def from_pipeline_config(cls, config: PipelineConfig) -> "StoreConfig":
        """The store config that mirrors a batch pipeline config."""
        return cls(blocking_attributes=config.blocking_attributes,
                   num_perm=config.num_perm, bands=config.bands,
                   lsh_max_bucket_size=config.lsh_max_bucket_size,
                   max_postings=config.max_postings,
                   initials_max_bucket_size=config.initials_max_bucket_size,
                   min_token_length=config.min_token_length,
                   cross_source_only=config.cross_source_only,
                   score_threshold=config.score_threshold,
                   source_consistent=config.source_consistent,
                   seed=config.seed)

    def to_pipeline_config(self, **overrides: object) -> PipelineConfig:
        """The batch pipeline config this store is parity-equivalent to."""
        payload = self.as_dict()
        # Backend choice is a storage concern with no batch-pipeline
        # counterpart (blocking output is backend-invariant).
        payload.pop("backend", None)
        payload.pop("backend_path", None)
        payload.update(overrides)
        return PipelineConfig(**payload)  # type: ignore[arg-type]


@dataclass(frozen=True)
class QueryMatch:
    """One ranked entity returned by :meth:`EntityStore.query`."""

    entity_id: str
    score: float
    record_id: str  # the best-scoring member record
    size: int       # entity size at query time


@dataclass
class _StoreCounters:
    upserts: int = 0
    pairs_scored: int = 0
    pairs_retracted: int = 0
    edges_retracted: int = 0
    resolutions: int = 0
    queries: int = 0


class _StoreInstruments(NamedTuple):
    upserts: object
    queries: object
    pairs_scored: object
    pairs_retracted: object
    edges_retracted: object
    resolutions: object
    upsert_seconds: object
    query_seconds: object


def _bind_store_instruments(registry) -> _StoreInstruments:
    return _StoreInstruments(
        upserts=registry.counter("store_upserts_total", "Records upserted"),
        queries=registry.counter("store_queries_total", "Probe queries served"),
        pairs_scored=registry.counter("store_pairs_scored_total",
                                      "Candidate pairs scored by upserts"),
        pairs_retracted=registry.counter("store_pairs_retracted_total",
                                         "Candidate pairs retracted by bucket overflow"),
        edges_retracted=registry.counter("store_edges_retracted_total",
                                         "Match edges withdrawn by retraction"),
        resolutions=registry.counter("store_resolutions_total",
                                     "Component re-resolutions run"),
        upsert_seconds=registry.histogram("store_upsert_seconds",
                                          "End-to-end upsert latency"),
        query_seconds=registry.histogram("store_query_seconds",
                                         "End-to-end query latency"),
    )


class EntityStore:
    """Persistent, incrementally maintained entity clusters.

    Parameters
    ----------
    score_fn:
        Callable scoring a pair list into matching probabilities — typically
        ``BatchedPredictor.predict_proba`` (single-threaded use) or
        :meth:`repro.serve.RequestCoalescer.score` (so one executor thread
        owns the model).  ``None`` creates a read-only store (snapshot
        inspection): ``upsert`` and ``query`` raise until
        :meth:`bind_score_fn` provides one.
    config:
        Blocking / clustering knobs; see :class:`StoreConfig`.

    Thread safety: all public methods take the store's internal lock.
    Upserts are serialized (single-writer semantics — the "same input order"
    that batch parity is defined over); queries only hold the lock while
    probing the indexes and aggregating, not while scoring.
    """

    def __init__(self, score_fn: Optional[ScoreFn] = None,
                 config: Optional[StoreConfig] = None,
                 upsert_score_fn: Optional[ScoreFn] = None) -> None:
        self.config = config or StoreConfig()
        self._score_fn = score_fn
        # Optional distinct scorer for the upsert path: upserts hold the
        # store lock while scoring, so a service routes them through the
        # coalescer with max_wait=0 (immediate flush) instead of paying the
        # co-rider deadline a serialized writer can never fill.
        self._upsert_score_fn = upsert_score_fn
        self._lock = threading.RLock()
        config_ = self.config
        self._backend = None
        bucket_stores = None
        if config_.backend == "sqlite":
            # Imported lazily: repro.storage.engine imports this module.
            from ..storage.backends import SQLiteIndexBackend
            self._backend = SQLiteIndexBackend(config_.backend_path)
            bucket_stores = self._backend.bucket_stores(3)
        elif config_.backend != "memory":
            raise ValueError(f"unknown index backend {config_.backend!r} "
                             f"(expected 'memory' or 'sqlite')")
        self._indexes = build_blocking_indexes(
            attributes=config_.blocking_attributes,
            num_perm=config_.num_perm, bands=config_.bands,
            lsh_max_bucket_size=config_.lsh_max_bucket_size,
            max_postings=config_.max_postings,
            initials_max_bucket_size=config_.initials_max_bucket_size,
            min_token_length=config_.min_token_length, seed=config_.seed,
            bucket_stores=bucket_stores)
        self._records: List[Record] = []
        self._position: Dict[str, int] = {}
        # Candidate bookkeeping: pair -> number of live buckets (across all
        # indexes) containing both records; pair -> matching probability.
        self._support: Dict[PairKey, int] = {}
        self._scores: Dict[PairKey, float] = {}
        # Match-edge adjacency (score >= threshold, candidacy alive).
        self._match_adj: Dict[int, Set[int]] = {}
        # Resolved entities: position -> entity id, entity id -> positions.
        self._entity_of: Dict[int, str] = {}
        self._members: Dict[str, List[int]] = {}
        self.counters = _StoreCounters()
        self._commit_hook: Optional[CommitHook] = None
        self._obs = BoundHandles(_bind_store_instruments)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, record_id: str) -> bool:
        with self._lock:
            return record_id in self._position

    @property
    def records(self) -> List[Record]:
        """The stored records, in upsert order."""
        with self._lock:
            return list(self._records)

    def bind_score_fn(self, score_fn: ScoreFn,
                      upsert_score_fn: Optional[ScoreFn] = None) -> None:
        """Attach (or replace) the scoring callable(s) of the store.

        ``upsert_score_fn``, when given, is used by the upsert path instead
        of ``score_fn`` (see the constructor); passing only ``score_fn``
        clears any previous override.
        """
        with self._lock:
            self._score_fn = score_fn
            self._upsert_score_fn = upsert_score_fn

    @property
    def lock(self) -> threading.RLock:
        """The store's internal (reentrant) lock.

        The storage engine holds it to freeze a state copy atomically with
        the WAL position; ordinary callers never need it."""
        return self._lock

    def set_commit_hook(self, hook: Optional[CommitHook]) -> None:
        """Install (or clear, with ``None``) the upsert commit hook.

        The hook runs under the store lock after a real (non-idempotent)
        upsert is planned and scored but *before* anything is mutated, with
        ``(record, {pair_id: score}, planned bucket retractions)``.  An
        exception from the hook aborts the upsert with the store untouched —
        which is exactly what lets :class:`repro.storage.Storage` make the
        WAL append a durability barrier.
        """
        with self._lock:
            self._commit_hook = hook

    def close(self) -> None:
        """Release backend resources (the SQLite connection, if any)."""
        if self._backend is not None:
            self._backend.close()

    def entity_of(self, record_id: str) -> str:
        """The entity id currently holding ``record_id``."""
        with self._lock:
            position = self._position.get(record_id)
            if position is None:
                raise KeyError(f"record {record_id!r} is not in the store")
            return self._entity_of[position]

    def entity_members(self, entity_id: str) -> List[str]:
        """Record ids of an entity, sorted."""
        with self._lock:
            members = self._members.get(entity_id)
            if members is None:
                raise KeyError(f"unknown entity {entity_id!r}")
            return sorted(self._records[position].record_id for position in members)

    def entities(self) -> Dict[str, List[str]]:
        """Every entity id mapped to its sorted member record ids."""
        with self._lock:
            return {entity_id: sorted(self._records[position].record_id
                                      for position in members)
                    for entity_id, members in self._members.items()}

    def clusters(self) -> List[List[str]]:
        """Canonical cluster output, comparable to ``ClusterResult.clusters``:
        members sorted by record id, clusters ordered by smallest member."""
        with self._lock:
            groups = [sorted(self._records[position].record_id for position in members)
                      for members in self._members.values()]
        groups.sort(key=lambda members: members[0])
        return groups

    def stats(self) -> Dict[str, float]:
        """Store-level counters for service and bench reports."""
        with self._lock:
            sizes = [len(members) for members in self._members.values()]
            return {
                "records": float(len(self._records)),
                "entities": float(len(self._members)),
                "candidate_pairs": float(len(self._support)),
                "match_edges": float(sum(len(adj) for adj in self._match_adj.values()) // 2),
                "max_entity_size": float(max(sizes)) if sizes else 0.0,
                "upserts": float(self.counters.upserts),
                "queries": float(self.counters.queries),
                "pairs_scored": float(self.counters.pairs_scored),
                "pairs_retracted": float(self.counters.pairs_retracted),
                "edges_retracted": float(self.counters.edges_retracted),
                "resolutions": float(self.counters.resolutions),
            }

    # ------------------------------------------------------------------ #
    # Upsert
    # ------------------------------------------------------------------ #
    def upsert(self, record: Record) -> str:
        """Insert ``record``, update the indexes/edges/clusters, and return
        the entity id it resolved into.

        Re-upserting an identical record is an idempotent no-op.  The store
        is append-only: re-using a record id with *different* content raises
        (give the new version a new record id, as the batch pipeline would
        see two rows).

        Exception safety: the upsert is planned (index preview) and its new
        candidate pairs scored *before* anything is mutated, so a scoring
        failure — model error, coalescer timeout or shutdown — leaves the
        store exactly as it was and the upsert can simply be retried.
        """
        if self._score_fn is None:
            raise RuntimeError("this store has no score_fn (restored read-only?); "
                               "call bind_score_fn() before upserting")
        started = time.perf_counter()
        with self._lock:
            counters_before = (self.counters.pairs_scored,
                               self.counters.pairs_retracted,
                               self.counters.edges_retracted,
                               self.counters.resolutions)
            existing = self._position.get(record.record_id)
            if existing is not None and is_repeat(self._records[existing], record):
                return self._entity_of[existing]

            # Plan: preview every index without mutating.
            position: Optional[int] = None
            emitted: List[Tuple[int, int]] = []
            retracted: List[List[int]] = []
            planned_keys = []
            for index in self._indexes:
                index_position, index_emitted, index_retracted, keys = (
                    index.preview_one(record))
                if position is None:
                    position = index_position
                elif index_position != position:
                    raise RuntimeError("indexes disagree on record positions; "
                                       "the store's indexes were mutated externally")
                emitted.extend(index_emitted)
                retracted.extend(index_retracted)
                planned_keys.append(keys)
            assert position is not None

            # Every emitted pair touches the new record, whose prior support
            # is zero — so the unique cross-source emitted keys are exactly
            # the pairs that become candidates, and their per-bucket
            # multiplicity is their initial support.
            support_delta: Dict[PairKey, int] = {}
            pairs: List[EntityPair] = []
            for member, _ in emitted:
                other = self._records[member]
                if self.config.cross_source_only and other.source == record.source:
                    continue
                key = self._pair_key(member, position)
                if key not in support_delta:
                    # Built exactly as the batch candidate stage builds them:
                    # left is the record with the smaller record id, so pair
                    # ids and encoding-cache entries are shared with batch.
                    left_record, right_record = other, record
                    if left_record.record_id > right_record.record_id:
                        left_record, right_record = right_record, left_record
                    pairs.append(EntityPair(left=left_record, right=right_record,
                                            label=None))
                support_delta[key] = support_delta.get(key, 0) + 1
            new_keys = list(support_delta)

            # Score while the store is still untouched: a failure here must
            # not leave a half-ingested record behind.
            scores = self._score_pairs(pairs, self._upsert_score_fn or self._score_fn)

            # Durability barrier: the commit hook (WAL append) sees the full
            # planned effect of the upsert and runs before any mutation, so
            # both a hook failure and a crash on either side of it leave
            # store state and log consistent.
            if self._commit_hook is not None:
                self._commit_hook(
                    record,
                    {pair.pair_id: float(score)
                     for pair, score in zip(pairs, scores)},
                    [list(members) for members in retracted])
            self.counters.pairs_scored += len(pairs)

            # Commit: indexes, registry, support, scores/edges, clusters.
            for index, keys in zip(self._indexes, planned_keys):
                index.commit_one(record, keys)
            self._records.append(record)
            self._position[record.record_id] = position
            self.counters.upserts += 1

            dirty: Set[int] = {position}
            for key, count in support_delta.items():
                self._support[key] = count
            dirty |= self._apply_retractions(retracted)
            for key, score in zip(new_keys, scores):
                self._scores[key] = float(score)
                if score >= self.config.score_threshold:
                    self._match_adj.setdefault(key[0], set()).add(key[1])
                    self._match_adj.setdefault(key[1], set()).add(key[0])
                    dirty.update(key)
            self._resolve_affected(dirty)
            entity_id = self._entity_of[position]
            deltas = tuple(after - before for after, before in zip(
                (self.counters.pairs_scored, self.counters.pairs_retracted,
                 self.counters.edges_retracted, self.counters.resolutions),
                counters_before))
        instruments = self._obs.get()
        if instruments is not None:
            instruments.upsert_seconds.observe(time.perf_counter() - started)
            instruments.upserts.inc()
            for instrument, delta in zip(
                    (instruments.pairs_scored, instruments.pairs_retracted,
                     instruments.edges_retracted, instruments.resolutions), deltas):
                if delta:
                    instrument.inc(delta)
        return entity_id

    def _score_pairs(self, pairs: Sequence[EntityPair],
                     score_fn: ScoreFn) -> np.ndarray:
        """Run a score function and validate its output shape."""
        if not pairs:
            return np.zeros(0)
        scores = np.asarray(score_fn(pairs), dtype=np.float64)
        if scores.shape != (len(pairs),):
            raise ValueError(f"score_fn returned shape {scores.shape} for "
                             f"{len(pairs)} pairs")
        return scores

    def _pair_key(self, left: int, right: int) -> PairKey:
        return (left, right) if left < right else (right, left)

    def _apply_retractions(self, retracted: Sequence[Sequence[int]]) -> Set[int]:
        """Withdraw overflowed buckets' support; drop dead pairs and edges.

        Returns the positions whose components need re-resolution (endpoints
        of removed match edges).
        """
        dirty: Set[int] = set()
        for members in retracted:
            for left, right in combinations(members, 2):
                key = self._pair_key(left, right)
                support = self._support.get(key)
                if support is None:  # same-source pair, never tracked
                    continue
                if support > 1:
                    self._support[key] = support - 1
                    continue
                # Last live bucket gone: the pair is no longer a candidate.
                # Its score stays archived in _scores — candidacy lives in
                # _support — so a snapshot of the state carries it too.
                del self._support[key]
                self.counters.pairs_retracted += 1
                score = self._scores.get(key)
                if score is not None and score >= self.config.score_threshold:
                    self._match_adj[key[0]].discard(key[1])
                    self._match_adj[key[1]].discard(key[0])
                    self.counters.edges_retracted += 1
                    dirty.update(key)
        return dirty

    def _resolve_affected(self, seeds: Set[int]) -> None:
        """Re-run the greedy source-consistent merge over every connected
        component touching ``seeds`` and refresh those entities.

        Greedy decisions are component-local (see
        :func:`~repro.pipeline.clustering.apply_match_edges`), so resolving
        the affected components from singletons reproduces exactly what a
        global batch re-run would assign them.
        """
        if not seeds:
            return
        # Flood-fill the current match graph from the seeds.
        affected: Set[int] = set()
        frontier = list(seeds)
        while frontier:
            node = frontier.pop()
            if node in affected:
                continue
            affected.add(node)
            frontier.extend(self._match_adj.get(node, ()))

        edges: List[MatchEdge] = []
        for node in affected:
            for neighbor in self._match_adj.get(node, ()):
                if neighbor <= node:
                    continue
                key = (node, neighbor)
                left_id = self._records[node].record_id
                right_id = self._records[neighbor].record_id
                if left_id > right_id:
                    left_id, right_id = right_id, left_id
                edges.append((self._scores[key], left_id, right_id))

        ids = {self._records[position].record_id: position for position in affected}
        union_find = UnionFind(ids)
        cluster_sources = ({record_id: {self._records[position].source}
                            for record_id, position in ids.items()}
                           if self.config.source_consistent else None)
        apply_match_edges(union_find, cluster_sources, order_match_edges(edges))

        # Retire the old entities of every affected record, then rebuild.
        for entity_id in {self._entity_of[position] for position in affected
                          if position in self._entity_of}:
            for member in self._members.pop(entity_id):
                self._entity_of.pop(member, None)
        for group in union_find.groups():
            entity_id = f"e-{group[0]}"
            members = sorted(ids[record_id] for record_id in group)
            self._members[entity_id] = members
            for member in members:
                self._entity_of[member] = entity_id
        self.counters.resolutions += 1

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #
    def query(self, record: Record, top_k: int = 10) -> List[QueryMatch]:
        """Rank the stored entities most likely to hold ``record``.

        A read-only probe: the record is *not* inserted, the indexes are
        probed for live-bucket collisions, the colliding records are scored
        against the probe, and entities are ranked by their best member
        score.  The same cross-source constraint as upserts applies.
        """
        if self._score_fn is None:
            raise RuntimeError("this store has no score_fn (restored read-only?); "
                               "call bind_score_fn() before querying")
        if top_k <= 0:
            raise ValueError(f"top_k must be positive, got {top_k}")
        started = time.perf_counter()
        # Bucket keys are a pure function of the probe record and the index
        # config (the CPU-heavy part of a probe, e.g. MinHash sketching), so
        # they are computed outside the lock: concurrent probes don't
        # serialize, and only the bucket lookups contend with upserts.  (The
        # MinHash token-hash memo is written benignly-racily: values are
        # deterministic, so a lost update merely recomputes.)
        probe_keys = [index.bucket_keys(record) for index in self._indexes]
        with self._lock:
            positions: Set[int] = set()
            for index, keys in zip(self._indexes, probe_keys):
                positions |= index.probe_keys(keys)
            candidates = [position for position in sorted(positions)
                          if self._records[position].record_id != record.record_id
                          and self._is_probe_candidate(record, position)]
            pairs = []
            for position in candidates:
                stored = self._records[position]
                left_record, right_record = record, stored
                if left_record.record_id > right_record.record_id:
                    left_record, right_record = right_record, left_record
                pairs.append(EntityPair(left=left_record, right=right_record, label=None))
            self.counters.queries += 1
        if not pairs:
            self._record_query(started)
            return []

        scores = np.asarray(self._score_fn(pairs), dtype=np.float64)

        with self._lock:
            best: Dict[str, QueryMatch] = {}
            for position, score in zip(candidates, scores):
                entity_id = self._entity_of.get(position)
                if entity_id is None:  # record vanished mid-query (cannot today)
                    continue
                current = best.get(entity_id)
                if current is None or score > current.score:
                    best[entity_id] = QueryMatch(
                        entity_id=entity_id, score=float(score),
                        record_id=self._records[position].record_id,
                        size=len(self._members[entity_id]))
        ranked = sorted(best.values(), key=lambda match: (-match.score, match.entity_id))
        self._record_query(started)
        return ranked[:top_k]

    def query_degraded(self, record: Record, top_k: int = 10) -> List[QueryMatch]:
        """Rank entities from index probes alone — no model, no coalescer.

        The degraded fallback the serving layer uses while its scoring path
        is unavailable (circuit breaker open, executor dead): the probe and
        the candidate filters are *exactly* those of :meth:`query`, so every
        entity returned here is one the healthy path would have scored — the
        degraded answer is a re-ranking of a subset of the healthy
        candidate set, never an invention.  ``score`` is the number of
        blocking indexes the probe collides with the entity's best member
        in (evidence strength, an integer in ``[1, num_indexes]``) — NOT a
        calibrated matching probability.
        """
        if top_k <= 0:
            raise ValueError(f"top_k must be positive, got {top_k}")
        started = time.perf_counter()
        probe_keys = [index.bucket_keys(record) for index in self._indexes]
        with self._lock:
            collisions: Dict[int, int] = {}
            for index, keys in zip(self._indexes, probe_keys):
                for position in index.probe_keys(keys):
                    collisions[position] = collisions.get(position, 0) + 1
            best: Dict[str, QueryMatch] = {}
            for position in sorted(collisions):
                stored = self._records[position]
                if (stored.record_id == record.record_id
                        or not self._is_probe_candidate(record, position)):
                    continue
                entity_id = self._entity_of.get(position)
                if entity_id is None:
                    continue
                count = collisions[position]
                current = best.get(entity_id)
                if current is None or count > current.score:
                    best[entity_id] = QueryMatch(
                        entity_id=entity_id, score=float(count),
                        record_id=stored.record_id,
                        size=len(self._members[entity_id]))
            self.counters.queries += 1
        ranked = sorted(best.values(),
                        key=lambda match: (-match.score, match.entity_id))
        self._record_query(started)
        return ranked[:top_k]

    def _record_query(self, started: float) -> None:
        instruments = self._obs.get()
        if instruments is not None:
            instruments.queries.inc()
            instruments.query_seconds.observe(time.perf_counter() - started)

    def skew_stats(self, top_k: int = 5) -> Dict[str, Dict[str, object]]:
        """Bucket-skew summary of every blocking index (on demand — this
        walks all buckets, so it is a diagnostics call, not a hot path)."""
        with self._lock:
            return {type(index).__name__: index.skew_stats(top_k=top_k)
                    for index in self._indexes}

    def _is_probe_candidate(self, record: Record, position: int) -> bool:
        if not self.config.cross_source_only:
            return True
        return self._records[position].source != record.source

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def freeze_state(self) -> Dict[str, object]:
        """A consistent, no-longer-shared copy of the full store state.

        Takes the lock only for cheap Python copies (lists, dicts, the
        index state dicts) — the copy-under-lock half of the snapshot
        protocol; pass the result to :meth:`serialize_state` outside the
        lock.  It captures the index bucket state too, so loading it back
        is a deserialization, not an upsert replay.
        """
        with self._lock:
            return {
                "config": self.config,
                "records": list(self._records),
                "scores": dict(self._scores),
                "support": dict(self._support),
                "members": {entity_id: list(members)
                            for entity_id, members in self._members.items()},
                "counters": replace(self.counters),
                "indexes": [index.state_dict() for index in self._indexes],
            }

    @staticmethod
    def serialize_state(frozen: Dict[str, object]) -> Dict[str, object]:
        """JSON-ready form of a :meth:`freeze_state` copy (lock-free)."""
        return {
            "format_version": STATE_FORMAT_VERSION,
            "config": frozen["config"].as_dict(),
            "records": [record.to_dict() for record in frozen["records"]],
            "scores": {_pair_key_str(key): score
                       for key, score in frozen["scores"].items()},
            "support": {_pair_key_str(key): count
                        for key, count in frozen["support"].items()},
            "members": frozen["members"],
            "counters": asdict(frozen["counters"]),
            "indexes": frozen["indexes"],
        }

    def state_dict(self) -> Dict[str, object]:
        """:meth:`freeze_state` + :meth:`serialize_state` in one call."""
        return self.serialize_state(self.freeze_state())

    @classmethod
    def from_state_dict(cls, payload: Mapping[str, object],
                        score_fn: Optional[ScoreFn] = None) -> "EntityStore":
        """Rebuild a store from a :meth:`state_dict` payload — a pure
        deserialization (indexes included), O(state) rather than O(corpus)
        replay.  Without ``score_fn`` the store is read-only until
        :meth:`bind_score_fn`."""
        version = payload.get("format_version")
        if version not in SUPPORTED_STATE_VERSIONS:
            raise ValueError(f"unsupported store state version {version!r} "
                             f"(supported: {SUPPORTED_STATE_VERSIONS})")
        config = StoreConfig.from_dict(payload["config"])
        store = cls(score_fn=score_fn, config=config)
        for index, state in zip(store._indexes, payload["indexes"]):
            index.load_state_dict(state)
        store._records = [Record.from_dict(item) for item in payload["records"]]
        store._position = {record.record_id: position
                           for position, record in enumerate(store._records)}
        store._scores = {_parse_pair_key(key): float(score)
                         for key, score in payload["scores"].items()}
        store._support = {_parse_pair_key(key): int(count)
                          for key, count in payload["support"].items()}
        # Match edges are derivable: live candidacy (support) + archived
        # score over the threshold.
        for key in store._support:
            if store._scores.get(key, 0.0) >= config.score_threshold:
                store._match_adj.setdefault(key[0], set()).add(key[1])
                store._match_adj.setdefault(key[1], set()).add(key[0])
        store._members = {entity_id: [int(member) for member in members]
                          for entity_id, members in payload["members"].items()}
        store._entity_of = {member: entity_id
                            for entity_id, members in store._members.items()
                            for member in members}
        known = {field.name for field in fields(_StoreCounters)}
        store.counters = _StoreCounters(
            **{key: int(value)
               for key, value in dict(payload.get("counters", {})).items()
               if key in known})
        return store
