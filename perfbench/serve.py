"""Mixed durable serving workload: ``serve_mixed``.

Each phase recovers a durable ``LinkageService`` from a copy of a pristine
1,500-record store, then runs two client threads against it:

* a closed-loop writer that upserts one slice of new records, then takes an
  explicit ``Storage.snapshot``;
* an open-loop query thread that sends probes at ``QUERY_RATE`` per second
  for as long as the writer runs.  A query is timed from the moment it was
  due, so a stall also delays the queries queued behind it.

Writes and reads share the store lock, so a change that speeds up upserts by
holding the lock longer shows up in the query latencies.
"""

from __future__ import annotations

import contextlib
import itertools
import shutil
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.infer.predictor import BatchedPredictor
from repro.pipeline import LinkagePipeline
from repro.serve import LinkageService, ServiceConfig, StoreConfig
from repro.storage import Storage, StorageConfig

from common import (Checks, Tracer, cold_start, corpus_records, median, model_bundle,
                    pairwise_f1, patched)

PRISTINE_RECORDS = 1500
UPSERTS_PER_PHASE = 150
# Phase k upserts slice k % SLICES of the new records, so one run averages
# over SLICES * UPSERTS_PER_PHASE distinct records.
SLICES = 3
# Queries per second and the writer's pause between upserts, as a client
# pauses between requests; together they stay well inside the service's
# serve_query_latency objective (p95 <= 250 ms) on a 2-CPU machine.  With a
# back-to-back writer, queries waited in a lock convoy whose p50 moved by 40%
# between identical runs; with a 10 ms pause and 20 q/s, the query p95
# tripled whenever the machine ran slower.
QUERY_RATE = 10.0
THINK_SECONDS = 0.03
SLO_SECONDS = 0.25
MIN_PHASES = 3
# The tail percentiles are fixed so that runs stay comparable; the phase loop
# runs until each has at least ten samples beyond it.  The tails and the
# query median are reported by the traced run (from its untraced phases)
# and carry no bound: whole runs fell into a mode where ~15% of upserts took
# 45-125 ms instead of ~21 ms, so the same seed gave an upsert p95 of 30 or
# 75 ms, and the query p50 ranged over 10-21 ms.
UPSERT_TAIL = 95.0
QUERY_TAIL = 95.0


def tail_samples_needed(point: float) -> int:
    """Samples needed for at least ten to lie beyond percentile ``point``."""
    return int(np.ceil(10 * 100.0 / (100.0 - point)))


def percentile(samples: Sequence[float], point: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), point))


class ServeInputs:
    """Per-invocation inputs: the record streams, a bundle, a pristine store."""

    def __init__(self, seed: int, work: Path, cache: Path) -> None:
        records, self.truth = corpus_records(seed)
        np.random.default_rng(seed).shuffle(records)
        fresh = records[PRISTINE_RECORDS:]
        self.slices = [fresh[start:start + UPSERTS_PER_PHASE]
                       for start in range(0, SLICES * UPSERTS_PER_PHASE, UPSERTS_PER_PHASE)]
        self.queries = fresh[SLICES * UPSERTS_PER_PHASE:]
        self.bundle = model_bundle(cache)
        self.pristine = work / "pristine"
        self.phase_dir = work / "phase"
        predictor = BatchedPredictor.load(self.bundle)
        # Building the store is preparation, not measurement: skip the
        # per-append fsync.  Phases recover it with the default (fsync'd)
        # storage config.
        storage = Storage(self.pristine, score_fn=predictor.predict_proba,
                          store_config=StoreConfig(), config=StorageConfig(fsync=False))
        try:
            for record in records[:PRISTINE_RECORDS]:
                storage.upsert(record)
            storage.snapshot()
        finally:
            storage.close()


class Phase:
    """One recovered service plus what its two client threads observed."""

    def __init__(self, inputs: ServeInputs, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        started = time.perf_counter()
        shutil.rmtree(inputs.phase_dir, ignore_errors=True)
        shutil.copytree(inputs.pristine, inputs.phase_dir)
        self.predictor = BatchedPredictor.load(inputs.bundle)
        recover_started = time.perf_counter()
        self.storage = Storage.recover(inputs.phase_dir)
        self.recover_s = time.perf_counter() - recover_started
        self.service = LinkageService(self.predictor, storage=self.storage,
                                      service_config=ServiceConfig())
        self.service.start()
        self.setup_s = time.perf_counter() - started
        self.upsert_latency: List[float] = []
        self.query_latency: List[float] = []
        self.late: List[float] = []
        self.snapshot_s: List[float] = []
        self.sent = self.answered = self.degraded = 0
        self.failed_upserts = self.failed_queries = 0
        self.writer_s = 0.0
        self.writer_root = None

    def call(self, name: str, request: str, function, *args):
        if self.tracer is None:
            return function(*args)
        with self.tracer.span(name, request=request):
            return function(*args)

    def writer(self, records, done: threading.Event) -> None:
        started = time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.span("bench.writer") as self.writer_root:
                    self._write(records, done)
            else:
                self._write(records, done)
        finally:
            done.set()
            self.writer_s = time.perf_counter() - started

    def _write(self, records, done: threading.Event) -> None:
        for position, record in enumerate(records, start=1):
            started = time.perf_counter()
            try:
                self.call("serve.upsert", f"u{position}", self.service.upsert, record)
            except Exception:
                self.failed_upserts += 1
            self.upsert_latency.append(time.perf_counter() - started)
            self.call("loadgen.think", f"u{position}", time.sleep, THINK_SECONDS)
        # The phase's snapshot comes after the queries stop: serializing the
        # store holds the interpreter for ~0.3 s, and the few queries that
        # fell into it decided the query tail.
        done.set()
        started = time.perf_counter()
        self.call("storage.snapshot", "snapshot", self.service.snapshot)
        self.snapshot_s.append(time.perf_counter() - started)

    def reader(self, records, done: threading.Event) -> None:
        started = time.perf_counter()
        for sent in range(len(records)):
            due = started + sent / QUERY_RATE
            wait = due - time.perf_counter()
            if done.wait(wait) if wait > 0 else done.is_set():
                return
            self.late.append(time.perf_counter() - due)
            self.sent += 1
            try:
                result = self.call("serve.query", f"q{sent}", self.service.query,
                                   records[sent])
            except Exception:
                self.failed_queries += 1
                continue
            self.query_latency.append(time.perf_counter() - due)
            self.answered += 1
            self.degraded += int(result.degraded)

    def run(self, upserts, queries) -> None:
        done = threading.Event()
        threads = [threading.Thread(target=self.writer, args=(upserts, done)),
                   threading.Thread(target=self.reader, args=(queries, done))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def close(self) -> None:
        self.service.stop()
        self.storage.close()


def _instrument(phase: Phase, tracer: Tracer, stack) -> None:
    """Wrap the public calls of every serving layer for one traced phase."""
    service, storage, predictor = phase.service, phase.storage, phase.predictor
    coalescer = service.coalescer
    for owner, attribute, name, count in (
            (service.store, "upsert", "serve.store.upsert", None),
            (service.store, "query", "serve.store.query", None),
            (coalescer, "score", "serve.coalescer.score", None),
            (coalescer, "score_fn", "infer.predict_proba", None),
            (storage.wal, "append", "storage.wal.append",
             lambda args, kwargs, result: result.nbytes),
            (predictor.encoder, "encode", "features.encoder.encode",
             lambda args, kwargs, batch: len(batch.features)),
            (predictor.network, "forward", "infer.forward", None)):
        stack.enter_context(patched(owner, attribute, tracer.wrap(
            name, getattr(owner, attribute), count=count)))


def _phase_layers(phase: Phase, tracer: Tracer, spans, coalescer: Dict[str, float],
                  cache_delta) -> Dict[str, float]:
    encode_s = tracer.total("features.encoder.encode", spans)
    encoded = sum(span.attrs["items"] for span in
                  tracer.named("features.encoder.encode", spans))
    appends = tracer.named("storage.wal.append", spans)
    hits, lookups = cache_delta
    return {
        "serve.store.upsert_self_s": tracer.total("serve.store.upsert", spans, own=True),
        "serve.store.query_self_s": tracer.total("serve.store.query", spans, own=True),
        "serve.coalescer.score_s": tracer.total("serve.coalescer.score", spans),
        "serve.coalescer.mean_batch_pairs": coalescer["mean_batch_pairs"],
        "serve.coalescer.deadline_flush_ratio":
            coalescer["deadline_flushes"] / coalescer["batches"] if coalescer["batches"] else 0.0,
        "storage.wal.fsync_s": float(sum(phase.storage.fsync_latency_samples())),
        "storage.wal.bytes_per_upsert":
            sum(span.attrs["items"] for span in appends) / len(appends) if appends else 0.0,
        "storage.snapshot_s": median(phase.snapshot_s),
        "storage.recover_s": phase.recover_s,
        "features.encoder.encode_s": encode_s,
        "features.encoder.pairs_per_s": encoded / encode_s if encode_s else 0.0,
        "features.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "infer.forward_s": tracer.total("infer.forward", spans),
        "infer.batches": float(len(tracer.named("infer.forward", spans))),
        "loadgen.late_p50_ms": median(phase.late) * 1e3,
        "loadgen.late_max_ms": max(phase.late, default=0.0) * 1e3,
        "trace.coverage_ratio": tracer.coverage(phase.writer_root),
    }


def run_serve_mixed(seed: int, seconds: float, trace: bool, work: Path,
                    cache: Path) -> dict:
    inputs = ServeInputs(seed, work, cache)
    checks = Checks()
    tracer = Tracer()
    phases: List[Phase] = []
    layers: List[Dict[str, float]] = []
    traced_walls, walls = [], []
    # slice -> (pairs scored, pairs retracted) by the store during its phase
    slice_work: Dict[int, Tuple[float, float]] = {}
    # slice -> pairwise F1 of the store's clusters once the slice is upserted
    slice_f1: Dict[int, float] = {}
    last: Optional[Phase] = None
    started = time.perf_counter()
    for number in itertools.count():
        untraced = [phase for phase in phases if phase.tracer is None]
        if (time.perf_counter() - started >= seconds
                and len(phases) >= (2 * MIN_PHASES - 2 if trace else MIN_PHASES)
                and sum(phase.answered for phase in untraced)
                >= tail_samples_needed(QUERY_TAIL)
                and sum(len(phase.upsert_latency) for phase in untraced)
                >= tail_samples_needed(UPSERT_TAIL)):
            break
        if last is not None:
            last.close()
        cold_start()
        traced = trace and number % 2 == 1
        phase = last = Phase(inputs, tracer if traced else None)
        upserts = inputs.slices[number % SLICES]
        store_before = phase.service.store.stats()
        encoding_cache = phase.predictor.encoder.cache
        hits_before, misses_before = encoding_cache.lookup_counts()
        first_span = len(tracer.spans)
        with contextlib.ExitStack() as stack:
            if traced:
                _instrument(phase, tracer, stack)
            phase.run(upserts, inputs.queries)
        phases.append(phase)
        store_after = phase.service.store.stats()
        store_delta = {key: store_after[key] - store_before[key]
                       for key in ("pairs_scored", "pairs_retracted", "upserts")}
        work_done = (store_delta["pairs_scored"], store_delta["pairs_retracted"])
        checks.same(slice_work, number % SLICES, work_done)
        checks.require(store_delta["upserts"] == len(upserts) - phase.failed_upserts,
                       f"store counted {store_delta['upserts']} upserts")
        clusters = phase.service.store.clusters()
        checks.same(slice_f1, number % SLICES, pairwise_f1(clusters, {
            record_id: inputs.truth[record_id] for cluster in clusters for record_id in cluster}))
        if traced:
            hits, misses = encoding_cache.lookup_counts()
            cache_delta = (hits - hits_before, hits + misses - hits_before - misses_before)
            traced_walls.append(phase.writer_s)
            layers.append(_phase_layers(phase, tracer, tracer.spans[first_span:],
                                        phase.service.coalescer.stats(), cache_delta))
        else:
            walls.append(phase.writer_s)

    # Once per invocation: the streamed store equals one batch run over the
    # same record order.
    store = last.service.store
    batch = LinkagePipeline(last.predictor, config=store.config.to_pipeline_config()
                            ).run(store.records)
    checks.require(store.clusters() == batch.clusters.clusters,
                   "serve_mixed store clusters differ from a batch run over the same records")
    last.close()

    upserts = [sample for phase in phases if phase.tracer is None
               for sample in phase.upsert_latency]
    queries = [sample for phase in phases if phase.tracer is None
               for sample in phase.query_latency]
    sent = sum(phase.sent for phase in phases if phase.tracer is None)
    within = sum(1 for sample in queries if sample <= SLO_SECONDS)
    failed = sum(phase.failed_upserts + phase.failed_queries for phase in phases)
    attempted = sum(len(phase.upsert_latency) + phase.sent for phase in phases)
    metrics = {
        "setup_s": median([phase.setup_s for phase in phases]),
        "op_p50_ms": median(upserts) * 1e3,
        "quality": slice_f1[0],
    }
    layer: Dict[str, float] = {}
    if trace:
        layer = {name: median([entry[name] for entry in layers]) for name in layers[0]}
        layer["trace.overhead_ratio"] = median(traced_walls) / median(walls)
        scored = sum(work[0] for work in slice_work.values())
        retracted = sum(work[1] for work in slice_work.values())
        layer.update({
            "query_p50_ms": median(queries) * 1e3,
            "query_within_slo_ratio": within / sent if sent else 0.0,
            "upsert_tail_ms": percentile(upserts, UPSERT_TAIL) * 1e3,
            "query_tail_ms": percentile(queries, QUERY_TAIL) * 1e3,
            "serve.store.pairs_scored": scored,
            "serve.store.useful_score_ratio": 1.0 - retracted / scored if scored else 0.0,
            "loadgen.ops_sent": float(attempted),
            "loadgen.ops_answered": float(attempted - failed),
            "loadgen.ops_degraded": float(sum(phase.degraded for phase in phases)),
            "loadgen.ops_failed": float(failed),
        })
    notes = [f"{len(phases)} phases of {UPSERTS_PER_PHASE} upserts onto "
             f"{PRISTINE_RECORDS} records, queries at {QUERY_RATE:g}/s",
             f"upsert_tail_ms is p{UPSERT_TAIL:g} of {len(upserts)} upserts; "
             f"query_tail_ms is p{QUERY_TAIL:g} of {len(queries)} queries"]
    for number, phase in enumerate(phases):
        notes.append(f"phase {number}{' (traced)' if phase.tracer else ''}: "
                     f"upserts sent {len(phase.upsert_latency)} failed {phase.failed_upserts}; "
                     f"queries sent {phase.sent} answered {phase.answered} "
                     f"degraded {phase.degraded} failed {phase.failed_queries}")
    return dict(metrics=metrics, layers=layer, attempted=attempted, failed=failed,
                checks=checks, tracer=tracer, notes=notes)
