"""Batch linkage workloads: ``link_cold`` and ``link_parallel``.

Both link the same ~5.3k-record Music corpus with one model bundle, trained
once per checkout.  ``link_cold`` calls ``LinkagePipeline.run``;
``link_parallel`` drives ``python -m repro.pipeline --workers 2`` through its
``main`` function, timing the whole command: bundle load, record read,
linkage and output files.  Every rep starts with the process memos cold.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.data.storage import iter_records_csv, write_records_csv
from repro.infer.predictor import BatchedPredictor
from repro.pipeline import LinkagePipeline, PipelineConfig
from repro.pipeline.__main__ import main as pipeline_main
from repro.pipeline.candidates import CandidateGenerationStage
from repro.pipeline.clustering import ClusteringStage
from repro.pipeline.engine import PipelineResult
from repro.pipeline.scoring import ScoringStage

from common import (Checks, Tracer, cold_start, corpus_records, deadline_loop, median,
                    model_bundle, pairwise_f1, patched)

PARALLEL_WORKERS = 2
# A cold linkage takes ~4 s, and the machine's speed drifts over tens of
# seconds, so link_cold takes the median of at least five; a link_parallel
# rep takes ~7 s.
COLD_MIN_REPS = 5
PARALLEL_MIN_REPS = 3
# A rep's set-up takes well under a second, so it is timed several times per
# rep and the median reported.
SETUP_SAMPLES = 5


def truth_pairs(record_ids: Iterable[str], truth: Dict[str, str],
                sources: Dict[str, str]) -> set:
    """Sorted ``(id, id)`` keys of every cross-source pair of one entity."""
    by_entity: Dict[str, List[str]] = {}
    for record_id in record_ids:
        by_entity.setdefault(truth[record_id], []).append(record_id)
    pairs = set()
    for members in by_entity.values():
        for left, right in itertools.combinations(sorted(members), 2):
            if sources[left] != sources[right]:
                pairs.add((left, right))
    return pairs


def is_partition(clusters: Sequence[Sequence[str]], record_ids: Iterable[str]) -> bool:
    """Every record appears in exactly one cluster."""
    members = [record_id for cluster in clusters for record_id in cluster]
    return len(members) == len(set(members)) and set(members) == set(record_ids)


class LinkInputs:
    """Per-invocation inputs: a records CSV, a model bundle and the truth."""

    def __init__(self, seed: int, work: Path, cache: Path) -> None:
        records, self.truth = corpus_records(seed)
        self.record_ids = [record.record_id for record in records]
        self.csv = work / "records.csv"
        write_records_csv(records, self.csv)
        self.bundle = model_bundle(cache)
        self.true_pairs = truth_pairs(self.record_ids, self.truth,
                                      {record.record_id: record.source for record in records})

    def load(self):
        """The rep's set-up: load the bundle and read the records."""
        return BatchedPredictor.load(self.bundle), list(iter_records_csv(self.csv))

    def candidate_quality(self, pairs) -> Dict[str, float]:
        keys = set()
        for pair in pairs:
            left, right = pair.left.record_id, pair.right.record_id
            keys.add((left, right) if left < right else (right, left))
        hits = len(keys & self.true_pairs)
        return {"pipeline.candidates.recall": hits / len(self.true_pairs),
                "pipeline.candidates.true_match_ratio": hits / max(len(keys), 1)}


# --------------------------------------------------------------------------- #
# link_cold
# --------------------------------------------------------------------------- #
def _traced_link(tracer: Tracer, predictor, records):
    """One linkage with the stage objects called in ``LinkagePipeline`` order."""
    config = PipelineConfig()
    encoder, network = predictor.encoder, predictor.network
    encode = tracer.wrap("features.encoder.encode", encoder.encode,
                         count=lambda args, kwargs, batch: len(batch.features))
    forward = tracer.wrap("infer.forward", network.forward)
    with patched(encoder, "encode", encode), patched(network, "forward", forward):
        with tracer.span("bench.rep") as root:
            stage = CandidateGenerationStage(
                attributes=config.blocking_attributes,
                cross_source_only=config.cross_source_only,
                num_perm=config.num_perm, bands=config.bands,
                max_bucket_size=config.lsh_max_bucket_size,
                max_postings=config.max_postings,
                initials_max_bucket_size=config.initials_max_bucket_size,
                min_token_length=config.min_token_length, seed=config.seed)
            with tracer.span("pipeline.candidates.add_records"):
                for start in range(0, len(records), config.ingest_chunk_size):
                    stage.add_records(records[start:start + config.ingest_chunk_size])
            with tracer.span("pipeline.candidates.generate"):
                candidates = stage.generate()
            with tracer.span("pipeline.scoring.run"):
                scored = ScoringStage(predictor, chunk_size=config.scoring_chunk_size
                                      ).run(candidates.pairs)
            with tracer.span("pipeline.clustering.run"):
                clusters = ClusteringStage(threshold=config.score_threshold,
                                           source_consistent=config.source_consistent
                                           ).run(stage.records, scored)
    return root, candidates, clusters


def run_link_cold(seed: int, seconds: float, trace: bool, work: Path,
                  cache: Path) -> dict:
    inputs = LinkInputs(seed, work, cache)
    checks = Checks()
    seen: Dict[str, object] = {}
    tracer = Tracer()
    setup, walls, traced_walls, f1s = [], [], [], []
    layers: List[Dict[str, float]] = []
    attempted = 0
    for rep in deadline_loop(seconds, COLD_MIN_REPS if not trace else 2 * COLD_MIN_REPS - 2):
        attempted += 1
        for _ in range(SETUP_SAMPLES):
            cold_start()
            started = time.perf_counter()
            predictor, records = inputs.load()
            setup.append(time.perf_counter() - started)
        if trace and rep % 2 == 1:
            encoding_cache = predictor.encoder.cache
            hits_before, misses_before = encoding_cache.lookup_counts()
            root, candidates, clusters = _traced_link(tracer, predictor, records)
            hits, misses = encoding_cache.lookup_counts()
            traced_walls.append(root.seconds)
            within = tracer.descendants(root)
            encode_s = tracer.total("features.encoder.encode", within)
            encoded = sum(span.attrs["items"] for span in
                          tracer.named("features.encoder.encode", within))
            lookups = (hits - hits_before) + (misses - misses_before)
            layers.append({
                "pipeline.candidates.add_records_s":
                    tracer.total("pipeline.candidates.add_records", within),
                "pipeline.candidates.generate_s":
                    tracer.total("pipeline.candidates.generate", within),
                "pipeline.candidates.candidates": float(len(candidates.pairs)),
                **inputs.candidate_quality(candidates.pairs),
                "features.encoder.encode_s": encode_s,
                "features.encoder.pairs_per_s": encoded / encode_s if encode_s else 0.0,
                "features.cache.hit_ratio": (hits - hits_before) / lookups if lookups else 0.0,
                "infer.forward_s": tracer.total("infer.forward", within),
                "infer.batches": float(len(tracer.named("infer.forward", within))),
                "pipeline.clustering.run_s": tracer.total("pipeline.clustering.run", within),
                "pipeline.clustering.match_edges": float(clusters.stats["num_match_edges"]),
                "trace.coverage_ratio": tracer.coverage(root),
            })
        else:
            started = time.perf_counter()
            result = LinkagePipeline(predictor).run(records)
            walls.append(time.perf_counter() - started)
            candidates, clusters = result.candidates, result.clusters
        checks.require(is_partition(clusters.clusters, inputs.record_ids),
                       "clusters do not partition the input records")
        checks.same(seen, "candidates", len(candidates.pairs))
        checks.same(seen, "clusters", clusters.clusters)
        f1s.append(pairwise_f1(clusters.clusters, inputs.truth))
        checks.same(seen, "pairwise_f1", f1s[-1])

    records = len(inputs.record_ids)
    metrics = {"setup_s": median(setup), "op_p50_ms": median(walls) * 1e3,
               "quality": f1s[0]}
    layer = {}
    if trace:
        layer = {name: median([entry[name] for entry in layers]) for name in layers[0]}
        layer["trace.overhead_ratio"] = median(traced_walls) / median(walls)
    return dict(metrics=metrics, layers=layer, attempted=attempted, checks=checks,
                tracer=tracer, notes=[f"{records} records, {seen['candidates']} candidates, "
                                      f"{len(walls)} untraced reps"])


# --------------------------------------------------------------------------- #
# link_parallel
# --------------------------------------------------------------------------- #
def _read_clusters(output: Path) -> List[List[str]]:
    with (output / "clusters.jsonl").open(encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    return [row["record_ids"] for row in sorted(rows, key=lambda row: row["cluster_id"])]


def _sharded_pipeline_class():
    """The sharded engine class, when this version of the program has one."""
    try:
        from repro.pipeline.sharded import ShardedPipeline
    except ImportError:
        return None
    return ShardedPipeline


def run_link_parallel(seed: int, seconds: float, trace: bool, work: Path,
                      cache: Path) -> dict:
    inputs = LinkInputs(seed, work, cache)
    checks = Checks()
    seen: Dict[str, object] = {}
    tracer = Tracer()

    # Reference clusters from the single-process engine, once per invocation.
    cold_start()
    predictor, records = inputs.load()
    reference = LinkagePipeline(predictor).run(records).clusters.clusters
    checks.require(is_partition(reference, inputs.record_ids),
                   "clusters do not partition the input records")
    load = BatchedPredictor.load

    output = work / "pipeline_out"
    argv = ["--records", str(inputs.csv), "--model", str(inputs.bundle),
            "--workers", str(PARALLEL_WORKERS), "--output-dir", str(output)]
    setup, walls, traced_walls, f1s = [], [], [], []
    layers: List[Dict[str, float]] = []
    attempted = 0
    for rep in deadline_loop(seconds, PARALLEL_MIN_REPS if not trace else 2 * PARALLEL_MIN_REPS - 2):
        attempted += 1
        shutil.rmtree(output, ignore_errors=True)
        # The rep's set-up is writing the records file the CLI reads.
        for _ in range(SETUP_SAMPLES):
            started = time.perf_counter()
            write_records_csv(records, inputs.csv)
            setup.append(time.perf_counter() - started)
        cold_start()
        traced = trace and rep % 2 == 1
        with contextlib.ExitStack() as stack:
            if traced:
                engine = _sharded_pipeline_class()
                if engine is not None:
                    stack.enter_context(patched(engine, "run", tracer.wrap(
                        "pipeline.sharded.run", engine.run)))
                stack.enter_context(patched(BatchedPredictor, "load", classmethod(
                    tracer.wrap("infer.load", lambda cls, *args, **kwargs:
                                load(*args, **kwargs)))))
                stack.enter_context(patched(PipelineResult, "write", tracer.wrap(
                    "pipeline.output.write", PipelineResult.write)))
                root = stack.enter_context(tracer.span("bench.rep"))
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            started = time.perf_counter()
            status = pipeline_main(argv)
            wall = time.perf_counter() - started
        checks.require(status == 0, f"python -m repro.pipeline exited with {status}")
        stats = json.loads((output / "stats.json").read_text(encoding="utf-8"))
        sharding = stats.get("sharding") or {}
        shard_pairs = int(sum(sharding.get("shard_candidates", [])))
        candidates = int(stats["stages"]["pair"]["num_candidates"])
        checks.same(seen, "candidates", candidates)
        checks.same(seen, "pipeline.sharded.pairs_scored", shard_pairs)
        clusters = _read_clusters(output)
        checks.require(clusters == reference,
                       "link_parallel clusters differ from the single-process engine's")
        f1s.append(pairwise_f1(clusters, inputs.truth))
        checks.same(seen, "pairwise_f1", f1s[-1])
        if traced:
            traced_walls.append(wall)
            within = tracer.descendants(root)
            shard_seconds = sharding.get("shard_score_seconds") or [0.0]
            hits = float(stats["stages"]["score"].get("encoding_cache_hits", 0.0))
            layers.append({
                "pipeline.candidates.candidates": float(candidates),
                "pipeline.sharded.run_s": tracer.total("pipeline.sharded.run", within),
                "pipeline.sharded.pairs_scored": float(shard_pairs),
                "pipeline.sharded.useful_score_ratio":
                    candidates / shard_pairs if shard_pairs else 0.0,
                "pipeline.sharded.straggler_ratio":
                    max(shard_seconds) / float(np.mean(shard_seconds))
                    if np.mean(shard_seconds) else 0.0,
                "features.cache.hit_ratio": hits / shard_pairs if shard_pairs else 0.0,
                "trace.coverage_ratio": tracer.coverage(root),
            })
        else:
            walls.append(wall)

    records = len(inputs.record_ids)
    metrics = {"setup_s": median(setup), "op_p50_ms": median(walls) * 1e3,
               "quality": f1s[0]}
    layer = {}
    if trace:
        layer = {name: median([entry[name] for entry in layers]) for name in layers[0]}
        layer["trace.overhead_ratio"] = median(traced_walls) / median(walls)
    return dict(metrics=metrics, layers=layer, attempted=attempted, checks=checks,
                tracer=tracer, notes=[f"{records} records, {seen['candidates']} candidates, "
                                      f"{seen['pipeline.sharded.pairs_scored']} pairs scored "
                                      f"by {PARALLEL_WORKERS} workers"])
