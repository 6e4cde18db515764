"""Parallel linkage: the batch engine with scoring spread over worker processes.

:class:`ShardedPipeline` is a :class:`~repro.pipeline.engine.LinkagePipeline`
that replaces one step.  Ingest, blocking, pair generation and clustering
run once, in the parent process, exactly as in the batch engine.  Scoring — most of
a run's wall time — cuts the deduplicated candidate list into contiguous
tasks of ``PipelineConfig.scoring_chunk_size`` pairs and runs them on a
forked process pool; the score arrays are joined in task order.

Every task boundary falls on a multiple of ``scoring_chunk_size``, which is
where the batch :class:`~repro.pipeline.scoring.ScoringStage` cuts its
chunks too, so each task hands the predictor exactly one of the batch
engine's chunks.  The output is therefore bit-identical to
:class:`LinkagePipeline` at every worker count, by construction.  Equal
pair chunks also balance themselves: there is no bucket load to route.

Worker state (the candidate list and the predictor) travels by **fork
inheritance** through a module global installed after ``generate()`` and
before the pool starts: a task carries only its bounds, a result only its
score array.  On platforms without ``fork``, or with ``workers=1``, the
same task function runs inline.  See ``docs/sharding.md``.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import obs
from ..data.records import EntityPair, Record
from ..infer.predictor import BatchedPredictor
from ..resilience import faults
from ..resilience.retry import FaultReport, RetryPolicy, TaskExecutor
from .candidates import CandidateGenerationStage
from .engine import LinkagePipeline, PipelineConfig, PipelineResult
from .scoring import ScoredCandidates, ScoringStage

__all__ = ["ShardConfig", "ShardReport", "ShardedPipeline",
           "ShardedPipelineResult"]


@dataclass(frozen=True)
class ShardConfig:
    """Knobs of the parallel score step.

    ``workers`` is the process count.  ``retry`` governs fault tolerance
    around the chunk tasks: bounded pool attempts with backoff, an optional
    per-attempt deadline, and in-process fallback after exhaustion (see
    :class:`~repro.resilience.RetryPolicy`).  A task is a pure function of
    forked state, so any schedule of retries that eventually succeeds
    yields output bit-identical to a fault-free run.
    """

    workers: int = 4
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def as_dict(self) -> Dict[str, object]:
        return {"workers": self.workers, "retry": self.retry.as_dict()}


@dataclass
class ShardReport:
    """What the pool did during one run; one list entry per chunk task."""

    workers: int
    used_processes: bool
    shard_candidates: List[int] = field(default_factory=list)
    shard_score_seconds: List[float] = field(default_factory=list)
    fault_report: FaultReport = field(default_factory=FaultReport)

    def as_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly payload for bench records and ``stats.json``."""
        return {
            "workers": self.workers,
            "used_processes": self.used_processes,
            "shard_candidates": list(self.shard_candidates),
            "shard_score_seconds": [round(s, 4) for s in self.shard_score_seconds],
            "faults": self.fault_report.as_dict(),
        }


# ---------------------------------------------------------------------- #
# Worker side.  The parent process installs _STATE before the pool forks; children
# inherit it copy-on-write, and the inline path reads the same global.
# ---------------------------------------------------------------------- #

@dataclass
class _WorkerState:
    """The candidate list and the scorer, installed as a module global.

    ``capture_telemetry`` mirrors ``obs.enabled()`` in the parent: when set,
    each task ships its telemetry back as a :class:`~repro.obs.TelemetryPayload`
    (a forked child's registry and collector die with the process).
    """

    pairs: List[EntityPair]
    scoring: ScoringStage
    capture_telemetry: bool


_STATE: Optional[_WorkerState] = None


def _score_task(bounds: Tuple[int, int]) -> Dict[str, object]:
    """Score ``pairs[start:end]``, optionally under a fresh telemetry scope.

    The fault site sits ahead of the telemetry scope, so a failed attempt
    ships no payload and retries cannot double-observe the histogram.
    """
    start, end = bounds
    shard = start // _STATE.scoring.chunk_size
    if faults.check("sharded.score", shard=shard) == "partial":
        return faults.partial_result(shard=shard)
    if not _STATE.capture_telemetry:
        return _score_chunk(start, end)
    with obs.detached_stack(), obs.telemetry() as session:
        with obs.trace("sharded.worker", shard=shard, pairs=end - start):
            result = _score_chunk(start, end)
    result["telemetry"] = obs.capture_payload(session.registry,
                                              session.collector, shard=shard)
    return result


def _score_chunk(start: int, end: int) -> Dict[str, object]:
    started = time.perf_counter()
    scored = _STATE.scoring.run(_STATE.pairs[start:end])
    seconds = time.perf_counter() - started
    # The one observation site for per-task seconds: inside the task's
    # telemetry scope, so each task lands in the histogram exactly once.
    obs.histogram("pipeline_sharded_shard_seconds", "Wall-clock per chunk task",
                  {"phase": "score"}).observe(seconds)
    return {"scores": scored.scores, "seconds": seconds,
            "cache_hits": scored.stats.get("encoding_cache_hits", 0.0)}


# ---------------------------------------------------------------------- #
# Driver.
# ---------------------------------------------------------------------- #

@dataclass
class ShardedPipelineResult(PipelineResult):
    """A :class:`PipelineResult` plus the pool's :class:`ShardReport`."""

    shard_report: Optional[ShardReport] = None

    def summary(self) -> Dict[str, object]:
        payload = super().summary()
        if self.shard_report is not None:
            payload["sharding"] = self.shard_report.as_dict()
        return payload


class ShardedPipeline(LinkagePipeline):
    """:class:`LinkagePipeline` with the score step run on a process pool.

    Same predictor, same :class:`PipelineConfig`, same stages and the same
    output bit for bit, plus a :class:`ShardReport`.  ``shards`` sets the
    worker count and retry policy; see :class:`ShardConfig`.
    """

    run_span = "sharded.run"

    def __init__(self, predictor: BatchedPredictor,
                 config: Optional[PipelineConfig] = None,
                 shards: Optional[ShardConfig] = None) -> None:
        super().__init__(predictor, config)
        self.shards = shards or ShardConfig()
        self._report: Optional[ShardReport] = None

    @staticmethod
    def fork_available() -> bool:
        """Whether this platform supports the ``fork`` start method."""
        return "fork" in multiprocessing.get_all_start_methods()

    def run(self, records: Iterable[Record]) -> ShardedPipelineResult:
        """Run ingest → block → pair → score (pooled) → cluster."""
        result = super().run(records)
        return ShardedPipelineResult(**vars(result), shard_report=self._report)

    def _score(self, pairs: List[EntityPair]) -> ScoredCandidates:
        """Score aligned chunk tasks on the pool and join them in order."""
        global _STATE
        workers = self.shards.workers
        chunk_size = self.config.scoring_chunk_size
        tasks = [(start, min(start + chunk_size, len(pairs)))
                 for start in range(0, len(pairs), chunk_size)]
        use_processes = workers > 1 and self.fork_available()
        pool_factory = None
        if use_processes:
            # Forks lazily, after _STATE is installed; the executor calls it
            # again to replace a pool lost to a worker death or a deadline.
            def pool_factory() -> ProcessPoolExecutor:
                return ProcessPoolExecutor(
                    max_workers=min(workers, len(tasks)),
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=faults.mark_worker_process)
        executor = TaskExecutor(policy=self.shards.retry, pool_factory=pool_factory)
        _STATE = _WorkerState(pairs=pairs,
                              scoring=ScoringStage(self.predictor, chunk_size),
                              capture_telemetry=obs.enabled())
        try:
            with obs.trace("sharded.score", tasks=len(tasks)) as score_span:
                results = executor.run(_score_task, tasks,
                                       labels=[f"chunk-{start}" for start, _ in tasks])
        finally:
            executor.shutdown()
            _STATE = None
        # Task spans re-root under the (closed) score span, tagged by task;
        # the merge is telemetry bookkeeping, so it stays out of its timing.
        for shard, result in enumerate(results):
            payload = result.pop("telemetry", None)
            if payload is not None:
                obs.merge_payload(payload, parent=score_span, shard=shard)
        self._report = ShardReport(
            workers=workers, used_processes=use_processes,
            shard_candidates=[end - start for start, end in tasks],
            shard_score_seconds=[result["seconds"] for result in results],
            fault_report=executor.report)
        scores = (np.concatenate([result["scores"] for result in results])
                  if results else np.zeros(0))
        stats: Dict[str, float] = {
            "num_pairs": float(len(pairs)),
            "chunks": float(len(tasks)),
            "micro_batch_size": float(self.predictor.micro_batch_size),
            "encoding_cache_hits": float(sum(r["cache_hits"] for r in results)),
        }
        if len(pairs):
            stats["mean_score"] = float(scores.mean())
        return ScoredCandidates(pairs=pairs, scores=scores, stats=stats)

    def _record_run_metrics(self, result: PipelineResult,
                            stage: CandidateGenerationStage) -> None:
        """Publish the pool's counters (the batch engine's bucket-skew scan
        is left out: it would dominate telemetry cost on small runs)."""
        report = self._report
        obs.counter("pipeline_sharded_runs_total", "Sharded pipeline runs completed").inc()
        obs.gauge("pipeline_sharded_workers_count",
                  "Worker processes of the last run").set(
            report.workers if report.used_processes else 1)
