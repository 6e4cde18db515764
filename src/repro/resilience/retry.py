"""Bounded retry with backoff for deterministic tasks, pooled or inline.

The sharded pipeline's chunk tasks are pure functions of forked state —
re-executing one is always safe — so fault tolerance reduces to *when* to
re-execute and *where*.  :class:`TaskExecutor` owns that decision for one
run:

* **pooled** (a ``pool_factory`` was given): tasks are submitted to a
  process pool; a per-attempt deadline (``RetryPolicy.task_timeout``) bounds
  each round, a dead worker (``BrokenProcessPool``) costs the whole pool —
  it is rebuilt by the factory, re-forking the driver's unchanged state —
  and a task that exhausts its pool attempts falls back to in-process
  execution in the driver (recorded as a fallback, its label quarantined);
* **sequential** (no factory): the same attempt/backoff/fallback accounting
  runs inline — per-attempt deadlines cannot preempt in-process work, so
  ``task_timeout`` is a pooled-only knob, but every other semantic
  (bounded attempts, exponential backoff, fallback, :class:`FaultReport`)
  is identical, which is what keeps no-``fork`` platforms honest.

Backoff jitter is **deterministic** (a hash of the attempt number), so runs
are reproducible; everything the executor absorbed lands in a
:class:`FaultReport` for ``ShardReport``/``stats.json``.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .. import obs
from . import faults

__all__ = ["FaultReport", "RetryPolicy", "TaskExecutor"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff and deterministic jitter.

    ``max_attempts`` counts pool (or inline) tries per task before the
    fallback; ``task_timeout`` is the per-attempt deadline in seconds
    (pooled execution only — ``None`` disables).  ``fallback_in_process``
    lets the driver run a persistently failing task itself as the last
    resort; switching it off turns exhaustion into the task's final error.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    backoff: float = 2.0
    jitter: float = 0.1
    task_timeout: Optional[float] = None
    fallback_in_process: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.max_delay < self.base_delay:
            raise ValueError(f"max_delay ({self.max_delay}) must be >= "
                             f"base_delay ({self.base_delay})")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1.0, got {self.backoff}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after the ``attempt``-th failure (1-based).

        Jitter is a deterministic fraction derived from the attempt number
        (Knuth's multiplicative hash), so retry schedules are reproducible
        run to run — randomness would break the repo's determinism contract
        for no real de-synchronization gain inside a single driver.
        """
        raw = self.base_delay * self.backoff ** (attempt - 1)
        fraction = ((attempt * 2654435761) % 997) / 997.0
        return min(raw, self.max_delay) * (1.0 + self.jitter * fraction)

    def as_dict(self) -> Dict[str, object]:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "backoff": self.backoff,
            "jitter": self.jitter,
            "task_timeout": self.task_timeout,
            "fallback_in_process": self.fallback_in_process,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RetryPolicy":
        return cls(**payload)  # type: ignore[arg-type]


@dataclass
class FaultReport:
    """Everything one executor absorbed: the cost of surviving the run.

    ``attempts`` counts every task execution (first tries included);
    ``retries`` counts re-executions after a failure; ``wall_seconds_lost``
    is the wall-clock spent on rounds that had to be partly redone.
    ``quarantined`` lists the labels of tasks that exhausted their pool
    attempts and ran in-process.
    """

    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    fallbacks: int = 0
    partial_results: int = 0
    wall_seconds_lost: float = 0.0
    quarantined: List[str] = field(default_factory=list)

    @property
    def faults_absorbed(self) -> int:
        """Failed attempts the run recovered from."""
        return self.retries + self.fallbacks

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "fallbacks": self.fallbacks,
            "partial_results": self.partial_results,
            "wall_seconds_lost": round(self.wall_seconds_lost, 4),
            "quarantined": list(self.quarantined),
        }


class _PartialResult(RuntimeError):
    """Internal: a task answered with an injected-partial marker."""


class TaskExecutor:
    """Run deterministic tasks with retry/timeout/fallback accounting.

    Parameters
    ----------
    policy:
        The :class:`RetryPolicy` governing attempts, backoff and deadlines.
    pool_factory:
        Zero-argument callable building a fresh ``ProcessPoolExecutor``
        (fork-context, state already installed in module globals).  ``None``
        selects sequential in-process execution with identical accounting.
    report:
        An existing :class:`FaultReport` to accumulate into (one report can
        span several ``run`` calls — phases of the same pipeline run).
    """

    def __init__(self, policy: Optional[RetryPolicy] = None,
                 pool_factory: Optional[Callable[[], object]] = None,
                 report: Optional[FaultReport] = None) -> None:
        self.policy = policy or RetryPolicy()
        self.report = report if report is not None else FaultReport()
        self._pool_factory = pool_factory
        self._pool = None

    @property
    def uses_processes(self) -> bool:
        return self._pool_factory is not None

    # ------------------------------------------------------------------ #
    def run(self, fn: Callable[[object], object], items: Sequence[object],
            labels: Optional[Sequence[str]] = None) -> List[object]:
        """Execute ``fn`` over ``items``; results in item order.

        Raises the final error of any task that exhausted every attempt
        (including the in-process fallback, when enabled) — partial success
        is not an output mode, because the caller joins every task's result.
        """
        if labels is None:
            labels = [f"task-{index}" for index in range(len(items))]
        if self._pool_factory is None:
            return [self._run_inline(fn, item, label)
                    for item, label in zip(items, labels)]
        return self._run_pooled(fn, list(items), list(labels))

    def shutdown(self) -> None:
        """Release the pool (idempotent); sequential executors no-op."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown()

    # ------------------------------------------------------------------ #
    # Sequential path
    # ------------------------------------------------------------------ #
    def _run_inline(self, fn, item, label):
        policy = self.policy
        last_error: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            started = time.perf_counter()
            self.report.attempts += 1
            try:
                result = fn(item)
                if not faults.is_partial(result):
                    return result
                self.report.partial_results += 1
                last_error = _PartialResult(f"partial result from {label}")
            except Exception as error:
                last_error = error
            self.report.wall_seconds_lost += time.perf_counter() - started
            if attempt == policy.max_attempts and not policy.fallback_in_process:
                raise last_error
            self._record_retry(1)
            self._backoff(attempt)
        return self._fallback(fn, item, label)

    # ------------------------------------------------------------------ #
    # Pooled path
    # ------------------------------------------------------------------ #
    def _run_pooled(self, fn, items, labels):
        policy = self.policy
        results: List[object] = [None] * len(items)
        attempts = [0] * len(items)
        last_error: Dict[int, BaseException] = {}
        pending = list(range(len(items)))
        while pending:
            retriable = []
            for index in pending:
                if attempts[index] < policy.max_attempts:
                    retriable.append(index)
                elif policy.fallback_in_process:
                    results[index] = self._fallback(fn, items[index], labels[index])
                else:
                    raise last_error.get(index) or RuntimeError(
                        f"{labels[index]} failed {attempts[index]} attempts")
            pending = retriable
            if not pending:
                break
            pool = self._ensure_pool()
            round_started = time.perf_counter()
            futures = {}
            broken = False
            try:
                for index in pending:
                    future = pool.submit(fn, items[index])
                    attempts[index] += 1
                    self.report.attempts += 1
                    futures[future] = index
            except BrokenExecutor:
                broken = True
            done, not_done = wait(futures, timeout=policy.task_timeout)
            failed: List[int] = []
            for future in done:
                index = futures[future]
                try:
                    result = future.result()
                except BrokenExecutor:
                    broken = True
                    failed.append(index)
                    continue
                except Exception as error:
                    last_error[index] = error
                    failed.append(index)
                    continue
                if faults.is_partial(result):
                    self.report.partial_results += 1
                    last_error[index] = _PartialResult(
                        f"partial result from {labels[index]}")
                    failed.append(index)
                    continue
                results[index] = result
            submitted = set(futures.values())
            unsubmitted = [index for index in pending if index not in submitted]
            timed_out = sorted(futures[future] for future in not_done)
            if timed_out:
                # Running processes cannot be cancelled; a deadline breach
                # costs the pool, like a worker death does.
                self.report.timeouts += len(timed_out)
                self._terminate_pool()
                obs.counter("resilience_timeouts_total",
                            "Task attempts that breached their deadline").inc(
                    len(timed_out))
            elif broken:
                self._discard_pool()
            if broken:
                self.report.worker_deaths += 1
                obs.counter("resilience_worker_deaths_total",
                            "Process-pool workers lost mid-task").inc()
            failed = sorted(set(failed) | set(timed_out) | set(unsubmitted))
            if failed:
                self.report.wall_seconds_lost += time.perf_counter() - round_started
                self._record_retry(len(failed))
                self._backoff(max(attempts[index] for index in failed))
            pending = failed
        return results

    # ------------------------------------------------------------------ #
    def _fallback(self, fn, item, label):
        """Last resort: run the task in this process; quarantine its label."""
        self.report.fallbacks += 1
        self.report.attempts += 1
        self.report.quarantined.append(label)
        obs.counter("resilience_fallbacks_total",
                    "Tasks re-executed in the driver after pool exhaustion").inc()
        result = fn(item)
        if faults.is_partial(result):
            raise _PartialResult(f"in-process fallback for {label} still "
                                 f"returned a partial result")
        return result

    def _record_retry(self, count: int) -> None:
        self.report.retries += count
        obs.counter("resilience_retries_total",
                    "Task re-executions after a failed attempt").inc(count)

    def _backoff(self, attempt: int) -> None:
        delay = self.policy.delay(attempt)
        if delay > 0:
            time.sleep(delay)

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._pool_factory()
        return self._pool

    def _discard_pool(self) -> None:
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _terminate_pool(self) -> None:
        """Tear down a pool whose workers may be stuck past their deadline."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)
