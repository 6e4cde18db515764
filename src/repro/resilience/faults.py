"""Cross-subsystem fault injection: one registry, every chaos harness.

Production code calls a no-op hook at every interesting point, and a test
harness arms one of them — across subsystems and fault kinds, so the
sharded pipeline, the serving path and the storage engine (whose crash
points the kill-at-every-point recovery harness arms) are all exercised by
the same machinery.

Instrumented code calls :func:`check` at a **named site**::

    from repro.resilience import faults

    faults.check("sharded.score", shard=shard_id)

which is a single global read (no plan installed → return immediately).  A
harness arms a :class:`FaultPlan` of :class:`FaultSpec` entries, either
in-process (:func:`install_plan` / the :func:`plan_scope` context manager —
inherited by forked workers) or through the ``REPRO_FAULT_PLAN`` environment
variable (a JSON list of spec dicts — how subprocess harnesses arm their
children).  Four fault kinds:

``raise``
    Raise :class:`FaultInjected` at the site — a simulated runtime error
    (scoring bug, I/O failure) the caller's retry / degradation machinery
    must absorb.
``delay``
    Sleep ``delay_seconds`` at the site — latency injection for deadline
    and timeout paths; never changes results, only wall-clock.
``kill``
    Die with ``os._exit(KILL_EXIT_CODE)`` — no unwinding, no flushing;
    exactly like a power cut or an OOM kill at that instruction.
``partial``
    Return ``"partial"`` from :func:`check`; the call site is expected to
    truncate its output and mark it with :data:`PARTIAL_KEY` (see
    :func:`partial_result`), modelling a worker that answers incompletely
    instead of dying.  Retry layers treat partial results as failures.

Triggering is counted per spec: ``at_hit`` picks the first eligible hit,
``every`` re-triggers periodically after it (``every=10`` → a deterministic
"10% of calls"), ``max_triggers`` caps the total.  ``scope`` restricts a
spec to worker processes (marked via :func:`mark_worker_process`, installed
as the process-pool initializer) or to the driver.  ``token`` names a file
used as a cross-*process* once-latch: the fault fires only in the process
that wins the atomic ``O_CREAT | O_EXCL`` creation — the way a harness kills
exactly one worker even though respawned pools fork fresh hit counters.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .. import obs

__all__ = [
    "FAULT_KINDS", "FAULT_SCOPES", "FAULT_PLAN_ENV", "KILL_EXIT_CODE",
    "PARTIAL_KEY", "SITES", "FaultInjected", "FaultSpec", "FaultPlan",
    "armed", "check", "clear_plan", "current_plan", "install_plan",
    "is_partial", "mark_worker_process", "partial_result", "plan_scope",
    "reset_hits",
]

FAULT_KINDS = ("raise", "delay", "kill", "partial")
FAULT_SCOPES = ("any", "worker", "driver")

#: Exit status of an injected ``kill`` (every chaos harness distinguishes
#: injected deaths by it).
KILL_EXIT_CODE = 86

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Result-dict key marking a deliberately truncated worker answer.
PARTIAL_KEY = "fault_partial"

#: The catalog of instrumented sites (documentation + docs/resilience.md
#: source of truth; ``check`` accepts any name so tests can add ad-hoc ones).
SITES: Dict[str, str] = {
    "sharded.score": "ShardedPipeline chunk task entry (per scoring chunk)",
    "scoring.batch": "ScoringStage chunk boundary (per scoring micro-batch)",
    "serve.score": "LinkageService scoring call, ahead of the coalescer",
    "storage.wal_append": "WAL append about to run (raise => append I/O error)",
    "storage.before_wal_append": "upsert planned+scored, nothing durable yet",
    "storage.mid_wal_append": "WAL entry header written, payload missing",
    "storage.after_wal_append": "WAL entry durable, indexes NOT updated",
    "storage.after_commit": "WAL entry durable and applied",
    "storage.before_snapshot_rename": "snapshot temp written, not visible",
    "storage.after_snapshot_rename": "snapshot visible, WAL not yet pruned",
}


class FaultInjected(RuntimeError):
    """An armed ``raise`` fault fired at an instrumented site."""

    def __init__(self, site: str, message: Optional[str] = None) -> None:
        super().__init__(message or f"injected fault at site {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where, what kind, and when it triggers.

    ``at_hit`` is the first eligible hit (1-based); ``every`` re-arms the
    spec periodically after it; ``max_triggers`` bounds total firings.
    ``match`` further restricts eligibility to calls whose keyword info
    contains every listed key/value.  ``token`` is a filesystem once-latch
    shared across processes (see the module docstring).
    """

    site: str
    kind: str
    at_hit: int = 1
    every: Optional[int] = None
    max_triggers: Optional[int] = None
    delay_seconds: float = 0.01
    scope: str = "any"
    token: Optional[str] = None
    match: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {', '.join(FAULT_KINDS)})")
        if self.scope not in FAULT_SCOPES:
            raise ValueError(f"unknown fault scope {self.scope!r} "
                             f"(expected one of {', '.join(FAULT_SCOPES)})")
        if self.at_hit < 1:
            raise ValueError(f"at_hit must be >= 1, got {self.at_hit}")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.max_triggers is not None and self.max_triggers < 1:
            raise ValueError(f"max_triggers must be >= 1, got {self.max_triggers}")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds}")

    def eligible(self, hit: int) -> bool:
        """Whether the ``hit``-th matching call (1-based) should trigger."""
        if hit < self.at_hit:
            return False
        if self.every is None:
            return hit == self.at_hit
        return (hit - self.at_hit) % self.every == 0

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"site": self.site, "kind": self.kind,
                                      "at_hit": self.at_hit}
        if self.every is not None:
            payload["every"] = self.every
        if self.max_triggers is not None:
            payload["max_triggers"] = self.max_triggers
        if self.kind == "delay":
            payload["delay_seconds"] = self.delay_seconds
        if self.scope != "any":
            payload["scope"] = self.scope
        if self.token is not None:
            payload["token"] = self.token
        if self.match is not None:
            payload["match"] = dict(self.match)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultSpec":
        return cls(**payload)  # type: ignore[arg-type]


class FaultPlan:
    """A set of armed :class:`FaultSpec` entries with per-spec hit counters.

    Thread-safe; the counters live in the plan so :func:`reset_hits` and
    repeated in-process runs behave predictably.  Counters travel by fork
    into worker processes (each child counts its own hits from the forked
    snapshot — the ``token`` latch exists precisely because they diverge).
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._lock = threading.Lock()
        self._hits: Dict[int, int] = {}
        self._triggers: Dict[int, int] = {}

    def reset(self) -> None:
        with self._lock:
            self._hits.clear()
            self._triggers.clear()

    def specs_for(self, site: str, kind: Optional[str] = None) -> List[FaultSpec]:
        return [spec for spec in self.specs
                if spec.site == site and (kind is None or spec.kind == kind)]

    def check(self, site: str, info: Mapping[str, object]) -> Optional[str]:
        """Count a hit at ``site`` and run whatever triggers; see module doc.

        Returns ``"partial"`` when a partial fault fired (the caller
        truncates its answer), else ``None``.  ``raise`` faults raise,
        ``delay`` faults sleep, ``kill`` faults never return.
        """
        actions: List[FaultSpec] = []
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.site != site or not _scope_matches(spec.scope):
                    continue
                if spec.match is not None and any(
                        key not in info or info[key] != value
                        for key, value in spec.match.items()):
                    continue
                hit = self._hits.get(index, 0) + 1
                self._hits[index] = hit
                if not spec.eligible(hit):
                    continue
                triggered = self._triggers.get(index, 0)
                if spec.max_triggers is not None and triggered >= spec.max_triggers:
                    continue
                if spec.token is not None and not _claim_token(spec.token):
                    continue
                self._triggers[index] = triggered + 1
                actions.append(spec)
        partial = False
        for spec in actions:
            obs.counter("resilience_faults_injected_total",
                        "Faults fired by the injection registry",
                        {"site": spec.site, "kind": spec.kind}).inc()
            if spec.kind == "kill":
                os._exit(KILL_EXIT_CODE)
            if spec.kind == "delay":
                time.sleep(spec.delay_seconds)
            elif spec.kind == "raise":
                raise FaultInjected(site)
            elif spec.kind == "partial":
                partial = True
        return "partial" if partial else None

    def as_dicts(self) -> List[Dict[str, object]]:
        return [spec.as_dict() for spec in self.specs]

    @classmethod
    def from_dicts(cls, payload: Iterable[Mapping[str, object]]) -> "FaultPlan":
        return cls(FaultSpec.from_dict(entry) for entry in payload)


# ---------------------------------------------------------------------- #
# Process-wide state
# ---------------------------------------------------------------------- #

_PLAN: Optional[FaultPlan] = None
_IS_WORKER = False
# Environment-derived plan, cached on the env value that built it (read per
# call, so a parent can arm a subprocess; the cache keeps the unarmed fast
# path at one dict lookup).
_ENV_CACHE: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)
_ENV_LOCK = threading.Lock()


def mark_worker_process() -> None:
    """Mark this process as a pool worker (``scope="worker"`` specs apply).

    Installed as the process-pool initializer by the sharded pipeline, so
    ``kill`` faults scoped to workers can never shoot the driver — which
    matters once the driver re-executes failed tasks in-process.
    """
    global _IS_WORKER
    _IS_WORKER = True


def _scope_matches(scope: str) -> bool:
    if scope == "any":
        return True
    return _IS_WORKER if scope == "worker" else not _IS_WORKER


def _claim_token(token: str) -> bool:
    """Atomically claim a cross-process once-latch file; True when won."""
    try:
        fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
    finally:
        os.close(fd)
    return True


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide (forked children inherit it)."""
    global _PLAN
    _PLAN = plan
    return plan


def clear_plan() -> None:
    global _PLAN
    _PLAN = None


@contextmanager
def plan_scope(specs_or_plan):
    """Arm a plan for a ``with`` block, restoring the previous one after."""
    plan = (specs_or_plan if isinstance(specs_or_plan, FaultPlan)
            else FaultPlan(specs_or_plan))
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def _env_plan() -> Optional[FaultPlan]:
    plan_json = os.environ.get(FAULT_PLAN_ENV)
    if not plan_json:
        return None
    global _ENV_CACHE
    with _ENV_LOCK:
        cached_json, cached_plan = _ENV_CACHE
        if cached_json == plan_json:
            return cached_plan
        plan = FaultPlan.from_dicts(json.loads(plan_json))
        _ENV_CACHE = (plan_json, plan)
        return plan


def current_plan() -> Optional[FaultPlan]:
    """The active plan: the installed one, else one derived from the env."""
    if _PLAN is not None:
        return _PLAN
    return _env_plan()


def reset_hits() -> None:
    """Forget hit counts (harnesses re-arming points between in-process runs)."""
    plan = current_plan()
    if plan is not None:
        plan.reset()


def armed(site: str, kind: Optional[str] = None) -> bool:
    """Whether any active spec targets ``site`` (optionally of one kind).

    An existence check, not a trigger prediction — call sites use it to
    pay a preparation cost (e.g. the WAL flushing its header so a
    mid-append kill leaves a *real* torn entry) only while armed.
    """
    plan = current_plan()
    return plan is not None and bool(plan.specs_for(site, kind))


def check(site: str, **info: object) -> Optional[str]:
    """The universal injection hook; a no-op unless a plan is armed.

    Returns ``"partial"`` when the caller should truncate its answer (see
    :func:`partial_result`), else ``None``.
    """
    plan = current_plan()
    if plan is None:
        return None
    return plan.check(site, info)


def partial_result(**payload: object) -> Dict[str, object]:
    """Build the marker dict a task returns for an injected partial answer."""
    marked = dict(payload)
    marked[PARTIAL_KEY] = True
    return marked


def is_partial(result: object) -> bool:
    """Whether a task result is an injected-partial marker (treat as failed)."""
    return isinstance(result, dict) and bool(result.get(PARTIAL_KEY))
