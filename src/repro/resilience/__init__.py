"""repro.resilience — fault injection, bounded retry, graceful degradation.

The fault-tolerance layer the rest of the system plugs into (see
``docs/resilience.md``):

* :mod:`repro.resilience.faults` — a cross-subsystem fault-injection
  registry (named sites, raise/delay/kill/partial kinds, env or in-process
  arming), including the storage engine's crash points;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (bounded attempts,
  exponential backoff, deterministic jitter, per-attempt deadlines) and
  :class:`TaskExecutor`, which the sharded pipeline uses to survive worker
  deaths, timeouts and poisoned tasks, accounting everything it absorbed in
  a :class:`FaultReport`;
* :mod:`repro.resilience.breaker` — the :class:`CircuitBreaker` the serving
  layer wraps around its scoring path, enabling index-only degraded queries
  while the model executor is unhealthy.

Imports only stdlib + :mod:`repro.obs`, so any subsystem may depend on it
without layering cycles.
"""

from . import faults
from .breaker import BREAKER_STATES, CircuitBreaker, CircuitOpen
from .faults import (FAULT_KINDS, FAULT_PLAN_ENV, FaultInjected, FaultPlan,
                     FaultSpec, KILL_EXIT_CODE, SITES)
from .retry import FaultReport, RetryPolicy, TaskExecutor

__all__ = [
    "faults",
    "BREAKER_STATES", "CircuitBreaker", "CircuitOpen",
    "FAULT_KINDS", "FAULT_PLAN_ENV", "FaultInjected", "FaultPlan",
    "FaultSpec", "KILL_EXIT_CODE", "SITES",
    "FaultReport", "RetryPolicy", "TaskExecutor",
]
