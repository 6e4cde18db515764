"""Online entity-linkage serving: incremental store + coalesced inference.

The batch pipeline (:mod:`repro.pipeline`) links a frozen corpus; this
package serves linkage *online*, one record or query at a time:

* :mod:`~repro.serve.store` — :class:`EntityStore`, a persistent store of
  resolved clusters with incremental index/edge/cluster maintenance,
  ``upsert(record) -> entity_id`` / ``query(record) -> ranked entities``, and
  a state dict that :mod:`repro.storage.snapshots` persists.  Streaming
  upserts produce exactly the clusters a batch ``LinkagePipeline.run``
  would (parity is tested);
* :mod:`~repro.serve.coalescer` — :class:`RequestCoalescer`, the
  latency-bounded micro-batcher: concurrent callers enqueue, one executor
  thread fuses requests and flushes on batch-size *or* deadline, with a
  bounded queue for backpressure;
* :mod:`~repro.serve.service` — :class:`LinkageService`, the deployable
  front end wiring store and coalescer;
* :mod:`~repro.serve.loadgen` — load replay + p50/p95/p99 latency reports,
  reused by the ``serve_online`` bench stage;
* ``python -m repro.serve --demo`` — stream a Music-3K corpus record-by-
  record and verify cluster parity against the batch pipeline.
"""

from .coalescer import (CoalescerClosed, CoalescerQueueFull, PendingScore,
                        RequestCoalescer)
from .loadgen import (LoadReport, latency_percentiles, replay_queries,
                      replay_upserts)
from .service import LinkageService, QueryResult, ServiceConfig, UpsertResult
from .store import EntityStore, QueryMatch, StoreConfig

__all__ = [
    "CoalescerClosed",
    "CoalescerQueueFull",
    "EntityStore",
    "LinkageService",
    "LoadReport",
    "PendingScore",
    "QueryMatch",
    "QueryResult",
    "RequestCoalescer",
    "ServiceConfig",
    "StoreConfig",
    "UpsertResult",
    "latency_percentiles",
    "replay_queries",
    "replay_upserts",
]
