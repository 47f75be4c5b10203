"""repro.shard — category-partitioned multi-process serving.

* :mod:`repro.shard.router` — :class:`CategoryShardRouter` (static
  ``cid % N`` partition, plan-aware ownership) and the distance-ordered
  top-k candidate merge for spanning requests;
* :mod:`repro.shard.worker` — the worker process: the pipe protocol as
  one ``kind -> handler`` table over a plain engine + warm
  :class:`~repro.service.service.QueryService` per category subset, with
  on-demand category faulting and the update-broadcast contract;
* :mod:`repro.shard.service` — :class:`ShardedQueryService`: worker
  lifecycle (one ``_spawn``, one ``_reap``), synchronous per-shard
  transport, one ``_fan_out`` for spanning queries and broadcasts,
  epoch-synchronized updates with retry / respawn recovery.

The invariant the whole package defends: sharding is *observably
transparent* — results and ``QueryStats`` counters stay bit-identical to
an unsharded cold engine (``tests/test_sharded.py``); only wall time and
the process count change.
"""

from repro.shard.router import CategoryShardRouter, merge_topk_results
from repro.shard.service import ShardedQueryService

__all__ = ["CategoryShardRouter", "ShardedQueryService",
           "merge_topk_results"]
