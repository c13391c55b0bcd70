"""The multi-query server front-end (see ARCHITECTURE.md, layer 3).

:class:`~repro.server.topk_server.TopKServer` holds one encrypted
relation plus the S2 connection recipe and runs
:class:`~repro.server.jobs.QueryJob`\\ s on a fixed thread pool —
submitted directly or through the :mod:`repro.client` façade — through
one runner, against an in-process S2 or a standalone
:class:`~repro.server.s2_service.S2Service` daemon reached by socket
address (see ARCHITECTURE.md, deployment layer).
:mod:`repro.server.query_workers` owns where a job's body executes (the
job's pool thread, or a worker process bound to one relation id).

:mod:`repro.server.sharding` is what is left of S1 sharding: the
inline ``QueryConfig(shards=N)`` scan over contiguous depth slices,
transcript-identical to the plain scan and kept for the benchmark's
``server.shard2_overhead_ratio`` probe (see ARCHITECTURE.md, sharding).

The reuse layer (see ARCHITECTURE.md, reuse layer) lives here too:
:mod:`repro.server.query_cache` serves repeat queries with zero S2
rounds under the paper's L1 ``query_pattern`` leakage.
"""

from repro.server.jobs import JobStatus, QueryJob, WatchJob, WatchSummary
from repro.server.mutations import MutableRelation, MutationResult
from repro.server.query_cache import CacheStats, QueryCache
from repro.server.sharding import ShardPlan
from repro.server.topk_server import TopKServer

__all__ = [
    "CacheStats",
    "JobStatus",
    "MutableRelation",
    "MutationResult",
    "QueryCache",
    "QueryJob",
    "S2Service",
    "ShardPlan",
    "TopKServer",
    "WatchJob",
    "WatchSummary",
]


def __getattr__(name: str):
    # Lazy so `python -m repro.server.s2_service` does not import the
    # daemon module twice (once via this package, once as __main__).
    if name == "S2Service":
        from repro.server.s2_service import S2Service

        return S2Service
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
