"""The multi-query server front-end (see ARCHITECTURE.md, layer 3).

:class:`~repro.server.topk_server.TopKServer` — what ``repro.connect``
returns — holds one encrypted relation, the scheme that mints its tokens
and reveals its results, and the S2 connection recipe, and runs
:class:`~repro.server.jobs.QueryJob`\\ s on a fixed thread pool
through one runner, against an in-process S2 or a standalone
:class:`~repro.server.s2_service.S2Service` daemon reached by socket
address (see ARCHITECTURE.md, deployment layer).
:mod:`repro.server.query_workers` owns where a job's body executes (the
job's pool thread, or a worker process bound to one relation id).

:mod:`repro.server.sharding` is what is left of S1 sharding: the
inline ``QueryConfig(shards=N)`` scan over contiguous depth slices,
transcript-identical to the plain scan and kept for the benchmark's
``server.shard2_overhead_ratio`` probe (see ARCHITECTURE.md, sharding).

The result cache (see ARCHITECTURE.md, "Result cache") lives here too:
:mod:`repro.server.query_cache` serves repeat queries with zero S2
rounds under the paper's L1 ``query_pattern`` leakage.

Every export below is resolved on first access, so importing this
package loads nothing.  ``python -m repro.server.s2_service`` runs this
file first; the daemon therefore holds S2's code only, never S1's
server, scheme or engine modules (and does not import itself twice,
once via this package and once as ``__main__``).
"""

_LAZY = {
    "CacheStats": "repro.server.query_cache",
    "JobStatus": "repro.server.jobs",
    "MutableRelation": "repro.server.mutations",
    "MutationResult": "repro.server.mutations",
    "QueryCache": "repro.server.query_cache",
    "QueryJob": "repro.server.jobs",
    "S2Service": "repro.server.s2_service",
    "ShardPlan": "repro.server.sharding",
    "TopKServer": "repro.server.topk_server",
    "WatchJob": "repro.server.jobs",
    "WatchSummary": "repro.server.jobs",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        value = getattr(importlib.import_module(_LAZY[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
