"""repro — reproduction of Meng, Zhu & Kollios, *Top-k Query Processing on
Encrypted Databases with Strong Security Guarantees* (ICDE 2018).

The package implements the complete system described in the paper:

* a from-scratch cryptographic substrate (Paillier, Damgård–Jurik, HMAC
  PRFs, pseudo-random permutations) in :mod:`repro.crypto`;
* the encrypted hash list structures EHL / EHL+ in :mod:`repro.structures`;
* the two-cloud secure sub-protocols (``RecoverEnc``, ``EncCompare``,
  ``EncSort``, ``SecWorst``, ``SecBest``, ``SecDedup``, ``SecDupElim``,
  ``SecUpdate``, ``SecFilter``, ``SecJoin``) in :mod:`repro.protocols`;
* the plaintext No-Random-Access algorithm and baselines in
  :mod:`repro.nra`;
* the top-level ``SecTopK = (Enc, Token, SecQuery)`` scheme in
  :mod:`repro.core`;
* the serving layer in :mod:`repro.server`: :func:`connect` returns a
  :class:`~repro.server.TopKServer` that mints tokens, runs queries as
  asynchronous :class:`QueryJob` handles with streaming progress events
  and reveals results, against an in-process S2 or the deployable S2
  daemon;
* the secure top-k join operator of Section 12 in :mod:`repro.join`;
* the secure-kNN comparator of Section 11.3 in :mod:`repro.baselines`;
* dataset generators mirroring the paper's evaluation data in
  :mod:`repro.data`;
* the experiment harness regenerating every table and figure in
  :mod:`repro.bench`.

Quickstart
----------

>>> import repro
>>> from repro.data import gaussian_relation
>>> relation = gaussian_relation(n_objects=40, n_attributes=4, seed=7)
>>> scheme = repro.SecTopK(repro.SystemParams.insecure_demo())
>>> encrypted = scheme.encrypt(relation.rows)
>>> with repro.connect(scheme, encrypted) as server:
...     job = server.submit(server.token([0, 1, 2], k=3))
...     result = job.result()
>>> len(scheme.reveal(result))
3
"""

from repro._version import __version__
from repro.exceptions import (
    ReproError,
    JobCancelled,
    JobError,
    JobTimeout,
    KeyMismatchError,
    EncodingRangeError,
    MutationError,
    PeerDisconnected,
    ProtocolError,
    QueryError,
    RemoteS2Error,
    StaleRelationError,
    TransportError,
)

#: Curated public surface, entry point first: ``repro.connect`` returns
#: the serving object; the scheme types follow for the data-owner role;
#: the exception hierarchy closes the list.
__all__ = [
    # entry point and job handles
    "connect",
    "QueryJob",
    "WatchJob",
    "JobStatus",
    # mutations and streaming
    "MutableRelation",
    "MutationResult",
    "TopKChanged",
    # data-owner scheme and query types
    "SecTopK",
    "SystemParams",
    "Token",
    "QueryConfig",
    "QueryResult",
    "QueryStats",
    "ShardStats",
    # metadata
    "__version__",
    # exceptions
    "ReproError",
    "JobError",
    "JobCancelled",
    "JobTimeout",
    "KeyMismatchError",
    "EncodingRangeError",
    "MutationError",
    "PeerDisconnected",
    "ProtocolError",
    "QueryError",
    "RemoteS2Error",
    "StaleRelationError",
    "TransportError",
]

_LAZY = {
    "connect": ("repro.server.topk_server", "connect"),
    "QueryJob": ("repro.server.jobs", "QueryJob"),
    "WatchJob": ("repro.server.jobs", "WatchJob"),
    "JobStatus": ("repro.server.jobs", "JobStatus"),
    "MutableRelation": ("repro.server.mutations", "MutableRelation"),
    "MutationResult": ("repro.server.mutations", "MutationResult"),
    "TopKChanged": ("repro.events", "TopKChanged"),
    "SecTopK": ("repro.core.scheme", "SecTopK"),
    "SystemParams": ("repro.core.params", "SystemParams"),
    "Token": ("repro.core.token", "Token"),
    "QueryConfig": ("repro.core.results", "QueryConfig"),
    "QueryResult": ("repro.core.results", "QueryResult"),
    "QueryStats": ("repro.core.results", "QueryStats"),
    "ShardStats": ("repro.core.results", "ShardStats"),
}


def __getattr__(name):
    """Lazily resolve the heavyweight top-level exports.

    Keeps ``import repro`` cheap and avoids import cycles between the
    sub-packages during interpreter start-up.
    """
    if name in _LAZY:
        import importlib

        module_name, attr = _LAZY[name]
        value = getattr(importlib.import_module(module_name), attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
