"""One differential harness for the transcript invariant.

The invariant: a query's transcript — the revealed winners, the halting
depth, rounds, bytes in each direction and the *ordered* leakage
sequence — is the same on every engine, transport, backend, cache,
execution mode, shard count and mutation history, and its winners are
what plaintext NRA (Fagin, Lotem and Naor) returns.

Hypothesis draws one case (relation, mutation history, two queries, a
config and one value per serving axis) and ``differential.run_case``
runs it on the drawn path and on the **reference path** — an
identically seeded scheme, in process, queried sequentially at the same
request ids with ``cache=False`` and no shards, over a relation rebuilt
from ``MutableRelation.snapshot()`` at the final version when a history
was drawn.  Fresh answers must match the reference's transcript
exactly; cache hits have their own shape (zero rounds and bytes, one
``query_pattern`` event, the source's depth — 0 for a ``k' < k``
prefix slice); every answer must pass the plaintext oracle.

The stress leg races submitters against a mutator with the cache on and
checks every answer against a version the relation held while the job
was live.
"""

from __future__ import annotations

import faulthandler
import os
import socket as socket_module
import sys
import threading
import time

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="the differential harness needs the 'test' extra (hypothesis)"
)

from differential import SEED, check_oracle, make_case, run_case  # noqa: E402
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from repro.core.params import SystemParams  # noqa: E402
from repro.core.results import QueryConfig  # noqa: E402
from repro.core.scheme import SecTopK  # noqa: E402
from repro.crypto import backend  # noqa: E402
from repro.server import MutableRelation, TopKServer  # noqa: E402

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)

M = 3  # attributes per row

# Pinned here, not in a profile: no environment can draw fresh examples.
HARNESS = settings(
    max_examples=18,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

TRANSPORTS = ["inprocess", "tcp"]
if hasattr(socket_module, "AF_UNIX"):
    TRANSPORTS.append("unix")
if os.environ.get("REPRO_REMOTE_S2"):
    TRANSPORTS.append("remote")  # a daemon in its own OS process
BACKENDS = ["pure"] + (["gmp-kernel"] if backend.kernel_available() else [])
EXECUTIONS = ["query", "submit", "thread", "process"]
CACHES = ["off", "fresh", "exact", "prefix"]


# ---------------------------------------------------------------------------
# Cases.
# ---------------------------------------------------------------------------

_row = st.lists(st.integers(0, 20), min_size=M, max_size=M)


@st.composite
def cases(draw):
    config = dict(
        engine=draw(st.sampled_from(["eager", "literal"])),
        variant=draw(st.sampled_from(["elim", "full", "batch"])),
        halting=draw(st.sampled_from(["strict", "paper"])),
    )
    if config["variant"] == "batch":
        config["batch_p"] = draw(st.integers(2, 3))
    if draw(st.booleans()):
        config.update(compare_method="dgk", sort_method="network", max_depth=3)
    attrs = draw(
        st.lists(
            st.sets(st.integers(0, M - 1), min_size=1).map(sorted),
            min_size=2, max_size=2, unique_by=tuple,
        )
    )
    # The first query's k may be n, or n + 1 (which must raise).
    ks = [draw(st.sampled_from([1, 2, "n", "over"])), draw(st.integers(1, 2))]
    weights = [
        draw(st.none() | st.lists(st.integers(1, 3), min_size=len(a), max_size=len(a)))
        for a in attrs
    ]
    return dict(
        rows=draw(st.lists(_row, min_size=3, max_size=6)),
        history=draw(st.lists(st.one_of(
            st.tuples(st.just("insert"), _row),
            st.tuples(st.sampled_from(["update", "delete"]), st.integers(0, 97)),
        ), max_size=3)),
        queries=list(zip(attrs, ks, weights)),
        config=QueryConfig(**config),
        shards=draw(st.sampled_from([0, 2, 3])),
        transport=draw(st.sampled_from(TRANSPORTS)),
        backend=draw(st.sampled_from(BACKENDS)),
        cache=draw(st.sampled_from(CACHES)),
        execution=draw(st.sampled_from(EXECUTIONS)),
    )


# Pinned cases, run before the drawn ones: the paths the documented
# traps live on (a prefix hit re-run in a worker process, every message
# type over a socket, k > n on a submitted batch).
@example(case=make_case(
    [[4, 9, 1], [7, 2, 5], [3, 3, 8], [9, 1, 1], [2, 6, 6]],
    [([0, 1, 2], 2, None), ([0, 2], 2, [2, 1])], QueryConfig(),
    history=[("insert", [8, 8, 0]), ("update", 1), ("delete", 3)], shards=2,
    transport=TRANSPORTS[-1], backend=BACKENDS[-1], cache="prefix", execution="process",
))
@example(case=make_case(
    [[5, 1, 0], [3, 3, 3], [1, 9, 2], [2, 2, 7]],
    [([0, 1, 2], "n", None), ([1], 1, None)],
    QueryConfig(variant="full", engine="literal", compare_method="dgk",
                sort_method="network", max_depth=3),
    history=[], shards=3, transport="tcp", backend=BACKENDS[0], cache="exact",
    execution="thread",
))
@example(case=make_case(
    [[6, 1, 4], [6, 5, 0], [2, 2, 9]], [([0, 1], "over", None), ([1, 2], 2, [3, 1])],
    QueryConfig(variant="batch", batch_p=2, halting="paper"),
    history=[("insert", [9, 9, 9])], shards=0, transport="inprocess",
    backend=BACKENDS[0], cache="off", execution="submit",
))
@given(case=cases())
@HARNESS
def test_every_path_matches_the_reference(case, tcp_daemon, unix_daemon):
    run_case(case, {"tcp": tcp_daemon, "unix": unix_daemon})


# ---------------------------------------------------------------------------
# Stress: racing submitters, a mutator and the cache.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("transport", ["inprocess", "tcp"])
def test_racing_submitters_and_mutator(transport, request):
    """Three submitters and one mutator share a cached server.  Every
    answer passes the oracle of a version the relation held while its
    job was live, the final state is the plaintext mirror, and
    ``close()`` leaves no serving thread alive."""
    if transport == "tcp":
        transport = request.getfixturevalue("tcp_daemon")
    rows = [[(5 * i + 3 * j) % 17 for j in range(M)] for i in range(6)]
    scheme = SecTopK(SystemParams.tiny(), seed=SEED)
    mutable = MutableRelation(scheme, rows)
    mirrors = {0: dict(enumerate(rows))}  # version -> plaintext rows by id
    queries = [([0, 1, 2], 2), ([0, 1], 2), ([1, 2], 1)]
    tokens = [scheme.token(attrs, k) for attrs, k in queries]
    answers, errors = [], []
    before = set(threading.enumerate())

    def submitter(server, offset):
        try:
            for j in range(6):
                q = (offset + j) % len(queries)
                low = server.version
                result = server.submit(tokens[q]).result(timeout=60)
                answers.append((q, low, server.version, result))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    def mutator(server):
        mirror = dict(mirrors[0])
        try:
            for i in range(6):
                if i % 3 == 0:
                    row = [(13 * i + 4 * j) % 23 for j in range(M)]
                    mirror[server.insert(row).object_id] = row
                elif i % 3 == 1:
                    row = [(11 * i + j) % 19 for j in range(M)]
                    server.update(max(mirror), row)
                    mirror[max(mirror)] = row
                else:
                    server.delete(min(mirror))
                    del mirror[min(mirror)]
                mirrors[server.version] = dict(mirror)
                time.sleep(0.01)  # spread the mutations across the queries
        except Exception as exc:  # surfaced below
            errors.append(exc)

    def passes(q, version, result) -> bool:
        attrs, k = queries[q]
        try:
            check_oracle(mirrors[version], attrs, None, k, scheme.reveal(result),
                         result.halting_depth, QueryConfig())
        except AssertionError:
            return False
        return True

    faulthandler.dump_traceback_later(60, exit=True)  # a deadlock dumps, then fails
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with TopKServer(scheme, mutable, transport=transport) as server:
            threads = [threading.Thread(target=submitter, args=(server, i)) for i in range(3)]
            threads.append(threading.Thread(target=mutator, args=(server,)))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            final = server.query(tokens[0])
    finally:
        sys.setswitchinterval(interval)
        faulthandler.cancel_dump_traceback_later()

    assert len(answers) == 18
    for q, low, high, result in answers:
        assert any(passes(q, v, result) for v in range(low, high + 1)), (
            q, low, high, scheme.reveal(result)
        )
    rows, oids = mutable.snapshot()
    assert mutable.version == 6 and dict(zip(oids, rows)) == mirrors[6]
    assert passes(0, 6, final)
    assert not [
        t for t in threading.enumerate()
        if t not in before and t.name.startswith(("topk-scheduler-", "topk-watch-"))
    ]
