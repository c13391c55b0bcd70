#!/usr/bin/env python3
"""Mutable encrypted relations + continuous top-k, end to end.

Demonstrates the PR-9 mutation subsystem:

* :class:`repro.MutableRelation` — encrypted insert / update / delete
  with incremental sorted-list maintenance (only touched prefixes are
  re-encrypted; the ``mutation_pattern`` leakage is declared per op);
* version bumps folding into ``relation_id()`` so the result cache
  misses instead of aliasing;
* ``server.watch`` — a long-lived job that re-evaluates after every
  mutation and streams :class:`repro.TopKChanged` exactly when the
  revealed winners change, including the sliding-insert ``window`` mode;
* the same churn driven over a real S2 daemon in a separate OS process
  (it holds the key, registered once: mutations never contact it).

Run:  PYTHONPATH=src python examples/streaming_topk.py
"""

from __future__ import annotations

import time

import repro
from repro.net.socket_transport import disconnect_all
from repro.server.s2_service import launch_daemon


def _settled(watch, count: int, timeout: float = 60.0) -> None:
    """Block until the watch has evaluated ``count`` times.

    Rapid-fire mutations coalesce into one evaluation (the runner wakes
    once for everything that happened while it was busy); pacing the
    churn keeps the demo's evaluation count deterministic.
    """
    deadline = time.monotonic() + timeout
    while watch.evaluations < count:
        assert time.monotonic() < deadline, "watch fell behind"
        time.sleep(0.01)


def mutate_and_watch(address: str | None = None) -> list[tuple[int, int]]:
    scheme = repro.SecTopK(repro.SystemParams.tiny(), seed=424242)
    rows = [[5, 2], [3, 9], [8, 1], [6, 6]]          # aggregates 7 12 9 12
    mutable = repro.MutableRelation(scheme, rows)

    target = address or "inprocess"
    with repro.connect(scheme, mutable, target) as server:
        token = server.token([0, 1], k=2)
        baseline = server.query(token)
        print(f"  [{target}] v{server.version} top-2: "
              f"{server.reveal(baseline)}")

        # A continuous watch: evaluates now, then after every mutation.
        watch = server.watch(token)
        _settled(watch, 1)

        res = server.insert([9, 9])                  # new champion (18)
        print(f"  [{target}] insert -> oid {res.object_id}, v{res.version}, "
              f"touched prefixes {res.touched}")
        _settled(watch, 2)
        server.update(res.object_id, [0, 0])         # demote it again
        _settled(watch, 3)
        server.delete(res.object_id)                 # and remove it
        _settled(watch, 4)

        watch.stop()
        summary = watch.summary(timeout=60)
        for event in watch.changes():
            print(f"  [{target}] TopKChanged @v{event.version}: "
                  f"{event.top_k}")
        # Three mutations + the initial evaluation (which announces the
        # baseline as the first change).  The update restored the
        # original winners, so the delete evaluated silently.
        assert summary.evaluations == 4, summary
        assert summary.changes == 3, summary
        assert server.version == 3

        # Compared as sorted pairs: the two winners tie at 12, and EncSort
        # keeps S1's random permutation among equal scores.
        final = sorted(server.reveal(server.query(token)))
        assert final == sorted(server.reveal(baseline))
        print(f"  [{target}] watch summary: {summary.evaluations} evaluations, "
              f"{summary.changes} changes; winners restored")
        return final


def sliding_window(n_events: int = 4) -> None:
    """The streaming mode: top-k over the last-N inserted rows."""
    scheme = repro.SecTopK(repro.SystemParams.tiny(), seed=7)
    mutable = repro.MutableRelation(scheme, [[1, 1], [2, 2]])
    with repro.connect(scheme, mutable) as server:
        watch = server.watch(server.token([0, 1], k=1), window=2)
        _settled(watch, 1)
        for step, value in enumerate(range(3, 3 + n_events), start=2):
            server.insert([value * 3 % 11, value * 5 % 11])
            _settled(watch, step)
        watch.stop()
        summary = watch.summary(timeout=60)
        assert summary.evaluations == n_events + 1, summary
        print(f"  [window=2] {summary.evaluations} evaluations over the "
              f"insert stream; final window winner {summary.last_top_k}")


def main() -> None:
    print("-- in-process churn + watch --")
    local = mutate_and_watch()

    print("-- sliding insert window --")
    sliding_window()

    print("-- the same churn over a TCP daemon --")
    daemon, address = launch_daemon()
    print(f"  S2 daemon up at {address} (pid {daemon.pid})")
    try:
        remote = mutate_and_watch(address)
    finally:
        disconnect_all()
        daemon.terminate()
        daemon.wait(timeout=10)

    assert remote == local, "daemon-backed churn diverged from in-process!"
    print("remote churn matches in-process (same winners at every step)")


if __name__ == "__main__":
    main()
