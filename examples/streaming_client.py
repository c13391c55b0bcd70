#!/usr/bin/env python3
"""The job API of ``repro.connect``, live against a remote S2 daemon.

Launches the standalone S2 service as a separate OS process, connects
with :func:`repro.connect`, and demonstrates the whole job surface:

* ``submit`` — queries become asynchronous :class:`~repro.server.jobs.QueryJob`\\ s;
* ``events()`` — typed progress streaming (depths scanned, round/byte
  counters, finalized winners) while the query runs;
* overlapped jobs — a second query pipelined behind the first;
* ``result().stats`` — the uniform :class:`~repro.core.results.QueryStats`
  cost block;
* parity — the remote submit path is bit-identical to an in-process
  ``query``.

Run:  PYTHONPATH=src python examples/streaming_client.py
"""

from __future__ import annotations

import repro
from repro import QueryConfig
from repro.data import gaussian_relation
from repro.events import CandidateFinalized, DepthAdvanced, RoundTrip
from repro.net.socket_transport import disconnect_all
from repro.server.s2_service import launch_daemon


def main() -> None:
    # -- Data owner: keys + encrypted relation --------------------------
    relation = gaussian_relation(n_objects=20, n_attributes=3, seed=7)
    scheme = repro.SecTopK(repro.SystemParams.insecure_demo(), seed=2024)
    encrypted = scheme.encrypt(relation.rows)
    config = QueryConfig(variant="elim", engine="eager")

    # -- Reference: the same job in-process ------------------------------
    with repro.connect(scheme, encrypted) as server:
        local = server.query(server.token([0, 1, 2], k=3), config)
    print(f"in-process: top-3 {scheme.reveal(local)}, "
          f"{local.stats.rounds} rounds, {local.stats.total_bytes / 1000:.1f} KB")

    # -- Deployment: S2 in a separate OS process -------------------------
    daemon, address = launch_daemon()
    print(f"S2 daemon up at {address} (pid {daemon.pid})")
    try:
        with repro.connect(scheme, encrypted, address) as server:
            job = server.submit(server.token([0, 1, 2], k=3), config)
            # A second job, running alongside the first on the server's pool.
            tail = server.submit(server.token([0, 1], k=2), config)

            for event in job.events():
                if isinstance(event, DepthAdvanced):
                    print(f"  depth {event.depth:2d} scanned, "
                          f"{event.candidates} candidates in T")
                elif isinstance(event, CandidateFinalized):
                    print(f"  winner #{event.rank} finalized at depth {event.depth}")
            remote = job.result(timeout=120)
            rounds = [e for e in job.events() if isinstance(e, RoundTrip)]
            print(f"remote:     top-3 {scheme.reveal(remote)}, "
                  f"{remote.stats.rounds} rounds "
                  f"({len(rounds)} streamed), "
                  f"{remote.stats.total_bytes / 1000:.1f} KB, "
                  f"leakage events: {len(remote.stats.leakage)}")
            print(f"pipelined second job: top-2 {scheme.reveal(tail.result(timeout=120))}")

        assert scheme.reveal(remote) == scheme.reveal(local), "remote job diverged!"
        assert remote.stats.rounds == local.stats.rounds
        assert remote.stats.total_bytes == local.stats.total_bytes
        # The two jobs draw distinct randomness streams (one scheme, two
        # servers), so permutation-dependent leakage *payloads* differ by
        # design; the declared profile — which server observed what, in
        # which protocol — must match event for event.  (The test suite
        # pins full bit-identity across identically-seeded deployments.)
        assert [t[:3] for t in remote.stats.leakage] == [
            t[:3] for t in local.stats.leakage
        ]
        print("submit-over-TCP matches the in-process run "
              "(results, rounds, bytes, leakage profile)")
    finally:
        disconnect_all()
        daemon.terminate()
        daemon.wait(timeout=10)


if __name__ == "__main__":
    main()
