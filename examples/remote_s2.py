#!/usr/bin/env python3
"""Remote two-cloud deployment: query a standalone S2 daemon over TCP.

Launches the S2 service (``python -m repro.server.s2_service``) as a
separate OS process — the paper's crypto cloud on its own host — then
runs the quickstart workload against it through a
:class:`~repro.server.TopKServer` and checks the remote run is
bit-identical to the in-process one: same winners, same halting depth,
same round and byte counts.  A second query demonstrates the key
registration: the daemon already holds the key material, so nothing but
the tiny session handshake crosses the wire before the protocol rounds.

Run:  PYTHONPATH=src python examples/remote_s2.py
"""

from __future__ import annotations

from repro import SecTopK, SystemParams
from repro.core.results import QueryConfig
from repro.data import gaussian_relation
from repro.net.socket_transport import disconnect_all
from repro.server import TopKServer
from repro.server.s2_service import launch_daemon


def main() -> None:
    # -- Data owner: keys + encrypted relation --------------------------
    relation = gaussian_relation(n_objects=20, n_attributes=3, seed=7)
    scheme = SecTopK(SystemParams.insecure_demo(), seed=2024)
    encrypted = scheme.encrypt(relation.rows)
    token = scheme.token(attributes=[0, 1, 2], k=3)
    config = QueryConfig(variant="elim", engine="eager")

    # -- Reference: both clouds in this process --------------------------
    with TopKServer(scheme, encrypted) as server:
        local = server.execute(token, config)
    local_winners = scheme.reveal(local)
    print(f"in-process: top-3 {local_winners}, "
          f"{local.channel_stats.rounds} rounds, "
          f"{local.channel_stats.total_bytes / 1000:.1f} KB")

    # -- Deployment: S2 in a separate OS process -------------------------
    daemon, address = launch_daemon()
    print(f"S2 daemon up at {address} (pid {daemon.pid})")
    try:
        with TopKServer(scheme, encrypted, transport=address) as server:
            remote = server.execute(token, config)
            # Second query: the relation is registered, the daemon keeps
            # the key material — only protocol rounds cross the wire.
            again = server.execute(scheme.token(attributes=[0, 1], k=2), config)
        remote_winners = scheme.reveal(remote)
        print(f"remote:     top-3 {remote_winners}, "
              f"{remote.channel_stats.rounds} rounds, "
              f"{remote.channel_stats.total_bytes / 1000:.1f} KB")
        print(f"second query on the registered relation: "
              f"top-2 {scheme.reveal(again)}")

        assert remote_winners == local_winners, "remote run diverged!"
        assert remote.halting_depth == local.halting_depth
        assert remote.channel_stats.rounds == local.channel_stats.rounds
        assert remote.channel_stats.total_bytes == local.channel_stats.total_bytes
        print("remote S2 is transport-equivalent: identical results, "
              "rounds, and bytes")
    finally:
        disconnect_all()
        daemon.terminate()
        daemon.wait(timeout=10)


if __name__ == "__main__":
    main()
