"""The standalone S1 shard-worker daemon.

Runs one storage shard of a distributed S1 as its own process (or
host)::

    PYTHONPATH=src python -m repro.server.shard_service \\
        --listen tcp://127.0.0.1:9412 [--state-dir /var/lib/repro-shard]

Where :mod:`repro.server.s2_service` is the crypto cloud, this daemon is
a *storage* worker: it holds contiguous row slices of encrypted
relations — ciphertext rows only, never key material — and serves the
per-window depth batches of the sharded scan
(:mod:`repro.server.sharding`).  The conversation, over the same
length-prefixed frame protocol and the same daemon core
(:mod:`repro.server.frame_service`):

1. **HELLO** — strict ``repro-shard/1`` banner check, once per
   connection (shard daemons are not S2 daemons; a client dialing the
   wrong port fails immediately with a clear error).
2. **SLICE/SLICED** — slice registration, keyed ``(relation_id,
   shard_id)``: rows ``[lo, hi)`` of every list of the relation, shipped
   once per id and shared daemon-wide.  Idempotent — racing uploads of
   the same slice install once.  With ``--state-dir`` each slice spills
   atomically to ``<state_dir>/<relation_id>.<shard_id>.slice`` and is
   reloaded on restart, so a bounced worker serves its slices without
   any re-upload.
3. **REQUEST/REPLY** — one :class:`~repro.net.messages.ShardBatch` per
   frame: the weighted ``(depth, items)`` pairs of one check window.
   The token's scalar weights are applied *here* (the per-item modexp
   work the placement distributes) and memoized per ``(names, weights)``,
   so repeated windows of one query weight each row once — exactly the
   once-per-query cost of a local shard worker.  An id the daemon does
   not hold answers ``unknown-relation`` and the client uploads + retries.
4. **MUTATE/MUTATED** — touched-prefix delta-sync after a client-side
   relation mutation: only the re-encrypted prefix rows ship (see
   :func:`repro.server.mutations.mutation_delta`); suffix rows are
   re-used from the predecessor's slices already on this daemon, shifted
   by the mutation's row delta.  A slice whose new bounds cannot be
   filled from local rows is dropped instead of re-keyed — the client
   lazily re-uploads it on the next window — so the daemon never serves
   rows of the wrong version.

Requests are dispatched on a small thread pool, so concurrent shard
workers mapped to one daemon (round-robin placement) interleave instead
of serializing.  A dropped connection never tears down slices — they are
daemon-wide state, like S2 registrations.

Security note: slices hold only what S1 holds anyway (EHLs and
ciphertexts under the owner's keys — Theorem 6.1's view), so a shard
daemon learns nothing an unsharded S1 would not.  The state dir spills
that same ciphertext material.
"""

from __future__ import annotations

import contextlib
import functools
import pickle
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from repro.net.socket_transport import (
    MUTATE,
    MUTATED,
    REPLY,
    REQUEST,
    SHARD_BANNER,
    SLICE,
    SLICED,
    UNKNOWN_RELATION,
)
from repro.net.wire import WireCodec
from repro.server import frame_service
from repro.server.frame_service import Connection, FrameService
from repro.server.sharding import ShardPlan
from repro.structures.items import weight_entries

#: Request-dispatch threads per daemon: enough to keep round-robin
#: placements with several shards per daemon overlapping.
_DISPATCH_WORKERS = 8

#: Weighted-slice memo entries kept per daemon (one per live
#: ``(relation_id, shard_id, names, weights)`` — i.e. per query shape).
_WEIGHTED_CACHE_MAX = 16


def _valid_slice(stem: str, blob) -> bool:
    relation_id, _, shard_id = stem.rpartition(".")
    return (
        isinstance(blob, dict)
        and blob.get("relation_id") == relation_id
        and str(blob.get("shard_id")) == shard_id
        and isinstance(blob.get("lists"), dict)
    )


def _spill_name(key: tuple[str, int]) -> str:
    return f"{key[0]}.{int(key[1])}.slice"


class ShardService(FrameService):
    """The shard-worker daemon: slice store and batch serving on the
    shared :class:`~repro.server.frame_service.FrameService` core.

    Parameters
    ----------
    listen:
        ``tcp://host:port`` (port 0 picks a free one) or
        ``unix:///path`` (a stale socket file is replaced).
    state_dir:
        When set, every slice registration spills atomically to
        ``<state_dir>/<relation_id>.<shard_id>.slice`` and reloads on
        :meth:`start` — a restarted worker serves its slices without
        client re-uploads.  Holds ciphertext rows (S1's view).
    metrics_port:
        When set, serve ``/metrics`` and ``/healthz`` there (see
        :class:`~repro.server.frame_service.FrameService`).
    """

    name = "shard"

    def __init__(
        self,
        listen: str = "tcp://127.0.0.1:0",
        state_dir: str | None = None,
        metrics_port: int | None = None,
    ):
        super().__init__(listen, (SHARD_BANNER,), state_dir, metrics_port)
        #: (relation_id, shard_id) -> {lo, hi, n_shards, lists}
        self._slices: dict[tuple[str, int], dict] = {}
        #: (relation_id, shard_id, names, weights) -> [weighted rows per name]
        self._weighted: OrderedDict[tuple, list] = OrderedDict()
        self._executor = ThreadPoolExecutor(
            max_workers=_DISPATCH_WORKERS, thread_name_prefix="shard-dispatch"
        )
        self.handlers = {
            SLICE: self._on_slice,
            REQUEST: self._on_request,
            MUTATE: self._on_mutate,
        }
        self._gauge("slices", "Slices currently registered.")
        self._counter(
            "slice_uploads", "SLICE frames received (including idempotent repeats)."
        )
        self._counter("slice_bytes", "Bytes of SLICE payload received.")
        self._counter("slices_restored", "Slices reloaded from the state dir at boot.")
        self._counter(
            "slices_rekeyed",
            "Slices delta-synced to a successor relation id by MUTATE.",
        )
        self._counter(
            "slices_dropped",
            "Slices dropped by MUTATE (unfillable rebuild or drop-only).",
        )
        self._counter("batches", "Depth-batch requests served.")
        self._counter("batch_depths", "Depths served across all batch replies.")

    def start(self) -> str:
        """Bind, listen, and start accepting; returns the bound address
        (spilled slices are reloaded first)."""
        for blob in self.restore(".slice", _valid_slice):
            self._install_slice(blob, None)
        return super().start()

    def _release(self) -> None:
        self._executor.shutdown(wait=True)

    # -- frame handlers --------------------------------------------------

    def _on_slice(self, conn: Connection, session_id: int, payload: bytes) -> None:
        self._install_slice(pickle.loads(payload), payload)
        conn.send(SLICED, session_id)

    def _on_request(self, conn: Connection, session_id: int, payload: bytes) -> None:
        # Window requests carry the modexp work; run them on the
        # dispatch pool so shards mapped to one daemon overlap.
        self._executor.submit(
            self.run_handler, self._serve_batch, conn, session_id, payload
        )

    def _serve_batch(self, conn: Connection, session_id: int, payload: bytes) -> None:
        (msg,) = WireCodec().decode_envelope(payload)
        batch = self._depth_batch(msg)
        if batch is None:
            conn.send_error(
                session_id, UNKNOWN_RELATION, f"{msg.relation_id}/{msg.shard_id}"
            )
            return
        conn.send(REPLY, session_id, WireCodec().encode_replies([batch]))

    def _on_mutate(self, conn: Connection, session_id: int, payload: bytes) -> None:
        summary = self._mutate(pickle.loads(payload))
        conn.send(
            MUTATED, session_id, pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL)
        )

    # -- slice registry ---------------------------------------------------

    def _install_slice(self, blob: dict, payload: bytes | None) -> None:
        """Install one slice registration (idempotent).

        ``payload`` is the raw SLICE frame body (``None`` when restoring
        from disk) — persisted verbatim so a restart replays exactly
        what the client uploaded.
        """
        key = (str(blob["relation_id"]), int(blob["shard_id"]))
        persist = False
        with self._lock:
            if payload is not None:
                self._counters["slice_uploads"].inc()
                self._counters["slice_bytes"].inc(len(payload))
            if key not in self._slices:
                self._slices[key] = {
                    "lo": int(blob["lo"]),
                    "hi": int(blob["hi"]),
                    "n_shards": int(blob["n_shards"]),
                    "lists": blob["lists"],
                }
                self._counters["slices"].inc()
                if payload is None:
                    self._counters["slices_restored"].inc()
                else:
                    persist = self.state_dir is not None
        if persist:
            self.spill(_spill_name(key), payload)

    def _depth_batch(self, msg) -> list | None:
        """The weighted ``(depth, items)`` pairs of one window request;
        ``None`` when the slice is not registered here."""
        key = (msg.relation_id, msg.shard_id)
        memo_key = (msg.relation_id, msg.shard_id, msg.names, msg.weights)
        with self._lock:
            held = self._slices.get(key)
            if held is None:
                return None
            weighted = self._weighted.get(memo_key)
            if weighted is not None:
                self._weighted.move_to_end(memo_key)
            lo_bound, hi_bound = held["lo"], held["hi"]
            if weighted is None:
                raw = [held["lists"][name] for name in msg.names]
        if weighted is None:
            # The modexp work, outside the lock: weight this slice's
            # rows of the queried lists once per (names, weights) shape.
            # Same construction as the local worker (weight_entries), so
            # the items are value-identical — parity does not depend on
            # where the weighting ran.
            weighted = [
                weight_entries(entries, weight)
                for entries, weight in zip(raw, msg.weights)
            ]
            with self._lock:
                self._weighted[memo_key] = weighted
                self._weighted.move_to_end(memo_key)
                while len(self._weighted) > _WEIGHTED_CACHE_MAX:
                    self._weighted.popitem(last=False)
        lo = max(msg.lo, lo_bound)
        hi = min(msg.hi, hi_bound)
        batch = [
            (depth, [entries[depth - lo_bound] for entries in weighted])
            for depth in range(lo, hi)
        ]
        with self._lock:
            self._counters["batches"].inc()
            self._counters["batch_depths"].inc(len(batch))
        return batch

    # -- mutation delta-sync ----------------------------------------------

    def _mutate(self, delta: dict) -> dict:
        """Re-key this daemon's slices of one relation after a mutation.

        ``delta`` is the payload :func:`repro.server.mutations.mutation_delta`
        builds: the successor id, the row-index ``shift``, the new row
        count and the re-encrypted prefix rows per list.  Every held
        slice of the old id is rebuilt against the successor's shard
        plan: prefix depths come from the shipped rows, suffix depths
        from the predecessor rows already here (sourced from *any* held
        slice of the old id — bounds move when rows are inserted or
        deleted).  A slice that cannot be filled locally is dropped —
        never re-keyed stale — and lazily re-uploaded by the client.
        ``prefixes=None`` is drop-only (wholesale re-encryptions such as
        windowed watches ship no deltas).  Idempotent: an unknown old id
        is a no-op.
        """
        old_id = str(delta["old_id"])
        new_id = delta.get("new_id")
        prefixes = delta.get("prefixes")
        rekeyed = dropped = 0
        with self._lock:
            held = {
                key: self._slices[key]
                for key in list(self._slices)
                if key[0] == old_id
            }
        if not held:
            return {"rekeyed": 0, "dropped": 0}
        new_slices: dict[tuple[str, int], dict] = {}
        if prefixes is not None and new_id:
            shift = int(delta["shift"])
            new_n_rows = int(delta["new_n_rows"])
            old_rows = list(held.values())
            for (_, shard_id), sl in held.items():
                rebuilt = self._rebuild_slice(
                    sl, shard_id, shift, new_n_rows, prefixes, old_rows
                )
                if rebuilt is None:
                    dropped += 1
                else:
                    new_slices[(str(new_id), shard_id)] = rebuilt
                    rekeyed += 1
        else:
            dropped = len(held)
        with self._lock:
            for key in held:
                if self._slices.pop(key, None) is not None:
                    self._counters["slices"].dec()
            for key, sl in new_slices.items():
                if key not in self._slices:
                    self._slices[key] = sl
                    self._counters["slices"].inc()
            self._counters["slices_rekeyed"].inc(rekeyed)
            self._counters["slices_dropped"].inc(dropped)
            # Weighted memos alias the old rows; every entry of either id
            # is stale now.
            for memo_key in list(self._weighted):
                if memo_key[0] in (old_id, new_id):
                    del self._weighted[memo_key]
        if self.state_dir is not None:
            for key in held:
                self.unspill(_spill_name(key))
            for key, sl in new_slices.items():
                with contextlib.suppress(Exception):
                    self.spill(
                        _spill_name(key),
                        pickle.dumps(
                            {
                                "relation_id": key[0],
                                "shard_id": key[1],
                                "n_shards": sl["n_shards"],
                                "lo": sl["lo"],
                                "hi": sl["hi"],
                                "lists": sl["lists"],
                            },
                            protocol=pickle.HIGHEST_PROTOCOL,
                        ),
                    )
        return {"rekeyed": rekeyed, "dropped": dropped}

    @staticmethod
    def _rebuild_slice(
        sl: dict,
        shard_id: int,
        shift: int,
        new_n_rows: int,
        prefixes: dict,
        old_rows: list,
    ) -> dict | None:
        """One slice's successor under the new shard plan, or ``None``
        when a needed row is on no slice this daemon holds."""
        plan = ShardPlan.for_scan(new_n_rows, sl["n_shards"])
        if shard_id >= plan.n_shards:
            return None
        new_lo, new_hi = plan.bounds[shard_id]
        lists: dict = {}
        for name in sl["lists"]:
            prefix = prefixes.get(name, ())
            rows = []
            for depth in range(new_lo, new_hi):
                if depth < len(prefix):
                    rows.append(prefix[depth])
                    continue
                old_index = depth - shift
                source = next(
                    (
                        other
                        for other in old_rows
                        if other["lo"] <= old_index < other["hi"]
                    ),
                    None,
                )
                if source is None:
                    return None
                rows.append(source["lists"][name][old_index - source["lo"]])
            lists[name] = rows
        return {
            "lo": new_lo,
            "hi": new_hi,
            "n_shards": sl["n_shards"],
            "lists": lists,
        }


#: Start this daemon as a separate OS process; returns (process, address)
#: — :func:`repro.server.frame_service.launch_daemon` bound to this module.
launch_daemon = functools.partial(
    frame_service.launch_daemon, "repro.server.shard_service"
)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.server.shard_service``."""
    frame_service.daemon_main(ShardService, argv)


if __name__ == "__main__":
    main()
