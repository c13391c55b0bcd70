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
length-prefixed frame protocol:

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

import argparse
import contextlib
import os
import pickle
import socket
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from repro.crypto import backend
from repro.exceptions import PeerDisconnected, TransportError
from repro.net.socket_transport import (
    ERROR,
    HELLO,
    HELLO_OK,
    MUTATE,
    MUTATED,
    REPLY,
    REQUEST,
    SHARD_BANNER,
    SLICE,
    SLICED,
    UNKNOWN_RELATION,
    VERSION_MISMATCH,
    encode_error,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.net.wire import WireCodec
from repro.obs.exporter import HealthState, MetricsExporter
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.server.sharding import ShardPlan
from repro.structures.items import weight_entries

#: Request-dispatch threads per daemon: enough to keep round-robin
#: placements with several shards per daemon overlapping.
_DISPATCH_WORKERS = 8

#: Weighted-slice memo entries kept per daemon (one per live
#: ``(relation_id, shard_id, names, weights)`` — i.e. per query shape).
_WEIGHTED_CACHE_MAX = 16


class _Connection:
    """One accepted client connection (stateless beyond the socket)."""

    def __init__(self, service: "ShardService", sock: socket.socket):
        self.service = service
        self.sock = sock
        self._write_lock = threading.Lock()

    def send(self, ftype: int, session_id: int, payload: bytes = b"") -> None:
        with self._write_lock:
            send_frame(self.sock, ftype, session_id, payload)

    def send_error(self, session_id: int, kind: str, text: str) -> None:
        with contextlib.suppress(TransportError):
            self.send(ERROR, session_id, encode_error(kind, text))

    def run(self) -> None:
        try:
            self.sock.settimeout(30.0)
            ftype, _, payload = recv_frame(self.sock)
            if ftype != HELLO or payload != SHARD_BANNER:
                self.send_error(0, VERSION_MISMATCH, SHARD_BANNER.decode())
                return
            self.send(HELLO_OK, 0, payload)
            self.sock.settimeout(None)
            while True:
                ftype, session_id, payload = recv_frame(self.sock)
                self._handle(ftype, session_id, payload)
        except PeerDisconnected:
            pass  # normal client departure
        except Exception as exc:  # noqa: BLE001 — last-resort report
            self.send_error(0, type(exc).__name__, str(exc))
        finally:
            with contextlib.suppress(OSError):
                self.sock.close()
            self.service._connection_closed(self)

    def _handle(self, ftype: int, session_id: int, payload: bytes) -> None:
        if ftype == SLICE:
            self.service._install_slice(pickle.loads(payload), payload)
            self.send(SLICED, session_id)
        elif ftype == REQUEST:
            # Window requests carry the modexp work; run them on the
            # dispatch pool so shards mapped to one daemon overlap.
            self.service._executor.submit(self._serve_batch, session_id, payload)
        elif ftype == MUTATE:
            summary = self.service._mutate(pickle.loads(payload))
            self.send(
                MUTATED,
                session_id,
                pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL),
            )
        else:
            self.send_error(session_id, "unknown-frame", str(ftype))

    def _serve_batch(self, session_id: int, payload: bytes) -> None:
        try:
            (msg,) = WireCodec().decode_envelope(payload)
            batch = self.service._depth_batch(msg)
            if batch is None:
                self.send_error(
                    session_id,
                    UNKNOWN_RELATION,
                    f"{msg.relation_id}/{msg.shard_id}",
                )
                return
            self.send(
                REPLY, session_id, WireCodec().encode_replies([batch])
            )
        except PeerDisconnected:
            pass  # client gone mid-reply; the connection loop notices
        except Exception as exc:  # noqa: BLE001 — report, don't die
            self.send_error(session_id, type(exc).__name__, str(exc))


class ShardService:
    """The shard-worker daemon: listener, slice registry, batch serving.

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
        When set, serve Prometheus text at
        ``http://127.0.0.1:PORT/metrics`` plus ``/healthz`` (``0`` picks
        a free port — read it back from :attr:`metrics_port`).
    """

    def __init__(
        self,
        listen: str = "tcp://127.0.0.1:0",
        state_dir: str | None = None,
        metrics_port: int | None = None,
    ):
        self.listen_spec = listen
        self.state_dir = state_dir
        self.address: str | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._unix_path: str | None = None
        self._lock = threading.Lock()
        self._connections: set[_Connection] = set()
        #: (relation_id, shard_id) -> {lo, hi, n_shards, lists}
        self._slices: dict[tuple[str, int], dict] = {}
        #: (relation_id, shard_id, names, weights) -> [weighted rows per name]
        self._weighted: OrderedDict[tuple, list] = OrderedDict()
        self._executor = ThreadPoolExecutor(
            max_workers=_DISPATCH_WORKERS, thread_name_prefix="shard-dispatch"
        )
        self.registry = MetricsRegistry()
        reg = self.registry
        self._counters = {
            "slices": reg.gauge(
                "repro_shard_slices", "Slices currently registered."
            ),
            "slice_uploads": reg.counter(
                "repro_shard_slice_uploads_total",
                "SLICE frames received (including idempotent repeats).",
            ),
            "slice_bytes": reg.counter(
                "repro_shard_slice_bytes_total",
                "Bytes of SLICE payload received.",
            ),
            "slices_restored": reg.counter(
                "repro_shard_slices_restored_total",
                "Slices reloaded from the state dir at boot.",
            ),
            "slices_rekeyed": reg.counter(
                "repro_shard_slices_rekeyed_total",
                "Slices delta-synced to a successor relation id by MUTATE.",
            ),
            "slices_dropped": reg.counter(
                "repro_shard_slices_dropped_total",
                "Slices dropped by MUTATE (unfillable rebuild or drop-only).",
            ),
            "batches": reg.counter(
                "repro_shard_batches_total", "Depth-batch requests served."
            ),
            "batch_depths": reg.counter(
                "repro_shard_batch_depths_total",
                "Depths served across all batch replies.",
            ),
            "connections_total": reg.counter(
                "repro_shard_connections_total", "Client connections accepted."
            ),
            "connections_active": reg.gauge(
                "repro_shard_connections_active",
                "Client connections currently open.",
            ),
        }
        self._health = HealthState()
        self._metrics_port = metrics_port
        self._exporter: MetricsExporter | None = None
        self._closed = threading.Event()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> str:
        """Bind, listen, and start accepting; returns the bound address."""
        if self.state_dir is not None:
            self._restore_slices()
        family, target = parse_address(self.listen_spec)
        if family == "tcp":
            host, port = target
            listener = socket.create_server((host, port))
            bound_port = listener.getsockname()[1]
            self.address = f"tcp://{host}:{bound_port}"
        else:
            if not hasattr(socket, "AF_UNIX"):
                raise TransportError("Unix-domain sockets unavailable here")
            with contextlib.suppress(OSError):
                os.unlink(target)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(target)
            listener.listen()
            self._unix_path = target
            self.address = f"unix://{target}"
        listener.settimeout(0.1)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="shard-accept", daemon=True
        )
        self._accept_thread.start()
        if self._metrics_port is not None:
            exporter = MetricsExporter(
                port=self._metrics_port,
                registries=[REGISTRY, self.registry],
                health=self._health,
            )
            try:
                exporter.start()
            except BaseException:
                self.close()
                raise
            self._exporter = exporter
        return self.address

    @property
    def metrics_port(self) -> int | None:
        """Bound port of the metrics exporter (``None`` when not mounted)."""
        exporter = self._exporter
        return exporter.port if exporter is not None else None

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed
            sock.settimeout(None)
            if isinstance(sock.getsockname(), tuple):
                with contextlib.suppress(OSError):
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(self, sock)
            with self._lock:
                self._connections.add(connection)
                self._counters["connections_total"].inc()
                self._counters["connections_active"].inc()
            threading.Thread(
                target=connection.run, name="shard-connection", daemon=True
            ).start()

    def serve_forever(self) -> None:
        """Block until :meth:`close` (or the process) ends the service."""
        self._closed.wait()

    def close(self) -> None:
        """Stop accepting, drop every connection, retire the pool."""
        self._health.drain()
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            with contextlib.suppress(OSError):
                connection.sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                connection.sock.close()
        if self._accept_thread is not None:
            self._accept_thread.join()
        if self._unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._unix_path)
        self._executor.shutdown(wait=True)
        exporter, self._exporter = self._exporter, None
        if exporter is not None:
            exporter.close()

    def __enter__(self) -> "ShardService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
            self._persist_slice(key, payload)

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
                with contextlib.suppress(OSError, TransportError):
                    os.remove(self._slice_path(key))
            for key, sl in new_slices.items():
                with contextlib.suppress(Exception):
                    self._persist_slice(
                        key,
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

    # -- persistence -------------------------------------------------------

    def _slice_path(self, key: tuple[str, int]) -> str:
        relation_id, shard_id = key
        # Relation ids are hex digests (filesystem-safe by construction);
        # reject anything else rather than risk a traversal.
        if not relation_id or not all(c.isalnum() for c in relation_id):
            raise TransportError(f"unsafe relation id: {relation_id!r}")
        return os.path.join(self.state_dir, f"{relation_id}.{int(shard_id)}.slice")

    def _persist_slice(self, key: tuple[str, int], payload: bytes) -> None:
        """Atomically spill one slice payload to the state dir."""
        os.makedirs(self.state_dir, mode=0o700, exist_ok=True)
        path = self._slice_path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)

    def _restore_slices(self) -> None:
        """Reload spilled slices (corrupt files are skipped, not fatal —
        the client re-uploads on demand)."""
        if not os.path.isdir(self.state_dir):
            return
        for name in sorted(os.listdir(self.state_dir)):
            if not name.endswith(".slice"):
                continue
            path = os.path.join(self.state_dir, name)
            try:
                with open(path, "rb") as handle:
                    payload = handle.read()
                blob = pickle.loads(payload)
                stem = name[: -len(".slice")]
                relation_id, _, shard_id = stem.rpartition(".")
                if (
                    isinstance(blob, dict)
                    and blob.get("relation_id") == relation_id
                    and str(blob.get("shard_id")) == shard_id
                    and isinstance(blob.get("lists"), dict)
                ):
                    self._install_slice(blob, None)
            except Exception:  # noqa: BLE001 — a bad spill must not kill boot
                continue

    # -- bookkeeping -------------------------------------------------------

    def _connection_closed(self, connection: _Connection) -> None:
        with self._lock:
            if connection in self._connections:
                self._connections.discard(connection)
                self._counters["connections_active"].dec()

    def stats(self) -> dict:
        """A consistent point-in-time snapshot of the service counters."""
        with self._lock:
            return {name: int(c.value) for name, c in self._counters.items()}


def launch_daemon(
    listen: str = "tcp://127.0.0.1:0",
    extra_args: tuple[str, ...] = (),
    quiet: bool = False,
    timeout: float = 30.0,
):
    """Start the daemon as a separate OS process; returns (process, address).

    Mirrors :func:`repro.server.s2_service.launch_daemon`: the bound
    address is read from a ready file, and the caller owns the returned
    :class:`subprocess.Popen` (terminate it when done).
    """
    import pathlib
    import subprocess
    import sys
    import tempfile
    import time

    src_root = str(pathlib.Path(__file__).resolve().parent.parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.NamedTemporaryFile(suffix=".addr", delete=False) as handle:
        ready_file = handle.name
    os.unlink(ready_file)
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server.shard_service",
            "--listen",
            listen,
            "--ready-file",
            ready_file,
            *extra_args,
        ],
        env=env,
        stdout=subprocess.DEVNULL if quiet else None,
    )
    try:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.exists(ready_file):
                address = pathlib.Path(ready_file).read_text().strip()
                # The daemon creates the file before it writes it: an
                # empty read is "not ready yet", not an address.
                if address:
                    os.unlink(ready_file)
                    return process, address
            if process.poll() is not None:
                raise RuntimeError("shard daemon exited before becoming ready")
            time.sleep(0.05)
        raise RuntimeError("shard daemon did not become ready in time")
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(ready_file)
        process.terminate()
        raise


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.server.shard_service``."""
    parser = argparse.ArgumentParser(
        prog="repro.server.shard_service", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--listen",
        default="tcp://127.0.0.1:0",
        help="tcp://host:port (port 0 = ephemeral) or unix:///path",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="big-int backend (pure / gmpy2 / gmp-kernel / auto; "
        "default: REPRO_BACKEND)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help="spill slice registrations here and reload them on restart",
    )
    parser.add_argument(
        "--ready-file",
        default=None,
        help="write the bound address here once listening (CI/scripts)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve Prometheus text at http://127.0.0.1:PORT/metrics "
        "plus /healthz (0 = ephemeral port; default: no exporter)",
    )
    args = parser.parse_args(argv)

    if args.backend:
        backend.set_backend(args.backend)
    service = ShardService(
        args.listen,
        state_dir=args.state_dir,
        metrics_port=args.metrics_port,
    )
    address = service.start()
    print(f"repro-shard: listening on {address}", flush=True)
    if args.ready_file:
        with open(args.ready_file, "w", encoding="utf-8") as handle:
            handle.write(address)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()


if __name__ == "__main__":
    main()
