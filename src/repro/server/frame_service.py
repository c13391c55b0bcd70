"""The daemon core the standalone S2 service is built on.

:class:`FrameService` is the server half of the frame protocol in
:mod:`repro.net.socket_transport` (it hides the frame format from
:class:`~repro.server.s2_service.S2Service`, its one subclass):
listener and accept loop, per-connection HELLO and read loop
dispatching through a ``{frame_type: handler}`` table, the connection
set and its instruments, the ``/metrics`` + ``/healthz`` mount with
``drain()`` / ``close()``, and the ``--state-dir``
:meth:`~FrameService.spill` / :meth:`~FrameService.restore` pair.
:func:`launch_daemon` / :func:`daemon_main` are the subprocess launcher
and CLI behind ``python -m repro.server.s2_service``.

The error-scoping rule lives here too: a *handler* failure is answered
with a typed ERROR on the offending session id and the connection lives
(its other sessions never notice); only a *framing* failure — oversize
frame, short read, bad HELLO — drops the connection.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pathlib
import pickle
import socket
import subprocess
import sys
import tempfile
import threading
import time

from repro.crypto import backend
from repro.exceptions import PeerDisconnected, TransportError
from repro.net.socket_transport import (
    ERROR,
    HELLO,
    HELLO_OK,
    VERSION_MISMATCH,
    encode_error,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.obs.exporter import HealthState, MetricsExporter
from repro.obs.metrics import REGISTRY, MetricsRegistry


#: Seconds a fresh connection gets to send its HELLO.
_HELLO_TIMEOUT_S = 30.0

#: Seconds :meth:`FrameService.close` waits for each connection thread to
#: notice its socket is gone (a handler mid-computation finishes first).
_CONNECTION_JOIN_S = 5.0


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so a reader sees the old content or the
    new, never a partial file: owner-only (0600, whatever the umask —
    spills hold key material) temp file, then rename."""
    tmp = f"{path}.tmp.{os.getpid()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


class Connection:
    """One accepted client connection."""

    def __init__(self, service: "FrameService", sock: socket.socket):
        self.service = service
        self.sock = sock
        #: The read thread running :meth:`run`; joined by ``close()``.
        self.thread = threading.Thread(
            target=self.run, name=f"{service.name}-connection", daemon=True
        )
        self._write_lock = threading.Lock()
        #: The banner this connection's HELLO negotiated.
        self.banner = b""
        #: Per-connection state of the service's handlers (session id ->
        #: whatever the service keeps); touched only by this connection's
        #: read thread and the service's ``_connection_lost`` hook.
        self.sessions: dict[int, object] = {}

    def send(self, ftype: int, session_id: int, payload: bytes = b"") -> None:
        with self._write_lock:
            send_frame(self.sock, ftype, session_id, payload)

    def send_error(self, session_id: int, kind: str, text: str) -> None:
        with contextlib.suppress(TransportError):
            self.send(ERROR, session_id, encode_error(kind, text))

    def run(self) -> None:
        service = self.service
        try:
            # A peer that connects but never greets should not pin a
            # thread forever; after the banner the link blocks freely.
            self.sock.settimeout(_HELLO_TIMEOUT_S)
            ftype, _, payload = recv_frame(self.sock)
            if ftype != HELLO or payload not in service.banners:
                # Name every banner we speak so a newer client can pick
                # one and redial.
                self.send_error(
                    0,
                    VERSION_MISMATCH,
                    " ".join(b.decode() for b in service.banners),
                )
                return
            self.banner = payload
            self.send(HELLO_OK, 0, payload)
            self.sock.settimeout(None)
            while True:
                ftype, session_id, payload = recv_frame(self.sock)
                handler = service.handlers.get(ftype)
                if handler is None:
                    self.send_error(session_id, "unknown-frame", str(ftype))
                else:
                    service.run_handler(handler, self, session_id, payload)
        except PeerDisconnected:
            pass  # normal client departure
        except Exception as exc:  # noqa: BLE001 — last-resort report
            self.send_error(0, type(exc).__name__, str(exc))
        finally:
            service._connection_lost(self)
            with contextlib.suppress(OSError):
                self.sock.close()
            service._connection_closed(self)


class FrameService:
    """Listener, connections, dispatch, metrics mount and state dir.

    Subclasses set :attr:`name` (``"s2"`` names the ``repro_s2_*``
    metrics, the ``s2-*`` threads and the ``repro-s2:`` CLI line), pass
    the banners they accept, fill :attr:`handlers`, add their own
    instruments to :attr:`_counters`, and may override
    :meth:`_connection_lost`.

    Parameters
    ----------
    listen:
        ``tcp://host:port`` (port 0 picks a free one) or
        ``unix:///path`` (a stale socket file is replaced).
    banners:
        HELLO banners this service accepts, newest first.
    state_dir:
        Where :meth:`spill` writes and :meth:`restore` reads; ``None``
        keeps everything in memory.
    metrics_port:
        When set, serve Prometheus text at
        ``http://127.0.0.1:PORT/metrics`` (process-wide instruments plus
        this service's own counters) and a ``/healthz`` endpoint that
        flips to draining on :meth:`drain` / :meth:`close`.  ``0`` picks
        a free port — read it back from :attr:`metrics_port`.
    """

    name = "frame"

    def __init__(
        self,
        listen: str,
        banners: tuple[bytes, ...],
        state_dir: str | None = None,
        metrics_port: int | None = None,
    ):
        self.listen_spec = listen
        self.banners = banners
        self.state_dir = state_dir
        self.address: str | None = None
        #: frame type -> ``handler(connection, session_id, payload)``.
        self.handlers: dict = {}
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._unix_path: str | None = None
        self._lock = threading.Lock()
        self._connections: set[Connection] = set()
        # Per-instance metrics registry: the service counters *are*
        # these instruments (``stats()`` reads them back), so the dict
        # snapshot and a ``/metrics`` scrape can never disagree — one
        # source, two renderings.  A private registry keeps concurrent
        # services (tests run several) from folding into each other.
        self.registry = MetricsRegistry()
        self._counters: dict = {}
        self._counter(
            "connections_total", "Client connections accepted.", metric="connections"
        )
        self._gauge("connections_active", "Client connections currently open.")
        self._health = HealthState()
        self._metrics_port = metrics_port
        self._exporter: MetricsExporter | None = None
        self._closed = threading.Event()

    def _counter(self, key: str, help_text: str, metric: str | None = None) -> None:
        """Add the counter ``repro_<name>_<metric or key>_total`` to the
        service's instruments under ``stats()`` key ``key``."""
        self._counters[key] = self.registry.counter(
            f"repro_{self.name}_{metric or key}_total", help_text
        )

    def _gauge(self, key: str, help_text: str) -> None:
        """Add the gauge ``repro_<name>_<key>`` under ``stats()`` key ``key``."""
        self._counters[key] = self.registry.gauge(
            f"repro_{self.name}_{key}", help_text
        )

    # -- lifecycle -------------------------------------------------------

    def start(self) -> str:
        """Bind, listen, and start accepting; returns the bound address."""
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
        # A blocking accept() does not reliably wake when another thread
        # closes the listener; a short timeout lets the loop observe the
        # shutdown flag, so close() can join deterministically.
        listener.settimeout(0.1)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self.name}-accept", daemon=True
        )
        self._accept_thread.start()
        if self._metrics_port is not None:
            # Serve both the process-wide registry (channel/pool/cache
            # instruments the daemon's own code records into) and this
            # service's private counters on one endpoint.
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

    def drain(self) -> None:
        """Flip ``/healthz`` to draining (sticky; :meth:`close` implies it)."""
        self._health.drain()

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
            connection = Connection(self, sock)
            with self._lock:
                self._connections.add(connection)
                self._counters["connections_total"].inc()
                self._counters["connections_active"].inc()
                # Started under the lock: every connection close() finds
                # in the set has a thread it can join.
                connection.thread.start()

    def serve_forever(self) -> None:
        """Block until :meth:`close` (or the process) ends the service."""
        self._closed.wait()

    def close(self) -> None:
        """Stop accepting, drop every connection, unmount the exporter."""
        self._health.drain()
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        # The accept thread first, so the connection set is final.
        if self._accept_thread is not None:
            self._accept_thread.join()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            with contextlib.suppress(OSError):
                connection.sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                connection.sock.close()
        # Each read thread retires its sessions and decrements the
        # gauges on its way out; waiting for them is what makes
        # ``stats()`` settled the moment close() returns.
        for connection in connections:
            connection.thread.join(_CONNECTION_JOIN_S)
        if self._unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._unix_path)
        exporter, self._exporter = self._exporter, None
        if exporter is not None:
            exporter.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch --------------------------------------------------------

    def run_handler(self, handler, connection, session_id, payload) -> None:
        """Run one frame's handler; its failure is that session's ERROR."""
        try:
            handler(connection, session_id, payload)
        except PeerDisconnected:
            pass  # client gone mid-reply; the read loop notices
        except Exception as exc:  # noqa: BLE001 — report, don't die
            connection.send_error(session_id, type(exc).__name__, str(exc))

    def _connection_closed(self, connection: Connection) -> None:
        with self._lock:
            if connection in self._connections:
                self._connections.discard(connection)
                self._counters["connections_active"].dec()

    def _connection_lost(self, connection: Connection) -> None:
        """Hook: a connection ended; retire what lived on it."""

    def stats(self) -> dict:
        """A consistent point-in-time snapshot of the service counters.

        Read under the same lock every mutator holds, from the same
        instruments ``/metrics`` renders — the two views are one set of
        numbers and can never disagree.  Values come back as ints.
        """
        with self._lock:
            return {name: int(c.value) for name, c in self._counters.items()}

    # -- state dir -------------------------------------------------------

    def _spill_path(self, name: str) -> str:
        # Spill names are ``<hex id>.<suffix>`` — filesystem-safe by
        # construction; reject anything else rather than risk a traversal.
        if not all(part.isalnum() for part in name.split(".")):
            raise TransportError(f"unsafe spill name: {name!r}")
        return os.path.join(self.state_dir, name)

    def spill(self, name: str, payload: bytes) -> None:
        """Atomically write ``<state_dir>/<name>``.  The directory is
        created owner-only (0700): S2 spills hold the provisioned
        secret key."""
        path = self._spill_path(name)
        os.makedirs(self.state_dir, mode=0o700, exist_ok=True)
        atomic_write(path, payload)

    def restore(self, suffix: str, validate) -> list:
        """The unpickled spills named ``<stem><suffix>`` for which
        ``validate(stem, blob)`` holds, in name order.  A file that does
        not load or validate (truncated write, foreign pickle) is skipped
        whole — a bad spill must not kill boot, clients re-upload on
        demand."""
        blobs = []
        if self.state_dir is None or not os.path.isdir(self.state_dir):
            return blobs
        for name in sorted(os.listdir(self.state_dir)):
            if not name.endswith(suffix):
                continue
            try:
                with open(os.path.join(self.state_dir, name), "rb") as handle:
                    blob = pickle.loads(handle.read())
                if validate(name[: -len(suffix)], blob):
                    blobs.append(blob)
            except Exception:  # noqa: BLE001 — see docstring
                continue
        return blobs


# -- process launcher and CLI ----------------------------------------------


def launch_daemon(
    module: str,
    listen: str = "tcp://127.0.0.1:0",
    extra_args: tuple[str, ...] = (),
    quiet: bool = False,
    timeout: float = 30.0,
):
    """Start ``python -m <module>`` as a separate OS process; returns
    (process, address).

    The real deployment shape for examples, benchmarks, and smoke
    scripts: the daemon is spawned with this package on its path, the
    bound address is read from a ready file, and the caller owns the
    returned :class:`subprocess.Popen` (terminate it when done).
    """
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
            module,
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
            # The daemon renames the file into place complete, so
            # existing means readable.
            if os.path.exists(ready_file):
                return process, pathlib.Path(ready_file).read_text().strip()
            if process.poll() is not None:
                raise RuntimeError(f"{module} exited before becoming ready")
            time.sleep(0.05)
        raise RuntimeError(f"{module} did not become ready in time")
    except BaseException:
        process.terminate()
        raise
    finally:
        with contextlib.suppress(OSError):
            os.unlink(ready_file)


def daemon_main(service_cls, argv: list[str] | None = None) -> None:
    """The daemon CLI: parse, start, announce, serve until interrupted."""
    module = sys.modules[service_cls.__module__]
    parser = argparse.ArgumentParser(
        prog=module.__spec__.name, description=module.__doc__.split("\n\n")[0]
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
        help="spill registrations here and reload them on restart (an S2 "
        "daemon's spills hold secret key material — protect accordingly)",
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
    service = service_cls(
        args.listen, state_dir=args.state_dir, metrics_port=args.metrics_port
    )
    address = service.start()
    print(f"repro-{service.name}: listening on {address}", flush=True)
    if args.ready_file:
        # Renamed into place whole: a poller never reads an empty file.
        atomic_write(args.ready_file, address.encode("utf-8"))
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
