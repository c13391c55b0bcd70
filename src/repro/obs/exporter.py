"""Stdlib HTTP exporter: ``/metrics`` (Prometheus text) + ``/healthz``.

A :class:`MetricsExporter` wraps a ``ThreadingHTTPServer`` on its own
daemon thread, rendering one or more registries on every scrape (the S2
daemon mounts its per-instance registry next to the process-wide one so
a single scrape sees both).  ``/healthz`` reports the owner's
:class:`HealthState`: ``200 ready`` while serving, ``503 draining`` once
the owner's ``close()``/``drain()`` flipped it — a load balancer's
remove-from-rotation signal during graceful shutdown.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import REGISTRY

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class HealthState:
    """Ready/draining flag shared between an owner and its exporter."""

    def __init__(self):
        self._draining = threading.Event()

    def drain(self) -> None:
        """Flip to draining (sticky; idempotent)."""
        self._draining.set()

    @property
    def ready(self) -> bool:
        return not self._draining.is_set()


class MetricsExporter:
    """Serve ``/metrics`` and ``/healthz`` for a set of registries.

    ``port=0`` binds an ephemeral port; :meth:`start` returns the bound
    port either way.  Scrapes run on the HTTP server's own threads and
    only ever *read* instrument values, so the exporter adds nothing to
    any query path.
    """

    def __init__(self, port: int = 0, registries=None, health: HealthState | None = None):
        self.registries = list(registries) if registries is not None else [REGISTRY]
        self.health = health or HealthState()
        self._port = port
        self._server = None  # a ThreadingHTTPServer once started
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._port

    def start(self) -> int:
        """Bind and start serving; returns the bound port. Idempotent."""
        if self._server is not None:
            return self.port
        # Imported here: http.server (and through it ssl) is loaded only
        # by a process that serves metrics.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        exporter = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 — http.server API
                if self.path.split("?", 1)[0] == "/metrics":
                    body = "".join(
                        reg.render() for reg in exporter.registries
                    ).encode("utf-8")
                    self._reply(200, CONTENT_TYPE, body)
                elif self.path.split("?", 1)[0] == "/healthz":
                    if exporter.health.ready:
                        self._reply(200, "text/plain; charset=utf-8", b"ready\n")
                    else:
                        self._reply(
                            503, "text/plain; charset=utf-8", b"draining\n"
                        )
                else:
                    self._reply(404, "text/plain; charset=utf-8", b"not found\n")

            def _reply(self, status: int, ctype: str, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # scrapes are not access-log events
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", self._port), _Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def close(self) -> None:
        """Stop serving and release the port. Idempotent."""
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join()
