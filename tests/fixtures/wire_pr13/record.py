"""Re-record the PR 13 wire and state-dir fixtures in this directory.

Run from a checkout of the commit whose bytes should be pinned::

    PYTHONPATH=src python tests/fixtures/wire_pr13/record.py OUT_DIR

It drives one tiny query through a byte-logging TCP proxy in front of an
in-process S2 daemon (``s2_session.frames``: ``b">"`` + frame for every
client frame, ``b"<"`` + frame for every daemon frame, in wire order)
and keeps the daemon's ``.reg`` spill.  Nothing here reaches into the
daemon or the client, so it runs on any commit.

The REPLY frames hold ciphertexts S2 encrypted with OS entropy, so a
re-recording differs from this one in those bytes; the replay test
(``tests/test_s2_service.py::TestWireCompatibility``) compares REPLYs
decrypted under the recorded ``.reg`` key, and everything else byte for
byte.
"""

from __future__ import annotations

import os
import shutil
import socket
import struct
import sys
import tempfile
import threading

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.net.socket_transport import disconnect_all
from repro.server import S2Service, TopKServer

HEADER = struct.Struct("!IBI")
ROWS = [[(5 * i + 3 * j) % 11 for j in range(2)] for i in range(4)]


def _read(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _pump(src, dst, mark: bytes, log: list, lock: threading.Lock) -> None:
    try:
        while True:
            header = _read(src, HEADER.size)
            frame = header + _read(src, HEADER.unpack(header)[0])
            with lock:
                log.append(mark + frame)
            dst.sendall(frame)
    except (EOFError, OSError):
        for sock in (src, dst):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    state = tempfile.mkdtemp()
    log: list[bytes] = []
    lock = threading.Lock()
    scheme = SecTopK(SystemParams.tiny(), seed=1313)
    relation = scheme.encrypt(ROWS)

    service = S2Service("tcp://127.0.0.1:0", state_dir=os.path.join(state, "s2"))
    host, _, port = service.start()[len("tcp://"):].rpartition(":")
    proxy = socket.create_server(("127.0.0.1", 0))

    def _accept() -> None:
        client, _ = proxy.accept()
        upstream = socket.create_connection((host, int(port)))
        for sock in (client, upstream):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        threading.Thread(
            target=_pump, args=(client, upstream, b">", log, lock), daemon=True
        ).start()
        _pump(upstream, client, b"<", log, lock)

    threading.Thread(target=_accept, daemon=True).start()
    address = f"tcp://127.0.0.1:{proxy.getsockname()[1]}"
    with TopKServer(scheme, relation, transport=address) as server:
        server.query(scheme.token([0, 1], k=1), QueryConfig(max_depth=2))
    disconnect_all()
    service.close()
    with open(os.path.join(out_dir, "s2_session.frames"), "wb") as handle:
        handle.write(b"".join(log))
    (reg,) = os.listdir(os.path.join(state, "s2"))
    shutil.copy(os.path.join(state, "s2", reg), os.path.join(out_dir, reg))
    shutil.rmtree(state)


if __name__ == "__main__":
    main(sys.argv[1])
