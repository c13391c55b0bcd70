"""Shared fixtures.

Key generation is the slowest fixture, so key pairs are session-scoped;
every test that needs fresh randomness derives its own deterministic
stream so the suite is reproducible end to end.
"""

from __future__ import annotations

import socket

import differential
import pytest

from repro.crypto import backend
from repro.crypto.paillier import PaillierKeypair
from repro.crypto.rng import SecureRandom
from repro.net.socket_transport import disconnect_all
from repro.protocols.base import S1Context, make_parties
from repro.server import S2Service


@pytest.fixture(scope="session")
def leakage_tuples():
    """``leakage_tuples(result)``: a result's declared leakage, in event
    order, as comparable tuples."""
    return differential.leakage_tuples


@pytest.fixture(scope="session")
def transcript():
    """``transcript(scheme, result)``: everything S2 and the accountant
    see of one query, as one comparable value — the revealed winners,
    the halting depth, rounds, bytes in each direction and the ordered
    leakage tuples."""
    return differential.transcript


@pytest.fixture(scope="session")
def keypair() -> PaillierKeypair:
    """A 128-bit-modulus Paillier key pair (test-sized, not secure)."""
    return PaillierKeypair.generate(128, SecureRandom(0xC0FFEE))


@pytest.fixture(scope="session")
def own_keypair() -> PaillierKeypair:
    """S1's own key pair (oversized for SecFilter's combined blinds)."""
    return PaillierKeypair.generate(272, SecureRandom(0xBEEF))


@pytest.fixture()
def ctx(keypair) -> S1Context:
    """A fresh S1 context + S2 crypto cloud + accounting channel."""
    return make_parties(keypair, rng=SecureRandom(42))


@pytest.fixture()
def rng() -> SecureRandom:
    return SecureRandom(7)


@pytest.fixture(scope="session")
def tcp_daemon():
    """The address of one in-process S2 daemon on an ephemeral TCP port,
    shared by every test that only needs somewhere to send rounds (a test
    that reads a service's counters starts its own)."""
    service = S2Service("tcp://127.0.0.1:0")
    yield service.start()
    disconnect_all()
    service.close()


@pytest.fixture(scope="session")
def unix_daemon(tmp_path_factory):
    """The same, on a Unix-domain socket (``None`` where the platform
    has none)."""
    if not hasattr(socket, "AF_UNIX"):
        yield None
        return
    service = S2Service(f"unix://{tmp_path_factory.mktemp('s2')}/s2.sock")
    yield service.start()
    disconnect_all()
    service.close()


class PoolDraws:
    """Every randomizer-pool draw of a run, as the multiset of pool
    indices it multiplies, per key (keys are told apart by their pool's
    modulus: ``N^2``, ``N^3``, S2's own ``N'^2``).

    Two draws with the same multiset are the same randomizer.  The
    indices come from the seeded streams, so under a seeded scheme the
    counts are a pure function of the seed.
    """

    def __init__(self):
        self.draws: dict[int, list[tuple[int, ...]]] = {}

    def record(self, pool: backend.RandomizerPool, reads: bytes) -> None:
        shift = pool.read_bytes * 8 - pool.picks * pool.index_bits
        mask = len(pool) - 1
        draws = self.draws.setdefault(pool.mod, [])
        for offset in range(0, len(reads), pool.read_bytes):
            digits = int.from_bytes(reads[offset : offset + pool.read_bytes], "big")
            digits >>= shift
            draws.append(
                tuple(
                    sorted(
                        (digits >> pool.index_bits * pick) & mask
                        for pick in range(pool.picks)
                    )
                )
            )

    def repeats(self) -> dict[int, int]:
        """Per key: the draws whose multiset an earlier draw already had."""
        return {mod: len(draws) - len(set(draws)) for mod, draws in self.draws.items()}


@pytest.fixture()
def pool_draws(monkeypatch) -> PoolDraws:
    """A :class:`PoolDraws` fed by every pool draw for the duration of
    the test: the reads of each ``pool`` op of every program the active
    backend runs (a ``pool_products`` call is a one-op program)."""
    draws = PoolDraws()
    active = backend.get_backend()
    real = active.run

    def spy(program, registers):
        values = dict(zip(program.inputs, registers))
        for name, _, _, operands in program.ops:
            if name == "pool":
                draws.record(values[operands[0]], values[operands[1]])
        return real(program, registers)

    monkeypatch.setattr(active, "run", spy)
    return draws
