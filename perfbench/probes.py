"""Per-layer probes: each layer's public entry points, timed standalone.

Every probe calls the program the way its own callers do — ``backend``
module functions, key methods, ``make_parties`` contexts, the wire codec,
a real daemon on loopback — at the workload's key size.  Inputs derive
from the run's seed.  Timings are the median of ``REPEATS`` passes.
"""

from __future__ import annotations

import statistics
import time

from repro.core.scheme import SecTopK
from repro.crypto import backend
from repro.crypto.paillier import PaillierKeypair
from repro.crypto.parallel import ComputePool
from repro.crypto.prf import Prf
from repro.crypto.rng import SecureRandom
from repro.net.channel import measure_size
from repro.net.dispatch import S2Dispatcher
from repro.net.messages import ZeroTestBatch
from repro.net.socket_transport import open_remote_session
from repro.net.transport import InProcessTransport
from repro.net.wire import WireCodec
from repro.protocols import (
    enc_compare,
    enc_sort,
    recover_enc_batch,
    sec_best,
    sec_dedup,
    sec_dup_elim,
    sec_update,
    sec_worst,
)
from repro.protocols.base import CryptoCloud, LeakageLog, make_parties
from repro.structures.ehl_plus import EhlPlusFactory
from repro.structures.items import EncryptedItem, ScoredItem

from perfbench.harness import placement, running_daemon
from perfbench.workloads import Scale

REPEATS = 3
#: Candidates in the fixed protocol input (24 items over m=3 lists, a
#: quarter of them duplicates of earlier objects).
PROTOCOL_ITEMS = 24
PROTOCOL_LISTS = 3


def _median_seconds(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def crypto_probes(scheme: SecTopK, seed: int, batch: int) -> dict:
    """Microseconds per item, batch ``batch``, at the scheme's key size."""
    rng = SecureRandom(seed)
    keypair, pk, sk, dj = scheme.keypair, scheme.public_key, scheme.keypair.secret_key, scheme.dj
    values = [rng.randint_below(1 << 30) for _ in range(batch)]
    bases = [rng.rand_unit(pk.n_squared) for _ in range(batch)]
    cts = pk.encrypt_batch(values, rng)
    layered = [dj.encrypt_ciphertext(ct, rng) for ct in cts[: max(8, batch // 4)]]
    prf = Prf(rng.randbytes(32))
    key_bits = scheme.params.key_bits
    us = 1e6 / batch
    out = {
        "crypto.powmod_vec_us":
            _median_seconds(lambda: backend.powmod_vec(bases, pk.n, pk.n_squared)) * us,
        "crypto.paillier_encrypt_us":
            _median_seconds(lambda: pk.encrypt_batch(values, rng)) * us,
        "crypto.paillier_decrypt_us":
            _median_seconds(lambda: sk.decrypt_batch(cts)) * us,
        "crypto.paillier_rerandomize_us":
            _median_seconds(lambda: [pk.rerandomize(ct, rng) for ct in cts]) * us,
        "crypto.dj_encrypt_us":
            _median_seconds(lambda: [dj.encrypt(1, rng) for _ in layered]) * 1e6 / len(layered),
        "crypto.dj_strip_us":
            _median_seconds(lambda: dj.decrypt_inner_batch(layered, keypair)) * 1e6 / len(layered),
        "crypto.rng_randbits_us":
            _median_seconds(lambda: [rng.randbits(key_bits) for _ in range(8 * batch)])
            * us / 8,
        "crypto.prf_digest_us":
            _median_seconds(lambda: [prf.digest(b"object-%d" % i) for i in range(8 * batch)])
            * us / 8,
    }
    # ComputePool, 2 workers against inline: no default path uses it, so
    # this is recorded as fix-or-delete evidence.  Thread mode only (it
    # needs the compiled kernel); process mode would spill into /dev/shm.
    out["crypto.pool_decrypt_us_per_ct"] = out["crypto.pool_speedup_ratio"] = 0.0
    if backend.kernel_available():
        raw = [ct.value for ct in cts] * 2
        inline = _median_seconds(lambda: sk.raw_decrypt_batch(raw))
        with ComputePool(keypair, dj, workers=2, mode="thread") as pool:
            pooled = _median_seconds(lambda: pool.decrypt_values(raw))
        out["crypto.pool_decrypt_us_per_ct"] = pooled * 1e6 / len(raw)
        out["crypto.pool_speedup_ratio"] = inline / pooled
    return out


def structure_probes(scheme: SecTopK, seed: int, batch: int) -> dict:
    rng = SecureRandom(seed + 1)
    factory = EhlPlusFactory(scheme.public_key, rng.randbytes(32),
                             n_hashes=scheme.params.ehl_hashes, rng=rng)
    count = max(8, batch // 4)
    ehls = [factory.encode(i) for i in range(count)]
    return {
        "structures.ehl_encode_us":
            _median_seconds(lambda: [factory.encode(i) for i in range(count)]) * 1e6 / count,
        "structures.ehl_minus_us":
            _median_seconds(lambda: [a.minus(b, rng) for a in ehls for b in ehls[:4]])
            * 1e6 / (count * 4),
    }


def protocol_probes(scheme: SecTopK, seed: int) -> dict:
    """Each sub-protocol's public entry point on one fixed input, through
    ``make_parties``: milliseconds, and the exact rounds and bytes."""
    rng = SecureRandom(seed + 2)
    keypair = scheme.keypair
    own = PaillierKeypair.generate(2 * scheme.params.key_bits + 16, rng.spawn("own"))
    setup = make_parties(keypair, encoder=scheme.encoder, rng=rng.spawn("setup"))
    factory = EhlPlusFactory(scheme.public_key, rng.randbytes(32),
                             n_hashes=scheme.params.ehl_hashes, rng=rng)
    # Objects 0..17 once, then 0..5 again: a quarter duplicates.
    ids = [i if i < 18 else i - 18 for i in range(PROTOCOL_ITEMS)]
    scored = [
        ScoredItem(ehl=factory.encode(oid), worst=setup.encrypt(100 + 7 * oid),
                   best=setup.encrypt(400 + 5 * oid), record=setup.encrypt(oid))
        for oid in ids
    ]
    plain = [
        EncryptedItem(ehl=item.ehl, score=item.worst, record=item.record) for item in scored
    ]
    depth = PROTOCOL_ITEMS // PROTOCOL_LISTS
    prefixes = [plain[j * depth:(j + 1) * depth] for j in range(PROTOCOL_LISTS)]
    layered = [scheme.dj.encrypt_ciphertext(item.worst, rng) for item in scored]
    cases = {
        "sec_worst": lambda ctx: sec_worst(ctx, plain[0], [p[0] for p in prefixes[1:]]),
        "sec_best": lambda ctx: sec_best(ctx, plain[0], prefixes[1:]),
        "sec_dedup": lambda ctx: sec_dedup(ctx, scored, own),
        "sec_dup_elim": lambda ctx: sec_dup_elim(ctx, scored, own),
        "enc_sort": lambda ctx: enc_sort(ctx, scored, own),
        "enc_compare": lambda ctx: enc_compare(ctx, scored[0].worst, scored[1].worst),
        "recover_enc": lambda ctx: recover_enc_batch(ctx, layered),
        "sec_update": lambda ctx: sec_update(
            ctx, scored[:18], scored[18:18 + PROTOCOL_LISTS], own, eliminate=True),
    }
    out = {}
    for name, run in cases.items():
        samples = []
        for repeat in range(REPEATS):
            ctx = make_parties(keypair, encoder=scheme.encoder, rng=rng.spawn(f"{name}{repeat}"))
            started = time.perf_counter()
            run(ctx)
            samples.append(time.perf_counter() - started)
            traffic = ctx.channel.snapshot()
        out[f"protocols.{name}_ms"] = statistics.median(samples) * 1e3
        out[f"protocols.{name}_rounds"] = traffic.rounds
        out[f"protocols.{name}_bytes"] = traffic.total_bytes
    return out


def core_probes(scale: Scale, seed: int, rows) -> dict:
    """``Enc`` per row and ``Token`` minting, on a scheme of the probe's own."""
    scheme = SecTopK(scale.system_params(), seed=seed + 3)
    sample = rows[: max(8, scale.probe_batch // 8)]
    enc_s = _median_seconds(lambda: scheme.encrypt(sample))
    token_s = _median_seconds(lambda: [scheme.token([0, 1, 2], 3, [1, 2, 3]) for _ in range(200)])
    return {
        "core.enc_ms_per_row": enc_s * 1e3 / len(sample),
        "core.token_us": token_s * 1e6 / 200,
    }


def wire_probes(scheme: SecTopK, seed: int, batch: int) -> dict:
    """The codec over one representative round: a zero-test batch out,
    its layered replies back."""
    rng = SecureRandom(seed + 4)
    cts = scheme.public_key.encrypt_batch(list(range(batch)), rng)
    request = [ZeroTestBatch(protocol="probe", cts=cts)]
    replies = [[scheme.dj.encrypt(i % 2, rng) for i in range(batch)]]
    sender, receiver = WireCodec(), WireCodec()
    # First use registers the key material on both ends; time steady state.
    receiver.decode_envelope(sender.encode_envelope(request))
    sender.decode_replies(receiver.encode_replies(replies))
    wire_request = sender.encode_envelope(request)
    wire_replies = receiver.encode_replies(replies)
    wire_kb = (len(wire_request) + len(wire_replies)) / 1024.0
    encode_s = _median_seconds(
        lambda: (sender.encode_envelope(request), receiver.encode_replies(replies)))
    decode_s = _median_seconds(
        lambda: (receiver.decode_envelope(wire_request), sender.decode_replies(wire_replies)))
    payload = measure_size(request[0].request_payload()) + measure_size(replies)
    return {
        "net.wire_encode_us_per_kb": encode_s * 1e6 / wire_kb,
        "net.wire_decode_us_per_kb": decode_s * 1e6 / wire_kb,
        "net.wire_overhead_ratio": (len(wire_request) + len(wire_replies)) / payload,
    }


def daemon_probes(scheme: SecTopK, seed: int) -> dict:
    """REGISTER + OPEN against a fresh daemon, OPEN alone once registered,
    and what one minimal frame costs over the socket beyond the same
    message dispatched in-process."""
    rng = SecureRandom(seed + 5)
    keypair, dj = scheme.keypair, scheme.dj
    message = [ZeroTestBatch(protocol="probe", cts=[scheme.public_key.encrypt(0, rng)])]
    local = InProcessTransport(
        S2Dispatcher(CryptoCloud(keypair, dj, rng.spawn("s2"), LeakageLog())))
    rounds = 50
    with running_daemon(placement()[1]) as (_, address):
        def open_session(label):
            return open_remote_session(address, keypair, dj, rng.spawn(label), LeakageLog(),
                                       relation_id=f"probe-{seed}", label=label)

        started = time.perf_counter()
        first = open_session("register")
        register_s = time.perf_counter() - started
        opens = []
        sessions = [first]
        for i in range(REPEATS):
            started = time.perf_counter()
            sessions.append(open_session(f"open{i}"))
            opens.append(time.perf_counter() - started)
        remote_s = _median_seconds(lambda: [first.exchange(message) for _ in range(rounds)])
        local_s = _median_seconds(lambda: [local.exchange(message) for _ in range(rounds)])
        for session in sessions:
            session.close()
    return {
        "server.daemon_register_ms": register_s * 1e3,
        "server.daemon_open_ms": statistics.median(opens) * 1e3,
        "net.frame_rtt_us": (remote_s - local_s) * 1e6 / rounds,
    }


def run_all(scale: Scale, seed: int, rows) -> dict:
    """Every workload-independent probe, on one scheme of the probe's own."""
    scheme = SecTopK(scale.system_params(), seed=seed + 6)
    out = {}
    out.update(crypto_probes(scheme, seed, scale.probe_batch))
    out.update(structure_probes(scheme, seed, scale.probe_batch))
    out.update(protocol_probes(scheme, seed))
    out.update(core_probes(scale, seed, rows))
    out.update(wire_probes(scheme, seed, scale.probe_batch))
    out.update(daemon_probes(scheme, seed))
    return out
