"""Party objects for the two-cloud architecture (Section 3.2).

* :class:`CryptoCloud` is S2: it holds the Paillier secret key and exposes
  exactly the operations the sub-protocols require.  Every piece of
  information S2 legitimately learns during a protocol (equality bits,
  duplicate-group structure, comparison signs of blinded values, ...) is
  recorded in a :class:`LeakageLog`, which the security test-suite audits
  against the declared leakage profiles ``L2_Query = {EP_d}`` etc.

* :class:`S1Context` bundles what the S1-side protocol code needs: the
  public keys, the Damgård–Jurik instance, the signed encoder, the
  channel, a randomness source, and a :class:`~repro.net.transport.Transport`
  to S2.  S1-side code never holds an S2 object: every interaction is a
  typed message submitted through the transport and serviced by the
  :class:`~repro.net.dispatch.S2Dispatcher`.

S1 never holds the secret key; tests enforce this by auditing that no
``PaillierSecretKey`` is reachable from an :class:`S1Context`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro.crypto.damgard_jurik import DamgardJurik, LayeredCiphertext
from repro.crypto.encoding import SignedEncoder
from repro.crypto.paillier import (
    Ciphertext,
    PaillierKeypair,
    PaillierPublicKey,
    to_signed,
)
from repro.crypto.rng import SecureRandom
from repro.events import RoundTrip
from repro.net.batching import RoundBatcher
from repro.net.channel import Channel
from repro.net.dispatch import S2Dispatcher
from repro.net.transport import Transport, make_transport
from repro.exceptions import KeyMismatchError, ProtocolError, TransportError


@dataclass
class LeakageEvent:
    """One observation made by a server during a protocol run."""

    observer: str     # "S1" or "S2"
    protocol: str     # which sub-protocol produced the observation
    kind: str         # e.g. "eq_bit", "dedup_groups", "cmp_sign"
    payload: object   # the observed value (a bit, a list of group sizes, ...)


class LeakageLog:
    """Chronological record of everything the servers learned.

    The CQA security argument (Section 9) says the servers learn nothing
    beyond the declared leakage functions.  This log is the mechanism that
    lets tests *check* that claim empirically: after a query we assert the
    event stream is a deterministic function of the declared profile.
    """

    def __init__(self):
        self.events: list[LeakageEvent] = []

    def record(self, observer: str, protocol: str, kind: str, payload) -> None:
        """Append one observation."""
        self.events.append(LeakageEvent(observer, protocol, kind, payload))

    def by_kind(self, kind: str) -> list[LeakageEvent]:
        """All events of one kind."""
        return [e for e in self.events if e.kind == kind]

    def by_observer(self, observer: str) -> list[LeakageEvent]:
        """All events one server made."""
        return [e for e in self.events if e.observer == observer]

    def clear(self) -> None:
        """Forget everything (between queries)."""
        self.events.clear()


class CryptoCloud:
    """S2 — the crypto cloud holding the secret key (Section 3.2).

    The methods below are the *only* ways any S1-side code can touch
    plaintexts.  Each method corresponds to S2's role in one of the
    paper's sub-protocols and records its legitimate observations in the
    leakage log.
    """

    def __init__(
        self,
        keypair: PaillierKeypair,
        dj: DamgardJurik,
        rng: SecureRandom | None = None,
        leakage: LeakageLog | None = None,
    ):
        self._keypair = keypair
        self.public_key = keypair.public_key
        self.dj = dj
        self.rng = rng or SecureRandom()
        self.leakage = leakage or LeakageLog()

    # ------------------------------------------------------------------
    # Batched secret-key primitive.  All bulk Paillier decryption funnels
    # through this helper, which uses the backend's vectorized CRT path.
    # ------------------------------------------------------------------

    def _decrypt_values(self, cts: list[Ciphertext]) -> list[int]:
        for ct in cts:
            if ct.public_key != self.public_key:
                raise KeyMismatchError(
                    "ciphertext was produced under a different key"
                )
        return self._keypair.secret_key.raw_decrypt_batch([ct.value for ct in cts])

    # ------------------------------------------------------------------
    # Equality testing (S2's side of SecWorst / SecBest / SecUpdate).
    # ------------------------------------------------------------------

    def test_zero_batch(
        self, cts: list[Ciphertext], protocol: str
    ) -> list[LayeredCiphertext]:
        """Decrypt each ``Enc(b)`` and return ``E2(t)`` with ``t=(b==0)``.

        This is S2's loop in Algorithms 4/6/9: the incoming values are
        outputs of the ``⊖`` operator on randomly permuted items, so each
        decrypted value is either 0 (same object) or uniformly random.
        S2 legitimately learns the multiset of equality bits — exactly the
        equality-pattern leakage ``EP_d`` of Section 9 — and nothing else.
        """
        bits = [1 if b == 0 else 0 for b in self._decrypt_values(cts)]
        replies = self.dj.encrypt_batch(bits, self.rng)
        self.leakage.record("S2", protocol, "eq_bits", bits)
        return replies

    def blinded_select(
        self,
        cts: list[Ciphertext],
        values: list[Ciphertext],
        groups: list[int],
        bit_mode: bool,
        protocol: str,
    ) -> tuple[list[Ciphertext], list[Ciphertext]]:
        """Apply the bit each slot decrypts to, without a layered select.

        Slot ``i``'s bit ``t`` is ``cts[i]``'s equality test (``b == 0``,
        recorded as the ``EP_d`` bits exactly as :meth:`test_zero_batch`
        records them) or, in ``bit_mode``, the coin-masked bit it holds
        (which must be 0 or 1, as in :meth:`decrypt_masked_bit`; the
        request's bits are one ``masked_bit`` event).  Its value
        ``values[groups[i]]`` is S1's statistically blinded ``Enc(x + r)``,
        which S2 never decrypts.  Per slot the reply is two fresh
        ciphertexts, ``t ? V·ρ : ρ'`` and ``Enc(t)``; S1 unblinds
        ``Enc(t·x)`` from them on its own.  A malformed request is refused
        before any randomness is drawn or anything is recorded.
        """
        if not (
            isinstance(cts, list)
            and isinstance(values, list)
            and isinstance(groups, list)
            and type(bit_mode) is bool
        ) or len(groups) != len(cts):
            raise ProtocolError("malformed blinded select: slot and group counts disagree")
        if any(type(g) is not int or not 0 <= g < len(values) for g in groups):
            raise ProtocolError(
                f"blinded select names a group outside its {len(values)} values"
            )
        for ct in (*cts, *values):
            if type(ct) is not Ciphertext:
                raise ProtocolError("blinded select carries a non-Paillier value")
            if ct.public_key != self.public_key:
                raise KeyMismatchError("ciphertext was produced under a different key")
        plain = self._keypair.secret_key.raw_decrypt_batch([ct.value for ct in cts])
        if bit_mode:
            if any(value not in (0, 1) for value in plain):
                raise ProtocolError("masked-bit ciphertext held a non-bit value")
            bits = plain
            self.leakage.record("S2", protocol, "masked_bit", bits)
        else:
            bits = [1 if value == 0 else 0 for value in plain]
            self.leakage.record("S2", protocol, "eq_bits", bits)
        pk = self.public_key
        n, n2 = pk.n, pk.n_squared
        fresh = pk.randomizers(self.rng, 2 * len(bits))
        selected = [
            Ciphertext((values[g].value if t else 1) * r % n2, pk)
            for t, g, r in zip(bits, groups, fresh)
        ]
        bit_cts = [
            Ciphertext((1 + t * n) * r % n2, pk)
            for t, r in zip(bits, fresh[len(bits) :])
        ]
        return selected, bit_cts

    # ------------------------------------------------------------------
    # RecoverEnc (Algorithm 5), S2's side.
    # ------------------------------------------------------------------

    def strip_layer_batch(
        self, lcs: list[LayeredCiphertext], protocol: str
    ) -> list[Ciphertext]:
        """Decrypt the outer DJ layer of each ``E2(Enc(c + r))``.

        The inner plaintexts are additively blinded by S1, so S2 observes
        only uniformly random Paillier ciphertext *values* — no leakage
        event is recorded beyond the batch size.
        """
        self.leakage.record("S2", protocol, "recover_batch", len(lcs))
        return self.dj.decrypt_inner_batch(lcs, self._keypair)

    # ------------------------------------------------------------------
    # Comparison helpers (EncCompare constructions).
    # ------------------------------------------------------------------

    def blinded_sign(self, ct: Ciphertext, protocol: str) -> bool:
        """Return whether the (blinded) signed plaintext is positive.

        Used by the multiplicative-blind ``EncCompare``: the plaintext is
        ``r * (2(b - a) + 1)`` for random ``r``, so the sign S2 learns is
        the comparison of a coin-flipped pair — a uniform bit.  The
        magnitude class is extra (documented) leakage of this fast
        construction; the DGK construction avoids it.
        """
        value = self._keypair.secret_key.decrypt_signed(ct)
        sign = value > 0
        self.leakage.record("S2", protocol, "cmp_sign", sign)
        return sign

    def decrypt_masked_bit(self, ct: Ciphertext, protocol: str) -> int:
        """Decrypt a ciphertext known to hold a coin-masked bit."""
        bit = self._keypair.secret_key.decrypt(ct)
        if bit not in (0, 1):
            raise ProtocolError("masked-bit ciphertext held a non-bit value")
        self.leakage.record("S2", protocol, "masked_bit", bit)
        return bit

    def dgk_decompose(
        self, ct: Ciphertext, ell: int, protocol: str
    ) -> tuple[list[Ciphertext], Ciphertext]:
        """S2's first step of the DGK comparison.

        Decrypts the additively-blinded value ``c = z + r`` (uniform given
        the blinding), and returns encryptions of the low ``ell`` bits of
        ``c`` plus an encryption of ``floor(c / 2**ell)``.
        """
        c = self._keypair.secret_key.decrypt(ct)
        low = c % (1 << ell)
        high = c >> ell
        bit_cts = self.public_key.encrypt_batch(
            [(low >> i) & 1 for i in range(ell)], self.rng
        )
        self.leakage.record("S2", protocol, "dgk_blinded", None)
        return bit_cts, self.public_key.encrypt(high, self.rng)

    def dgk_any_zero(self, cts: list[Ciphertext], protocol: str) -> bool:
        """Whether any of the (randomized, permuted) values decrypts to 0."""
        # Short-circuit: stop decrypting at the first zero.
        sk = self._keypair.secret_key
        found = any(sk.decrypt(ct) == 0 for ct in cts)
        self.leakage.record("S2", protocol, "dgk_any_zero", found)
        return found

    # ------------------------------------------------------------------
    # Sorting (EncSort), deduplication (SecDedup / SecDupElim) and
    # filtering (SecFilter) are bulk operations: their S2 sides live in
    # the respective protocol modules as functions taking the CryptoCloud,
    # but the primitive they share is below.
    # ------------------------------------------------------------------

    def decrypt_for_protocol(self, ct: Ciphertext, protocol: str, kind: str) -> int:
        """Decrypt one blinded value and log the observation kind.

        Centralized so the leakage audit can enumerate every decryption
        S2 ever performed and classify it.
        """
        value = self._keypair.secret_key.decrypt(ct)
        self.leakage.record("S2", protocol, kind, None)
        return value

    def decrypt_signed_for_protocol(
        self, ct: Ciphertext, protocol: str, kind: str
    ) -> int:
        """Signed variant of :meth:`decrypt_for_protocol`."""
        value = self._keypair.secret_key.decrypt_signed(ct)
        self.leakage.record("S2", protocol, kind, None)
        return value

    def decrypt_batch_for_protocol(
        self, cts: list[Ciphertext], protocol: str, kind: str
    ) -> list[int]:
        """Batch variant of :meth:`decrypt_for_protocol`: one leakage event
        per decryption (same audit granularity as the loop it replaces)."""
        values = self._decrypt_values(cts)
        for _ in values:
            self.leakage.record("S2", protocol, kind, None)
        return values

    def decrypt_signed_batch_for_protocol(
        self, cts: list[Ciphertext], protocol: str, kind: str
    ) -> list[int]:
        """Signed variant of :meth:`decrypt_batch_for_protocol`."""
        return to_signed(
            self.public_key.n, self.decrypt_batch_for_protocol(cts, protocol, kind)
        )

    def fresh_encrypt(self, value: int) -> Ciphertext:
        """A fresh Paillier encryption (S2 re-encrypting after a bulk op)."""
        return self.public_key.encrypt(value, self.rng)

    # ------------------------------------------------------------------
    # Baseline engines (engine registry: "plaintext" / "sknn").  These
    # reproduce the *cost structure* of the paper's comparison points —
    # full-relation shipment, no oblivious machinery — so S2 legitimately
    # learns everything it decrypts; the leakage log records that
    # wholesale reveal explicitly.
    # ------------------------------------------------------------------

    def _aggregate_records(
        self, scores: list[Ciphertext], records: list[Ciphertext]
    ) -> dict[int, int]:
        """Decrypt all (score, record-id) pairs and sum scores per object."""
        values = to_signed(self.public_key.n, self._decrypt_values(scores))
        rids = self._decrypt_values(records)
        totals: dict[int, int] = {}
        for rid, value in zip(rids, values):
            totals[rid] = totals.get(rid, 0) + value
        return totals

    def naive_topk(
        self, scores: list[Ciphertext], records: list[Ciphertext], k: int, protocol: str
    ) -> list[tuple[Ciphertext, Ciphertext]]:
        """Full-shipment strawman: decrypt everything, return the top-k.

        The reply is ``k`` fresh ``(Enc(record_id), Enc(total))`` pairs,
        best first (ties by record id, matching the plaintext oracle).
        """
        totals = self._aggregate_records(scores, records)
        ranked = sorted(totals.items(), key=lambda t: (-t[1], t[0]))[:k]
        self.leakage.record(
            "S2", protocol, "full_reveal", (len(scores), len(totals))
        )
        self.leakage.record(
            "S2", protocol, "naive_topk_ids", tuple(rid for rid, _ in ranked)
        )
        return [
            (self.fresh_encrypt(rid), self.fresh_encrypt(total % self.public_key.n))
            for rid, total in ranked
        ]

    def aggregate_by_record(
        self, scores: list[Ciphertext], records: list[Ciphertext], protocol: str
    ) -> tuple[list[int], list[Ciphertext]]:
        """SkNN-style phase 1: per-object aggregate scores, re-encrypted.

        Returns the (plaintext) record ids in ascending order alongside
        fresh encryptions of each object's total — the input to the
        baseline's secure-maximum selection scan.
        """
        totals = self._aggregate_records(scores, records)
        self.leakage.record(
            "S2", protocol, "full_reveal", (len(scores), len(totals))
        )
        rids = sorted(totals)
        return rids, [
            self.fresh_encrypt(totals[rid] % self.public_key.n) for rid in rids
        ]


@dataclass
class S1Context:
    """Everything the S1-side protocol code needs.

    S1 holds only public key material; :attr:`transport` stands in for
    the network connection to S2 — every value that crosses it is a
    typed message accounted through :attr:`channel`, submitted either
    one-per-round (:meth:`call`) or coalesced across many independent
    protocol flows (:meth:`run_flows`).
    """

    public_key: PaillierPublicKey
    dj: DamgardJurik
    encoder: SignedEncoder
    channel: Channel
    transport: Transport
    rng: SecureRandom = field(default_factory=SecureRandom)
    leakage: LeakageLog = field(default_factory=LeakageLog)
    on_event: object = None
    """Optional callable receiving :mod:`repro.events` progress events
    (one :class:`~repro.events.RoundTrip` per coalesced round, plus
    whatever the engine loop emits).  Pure observation — never consulted
    by protocol code."""
    control: object = None
    """Optional job control (anything with a ``check()`` method raising
    to abort).  Checked at every round boundary, which is what makes
    cooperative cancellation and per-job deadlines possible without a
    single mid-round interruption point."""

    def __post_init__(self):
        self._batcher = RoundBatcher(
            self.channel,
            self.transport,
            before_round=self.checkpoint,
            after_round=self._emit_round,
        )
        # One shared record of broken observation hooks: the batcher
        # guards its after-round hook, notify() guards the engine-loop
        # events — either way the query keeps running and the error is
        # kept for inspection instead of corrupting the round loop.
        self.hook_errors = self._batcher.hook_errors

    # -- job control and progress hooks ----------------------------------

    def checkpoint(self) -> None:
        """Honour a cancellation/deadline request at a safe boundary."""
        control = self.control
        if control is not None:
            control.check()

    def notify(self, event) -> None:
        """Deliver one progress event to the listener, if any.

        Listener exceptions are swallowed and recorded in
        :attr:`hook_errors` — progress delivery is observation only, so
        a broken listener must never abort the protocol run it watches.
        """
        on_event = self.on_event
        if on_event is None:
            return
        try:
            on_event(event)
        except Exception as exc:
            self._batcher.record_hook_error(exc)

    def _emit_round(self) -> None:
        if self.on_event is not None:
            stats = self.channel.stats
            self.on_event(
                RoundTrip(
                    rounds=stats.rounds,
                    bytes_s1_to_s2=stats.bytes_s1_to_s2,
                    bytes_s2_to_s1=stats.bytes_s2_to_s1,
                )
            )

    # -- S2 interaction --------------------------------------------------

    def call(self, msg):
        """Submit one request message to S2; one communication round."""
        return self._batcher.call(msg)

    def run_flows(self, flows: list) -> list:
        """Run protocol flows lock-step, coalescing each stage's requests
        into a single round-trip (see :mod:`repro.net.batching`)."""
        return self._batcher.run_flows(flows)

    def close(self) -> None:
        """Release the transport (threaded backends own a service thread)."""
        self.transport.close()

    # -- local helpers ---------------------------------------------------

    def encrypt(self, value: int) -> Ciphertext:
        """Encrypt a (signed) constant under the shared public key."""
        return self.public_key.encrypt_signed(value, self.rng)

    def zero(self) -> Ciphertext:
        """A fresh ``Enc(0)``."""
        return self.public_key.encrypt(0, self.rng)


@contextlib.contextmanager
def owned_context(ctx: S1Context):
    """Run a block that owns ``ctx``, then close it.

    The single home of the dead-link teardown rule: when the block
    *fails*, a secondary transport-close error is suppressed so the
    original exception surfaces undisturbed; on success the close runs
    normally (and may raise).  Used by every path that creates a
    throwaway context (``SecTopK.query``, the server's job runner).
    """
    try:
        yield ctx
    except BaseException:
        with contextlib.suppress(TransportError):
            ctx.close()
        raise
    else:
        ctx.close()


def _wire_clouds(
    keypair: PaillierKeypair,
    dj: DamgardJurik,
    encoder: SignedEncoder,
    transport: str,
    s1_rng: SecureRandom,
    s2_rng: SecureRandom,
    leakage: LeakageLog | None = None,
    rtt_ms: float = 0.0,
    session_label: str = "",
    on_event=None,
    control=None,
) -> S1Context:
    """Assemble the two-cloud wiring: crypto cloud behind a dispatcher
    behind a ``transport``, and an S1 context in front of it.

    ``transport`` is either a local backend name (``"inprocess"`` /
    ``"threaded"``) or a remote S2 daemon address (``"tcp://host:port"``
    / ``"unix:///path"``).  The remote path opens one multiplexed
    session against the daemon — registering the deployment's key
    material on first contact — and ships the S2 randomness stream with
    the session, so the remote run is bit-identical (results, rounds,
    bytes, leakage) to the local one.

    ``rtt_ms`` adds a simulated round-trip latency to the link.  Single
    point of truth for context construction — every scheme's context
    wiring and :func:`make_parties` delegate here.

    ``session_label`` rides the remote OPEN frame so the daemon can
    attribute sessions to the jobs that opened them; ``on_event`` /
    ``control`` are the context's progress and job-control hooks (see
    :class:`S1Context`).
    """
    from repro.net.socket_transport import is_socket_address, open_remote_session
    from repro.net.transport import LatencyTransport

    leakage = leakage or LeakageLog()
    if is_socket_address(transport):
        on_progress = None
        if on_event is not None:
            from repro.events import S2Progress

            listener = on_event

            def on_progress(batches, values, seconds):
                # Daemon-side decrypt progress (/3 REPLY piggyback) →
                # the job's event stream.  Observation only: a broken
                # listener must never abort the round that carried it.
                try:
                    listener(
                        S2Progress(batches=batches, values=values, seconds=seconds)
                    )
                except Exception:
                    pass

        link: Transport = open_remote_session(
            transport,
            keypair,
            dj,
            s2_rng,
            leakage,
            label=session_label,
            on_progress=on_progress,
        )
        if rtt_ms > 0:
            link = LatencyTransport(link, rtt_ms)
    else:
        cloud = CryptoCloud(keypair, dj, s2_rng, leakage)
        link = make_transport(transport, S2Dispatcher(cloud), rtt_ms=rtt_ms)
    return S1Context(
        public_key=keypair.public_key,
        dj=dj,
        encoder=encoder,
        channel=Channel(),
        transport=link,
        rng=s1_rng,
        leakage=leakage,
        on_event=on_event,
        control=control,
    )


def make_parties(
    keypair: PaillierKeypair,
    encoder: SignedEncoder | None = None,
    rng: SecureRandom | None = None,
    transport: str = "inprocess",
) -> S1Context:
    """Wire up an S1 context talking to a fresh S2 over a fresh channel.

    ``transport`` selects the backend (``"inprocess"`` or ``"threaded"``).
    Convenience for tests and examples; the full scheme in
    :mod:`repro.core` builds the parties itself.
    """
    rng = rng or SecureRandom()
    dj = DamgardJurik(keypair.public_key, s=2)
    encoder = encoder or SignedEncoder(keypair.public_key.n)
    return _wire_clouds(
        keypair, dj, encoder, transport, rng.spawn("s1"), rng.spawn("s2")
    )
