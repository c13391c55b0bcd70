"""Party objects for the two-cloud architecture (Section 3.2).

* :class:`CryptoCloud` is S2: it holds the Paillier secret key and exposes
  exactly the operations the sub-protocols require.  It decrypts on the
  ``p`` half of the CRT alone, so what it reads is ``m mod p``.  Every piece of
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
from repro.net.channel import Channel
from repro.net.dispatch import S2Dispatcher
from repro.net.transport import InProcessTransport, Transport
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
    # S2's one decryption.  Everything S2 reads is a zero test, a coin-
    # masked bit or a blinded value below the encoder's plaintext bound
    # (well under p/2 in magnitude), and ``m mod p`` decides each: every
    # protocol decryption runs the p half of the CRT alone, in one
    # backend call per batch, so S2 never learns more than ``m mod p``.
    # ------------------------------------------------------------------

    def _residues(self, cts: list[Ciphertext]) -> list[int]:
        """``m mod p`` of every ciphertext.  A true zero reads 0; a
        uniform non-zero ``m`` reads 0 with probability below
        ``2^−(|p|−1)`` (``SystemParams.zero_test_error_bits``)."""
        return self._keypair.secret_key.decrypt_batch_below_p(cts)

    def _centred(self, cts: list[Ciphertext]) -> list[int]:
        """The signed plaintexts of ``cts``, each within the plaintext
        bound: ``m mod p`` read as a centred residue."""
        return to_signed(self._keypair.secret_key.p, self._residues(cts))

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
        bits = [1 if b == 0 else 0 for b in self._residues(cts)]
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
        request's bits are one ``masked_bit`` event); both read ``m mod
        p``.  Its value
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
        plain = self._residues(cts)
        if bit_mode:
            if any(value not in (0, 1) for value in plain):
                raise ProtocolError("masked-bit ciphertext held a non-bit value")
            bits = plain
            self.leakage.record("S2", protocol, "masked_bit", bits)
        else:
            bits = [1 if value == 0 else 0 for value in plain]
            self.leakage.record("S2", protocol, "eq_bits", bits)
        pk = self.public_key
        n = pk.n
        fresh = [
            Ciphertext(value, pk)
            for value in pk.randomize_values(
                [values[g].value if t else 1 for t, g in zip(bits, groups)]
                + [1 + t * n for t in bits],
                self.rng,
            )
        ]
        return fresh[: len(bits)], fresh[len(bits) :]

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
        sign = self._centred([ct])[0] > 0
        self.leakage.record("S2", protocol, "cmp_sign", sign)
        return sign

    def decrypt_masked_bit(self, ct: Ciphertext, protocol: str) -> int:
        """Decrypt a ciphertext known to hold a coin-masked bit: its
        residue mod ``p`` must be 0 or 1."""
        bit = self._residues([ct])[0]
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
        c = self._centred([ct])[0]
        low = c % (1 << ell)
        high = c >> ell
        bit_cts = self.public_key.encrypt_batch(
            [(low >> i) & 1 for i in range(ell)], self.rng
        )
        self.leakage.record("S2", protocol, "dgk_blinded", None)
        return bit_cts, self.public_key.encrypt(high, self.rng)

    def dgk_any_zero(self, cts: list[Ciphertext], protocol: str) -> bool:
        """Whether any of the (randomized, permuted) values decrypts to 0."""
        found = 0 in self._residues(cts)
        self.leakage.record("S2", protocol, "dgk_any_zero", found)
        return found

    # ------------------------------------------------------------------
    # Sorting (EncSort), deduplication (SecDedup / SecDupElim) and
    # filtering (SecFilter) are bulk operations: their S2 sides live in
    # the respective protocol modules as functions taking the CryptoCloud,
    # but the primitive they share is below.
    # ------------------------------------------------------------------

    def decrypt_batch_for_protocol(
        self, cts: list[Ciphertext], protocol: str, kind: str
    ) -> list[int]:
        """Decrypt blinded values to their residues mod ``p`` and log one
        ``kind`` event per decryption.

        Centralized so the leakage audit can enumerate every decryption
        S2 ever performed and classify it.
        """
        return self._logged(self._residues(cts), protocol, kind)

    def decrypt_signed_batch_for_protocol(
        self, cts: list[Ciphertext], protocol: str, kind: str
    ) -> list[int]:
        """Signed variant of :meth:`decrypt_batch_for_protocol`: centred
        residues mod ``p``."""
        return self._logged(self._centred(cts), protocol, kind)

    def _logged(self, values: list[int], protocol: str, kind: str) -> list[int]:
        for _ in values:
            self.leakage.record("S2", protocol, kind, None)
        return values

    def fresh_encrypt(self, value: int) -> Ciphertext:
        """A fresh Paillier encryption (S2 re-encrypting after a bulk op)."""
        return self.public_key.encrypt(value, self.rng)


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

    hook_errors: list = field(default_factory=list, init=False, repr=False)
    """Exceptions raised by the progress listener, in occurrence order;
    the first :data:`MAX_RECORDED_HOOK_ERRORS` are kept — a persistently
    broken listener fails every round, and keeping every traceback alive
    would grow with the scan.  The query keeps running either way."""

    #: Retention cap for :attr:`hook_errors`.
    MAX_RECORDED_HOOK_ERRORS = 32

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
            if len(self.hook_errors) < self.MAX_RECORDED_HOOK_ERRORS:
                self.hook_errors.append(exc)

    # -- S2 interaction --------------------------------------------------

    def call(self, msg):
        """Submit one request message to S2; one communication round."""
        return self._flush([msg])[0]

    def run_flows(self, flows: list) -> list:
        """Run protocol flows in lock-step; returns their results in order.

        A flow is a generator that ``yield``\\ s request messages and
        receives their replies.  Each iteration advances every unfinished
        flow by one yield and ships the yielded messages as ONE coalesced
        round-trip, so a depth's ``m`` independent equality/recover flows
        cost ``O(1)`` rounds instead of ``O(m)``.  Flows of different
        lengths are fine — finished flows simply stop participating.
        Flows are always advanced in list order, so a flow may rely on
        earlier flows having completed the same stage (the eager
        engine's absorption uses this).
        """
        results = [None] * len(flows)
        replies = [None] * len(flows)
        active = list(range(len(flows)))
        while active:
            stage: list[tuple[int, object]] = []
            for i in active:
                try:
                    stage.append((i, flows[i].send(replies[i])))
                except StopIteration as stop:
                    results[i] = stop.value
            if stage:
                flushed = self._flush([msg for _, msg in stage])
                for (i, _), reply in zip(stage, flushed):
                    replies[i] = reply
            active = [i for i, _ in stage]
        return results

    def _flush(self, messages: list) -> list:
        """Ship ``messages`` in one round-trip, with byte/round accounting.

        The job-control :meth:`checkpoint` (deadline / cancellation)
        fires before anything is sent, so a cancelled job stops at the
        round boundary — *the* round boundary of the client API.  After
        the replies land, one :class:`~repro.events.RoundTrip` goes to
        the listener.

        A coalesced round increments the global round counter once and
        credits each *distinct* participating protocol's round counter,
        so ``sum(per_protocol_rounds)`` can exceed ``rounds`` — the
        per-protocol view answers "how many rounds did this protocol
        ride in", the global counter "how many round-trips crossed the
        link".
        """
        self.checkpoint()
        channel = self.channel
        with channel.coalesced_round([msg.protocol for msg in messages]):
            for msg in messages:
                with channel.protocol(msg.protocol):
                    channel.send(msg.request_payload())
            replies = self.transport.exchange(messages)
            for msg, reply in zip(messages, replies):
                with channel.protocol(msg.protocol):
                    channel.receive(reply)
        if self.on_event is not None:
            stats = channel.stats
            self.notify(
                RoundTrip(
                    rounds=stats.rounds,
                    bytes_s1_to_s2=stats.bytes_s1_to_s2,
                    bytes_s2_to_s1=stats.bytes_s2_to_s1,
                )
            )
        return replies

    def close(self) -> None:
        """Release the transport (a socket session sends its CLOSE)."""
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
    session_label: str = "",
    on_event=None,
    control=None,
) -> S1Context:
    """Assemble the two-cloud wiring: crypto cloud behind a dispatcher
    behind a ``transport``, and an S1 context in front of it.

    ``transport`` is either ``"inprocess"`` (the crypto cloud behind an
    :class:`~repro.net.transport.InProcessTransport`) or a remote S2
    daemon address (``"tcp://host:port"`` / ``"unix:///path"``).  The
    remote path opens one session on a pooled daemon connection —
    registering the deployment's key material on first contact — and
    ships the S2 randomness stream with the session, so the remote run
    is bit-identical (results, rounds, bytes, leakage) to the local one.

    Single point of truth for context construction — every scheme's
    context wiring and :func:`make_parties` delegate here.

    ``session_label`` rides the remote OPEN frame so the daemon can
    attribute sessions to the jobs that opened them; ``on_event`` /
    ``control`` are the context's progress and job-control hooks (see
    :class:`S1Context`).
    """
    from repro.net.socket_transport import is_socket_address, open_remote_session

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
    elif transport == "inprocess":
        cloud = CryptoCloud(keypair, dj, s2_rng, leakage)
        link = InProcessTransport(S2Dispatcher(cloud))
    else:
        raise ProtocolError(
            f"unknown transport kind: {transport!r} (\"inprocess\", or an S2 "
            "daemon address: repro.connect(scheme, relation, \"tcp://host:port\"))"
        )
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

    ``transport`` is ``"inprocess"`` or an S2 daemon address.  The
    default encoder takes :meth:`SystemParams.tiny`'s widths, which meet
    the plaintext bound from a 128-bit key up.  Convenience for tests
    and examples; the full scheme in :mod:`repro.core` builds the
    parties itself.
    """
    from repro.core.params import SystemParams

    rng = rng or SecureRandom()
    dj = DamgardJurik(keypair.public_key, s=2)
    if encoder is None:
        widths = SystemParams.tiny()
        encoder = SignedEncoder(
            keypair.public_key.n,
            score_bits=widths.score_bits,
            blind_bits=widths.blind_bits,
        )
    return _wire_clouds(
        keypair, dj, encoder, transport, rng.spawn("s1"), rng.spawn("s2")
    )
