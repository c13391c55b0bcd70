"""The Damgård–Jurik generalized Paillier cryptosystem (PKC 2001).

For a Paillier modulus ``N`` and an expansion degree ``s >= 1``:

* message space   ``Z_{N^s}``
* ciphertext space ``Z_{N^{s+1}}``
* ``Enc_s(m; r) = (1 + N)^m * r^{N^s}  mod N^{s+1}``

``s = 1`` is exactly Paillier.  The construction in the paper only uses
``s = 2`` for the *layered* encryption ``E2(Enc(m))`` of Section 3.3: a
Paillier ciphertext (an element of ``Z_{N^2}``) is treated as a DJ
plaintext, and the DJ homomorphisms then operate on the inner Paillier
ciphertext:

* ``E2(c1) * E2(c2)        = E2(c1 + c2 mod N^2)``   (outer addition)
* ``E2(c1) ^ c2            = E2(c1 * c2 mod N^2)``   (outer scalar mult.)

Because Paillier's homomorphic *addition* is integer *multiplication* mod
``N^2``, the outer scalar multiplication realizes exactly the identity the
paper relies on::

    E2(Enc(m1)) ^ Enc(m2)  =  E2(Enc(m1) * Enc(m2))  =  E2(Enc(m1 + m2))

Decryption implements the recursive discrete-log extraction from the
original Damgård–Jurik paper.
"""

from __future__ import annotations

import functools

from repro.crypto import backend
from repro.crypto.paillier import (
    Ciphertext,
    PaillierKeypair,
    PaillierPublicKey,
    key_pool,
    pool_randomizers,
)
from repro.crypto.rng import SecureRandom
from repro.exceptions import DecryptionError, KeyMismatchError


def _dlog_table(n: int, s: int) -> tuple:
    """What :func:`_dlog` needs of ``(n, s)``, worked out once: per step
    ``j = 1..s`` the moduli ``n^j``, ``n^{j+1}`` and the coefficients
    ``n^{k-1} / k!  mod n^j`` for ``k = 2..j``."""
    steps = []
    for j in range(1, s + 1):
        n_j = n**j
        factorial = 1
        coefficients = []
        for k in range(2, j + 1):
            factorial *= k
            coefficients.append(n ** (k - 1) * pow(factorial, -1, n_j) % n_j)
        steps.append((n_j, n_j * n, tuple(coefficients)))
    return tuple(steps)


def _dlog(a: int, n: int, table: tuple) -> int:
    """Extract ``i mod n^s`` from ``a = (1 + n)^i mod n^{s+1}``.

    The iterative algorithm of Damgård–Jurik, Theorem 1 — for any odd
    ``n`` coprime to ``s!``, so the same routine serves base ``1 + p``
    over ``p^{s+1}``.  ``table`` is :func:`_dlog_table` of ``(n, s)``.
    """
    i = 0
    for n_j, n_j1, coefficients in table:
        t1 = (a % n_j1 - 1) // n
        t2 = i
        for coefficient in coefficients:
            i -= 1
            t2 = t2 * i % n_j
            t1 = (t1 - t2 * coefficient) % n_j
        i = t1
    return i


def _residues(values: list[int], half: tuple) -> list[int]:
    """The plaintexts of unit ciphertexts reduced mod ``p^s``: the ``p``
    half of the CRT decryption (``half`` as ``_crt_constants`` builds
    it), one vectorized ``|p|``-bit pow."""
    prime, mod, prime_s, table, h = half
    return [
        _dlog(a, prime, table) * h % prime_s
        for a in backend.powmod_vec([v % mod for v in values], prime - 1, mod)
    ]


class DamgardJurik:
    """Damgård–Jurik encryption of degree ``s`` sharing a Paillier modulus.

    The public operations (:meth:`encrypt`, homomorphic combination via
    :class:`LayeredCiphertext`) only need the public key; :meth:`decrypt`
    needs the secret key of the underlying :class:`PaillierKeypair`.
    """

    _POOL_SIZE = 64
    _POOL_PICKS = 6

    def __init__(self, public_key: PaillierPublicKey, s: int = 2):
        if s < 1:
            raise ValueError("expansion degree s must be >= 1")
        self.public_key = public_key
        self.s = s
        self.n = public_key.n
        self.n_s = public_key.n**s          # plaintext modulus N^s
        self.n_s1 = public_key.n ** (s + 1)  # ciphertext modulus N^{s+1}
        self._pool: backend.RandomizerPool | None = None
        self._rng: SecureRandom | None = None

    def __getstate__(self):
        # Per-process caches (randomizer pool, hoisted default rng) are
        # excluded so DJ instances ship cheaply to worker processes;
        # default dict-state unpickling restores everything else.
        state = self.__dict__.copy()
        state["_pool"] = None
        state["_rng"] = None
        return state

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DamgardJurik)
            and self.public_key == other.public_key
            and self.s == other.s
        )

    def __hash__(self) -> int:
        return hash(("dj", self.n, self.s))

    # -- encryption ------------------------------------------------------

    def _fresh_rng(self) -> SecureRandom:
        """Hoisted default randomness source (see the Paillier twin)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = SecureRandom()
        return rng

    def randomizer_pool(self):
        """The instance's pool of ``r^{N^s} mod N^{s+1}`` values (the
        Paillier key's randomizer-caching optimization)."""
        return key_pool(self, self.n_s, self.n_s1)

    def randomizers(self, rng: SecureRandom, count: int) -> list[int]:
        """``count`` fresh randomizers from the cached pool."""
        return pool_randomizers(self.randomizer_pool(), rng, count)

    def _g_pow(self, m: int) -> int:
        """``(1 + N)^m mod N^{s+1}`` via the binomial expansion.

        ``(1+N)^m = Σ_{i=0}^{s} C(m, i) N^i  (mod N^{s+1})`` — a handful of
        big-int multiplications instead of an ``N^s``-sized exponentiation
        (the classic Damgård–Jurik implementation trick).
        """
        m %= self.n_s
        result = 1
        term = 1  # C(m, i) * N^i, built incrementally
        n_i = 1
        for i in range(1, self.s + 1):
            term = term * (m - i + 1) // i
            n_i *= self.n
            result = (result + term % self.n_s1 * n_i) % self.n_s1
        return result

    def encrypt(self, m: int, rng: SecureRandom | None = None) -> "LayeredCiphertext":
        """Encrypt an integer plaintext (e.g. a bit, or a Paillier ct value)."""
        return self.encrypt_batch([m], rng)[0]

    def encrypt_batch(
        self, values: list[int], rng: SecureRandom | None = None
    ) -> list["LayeredCiphertext"]:
        """Encrypt a vector in ``Z_{N^s}`` component-wise (same stream
        order as a loop of :meth:`encrypt` calls)."""
        from repro.crypto.vector import CtVector

        return CtVector.encrypt(self, values, rng or self._fresh_rng()).ciphertexts()

    def encrypt_ciphertext(
        self, inner: Ciphertext, rng: SecureRandom | None = None
    ) -> "LayeredCiphertext":
        """Layered encryption ``E2(Enc(m))`` of a Paillier ciphertext."""
        if inner.public_key != self.public_key:
            raise KeyMismatchError("inner ciphertext under a different modulus")
        if self.s < 2:
            raise ValueError("layered encryption requires s >= 2")
        return self.encrypt(inner.value, rng)

    # -- decryption ------------------------------------------------------

    def _crt_constants(self, keypair: PaillierKeypair):
        """Per-keypair constants of the short-exponent CRT decryption:
        one ``(p, p^{s+1}, p^s, dlog table, h_p)`` per prime, with
        ``h_p = dlog_{1+p}((1+N)^{p-1})^{-1} mod p^s``, and
        ``(p^s)^{-1} mod q^s`` for the plaintext CRT.

        Cached *on the secret key* (fixed for a ``(keypair, s)`` pair;
        the inversions and dlog tables would otherwise recur on every
        batch of the crypto cloud's hottest path).  Deliberately not
        cached on this DJ instance, nor in a module-level memo: S1 holds
        the same objects, and secret-derived material must stay confined
        to the key the crypto cloud owns.
        """
        sk = keypair.secret_key
        cached = sk.dj_crt_cache.get(self.s)
        if cached is None:
            s = self.s
            halves = []
            for prime in (sk.p, sk.q):
                prime_s = prime**s
                mod = prime_s * prime
                table = _dlog_table(prime, s)
                g = backend.powmod((1 + self.n) % mod, prime - 1, mod)
                h = backend.invert(_dlog(g, prime, table), prime_s)
                halves.append((prime, mod, prime_s, table, h))
            (_, _, p_s, _, _), (_, _, q_s, _, _) = halves
            cached = sk.dj_crt_cache[s] = (*halves, backend.invert(p_s, q_s))
        return cached

    def values_of(self, cts) -> list[int]:
        """The bare integers of ``cts``, checked to belong to this
        instance: a vector (one check), or a list of ciphertext objects —
        :meth:`decrypt`'s one, S1's select bits and ``RecoverEnc``'s
        layered values."""
        checked = getattr(cts, "checked", None)
        if checked is not None:
            return checked(self).values()
        for c in cts:
            if c.scheme is not self and c.scheme != self:
                raise KeyMismatchError("ciphertext from a different DJ instance")
        return [c.value for c in cts]

    def decrypt(self, c: "LayeredCiphertext", keypair: PaillierKeypair) -> int:
        """Decrypt to an element of ``Z_{N^s}``."""
        return self.decrypt_batch([c], keypair)[0]

    def decrypt_batch(
        self, cts: list["LayeredCiphertext"], keypair: PaillierKeypair
    ) -> list[int]:
        """Batch decryption of ciphertext objects (:meth:`decrypt_values`)."""
        return self.decrypt_values(self.values_of(cts), keypair)

    def decrypt_values(self, values: list[int], keypair: PaillierKeypair) -> list[int]:
        """Batch decryption of bare ciphertext values, one ``|p|``-bit
        exponentiation per prime.

        Over ``p^{s+1}`` the randomizer dies under ``p - 1`` alone
        (``p^s (p-1)`` divides ``N^s (p-1)``), leaving
        ``c^{p-1} = (1+N)^{m(p-1)}``; ``1 + N`` is a power of ``1 + p``
        there, so ``m mod p^s = dlog_{1+p}(c^{p-1}) * h_p`` — the trick
        Paillier's own CRT decryption uses, with the Theorem-1 dlog in
        place of ``L``.  The two *plaintext* halves are then CRT-combined
        into ``Z_{N^s}``.  Every unit of ``Z_{N^{s+1}}`` is a ciphertext,
        so this is the full-exponent ``c^d`` answer for every unit; a
        value that is not one is refused.
        """
        if not values:
            return []
        if keypair.public_key != self.public_key:
            raise KeyMismatchError("keypair does not match this DJ instance")
        if any(backend.gcd(value, self.n) != 1 for value in values):
            raise DecryptionError("ciphertext is not a unit")
        half_p, half_q, p_s_inv = self._crt_constants(keypair)
        p_s, q_s = half_p[2], half_q[2]
        return [
            mp + p_s * ((mq - mp) * p_s_inv % q_s)
            for mp, mq in zip(_residues(values, half_p), _residues(values, half_q))
        ]

    def decrypt_inner_batch(
        self, cts: list["LayeredCiphertext"], keypair: PaillierKeypair
    ) -> list[Ciphertext]:
        """Strip the outer layer, ``E2(Enc(m))`` -> ``Enc(m)``, of a batch
        of objects — the crypto cloud's ``RecoverEnc`` step (Algorithm 5)
        for ``perfbench/probes.py`` and the tests; the cloud itself
        strips a vector through :meth:`decrypt_values`."""
        n2, pk = self.public_key.n_squared, self.public_key
        return [Ciphertext(v % n2, pk) for v in self.decrypt_batch(cts, keypair)]

    @functools.cached_property
    def ciphertext_bytes(self) -> int:
        """Serialized size of one DJ ciphertext (computed on first use,
        like the Paillier key's)."""
        return (self.n_s1.bit_length() + 7) // 8


class LayeredCiphertext:
    """A Damgård–Jurik ciphertext with the outer-layer homomorphisms.

    ``a + b`` adds the (inner) plaintexts, ``a + int`` adds a plaintext
    constant, ``a * k`` multiplies the inner plaintext by the integer
    ``k``, and ``a.scalar_ct(c)`` multiplies the inner plaintext by a
    Paillier ciphertext *value* — the operation written
    ``E2(t)^{Enc(x)}`` in the paper.
    """

    __slots__ = ("value", "scheme")

    def __init__(self, value: int, scheme: DamgardJurik):
        self.value = value
        self.scheme = scheme

    def _check(self, other: "LayeredCiphertext") -> None:
        if self.scheme is not other.scheme and self.scheme != other.scheme:
            raise KeyMismatchError("cannot combine DJ ciphertexts across instances")

    def __add__(self, other):
        if isinstance(other, LayeredCiphertext):
            self._check(other)
            return LayeredCiphertext(
                self.value * other.value % self.scheme.n_s1, self.scheme
            )
        if isinstance(other, int):
            # Adding a plaintext constant: multiply by (1 + N)^other.
            return LayeredCiphertext(
                self.value * self.scheme._g_pow(other) % self.scheme.n_s1,
                self.scheme,
            )
        return NotImplemented

    def __neg__(self):
        # Group inverse == encryption of the negated plaintext.
        return LayeredCiphertext(
            backend.invert(self.value, self.scheme.n_s1), self.scheme
        )

    def __sub__(self, other):
        if isinstance(other, LayeredCiphertext):
            self._check(other)
            return self + (-other)
        return NotImplemented

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return LayeredCiphertext(
            backend.powmod(self.value, scalar % self.scheme.n_s, self.scheme.n_s1),
            self.scheme,
        )

    __rmul__ = __mul__

    def scalar_ct(self, inner: Ciphertext) -> "LayeredCiphertext":
        """Outer scalar-multiplication by a Paillier ciphertext value.

        Realizes ``E2(t)^{Enc(x)}``: the inner plaintext ``t`` becomes
        ``t * Enc(x) mod N^2``.  When ``t`` is a bit this selects either
        the zero word (``t = 0``) or the Paillier ciphertext ``Enc(x)``
        (``t = 1``) — the homomorphic multiplexer at the heart of
        ``SecWorst``/``SecBest``/``SecUpdate``.
        """
        if inner.public_key != self.scheme.public_key:
            raise KeyMismatchError("inner ciphertext under a different modulus")
        return self * inner.value

    def __repr__(self) -> str:
        return f"LayeredCiphertext(s={self.scheme.s}, 0x{self.value:x})"

    def serialized_size(self) -> int:
        """Byte size on the wire."""
        return self.scheme.ciphertext_bytes


def layered_select_batch(
    dj: DamgardJurik,
    selections: list[tuple],
    rng: SecureRandom | None = None,
    scalars: list[int] | None = None,
) -> list["LayeredCiphertext"]:
    """Homomorphic muxes over one-hot encrypted selectors, a whole flow
    step at once.

    Per ``(bits, options, default)`` entry of ``selections``, with at
    most one ``bits[i] = E2(1)`` (all others ``E2(0)``):
    ``E2(Enc(options[i]))``, or ``E2(Enc(default))`` when every bit is
    zero.  A two-way select of Algorithms 4 and 6, the paper's
    ``E2(t)^{Enc(a)} · (E2(1) · E2(t)^{-1})^{Enc(b)}``, is the one-bit
    case, evaluated in the telescoped form ``E2(t)^{c_a - c_b} ·
    E2(c_b)``: one exponentiation instead of three.  Every
    ``E2(c_default)`` comes from one :meth:`DamgardJurik.encrypt_batch`,
    then each select's ``E2(c_default) · Π E2(t_i)^{c_i - c_default}``
    is one group of one :func:`~repro.crypto.backend.powmod_products`
    call.

    ``scalars`` (one Paillier ciphertext *value* ``k`` per selection)
    additionally multiplies each selected inner value by ``k`` mod
    ``N^2`` — what raising the select's output to ``k`` would give,
    ``(E2(t)^{c_a - c_b} · E2(c_b))^k = E2(t)^{(c_a - c_b)·k} · E2(c_b·k)``,
    folded into the exponents and the default the select computes
    anyway, so the scaling costs no exponentiation of its own.
    """
    n2 = dj.public_key.n_squared
    n_s1 = dj.n_s1
    if scalars is None:
        scalars = [1] * len(selections)
    bases, exps, counts = [], [], []
    for (bits, options, default), scalar in zip(selections, scalars):
        start = len(bases)
        for base, option in zip(dj.values_of(bits), options):
            bases.append(base)
            exps.append((option.value - default.value) * scalar % n2)
        counts.append(len(bases) - start)
    defaults = dj.encrypt_batch(
        [
            default.value * scalar % n2
            for (_, _, default), scalar in zip(selections, scalars)
        ],
        rng,
    )
    return [
        LayeredCiphertext(value, dj)
        for value in backend.powmod_products(
            dj.values_of(defaults), bases, exps, counts, n_s1
        )
    ]
