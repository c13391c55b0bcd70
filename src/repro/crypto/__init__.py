"""Cryptographic substrate built from scratch on Python integers.

The evaluation environment provides no third-party cryptography packages,
so everything the paper's construction needs is implemented here:

* :mod:`repro.crypto.primes` — Miller–Rabin primality testing and random
  prime generation;
* :mod:`repro.crypto.paillier` — the Paillier cryptosystem with the full
  set of homomorphic operations used by the protocols;
* :mod:`repro.crypto.damgard_jurik` — the Damgård–Jurik generalization,
  including the *layered* encryption ``E2(Enc(m))`` whose inner
  homomorphism is the only DJ property the paper relies on (Section 3.3);
* :mod:`repro.crypto.prf` / :mod:`repro.crypto.prp` — HMAC-SHA-256 based
  pseudo-random functions and keyed permutations;
* :mod:`repro.crypto.encoding` — signed fixed-width score encoding in
  ``Z_N``;
* :mod:`repro.crypto.rng` — deterministic randomness plumbing so tests and
  benchmarks are reproducible;
* :mod:`repro.crypto.backend` — the pluggable modular-arithmetic compute
  layer (pure Python or gmpy2) every hot operation routes through;
* :mod:`repro.crypto.parallel` — the thread ``ComputePool`` kept for
  the benchmark's ``crypto.pool_*`` probe.
"""

from repro.crypto import backend
from repro.crypto.rng import SecureRandom, system_random
from repro.crypto.primes import is_probable_prime, random_prime
from repro.crypto.paillier import PaillierKeypair, PaillierPublicKey, PaillierSecretKey, Ciphertext
from repro.crypto.damgard_jurik import DamgardJurik, LayeredCiphertext
from repro.crypto.prf import Prf, derive_keys
from repro.crypto.prp import Prp
from repro.crypto.encoding import SignedEncoder

__all__ = [
    "backend",
    "SecureRandom",
    "system_random",
    "is_probable_prime",
    "random_prime",
    "PaillierKeypair",
    "PaillierPublicKey",
    "PaillierSecretKey",
    "Ciphertext",
    "DamgardJurik",
    "LayeredCiphertext",
    "Prf",
    "derive_keys",
    "Prp",
    "SignedEncoder",
]
