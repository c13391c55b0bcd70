"""cffi build recipe for the GIL-free GMP batch kernel.

The C side is deliberately tiny: two vectorized ``mpz_powm`` loops —
one exponent for the whole batch (CRT Paillier decryption, DJ layer
stripping, randomizer pools, shard weighting) and one exponent per base
(the ⊖ matrix's random scalars, the layered selects' and ``RecoverEnc``'s
scalar multiplications) — the randomizer-pool product loop, and a
scalar ``mpz_invert``.  Everything crosses the boundary as fixed-width
little-endian arrays of 64-bit words (least-significant word first,
little-endian bytes within each word), so a single C call carries an
entire batch and cffi releases the GIL for its whole duration.  That
one property is the point of this extension: with the pure and gmpy2
backends every modular exponentiation holds the GIL, so thread-based
shard workers cannot scale; with this kernel they can.

Compiled on demand by :mod:`repro.crypto._gmp_kernel` (see ``load()``
there) into a per-user cache directory; building requires cffi, a C
compiler and the GMP development headers (``libgmp-dev``).  The
``kernel`` extra in ``setup.py`` pulls in cffi; the system pieces come
from the OS.
"""

try:
    from cffi import FFI
except ImportError:  # pragma: no cover - environments without cffi
    FFI = None

#: Name of the compiled extension module.
MODULE_NAME = "_repro_gmp_kernel"

CDEF = """
int repro_powmod_vec(const uint64_t *bases, size_t n_items, size_t base_words,
                     const uint64_t *exp, size_t exp_words,
                     const uint64_t *mod, size_t mod_words,
                     uint64_t *out);
int repro_powmod_pairs(const uint64_t *bases, size_t n_items, size_t base_words,
                       const uint64_t *exps, size_t exp_words,
                       const uint64_t *mod, size_t mod_words,
                       uint64_t *out);
int repro_invert(const uint64_t *a, size_t a_words,
                 const uint64_t *mod, size_t mod_words,
                 uint64_t *out);
int repro_pool_products(const uint64_t *pool, size_t index_bits,
                        const uint8_t *reads, size_t n_items, size_t picks,
                        const uint64_t *mod, size_t mod_words,
                        uint64_t *out);
"""

SOURCE = r"""
#include <gmp.h>
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

/* Fixed-width little-endian word import/export.  order=-1: least
   significant word first; endian=-1: little-endian bytes within each
   word.  Fully specified (never "native") so the wire format is
   identical on every platform. */

static void import_words(mpz_t rop, const uint64_t *words, size_t n_words)
{
    mpz_import(rop, n_words, -1, sizeof(uint64_t), -1, 0, words);
}

static void export_words(uint64_t *words, size_t n_words, const mpz_t op)
{
    size_t count = 0;
    memset(words, 0, n_words * sizeof(uint64_t));
    /* op < mod by construction, so it always fits in n_words. */
    mpz_export(words, &count, -1, sizeof(uint64_t), -1, 0, op);
}

/* out[i] = bases[i] ** exp  mod  mod, for the whole batch in one call.
   Returns 0 on success, -1 for a zero modulus.  The shared exponent and
   modulus are imported once per call; cffi releases the GIL around the
   entire loop. */
int repro_powmod_vec(const uint64_t *bases, size_t n_items, size_t base_words,
                     const uint64_t *exp, size_t exp_words,
                     const uint64_t *mod, size_t mod_words,
                     uint64_t *out)
{
    mpz_t b, e, m, r;
    size_t i;
    int status = 0;

    mpz_init(e);
    mpz_init(m);
    import_words(e, exp, exp_words);
    import_words(m, mod, mod_words);
    if (mpz_sgn(m) == 0) {
        mpz_clear(e);
        mpz_clear(m);
        return -1;
    }
    mpz_init(b);
    mpz_init(r);
    for (i = 0; i < n_items; i++) {
        import_words(b, bases + i * base_words, base_words);
        mpz_powm(r, b, e, m);
        export_words(out + i * mod_words, mod_words, r);
    }
    mpz_clear(b);
    mpz_clear(e);
    mpz_clear(m);
    mpz_clear(r);
    return status;
}

/* out[i] = bases[i] ** exps[i]  mod  mod: one exponent per base, every
   exponent packed to the same exp_words.  Same contract as above. */
int repro_powmod_pairs(const uint64_t *bases, size_t n_items, size_t base_words,
                       const uint64_t *exps, size_t exp_words,
                       const uint64_t *mod, size_t mod_words,
                       uint64_t *out)
{
    mpz_t b, e, m, r;
    size_t i;

    mpz_init(m);
    import_words(m, mod, mod_words);
    if (mpz_sgn(m) == 0) {
        mpz_clear(m);
        return -1;
    }
    mpz_init(b);
    mpz_init(e);
    mpz_init(r);
    for (i = 0; i < n_items; i++) {
        import_words(b, bases + i * base_words, base_words);
        import_words(e, exps + i * exp_words, exp_words);
        mpz_powm(r, b, e, m);
        export_words(out + i * mod_words, mod_words, r);
    }
    mpz_clear(b);
    mpz_clear(e);
    mpz_clear(m);
    mpz_clear(r);
    return 0;
}

/* out = a ** -1 mod mod.  Returns 1 when the inverse exists, 0 when it
   does not (out untouched), -1 for a zero modulus. */
int repro_invert(const uint64_t *a, size_t a_words,
                 const uint64_t *mod, size_t mod_words,
                 uint64_t *out)
{
    mpz_t a_z, m_z, r;
    int ok;

    mpz_init(a_z);
    mpz_init(m_z);
    import_words(a_z, a, a_words);
    import_words(m_z, mod, mod_words);
    if (mpz_sgn(m_z) == 0) {
        mpz_clear(a_z);
        mpz_clear(m_z);
        return -1;
    }
    mpz_init(r);
    ok = mpz_invert(r, a_z, m_z) != 0;
    if (ok)
        export_words(out, mod_words, r);
    mpz_clear(a_z);
    mpz_clear(m_z);
    mpz_clear(r);
    return ok;
}

/* out[i] = product of `picks` pool elements mod mod: the randomizer-pool
   draw of paillier.pool_randomizers.  pool holds 2^index_bits elements of
   mod_words words each; item i owns one big-endian read of
   ceil(picks * index_bits / 8) bytes, and its elements are chosen by the
   read's index_bits-wide digits, least significant first, after the
   read's surplus low bits are dropped.  Returns 0 on success, -1 for a
   zero modulus or a shape this loop cannot index (no pick, or a read
   wider than one uint64_t). */
int repro_pool_products(const uint64_t *pool, size_t index_bits,
                        const uint8_t *reads, size_t n_items, size_t picks,
                        const uint64_t *mod, size_t mod_words,
                        uint64_t *out)
{
    mpz_t m, acc;
    mpz_t *elems;
    size_t i, k, idx;
    uint64_t digits;
    size_t pool_size, read_bytes;

    if (picks == 0 || picks > 64 || index_bits > 30 || picks * index_bits > 64)
        return -1;
    pool_size = (size_t)1 << index_bits;
    read_bytes = (picks * index_bits + 7) / 8;
    mpz_init(m);
    import_words(m, mod, mod_words);
    elems = (mpz_t *)malloc(pool_size * sizeof(mpz_t));
    if (mpz_sgn(m) == 0 || elems == NULL) {
        free(elems);
        mpz_clear(m);
        return -1;
    }
    for (idx = 0; idx < pool_size; idx++) {
        mpz_init(elems[idx]);
        import_words(elems[idx], pool + idx * mod_words, mod_words);
    }
    mpz_init(acc);
    for (i = 0; i < n_items; i++) {
        digits = 0;
        for (k = 0; k < read_bytes; k++)
            digits = (digits << 8) | reads[i * read_bytes + k];
        digits >>= 8 * read_bytes - picks * index_bits;
        mpz_set(acc, elems[digits & (pool_size - 1)]);
        for (k = 1; k < picks; k++) {
            digits >>= index_bits;
            mpz_mul(acc, acc, elems[digits & (pool_size - 1)]);
            mpz_mod(acc, acc, m);
        }
        export_words(out + i * mod_words, mod_words, acc);
    }
    for (idx = 0; idx < pool_size; idx++)
        mpz_clear(elems[idx]);
    free(elems);
    mpz_clear(acc);
    mpz_clear(m);
    return 0;
}
"""


def make_ffibuilder():
    """The cffi builder, or ``None`` when cffi is not installed."""
    if FFI is None:
        return None
    builder = FFI()
    builder.cdef(CDEF)
    builder.set_source(MODULE_NAME, SOURCE, libraries=["gmp"])
    return builder


# setuptools' cffi_modules entry point expects a module-level attribute;
# kept lazy-tolerant so importing this file never requires cffi.
ffibuilder = make_ffibuilder()
