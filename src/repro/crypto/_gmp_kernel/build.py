"""cffi build recipe for the GIL-free GMP batch kernel.

The C side is small: two vectorized ``mpz_powm`` loops — one exponent
for the whole batch (DJ layer stripping, randomizer pools, shard
weighting) and one exponent per base (the ``RecoverEnc`` blinds, the
blinded select's unblinding, the ⊖ rescales, the blinded comparisons'
scales) — a scalar ``mpz_invert``, ``repro_paillier_decrypt`` (a batch
of whole CRT Paillier decryptions: the range and unit checks, both
``mpz_powm`` halves, ``L``, ``h_p`` / ``h_q`` and the recombination, or
the mod-``p`` half alone), two fused round operations built on the
loops below — ``repro_blind_round`` (an item-blinding round: every
component's summed seed blinds read off the SHAKE-256 streams, reduced
mod ``N`` and applied as ``c · (1 ± b·N)``, times its pool randomizer)
and ``repro_ehl_minus`` (a batch of ⊖: each pair's ``Enc(0)`` pool
draw, its cell quotients and its multi-exponentiation) — and three
loops on one Montgomery core:

* ``repro_powmod_products`` — ``acc · Π b^e`` per group of ragged width,
  as an interleaved sliding-window multi-exponentiation (Straus's
  interleaving with Möller's windows, "Algorithms for
  multi-exponentiation", SAC 2001): the group's bases share one chain of
  squarings.  Every ⊖ of an EHL pair and every layered select is one
  group; a group of one base is plain ``mpz_powm``, which GMP tunes
  better for a single exponentiation than this core can.
* ``repro_pool_products`` — the randomizer-pool draw, on a pool packed
  in Montgomery form: ``picks − 1`` Montgomery multiplications and one
  reduction out of Montgomery form per draw.
* ``repro_invert_vec`` — Montgomery's batch-inversion trick: one
  ``mpz_invert`` for the whole batch.

The core is Montgomery multiplication (Montgomery, "Modular
multiplication without trial division", Math. Comp. 1985) on GMP's
``mpn`` layer: ``mpn_mul_n`` / ``mpn_sqr`` for the product and an
``mpn_addmul_1`` word-by-word REDC.  It needs an odd modulus and 64-bit
GMP limbs; an even modulus, or a GMP built with other limbs, runs the
same entry point on ``mpz_powm`` / ``mpz_mul`` instead, with identical
results.

Everything crosses the boundary as fixed-width little-endian arrays of
64-bit words (least-significant word first, little-endian bytes within
each word), so a single C call carries an entire batch and cffi
releases the GIL for its whole duration.  That one property is the
point of this extension: with the pure backend every modular
exponentiation holds the GIL, so concurrent queries cannot overlap
their arithmetic; with this kernel they can.

Compiled on demand by :mod:`repro.crypto._gmp_kernel` (see ``load()``
there) into a per-user cache directory; building requires cffi, a C
compiler and the GMP development headers (``libgmp-dev``).  The
``kernel`` extra in ``setup.py`` pulls in cffi; the system pieces come
from the OS.  ``SOURCE`` is plain C, so it can be linted on its own:
``gcc -x c -fsyntax-only -Wall -Wextra -Werror -``.
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
int repro_powmod_products(const uint64_t *accs, const uint64_t *counts,
                          size_t n_groups,
                          const uint64_t *bases, const uint64_t *exps,
                          size_t n_items, size_t exp_words,
                          const uint64_t *mod, size_t mod_words,
                          uint64_t *out);
int repro_invert_vec(const uint64_t *values, size_t n_items,
                     const uint64_t *mod, size_t mod_words,
                     uint64_t *out);
int repro_paillier_decrypt(const uint64_t *cts, size_t n_items, size_t ct_words,
                           const uint64_t *crt, int below_p,
                           uint64_t *out, size_t out_words);
int repro_blind_round(const uint64_t *values, size_t n_items, size_t ct_words,
                      const uint64_t *layout, size_t n_groups,
                      const uint8_t *streams, size_t width,
                      const uint64_t *n, size_t n_words, int sign,
                      const uint64_t *pool, size_t index_bits,
                      const uint8_t *reads, size_t picks,
                      const uint64_t *mod, uint64_t *out);
int repro_ehl_minus(const uint64_t *pool, size_t index_bits,
                    const uint8_t *reads, size_t picks,
                    const uint64_t *counts, size_t n_groups,
                    const uint64_t *nums, const uint64_t *invs,
                    const uint64_t *exps, size_t n_items, size_t exp_words,
                    const uint64_t *mod, size_t mod_words, uint64_t *out);
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

/* ------------------------------------------------------------------
   The Montgomery core.  With R = 2^(64 * mod_words), a residue x is
   held as x·R mod m in mod_words limbs, and mont_mul(a, b) = a·b/R
   mod m: one mpn product and one REDC.  Every value it returns is
   fully reduced (< m), so results leave the core canonical.
   ------------------------------------------------------------------ */

#if GMP_NUMB_BITS == 64 && GMP_NAIL_BITS == 0
#define REPRO_MONT 1
#else
#define REPRO_MONT 0
#endif

/* Widest window of the multi-exponentiation (a constant, not a knob),
   and the table it needs per base: the odd powers b^1, b^3, ...,
   b^(2^WINDOW - 1). */
#define WINDOW 5
#define TABLE_SIZE ((size_t)1 << (WINDOW - 1))

#if REPRO_MONT

typedef struct {
    mp_size_t n;        /* limbs of the modulus */
    mp_limb_t *m;       /* the odd modulus */
    mp_limb_t minv;     /* -m^-1 mod 2^64 */
    mp_limb_t *t;       /* 2n-limb product scratch */
} mont_t;

static void load_limbs(mp_limb_t *dst, const uint64_t *words, size_t n)
{
    const unsigned char *p = (const unsigned char *)words;
    size_t i;
    int k;

    for (i = 0; i < n; i++) {
        mp_limb_t v = 0;
        for (k = 7; k >= 0; k--)
            v = (v << 8) | p[8 * i + (size_t)k];
        dst[i] = v;
    }
}

static void store_limbs(uint64_t *words, const mp_limb_t *src, size_t n)
{
    unsigned char *p = (unsigned char *)words;
    size_t i;
    int k;

    for (i = 0; i < n; i++)
        for (k = 0; k < 8; k++)
            p[8 * i + (size_t)k] = (unsigned char)(src[i] >> (8 * k));
}

/* 1 and a ready context when m is odd; 0 otherwise (the caller takes
   the mpz path).  One allocation holds m and the scratch. */
static int mont_init(mont_t *M, const uint64_t *mod, size_t mod_words)
{
    mp_limb_t inv;
    int i;

    /* the low byte of the low word: little-endian on every host */
    if (mod_words == 0 || (*(const unsigned char *)mod & 1) == 0)
        return 0;
    M->n = (mp_size_t)mod_words;
    M->m = (mp_limb_t *)malloc(3 * mod_words * sizeof(mp_limb_t));
    if (M->m == NULL)
        return 0;
    M->t = M->m + mod_words;
    load_limbs(M->m, mod, mod_words);
    /* Newton: an odd m is its own inverse mod 2^3; each step doubles
       the correct low bits (3, 6, 12, 24, 48, 96). */
    inv = M->m[0];
    for (i = 0; i < 5; i++)
        inv *= 2 - M->m[0] * inv;
    M->minv = -inv;
    return 1;
}

static void mont_clear(mont_t *M)
{
    free(M->m);
}

/* rp = t / R mod m, for the 2n-limb t < m·R held in M->t (consumed).
   The word-by-word REDC of mpn_redc_1: each step's carry is parked in
   the limb it just zeroed, and the parked carries are added to the
   high half at the end. */
static void mont_redc(const mont_t *M, mp_limb_t *rp)
{
    mp_limb_t *tp = M->t;
    mp_size_t i, n = M->n;

    for (i = 0; i < n; i++)
        tp[i] = mpn_addmul_1(tp + i, M->m, n, tp[i] * M->minv);
    if (mpn_add_n(rp, tp + n, tp, n) != 0 || mpn_cmp(rp, M->m, n) >= 0)
        mpn_sub_n(rp, rp, M->m, n);
}

/* rp = a·b / R mod m, for a, b < m; rp may alias a or b. */
static void mont_mul(const mont_t *M, mp_limb_t *rp,
                     const mp_limb_t *a, const mp_limb_t *b)
{
    if (a == b)
        mpn_sqr(M->t, a, M->n);
    else
        mpn_mul_n(M->t, a, b, M->n);
    mont_redc(M, rp);
}

/* rp = a / R mod m: out of Montgomery form. */
static void mont_out(const mont_t *M, mp_limb_t *rp, const mp_limb_t *a)
{
    size_t n = (size_t)M->n;

    memcpy(M->t, a, n * sizeof(mp_limb_t));
    memset(M->t + n, 0, n * sizeof(mp_limb_t));
    mont_redc(M, rp);
}

static void mpz_to_limbs(mp_limb_t *dst, const mpz_t z, size_t n)
{
    size_t i;

    for (i = 0; i < n; i++)
        dst[i] = mpz_getlimbn(z, (mp_size_t)i);
}

static void limbs_to_mpz(mpz_t z, const mp_limb_t *src, size_t n)
{
    mpz_import(z, n, -1, sizeof(mp_limb_t), 0, 0, src);
}

/* R^2 mod m, the factor that takes a residue into Montgomery form. */
static void mont_r2(const mont_t *M, mp_limb_t *r2)
{
    mpz_t x, m;

    mpz_init(m);
    mpz_init_set_ui(x, 1);
    limbs_to_mpz(m, M->m, (size_t)M->n);
    mpz_mul_2exp(x, x, 2 * 64 * (mp_bitcnt_t)M->n);
    mpz_mod(x, x, m);
    mpz_to_limbs(r2, x, (size_t)M->n);
    mpz_clear(x);
    mpz_clear(m);
}

/* Sliding windows of one exponent e of `bits` bits: marks[i] is the
   odd digit of the window whose lowest bit is i, or 0.  Scanning down
   from the top, each window opens at a set bit, spans at most WINDOW
   bits and closes at its lowest set bit.  Returns the index of e's top
   bit plus one (0 for e = 0); *widest is the largest digit. */
static size_t mark_windows(unsigned char *marks, const mp_limb_t *e, size_t bits,
                           size_t *widest)
{
    size_t i = bits, lo, k, top = 0;
    unsigned char digit;

#define BIT(x) ((e[(x) / 64] >> ((x) % 64)) & 1)
    memset(marks, 0, bits);
    while (i-- > 0) {
        if (!BIT(i))
            continue;
        if (top == 0)
            top = i + 1;
        lo = i + 1 >= WINDOW ? i + 1 - WINDOW : 0;
        while (!BIT(lo))
            lo++;
        for (digit = 0, k = i + 1; k-- > lo;)
            digit = (unsigned char)(digit << 1 | BIT(k));
        marks[lo] = digit;
        if (digit > *widest)
            *widest = digit;
        i = lo;
    }
#undef BIT
    return top;
}

/* One group of repro_powmod_products: r = acc · Π bases[j]^exps[j] mod
   m, by interleaved sliding windows — one chain of squarings for the
   whole group, one multiplication per window of each exponent.  acc
   and the bases are plain residues < m.  Scratch: tables (count *
   TABLE_SIZE entries), marks (count * 64 * exp_words bytes), elimbs
   (exp_words limbs). */
static void mont_group(const mont_t *M, mp_limb_t *r, const mp_limb_t *r2,
                       const uint64_t *acc, const uint64_t *bases,
                       const uint64_t *exps, size_t count, size_t exp_words,
                       mp_limb_t *tables, unsigned char *marks, mp_limb_t *elimbs)
{
    size_t n = (size_t)M->n, bits = 64 * exp_words, top = 0, j, i, d, widest;
    mp_limb_t *tab;
    int one = 1;

    for (j = 0; j < count; j++) {
        load_limbs(elimbs, exps + j * exp_words, exp_words);
        widest = 0;
        d = mark_windows(marks + j * bits, elimbs, bits, &widest);
        if (d > top)
            top = d;
        if (widest == 0)
            continue;
        /* b in Montgomery form, b^2 parked in r, then the odd powers
           up to the largest digit this exponent's windows use */
        tab = tables + j * TABLE_SIZE * n;
        load_limbs(tab, bases + j * n, n);
        mont_mul(M, tab, tab, r2);
        if (widest > 1)
            mont_mul(M, r, tab, tab);
        for (d = 1; d <= widest / 2; d++)
            mont_mul(M, tab + d * n, tab + (d - 1) * n, r);
    }
    for (i = top; i-- > 0;) {
        if (!one)
            mont_mul(M, r, r, r);
        for (j = 0; j < count; j++) {
            d = marks[j * bits + i];
            if (d == 0)
                continue;
            tab = tables + (j * TABLE_SIZE + d / 2) * n;
            if (one)
                memcpy(r, tab, n * sizeof(mp_limb_t));
            else
                mont_mul(M, r, r, tab);
            one = 0;
        }
    }
    /* r is Π b^e in Montgomery form and acc is plain, so one more
       product leaves the Montgomery domain and multiplies acc in. */
    tab = tables;  /* free again: its first entry takes acc */
    load_limbs(tab, acc, n);
    if (one)
        memcpy(r, tab, n * sizeof(mp_limb_t));
    else
        mont_mul(M, r, r, tab);
}

#endif  /* REPRO_MONT; without it every entry point takes its mpz path. */

/* out[g] = accs[g] · Π bases[j] ** exps[j]  mod  mod over group g's
   counts[g] consecutive (base, exponent) pairs.  accs and bases are
   residues < mod at mod_words each; every exponent is packed to
   exp_words.  A group of two or more bases is one interleaved
   multi-exponentiation on the Montgomery core; a single base is
   mpz_powm (GMP's own single exponentiation is the faster one), as is
   every group under an even modulus or without 64-bit limbs.  Returns
   0 on success, -1 for a zero modulus or counts that do not sum to
   n_items. */
int repro_powmod_products(const uint64_t *accs, const uint64_t *counts,
                          size_t n_groups,
                          const uint64_t *bases, const uint64_t *exps,
                          size_t n_items, size_t exp_words,
                          const uint64_t *mod, size_t mod_words,
                          uint64_t *out)
{
    mpz_t m, acc, b, e, p;
    size_t g, j, start, total = 0;

    for (g = 0; g < n_groups; g++)
        total += counts[g];
    mpz_init(m);
    import_words(m, mod, mod_words);
    if (total != n_items || mpz_sgn(m) == 0) {
        mpz_clear(m);
        return -1;
    }
#if REPRO_MONT
    mont_t M;
    size_t n = mod_words, widest = 1, limbs = 0;
    mp_limb_t *tables = NULL, *r2 = NULL, *r = NULL, *elimbs = NULL;

    for (g = 0; g < n_groups; g++)
        if (counts[g] > widest)
            widest = counts[g];
    if (widest > 1 && mont_init(&M, mod, mod_words)) {
        /* One block: the widest group's tables, R^2, the running
           product and one exponent's limbs, then the group's window
           marks.  Without it every group takes the mpz loop. */
        limbs = (widest * TABLE_SIZE + 2) * n + exp_words;
        tables = (mp_limb_t *)malloc(limbs * sizeof(mp_limb_t) + widest * 64 * exp_words);
        if (tables == NULL)
            mont_clear(&M);
    }
    if (tables != NULL) {
        r2 = tables + widest * TABLE_SIZE * n;
        r = r2 + n;
        elimbs = r + n;
        mont_r2(&M, r2);
    }
#endif
    mpz_init(acc);
    mpz_init(b);
    mpz_init(e);
    mpz_init(p);
    for (g = 0, start = 0; g < n_groups; start += counts[g], g++) {
#if REPRO_MONT
        if (tables != NULL && counts[g] > 1) {
            mont_group(&M, r, r2, accs + g * n, bases + start * n,
                       exps + start * exp_words, counts[g], exp_words, tables,
                       (unsigned char *)(tables + limbs), elimbs);
            store_limbs(out + g * n, r, n);
            continue;
        }
#endif
        import_words(acc, accs + g * mod_words, mod_words);
        for (j = start; j < start + counts[g]; j++) {
            import_words(b, bases + j * mod_words, mod_words);
            import_words(e, exps + j * exp_words, exp_words);
            mpz_powm(p, b, e, m);
            mpz_mul(acc, acc, p);
            mpz_mod(acc, acc, m);
        }
        export_words(out + g * mod_words, mod_words, acc);
    }
#if REPRO_MONT
    if (tables != NULL) {
        free(tables);
        mont_clear(&M);
    }
#endif
    mpz_clear(acc);
    mpz_clear(b);
    mpz_clear(e);
    mpz_clear(p);
    mpz_clear(m);
    return 0;
}

/* out[i] = product of `picks` pool elements mod mod: the randomizer-pool
   draw of paillier.pool_randomizers.  pool holds 2^index_bits elements of
   mod_words words each — in Montgomery form x·2^(64·mod_words) mod mod
   when mod is odd, plain when it is even; item i owns one big-endian
   read of ceil(picks * index_bits / 8) bytes, and its elements are
   chosen by the read's index_bits-wide digits, least significant first,
   after the read's surplus low bits are dropped.  Returns 0 on success,
   -1 for a zero modulus or a shape this loop cannot index (no pick, or
   a read wider than one uint64_t). */
int repro_pool_products(const uint64_t *pool, size_t index_bits,
                        const uint8_t *reads, size_t n_items, size_t picks,
                        const uint64_t *mod, size_t mod_words,
                        uint64_t *out)
{
    mpz_t m, acc, unmont;
    mpz_t *elems;
    size_t i, k, idx;
    uint64_t digits;
    size_t pool_size, read_bytes;

    if (picks == 0 || picks > 64 || index_bits > 30 || picks * index_bits > 64)
        return -1;
    pool_size = (size_t)1 << index_bits;
    read_bytes = (picks * index_bits + 7) / 8;
#if REPRO_MONT
    mont_t M;
    if (mont_init(&M, mod, mod_words)) {
        size_t n = mod_words;
        mp_limb_t *elem = (mp_limb_t *)malloc((pool_size + 1) * n * sizeof(mp_limb_t));
        mp_limb_t *r;

        if (elem == NULL) {
            mont_clear(&M);
            return -1;
        }
        r = elem + pool_size * n;
        load_limbs(elem, pool, pool_size * n);
        for (i = 0; i < n_items; i++) {
            digits = 0;
            for (k = 0; k < read_bytes; k++)
                digits = (digits << 8) | reads[i * read_bytes + k];
            digits >>= 8 * read_bytes - picks * index_bits;
            memcpy(r, elem + (digits & (pool_size - 1)) * n, n * sizeof(mp_limb_t));
            for (k = 1; k < picks; k++) {
                digits >>= index_bits;
                mont_mul(&M, r, r, elem + (digits & (pool_size - 1)) * n);
            }
            mont_out(&M, r, r);
            store_limbs(out + i * n, r, n);
        }
        free(elem);
        mont_clear(&M);
        return 0;
    }
#endif
    mpz_init(m);
    import_words(m, mod, mod_words);
    elems = (mpz_t *)malloc(pool_size * sizeof(mpz_t));
    if (mpz_sgn(m) == 0 || elems == NULL) {
        free(elems);
        mpz_clear(m);
        return -1;
    }
    /* An odd modulus means a Montgomery-form pool: multiply by R^-1. */
    mpz_init(unmont);
    if (mpz_odd_p(m)) {
        mpz_setbit(unmont, 64 * (mp_bitcnt_t)mod_words);
        mpz_invert(unmont, unmont, m);
    }
    for (idx = 0; idx < pool_size; idx++) {
        mpz_init(elems[idx]);
        import_words(elems[idx], pool + idx * mod_words, mod_words);
        if (mpz_odd_p(m)) {
            mpz_mul(elems[idx], elems[idx], unmont);
            mpz_mod(elems[idx], elems[idx], m);
        }
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
    mpz_clear(unmont);
    mpz_clear(m);
    return 0;
}

/* out[i] = values[i] ** -1 mod mod for the whole batch, residues < mod
   at mod_words each.  Returns 1 when every inverse exists, 0 when one
   does not (out is then garbage), -1 for a zero modulus or a failed
   allocation.  Montgomery's trick on plain residues: with
   p_i = mont_mul(p_{i-1}, v_i) = P_i / R^i, the inverse of p_i peels
   back to v_i^-1 = mont_mul(p_i^-1, p_{i-1}) and
   p_{i-1}^-1 = mont_mul(p_i^-1, v_i), so one mpz_invert serves all. */
int repro_invert_vec(const uint64_t *values, size_t n_items,
                     const uint64_t *mod, size_t mod_words,
                     uint64_t *out)
{
    mpz_t m, v, r;
    size_t i;
    int ok = 1;

    if (n_items == 0)
        return 1;
#if REPRO_MONT
    mont_t M;
    if (mont_init(&M, mod, mod_words)) {
        size_t n = mod_words;
        mp_limb_t *prefix = (mp_limb_t *)malloc((n_items + 2) * n * sizeof(mp_limb_t));
        mp_limb_t *inv, *cur;

        if (prefix == NULL) {
            mont_clear(&M);
            return -1;
        }
        inv = prefix + n_items * n;
        cur = inv + n;
        load_limbs(prefix, values, n);
        for (i = 1; i < n_items; i++) {
            load_limbs(cur, values + i * n, n);
            mont_mul(&M, prefix + i * n, prefix + (i - 1) * n, cur);
        }
        mpz_init(v);
        mpz_init(m);
        limbs_to_mpz(v, prefix + (n_items - 1) * n, n);
        limbs_to_mpz(m, M.m, n);
        ok = mpz_invert(v, v, m) != 0;
        mpz_to_limbs(inv, v, n);
        mpz_clear(v);
        mpz_clear(m);
        for (i = n_items - 1; ok && i > 0; i--) {
            load_limbs(cur, values + i * n, n);
            mont_mul(&M, prefix + i * n, inv, prefix + (i - 1) * n);
            store_limbs(out + i * n, prefix + i * n, n);
            mont_mul(&M, inv, inv, cur);
        }
        if (ok)
            store_limbs(out, inv, n);
        free(prefix);
        mont_clear(&M);
        return ok;
    }
#endif
    mpz_init(m);
    import_words(m, mod, mod_words);
    if (mpz_sgn(m) == 0) {
        mpz_clear(m);
        return -1;
    }
    mpz_init(v);
    mpz_init(r);
    for (i = 0; ok && i < n_items; i++) {
        import_words(v, values + i * mod_words, mod_words);
        ok = mpz_invert(r, v, m) != 0;
        if (ok)
            export_words(out + i * mod_words, mod_words, r);
    }
    mpz_clear(v);
    mpz_clear(r);
    mpz_clear(m);
    return ok;
}

/* One CRT half of a Paillier decryption: m = L(c^(prime-1) mod prime^2)
   · h mod prime, with L(u) = (u - 1) / prime exact for a unit c.  e is
   scratch. */
static void crt_half(mpz_t m, const mpz_t c, const mpz_t prime,
                     const mpz_t prime2, const mpz_t h, mpz_t e)
{
    mpz_sub_ui(e, prime, 1);
    mpz_mod(m, c, prime2);
    mpz_powm(m, m, e, prime2);
    mpz_sub_ui(m, m, 1);
    mpz_divexact(m, m, prime);
    mpz_mul(m, m, h);
    mpz_mod(m, m, prime);
}

/* out[i] = the Paillier plaintext of cts[i], every value at ct_words.
   crt holds nine constants at ct_words each: N^2, N, p, q, p^2, q^2,
   h_p, h_q and p^-1 mod q.  The plaintext is recombined from its two
   CRT halves, m = m_p + p · ((m_q - m_p) · p^-1 mod q); below_p stops
   at m_p.  The whole batch is checked before any output is written:
   returns 0 on success, 1 when a value lies outside (0, N^2), else 2
   when one shares a factor with N = pq (p or q divides it), and -1 for
   a zero N or one wider than out_words (every plaintext is below N). */
int repro_paillier_decrypt(const uint64_t *cts, size_t n_items, size_t ct_words,
                           const uint64_t *crt, int below_p,
                           uint64_t *out, size_t out_words)
{
    enum { N2, N, P, Q, P2, Q2, HP, HQ, PINVQ, CONSTANTS };
    mpz_t k[CONSTANTS], c, mp, mq, e;
    size_t i;
    int j, status = 0;

    for (j = 0; j < CONSTANTS; j++) {
        mpz_init(k[j]);
        import_words(k[j], crt + (size_t)j * ct_words, ct_words);
    }
    mpz_init(c);
    mpz_init(mp);
    mpz_init(mq);
    mpz_init(e);
    if (mpz_sgn(k[N]) == 0 || mpz_sizeinbase(k[N], 2) > 64 * out_words)
        status = -1;
    for (i = 0; status == 0 && i < n_items; i++) {
        import_words(c, cts + i * ct_words, ct_words);
        if (mpz_sgn(c) == 0 || mpz_cmp(c, k[N2]) >= 0)
            status = 1;
    }
    for (i = 0; status == 0 && i < n_items; i++) {
        import_words(c, cts + i * ct_words, ct_words);
        if (mpz_divisible_p(c, k[P]) || mpz_divisible_p(c, k[Q]))
            status = 2;
    }
    for (i = 0; status == 0 && i < n_items; i++) {
        import_words(c, cts + i * ct_words, ct_words);
        crt_half(mp, c, k[P], k[P2], k[HP], e);
        if (!below_p) {
            crt_half(mq, c, k[Q], k[Q2], k[HQ], e);
            mpz_sub(mq, mq, mp);
            mpz_mul(mq, mq, k[PINVQ]);
            mpz_mod(mq, mq, k[Q]);
            mpz_addmul(mp, mq, k[P]);
        }
        export_words(out + i * out_words, out_words, mp);
    }
    for (j = 0; j < CONSTANTS; j++)
        mpz_clear(k[j]);
    mpz_clear(c);
    mpz_clear(mp);
    mpz_clear(mq);
    mpz_clear(e);
    return status;
}

/* out[i] = values[i] · (1 + sign · b_i · N) · r_i  mod  N^2 for every
   Paillier component of a blinding round (ItemBlinder).  Group g is
   one item: layout[2g] components under layout[2g + 1] seeds.  Its
   streams follow one another in `streams`, one per seed, each
   layout[2g] big-endian `width`-byte reads; b_i is the sum of
   component i's read in every stream of its group, reduced mod N and,
   for sign < 0, negated mod N.  With picks > 0, r_i is the pool draw of
   read i of `reads` (see repro_pool_products; the pool is at mod's
   width); with picks == 0 there is no r_i.  mod is N^2 at ct_words,
   the width of every value.  The whole batch is checked before any
   output is written: returns 0 on success, 1 when a value lies outside
   [0, N^2), and -1 for a zero N, a mod that is not N^2, a layout that
   does not sum to n_items, or a pool draw repro_pool_products refuses. */
int repro_blind_round(const uint64_t *values, size_t n_items, size_t ct_words,
                      const uint64_t *layout, size_t n_groups,
                      const uint8_t *streams, size_t width,
                      const uint64_t *n, size_t n_words, int sign,
                      const uint64_t *pool, size_t index_bits,
                      const uint8_t *reads, size_t picks,
                      const uint64_t *mod, uint64_t *out)
{
    mpz_t nz, n2, c, b, t;
    uint64_t *rands = NULL;
    size_t g, i, j, s, count, seeds, total = 0;
    int status = 0;

    for (g = 0; g < n_groups; g++)
        total += layout[2 * g];
    mpz_init(nz);
    mpz_init(n2);
    mpz_init(c);
    mpz_init(b);
    mpz_init(t);
    import_words(nz, n, n_words);
    import_words(n2, mod, ct_words);
    mpz_mul(t, nz, nz);
    if (total != n_items || mpz_sgn(nz) == 0 || mpz_cmp(t, n2) != 0)
        status = -1;
    for (i = 0; status == 0 && i < n_items; i++) {
        import_words(c, values + i * ct_words, ct_words);
        if (mpz_cmp(c, n2) >= 0)
            status = 1;
    }
    if (status == 0 && picks > 0 && n_items > 0) {
        rands = (uint64_t *)malloc(n_items * ct_words * sizeof(uint64_t));
        if (rands == NULL || repro_pool_products(pool, index_bits, reads, n_items,
                                                 picks, mod, ct_words, rands) != 0)
            status = -1;
    }
    for (g = 0, i = 0; status == 0 && g < n_groups; g++) {
        count = layout[2 * g];
        seeds = layout[2 * g + 1];
        for (j = 0; j < count; j++, i++) {
            mpz_set_ui(b, 0);
            for (s = 0; s < seeds; s++) {
                mpz_import(t, width, 1, 1, 0, 0, streams + (s * count + j) * width);
                mpz_add(b, b, t);
            }
            mpz_mod(b, b, nz);
            if (sign < 0 && mpz_sgn(b) != 0)
                mpz_sub(b, nz, b);
            /* c · (1 + b·N) = c + N · (c·b mod N)  mod N^2 */
            import_words(c, values + i * ct_words, ct_words);
            mpz_mul(t, c, b);
            mpz_mod(t, t, nz);
            mpz_addmul(c, t, nz);
            if (mpz_cmp(c, n2) >= 0)
                mpz_sub(c, c, n2);
            if (rands != NULL) {
                import_words(t, rands + i * ct_words, ct_words);
                mpz_mul(c, c, t);
                mpz_mod(c, c, n2);
            }
            export_words(out + i * ct_words, ct_words, c);
        }
        streams += seeds * count * width;
    }
    free(rands);
    mpz_clear(nz);
    mpz_clear(n2);
    mpz_clear(c);
    mpz_clear(b);
    mpz_clear(t);
    return status;
}

/* out[g] = r_g · Π (nums[j] · invs[j]) ** exps[j]  mod  mod over group
   g's counts[g] consecutive cells: the ⊖ of one EHL pair, its Enc(0)
   randomizer r_g (the pool draw of read g of `reads`, see
   repro_pool_products) times one power per cell quotient, each group
   one repro_powmod_products multi-exponentiation.  nums and invs are
   residues at mod_words each, every exponent is packed to exp_words.
   The whole batch is checked before any output is written: returns 0
   on success, 1 when a numerator or an inverse lies outside [0, mod),
   and -1 for a zero modulus, a failed allocation, or a shape the pool
   draw or the products refuse. */
int repro_ehl_minus(const uint64_t *pool, size_t index_bits,
                    const uint8_t *reads, size_t picks,
                    const uint64_t *counts, size_t n_groups,
                    const uint64_t *nums, const uint64_t *invs,
                    const uint64_t *exps, size_t n_items, size_t exp_words,
                    const uint64_t *mod, size_t mod_words, uint64_t *out)
{
    mpz_t m, a, b;
    uint64_t *accs, *bases = NULL;
    size_t i;
    int status = 0;

    mpz_init(m);
    mpz_init(a);
    mpz_init(b);
    import_words(m, mod, mod_words);
    /* one word more than the groups and cells need: never malloc(0) */
    accs = (uint64_t *)malloc(((n_groups + n_items) * mod_words + 1) * sizeof(uint64_t));
    if (mpz_sgn(m) == 0 || accs == NULL)
        status = -1;
    else
        bases = accs + n_groups * mod_words;
    for (i = 0; status == 0 && i < n_items; i++) {
        import_words(a, nums + i * mod_words, mod_words);
        import_words(b, invs + i * mod_words, mod_words);
        if (mpz_cmp(a, m) >= 0 || mpz_cmp(b, m) >= 0) {
            status = 1;
            break;
        }
        mpz_mul(a, a, b);
        mpz_mod(a, a, m);
        export_words(bases + i * mod_words, mod_words, a);
    }
    if (status == 0 && n_groups > 0
        && repro_pool_products(pool, index_bits, reads, n_groups, picks,
                               mod, mod_words, accs) != 0)
        status = -1;
    if (status == 0
        && repro_powmod_products(accs, counts, n_groups, bases, exps, n_items,
                                 exp_words, mod, mod_words, out) != 0)
        status = -1;
    free(accs);
    mpz_clear(m);
    mpz_clear(a);
    mpz_clear(b);
    return status;
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
