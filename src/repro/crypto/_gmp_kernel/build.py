"""cffi build recipe for the GIL-free GMP kernel.

The C side has one entry point, ``repro_run``: an interpreter of the
straight-line programs of :mod:`repro.crypto.backend`
(:class:`~repro.crypto.backend.Program`).  A program's registers live in
one arena of 64-bit words the caller lays out; ``repro_run`` checks
every register index and size against the arena and every op against
its registers, range-checks the program's input residues, then runs the
ops as the static bodies here, one body per op.  The op enum, the
per-op operand tables (``ARITY``, ``OPTIONAL``, ``RESIDUES``, ``SMALL``)
and the refusal codes are emitted from the backend's
:data:`~repro.crypto.backend.OPS` and
:data:`~repro.crypto.backend.REFUSALS`, so an op is declared once.

``powprod`` is an interleaved sliding-window multi-exponentiation
(Straus's interleaving with Möller's windows, "Algorithms for
multi-exponentiation", SAC 2001): a group's bases share one chain of
squarings, and a group of one base is plain ``mpz_powm``, which GMP
tunes better for a single exponentiation.  ``powprod``, ``pool`` (on a
pool packed in Montgomery form, a factor leaving the form in the same
multiplication) and ``inv`` (Montgomery's batch-inversion trick, one
``mpz_invert``) run on one Montgomery core (Montgomery, "Modular
multiplication without trial division", Math. Comp. 1985) on GMP's
``mpn`` layer: ``mpn_mul_n`` / ``mpn_sqr`` products and an
``mpn_addmul_1`` word-by-word REDC.  The core needs 64-bit GMP limbs —
the source is an ``#error`` on any other GMP, which the loader reports
as "kernel absent", so ``auto`` runs on the pure backend — and an odd
modulus: ``repro_run`` refuses an even one, and
:class:`~repro.crypto.kernels.GmpKernel` hands every program with an
even modulus to the pure interpreter instead.

Everything crosses the boundary as fixed-width little-endian arrays of
64-bit words (least-significant word first, little-endian bytes within
each word), so one C call carries a whole program and cffi releases the
GIL for all of it — the point of this extension: with the pure backend
every modular exponentiation holds the GIL, so concurrent queries
cannot overlap their arithmetic; with this kernel they can.

Compiled on demand by :mod:`repro.crypto._gmp_kernel` (see ``load()``
there) into a per-user cache directory; building requires cffi (the
``kernel`` extra in ``setup.py``), a C compiler and the GMP development
headers (``libgmp-dev``).  ``SOURCE`` is plain C, so it can be linted on
its own: ``gcc -x c -fsyntax-only -Wall -Wextra -Werror -``.
"""

from repro.crypto.backend import INTS, OPS, REFUSALS

try:
    from cffi import FFI
except ImportError:  # pragma: no cover - environments without cffi
    FFI = None

#: Name of the compiled extension module.
MODULE_NAME = "_repro_gmp_kernel"

CDEF = """
int repro_run(const uint64_t *ops, size_t n_ops, const uint64_t *table, size_t n_regs,
              uint64_t *arena, size_t arena_words);
"""


def _tables() -> str:
    """The C op enum (an op's code is its place in ``OPS``), the per-op
    operand tables and the refusal codes (1, 2, ... in ``REFUSALS``
    order)."""
    specs = OPS.values()

    def row(name, values):
        return f"static const unsigned char {name}[N_OPS] = {{{', '.join(map(str, values))}}};\n"

    return (
        "enum { " + "".join(f"OP_{name.upper()}, " for name in OPS) + "N_OPS };\n"
        + row("ARITY", [len(kinds) for _, kinds, *_ in specs])
        + row("OPTIONAL", [optional for _, _, optional, *_ in specs])
        + row("RESIDUES", [sum(1 << i for i in residues) for *_, residues, _ in specs])
        + row("SMALL", [
            sum(1 << i for i, kind in enumerate(kinds) if kind is INTS) for _, kinds, *_ in specs
        ])
        + "enum { "
        + ", ".join(f"ST_{name} = {code}" for code, name in enumerate(REFUSALS, 1))
        + " };\n"
    )


_HEAD = r"""#include <gmp.h>
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

#if GMP_NUMB_BITS != 64 || GMP_NAIL_BITS != 0
#error "the kernel's Montgomery core needs 64-bit GMP limbs"
#endif

/* The ops and refusals of repro.crypto.backend (OPS, REFUSALS).  Per
   op: its operands, how many of the last ones may be absent, which are
   residues under its modulus (bit i: operand i) and which are small
   ints the checks below read (never written by an op). */
"""

_BODY = r"""
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

/* out[i] = bases[i] ** exps[i]  mod  mod for the whole batch in one call:
   exponent i is the exp_words words at exps + i * exp_stride, so a zero
   stride gives every base one shared exponent, imported once. */
static void powmod_pairs(const uint64_t *bases, size_t n_items,
                         const uint64_t *exps, size_t exp_words, size_t exp_stride,
                         const uint64_t *mod, size_t mod_words, uint64_t *out)
{
    mpz_t b, e, m, r;
    size_t i;

    mpz_init(m);
    import_words(m, mod, mod_words);
    mpz_init(b);
    mpz_init(e);
    mpz_init(r);
    for (i = 0; i < n_items; i++) {
        if (i == 0 || exp_stride != 0)
            import_words(e, exps + i * exp_stride, exp_words);
        import_words(b, bases + i * mod_words, mod_words);
        mpz_powm(r, b, e, m);
        export_words(out + i * mod_words, mod_words, r);
    }
    mpz_clear(b);
    mpz_clear(e);
    mpz_clear(m);
    mpz_clear(r);
}

/* ------------------------------------------------------------------
   The Montgomery core.  With R = 2^(64 * mod_words), a residue x is
   held as x·R mod m in mod_words limbs, and mont_mul(a, b) = a·b/R
   mod m: one mpn product and one REDC.  Every value it returns is
   fully reduced (< m), so results leave the core canonical.
   ------------------------------------------------------------------ */

/* Widest window of the multi-exponentiation (a constant, not a knob),
   and the table it needs per base: the odd powers b^1, b^3, ...,
   b^(2^WINDOW - 1). */
#define WINDOW 5
#define TABLE_SIZE ((size_t)1 << (WINDOW - 1))

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

/* A context for the odd modulus mod, and `scratch` limbs for the
   caller, in one allocation (freed by mont_clear): the scratch, or
   NULL when the allocation fails. */
static mp_limb_t *mont_init(mont_t *M, const uint64_t *mod, size_t mod_words,
                            size_t scratch)
{
    mp_limb_t inv;
    int i;

    M->n = (mp_size_t)mod_words;
    M->m = (mp_limb_t *)malloc((3 * mod_words + scratch) * sizeof(mp_limb_t));
    if (M->m == NULL)
        return NULL;
    M->t = M->m + mod_words;
    load_limbs(M->m, mod, mod_words);
    /* Newton: an odd m is its own inverse mod 2^3; each step doubles
       the correct low bits (3, 6, 12, 24, 48, 96). */
    inv = M->m[0];
    for (i = 0; i < 5; i++)
        inv *= 2 - M->m[0] * inv;
    M->minv = -inv;
    return M->t + 2 * mod_words;
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

/* One group of powmod_products: r = acc · Π bases[j]^exps[j] mod
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

/* out[g] = accs[g] · Π bases[j] ** exps[j]  mod  mod over group g's
   counts[g] consecutive (base, exponent) pairs.  accs and bases are
   residues < mod at n words each; every exponent is packed to
   exp_words.  A group of two or more bases is one interleaved
   multi-exponentiation on the Montgomery core; a single base is
   mpz_powm (GMP's own single exponentiation is the faster one).
   Returns 0, or -1 when an allocation fails. */
static int powmod_products(const uint64_t *accs, const uint64_t *counts, size_t n_groups,
                           const uint64_t *bases, const uint64_t *exps, size_t exp_words,
                           const uint64_t *mod, size_t n, uint64_t *out)
{
    mont_t M;
    mpz_t m, acc, b, e, p;
    size_t g, start, widest = 1, limbs = 0;
    mp_limb_t *tables = NULL, *r2 = NULL, *r = NULL, *elimbs = NULL;

    for (g = 0; g < n_groups; g++)
        if (counts[g] > widest)
            widest = counts[g];
    if (widest > 1) {
        /* One block: the widest group's tables, R^2, the running
           product and one exponent's limbs, then the group's window
           marks (8 to a limb). */
        limbs = (widest * TABLE_SIZE + 2) * n + exp_words;
        tables = mont_init(&M, mod, n, limbs + widest * 8 * exp_words);
        if (tables == NULL)
            return -1;
        r2 = tables + widest * TABLE_SIZE * n;
        r = r2 + n;
        elimbs = r + n;
        mont_r2(&M, r2);
    }
    mpz_init(m);
    import_words(m, mod, n);
    mpz_init(acc);
    mpz_init(b);
    mpz_init(e);
    mpz_init(p);
    for (g = 0, start = 0; g < n_groups; start += counts[g], g++) {
        if (counts[g] > 1) {
            mont_group(&M, r, r2, accs + g * n, bases + start * n,
                       exps + start * exp_words, counts[g], exp_words, tables,
                       (unsigned char *)(tables + limbs), elimbs);
            store_limbs(out + g * n, r, n);
            continue;
        }
        import_words(acc, accs + g * n, n);
        if (counts[g] == 1) {
            import_words(b, bases + start * n, n);
            import_words(e, exps + start * exp_words, exp_words);
            mpz_powm(p, b, e, m);
            mpz_mul(acc, acc, p);
            mpz_mod(acc, acc, m);
        }
        export_words(out + g * n, n, acc);
    }
    if (tables != NULL)
        mont_clear(&M);
    mpz_clear(acc);
    mpz_clear(b);
    mpz_clear(e);
    mpz_clear(p);
    mpz_clear(m);
    return 0;
}

/* 1 when every one of the n_items values at w words lies below mod (at
   w words too), else 0. */
static int all_below(const uint64_t *values, size_t n_items, const uint64_t *mod,
                     size_t w)
{
    mpz_t v, m;
    size_t i;
    int ok = 1;

    mpz_init(v);
    mpz_init(m);
    import_words(m, mod, w);
    for (i = 0; ok && i < n_items; i++) {
        import_words(v, values + i * w, w);
        ok = mpz_cmp(v, m) < 0;
    }
    mpz_clear(v);
    mpz_clear(m);
    return ok;
}

/* out[i] = product of `picks` pool elements mod mod, times factors[i]
   when factors is not NULL: the randomizer-pool draw of
   paillier.pool_randomizers, multiplied into its value for a batch
   encryption or rerandomization.  pool holds 2^index_bits elements of
   n words each, in Montgomery form x·2^(64·n) mod mod; item i owns one
   big-endian read of ceil(picks * index_bits / 8) bytes, and its
   elements are chosen by the read's index_bits-wide digits, least
   significant first, after the read's surplus low bits are dropped;
   every factor is below mod.  Returns 0, or -1 when an allocation
   fails. */
static int pool_products(const uint64_t *pool, size_t index_bits,
                         const uint8_t *reads, size_t n_items, size_t picks,
                         const uint64_t *factors, const uint64_t *mod, size_t n,
                         uint64_t *out)
{
    mont_t M;
    size_t i, k, pool_size = (size_t)1 << index_bits;
    size_t read_bytes = (picks * index_bits + 7) / 8;
    uint64_t digits;
    mp_limb_t *elem, *r, *f;

    elem = mont_init(&M, mod, n, (pool_size + 2) * n);
    if (elem == NULL)
        return -1;
    r = elem + pool_size * n;
    f = r + n;
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
        /* r·R times a plain factor leaves Montgomery form in the same
           multiplication. */
        if (factors != NULL) {
            load_limbs(f, factors + i * n, n);
            mont_mul(&M, r, r, f);
        } else
            mont_out(&M, r, r);
        store_limbs(out + i * n, r, n);
    }
    mont_clear(&M);
    return 0;
}

/* out[i] = values[i] ** -1 mod mod for the whole batch, residues < mod
   at n words each.  Returns 0, ST_NOT_INVERTIBLE when one value has no
   inverse (out is then garbage), or -1 for a failed allocation.
   Montgomery's trick on plain residues: with p_i = mont_mul(p_{i-1},
   v_i) = P_i / R^i, the inverse of p_i peels back to v_i^-1 =
   mont_mul(p_i^-1, p_{i-1}) and p_{i-1}^-1 = mont_mul(p_i^-1, v_i), so
   one mpz_invert serves all. */
static int invert_vec(const uint64_t *values, size_t n_items,
                      const uint64_t *mod, size_t n, uint64_t *out)
{
    mont_t M;
    mpz_t m, v;
    size_t i;
    mp_limb_t *prefix, *inv, *cur;
    int ok;

    if (n_items == 0)
        return 0;
    prefix = mont_init(&M, mod, n, (n_items + 2) * n);
    if (prefix == NULL)
        return -1;
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
    mont_clear(&M);
    return ok ? 0 : ST_NOT_INVERTIBLE;
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
   returns 0 on success, ST_OUTSIDE_ZN2 when a value lies outside
   (0, N^2), else ST_NOT_A_UNIT when one shares a factor with N = pq (p
   or q divides it); every plaintext (below N) is written at ct_words. */
static int paillier_decrypt(const uint64_t *cts, size_t n_items, size_t ct_words,
                            const uint64_t *crt, int below_p,
                            uint64_t *out)
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
    for (i = 0; status == 0 && i < n_items; i++) {
        import_words(c, cts + i * ct_words, ct_words);
        if (mpz_sgn(c) == 0 || mpz_cmp(c, k[N2]) >= 0)
            status = ST_OUTSIDE_ZN2;
    }
    for (i = 0; status == 0 && i < n_items; i++) {
        import_words(c, cts + i * ct_words, ct_words);
        if (mpz_divisible_p(c, k[P]) || mpz_divisible_p(c, k[Q]))
            status = ST_NOT_A_UNIT;
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
        export_words(out + i * ct_words, ct_words, mp);
    }
    for (j = 0; j < CONSTANTS; j++)
        mpz_clear(k[j]);
    mpz_clear(c);
    mpz_clear(mp);
    mpz_clear(mq);
    mpz_clear(e);
    return status;
}

/* ------------------------------------------------------------------
   The program interpreter.  A program is n_ops ops of OP_FIELDS words
   each — its code, its modulus register, the register it writes and up
   to four operand registers (NONE where absent) — over n_regs registers
   laid out in one arena of 64-bit words.  The table holds REG_FIELDS
   words per register: its offset in the arena, its element count, its
   width in words (0 for a byte register, whose count is in bytes) and
   an auxiliary word (a pool's picks).  The Python side checks the
   shapes before the call (repro.crypto.backend.Program.shapes); this
   side checks every index and size again before it reads or writes.
   ------------------------------------------------------------------ */

#define OP_FIELDS 7
#define REG_FIELDS 4
#define NONE UINT64_MAX

typedef struct {
    uint64_t *w;      /* its first word in the arena */
    size_t count;     /* elements (bytes, for a byte register) */
    size_t words;     /* words per element; 0 for a byte register */
    size_t aux;       /* a pool's picks */
} reg_t;

/* *out = a * b; 0 when that overflows. */
static int mul_size(size_t a, size_t b, size_t *out)
{
    if (b != 0 && a > SIZE_MAX / b)
        return 0;
    *out = a * b;
    return 1;
}

/* 1 when the words of `counts` sum to exactly `target`. */
static int sums_to(const reg_t *counts, size_t target)
{
    size_t g, total = 0;

    for (g = 0; g < counts->count; g++) {
        if (counts->w[g] > target - total)
            return 0;
        total += counts->w[g];
    }
    return total == target;
}

/* log2 of a power of two up to 2^30, else -1. */
static int index_bits_of(size_t count)
{
    int k = 0;

    while (k < 30 && ((size_t)1 << k) < count)
        k++;
    return ((size_t)1 << k) == count ? k : -1;
}

/* 1 when op's registers fit it: every index in range, no operand the
   register it writes, an odd modulus (but for decrypt, whose modulus
   register holds a key's constants), every residue at its modulus's
   width and every count what the op reads or writes. */
static int op_fits(const uint64_t *op, const reg_t *R, size_t n_regs,
                   const unsigned char *written)
{
    uint64_t code = op[0];
    const reg_t *m, *d, *x[4] = {NULL, NULL, NULL, NULL};
    size_t w, i, g, total, used, t;
    int k;

    if (code >= N_OPS || op[1] >= n_regs || op[2] >= n_regs || op[1] == op[2])
        return 0;
    for (i = 0; i < 4; i++) {
        if (op[3 + i] == NONE) {
            if (i < (size_t)(ARITY[code] - OPTIONAL[code]))
                return 0;
            continue;
        }
        if (i >= ARITY[code] || op[3 + i] >= n_regs || op[3 + i] == op[2])
            return 0;
        if ((SMALL[code] >> i & 1) && (written[op[3 + i]] || R[op[3 + i]].words != 1))
            return 0;
        x[i] = &R[op[3 + i]];
    }
    m = &R[op[1]];
    d = &R[op[2]];
    w = m->words;
    if (w == 0 || m->count != (code == OP_DECRYPT ? 9u : 1u) || d->words != w)
        return 0;
    /* the low byte of the low word: little-endian on every host */
    if (code != OP_DECRYPT && (*(const unsigned char *)m->w & 1) == 0)
        return 0;
    for (i = 0; i < w && m->w[i] == 0; i++)
        ;
    if (i == w)  /* a zero modulus (N^2 for decrypt) */
        return 0;
    for (i = 0; i < 4; i++)
        if (x[i] != NULL && (RESIDUES[code] >> i & 1) && x[i]->words != w)
            return 0;
    switch (code) {
    case OP_MUL:
        return (x[0]->count == x[1]->count || x[0]->count == 1 || x[1]->count == 1)
               && d->count == (x[0]->count == 1 ? x[1]->count : x[0]->count);
    case OP_INV:
        return d->count == x[0]->count;
    case OP_POW:
        return x[1]->words > 0 && d->count == x[0]->count
               && (x[1]->count == x[0]->count || x[1]->count == 1);
    case OP_POWPROD:
        return x[2]->words > 0 && x[2]->count == x[1]->count
               && x[0]->count == x[3]->count && d->count == x[3]->count
               && sums_to(x[3], x[1]->count);
    case OP_PROD:
        return x[0]->count == x[2]->count && d->count == x[2]->count
               && sums_to(x[2], x[1]->count);
    case OP_POOL:
        k = index_bits_of(x[0]->count);
        t = x[0]->aux;
        if (x[0]->words != w || k < 0 || t == 0 || t > 64
            || t * (size_t)k > 64 || x[1]->words != 0)
            return 0;
        t = (t * (size_t)k + 7) / 8;
        return t > 0 && x[1]->count % t == 0 && d->count == x[1]->count / t
               && (x[2] == NULL || x[2]->count == d->count);
    case OP_PICK:
        return x[0]->words == 0 && d->count == x[0]->count
               && (x[1]->count == d->count || x[1]->count == 1)
               && (x[2]->count == d->count || x[2]->count == 1);
    case OP_GATHER:
        if (d->count != x[1]->count)
            return 0;
        for (i = 0; i < x[1]->count; i++)
            if (x[1]->w[i] >= x[0]->count)
                return 0;
        return 1;
    case OP_CAT:
        return d->count == x[0]->count + x[1]->count + (x[2] == NULL ? 0 : x[2]->count);
    case OP_DECRYPT:
        return d->count == x[0]->count && x[1]->count == 1 && x[1]->w[0] <= 1;
    case OP_BLINDS:
        if (x[0]->count % 2 || x[1]->words != 0 || x[2]->words == 0 || x[2]->count != 1
            || x[3]->count != 2 || x[3]->w[0] == 0 || x[3]->w[1] > 1)
            return 0;
        for (g = 0, total = 0, used = 0; g < x[0]->count / 2; g++) {
            if (x[0]->w[2 * g] > d->count - total)
                return 0;
            total += x[0]->w[2 * g];
            if (!mul_size(x[0]->w[2 * g], x[0]->w[2 * g + 1], &t)
                || !mul_size(t, x[3]->w[0], &t) || t > x[1]->count - used)
                return 0;
            used += t;
        }
        return total == d->count && used == x[1]->count;
    }
    return 0;
}

/* d[i] = a[i] · b[i] mod m, a length-1 operand broadcast. */
static void op_mul(const reg_t *d, const reg_t *a, const reg_t *b, const reg_t *m)
{
    mpz_t x, y, mod;
    size_t i, w = m->words;

    mpz_init(x);
    mpz_init(y);
    mpz_init(mod);
    import_words(mod, m->w, w);
    for (i = 0; i < d->count; i++) {
        import_words(x, a->w + (a->count == d->count ? i : 0) * w, w);
        import_words(y, b->w + (b->count == d->count ? i : 0) * w, w);
        mpz_mul(x, x, y);
        mpz_mod(x, x, mod);
        export_words(d->w + i * w, w, x);
    }
    mpz_clear(x);
    mpz_clear(y);
    mpz_clear(mod);
}

/* d[g] = acc[g] · Π v[j] mod m over group g's counts[g] consecutive
   values. */
static void op_prod(const reg_t *d, const reg_t *acc, const reg_t *v,
                    const reg_t *counts, const reg_t *m)
{
    mpz_t x, y, mod;
    size_t g, j, k = 0, w = m->words;

    mpz_init(x);
    mpz_init(y);
    mpz_init(mod);
    import_words(mod, m->w, w);
    for (g = 0; g < d->count; g++) {
        import_words(x, acc->w + g * w, w);
        for (j = 0; j < counts->w[g]; j++, k++) {
            import_words(y, v->w + k * w, w);
            mpz_mul(x, x, y);
            mpz_mod(x, x, mod);
        }
        export_words(d->w + g * w, w, x);
    }
    mpz_clear(x);
    mpz_clear(y);
    mpz_clear(mod);
}

/* d[i] = a[i] where mask[i] is set, else b[i] (a length-1 operand
   broadcast). */
static void op_pick(const reg_t *d, const reg_t *mask, const reg_t *a, const reg_t *b)
{
    const unsigned char *bit = (const unsigned char *)mask->w;
    const reg_t *src;
    size_t i, w = d->words;

    for (i = 0; i < d->count; i++) {
        src = bit[i] ? a : b;
        memcpy(d->w + i * w, src->w + (src->count == d->count ? i : 0) * w,
               w * sizeof(uint64_t));
    }
}

/* The item-blinding round's blinds: d[i] = (1 + N)^b_i = 1 + b_i · N
   mod N^2 (m), b_i the sum of component i's reads in every stream of
   its item, reduced mod N and negated for params[1].  Item g of layout
   owns layout[2g] components and layout[2g + 1] consecutive streams,
   each layout[2g] big-endian params[0]-byte reads.  Returns 0, or -1
   when N^2 is not m. */
static int op_blinds(const reg_t *d, const reg_t *layout, const reg_t *streams,
                     const reg_t *n, const reg_t *params, const reg_t *m)
{
    const uint8_t *stream = (const uint8_t *)streams->w;
    size_t g, j, s, i = 0, count, seeds, width = params->w[0], w = m->words;
    mpz_t nz, n2, b, t;
    int status = 0;

    mpz_init(nz);
    mpz_init(n2);
    mpz_init(b);
    mpz_init(t);
    import_words(nz, n->w, n->words);
    import_words(n2, m->w, w);
    mpz_mul(t, nz, nz);
    if (mpz_sgn(nz) == 0 || mpz_cmp(t, n2) != 0)
        status = -1;
    for (g = 0; status == 0 && g < layout->count / 2; g++) {
        count = layout->w[2 * g];
        seeds = layout->w[2 * g + 1];
        for (j = 0; j < count; j++, i++) {
            mpz_set_ui(b, 0);
            for (s = 0; s < seeds; s++) {
                mpz_import(t, width, 1, 1, 0, 0, stream + (s * count + j) * width);
                mpz_add(b, b, t);
            }
            mpz_mod(b, b, nz);
            if (params->w[1] && mpz_sgn(b) != 0)
                mpz_sub(b, nz, b);
            mpz_mul(b, b, nz);
            mpz_add_ui(b, b, 1);
            mpz_mod(b, b, n2);
            export_words(d->w + i * w, w, b);
        }
        stream += seeds * count * width;
    }
    mpz_clear(nz);
    mpz_clear(n2);
    mpz_clear(b);
    mpz_clear(t);
    return status;
}

/* One op whose registers fit it: 0, a refusal, or -1. */
static int run_op(const uint64_t *op, const reg_t *R)
{
    const reg_t *m = &R[op[1]], *d = &R[op[2]], *x[4];
    size_t i, w = m->words;

    for (i = 0; i < 4; i++)
        x[i] = op[3 + i] == NONE ? NULL : &R[op[3 + i]];
    switch (op[0]) {
    case OP_MUL:
        op_mul(d, x[0], x[1], m);
        return 0;
    case OP_INV:
        return invert_vec(x[0]->w, x[0]->count, m->w, w, d->w);
    case OP_POW:
        powmod_pairs(x[0]->w, x[0]->count, x[1]->w, x[1]->words,
                     x[1]->count == x[0]->count ? x[1]->words : 0, m->w, w, d->w);
        return 0;
    case OP_POWPROD:
        return powmod_products(x[0]->w, x[3]->w, x[3]->count, x[1]->w, x[2]->w,
                               x[2]->words, m->w, w, d->w);
    case OP_PROD:
        op_prod(d, x[0], x[1], x[2], m);
        return 0;
    case OP_POOL:
        if (d->count == 0)
            return 0;
        return pool_products(x[0]->w, (size_t)index_bits_of(x[0]->count),
                             (const uint8_t *)x[1]->w, d->count, x[0]->aux,
                             x[2] == NULL ? NULL : x[2]->w, m->w, w, d->w);
    case OP_PICK:
        op_pick(d, x[0], x[1], x[2]);
        return 0;
    case OP_GATHER:
        for (i = 0; i < d->count; i++)
            memcpy(d->w + i * w, x[0]->w + x[1]->w[i] * w, w * sizeof(uint64_t));
        return 0;
    case OP_CAT:
        memcpy(d->w, x[0]->w, x[0]->count * w * sizeof(uint64_t));
        memcpy(d->w + x[0]->count * w, x[1]->w, x[1]->count * w * sizeof(uint64_t));
        if (x[2] != NULL)
            memcpy(d->w + (x[0]->count + x[1]->count) * w, x[2]->w,
                   x[2]->count * w * sizeof(uint64_t));
        return 0;
    case OP_DECRYPT:
        return paillier_decrypt(x[0]->w, x[0]->count, w, m->w, (int)x[1]->w[0], d->w);
    case OP_BLINDS:
        return op_blinds(d, x[0], x[1], x[2], x[3], m);
    }
    return -1;
}

/* Run a program: check every register against the arena and every op
   against its registers (-1 if any does not fit; nothing is read or
   written then), check every input residue below the modulus of the
   first op that reads it (ST_OUTSIDE_MOD), then run the ops in order,
   stopping at the first refusal.  Returns 0 on success. */
int repro_run(const uint64_t *ops, size_t n_ops, const uint64_t *table, size_t n_regs,
              uint64_t *arena, size_t arena_words)
{
    reg_t *R;
    unsigned char *written, *checked;
    const uint64_t *op, *t;
    size_t i, j, size;
    uint64_t r;
    int status = 0;

    R = (reg_t *)malloc(n_regs * (sizeof(reg_t) + 2) + 1);
    if (R == NULL)
        return -1;
    written = (unsigned char *)(R + n_regs);
    checked = written + n_regs;
    memset(written, 0, 2 * n_regs);
    for (i = 0; status == 0 && i < n_regs; i++) {
        t = table + i * REG_FIELDS;
        if (t[2] == 0)
            size = t[1] / 8 + (t[1] % 8 != 0);
        else if (!mul_size(t[1], t[2], &size))
            status = -1;
        if (status == 0 && (t[0] > arena_words || size > arena_words - t[0]))
            status = -1;
        R[i].w = arena + t[0];
        R[i].count = t[1];
        R[i].words = t[2];
        R[i].aux = t[3];
    }
    for (i = 0; status == 0 && i < n_ops; i++) {
        r = ops[i * OP_FIELDS + 2];
        if (r >= n_regs || written[r])
            status = -1;
        else
            written[r] = 1;
    }
    for (i = 0; status == 0 && i < n_ops; i++)
        if (!op_fits(ops + i * OP_FIELDS, R, n_regs, written))
            status = -1;
    for (i = 0; status == 0 && i < n_ops; i++) {
        op = ops + i * OP_FIELDS;
        for (j = 0; status == 0 && j < 4; j++) {
            r = op[3 + j];
            if (r == NONE || !(RESIDUES[op[0]] >> j & 1) || written[r] || checked[r])
                continue;
            checked[r] = 1;
            if (!all_below(R[r].w, R[r].count, R[op[1]].w, R[op[1]].words))
                status = ST_OUTSIDE_MOD;
        }
    }
    for (i = 0; status == 0 && i < n_ops; i++)
        status = run_op(ops + i * OP_FIELDS, R);
    free(R);
    return status;
}
"""

SOURCE = _HEAD + _tables() + _BODY


def make_ffibuilder():
    """The cffi builder, or ``None`` when cffi is not installed."""
    if FFI is None:
        return None
    builder = FFI()
    builder.cdef(CDEF)
    builder.set_source(MODULE_NAME, SOURCE, libraries=["gmp"])
    return builder
