"""Unit tests for the deterministic/OS-backed randomness plumbing."""

import hashlib

import pytest

from repro.crypto.rng import SecureRandom, system_random


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a, b = SecureRandom(123), SecureRandom(123)
        assert [a.randbits(64) for _ in range(10)] == [
            b.randbits(64) for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a, b = SecureRandom(1), SecureRandom(2)
        assert [a.randbits(64) for _ in range(4)] != [b.randbits(64) for _ in range(4)]

    def test_bytes_seed(self):
        a, b = SecureRandom(b"seed"), SecureRandom(b"seed")
        assert a.randbytes(33) == b.randbytes(33)

    def test_spawn_independent_and_deterministic(self):
        parent = SecureRandom(9)
        child_a = SecureRandom(9).spawn("x")
        child_b = SecureRandom(9).spawn("x")
        child_c = SecureRandom(9).spawn("y")
        sa = [child_a.randbits(32) for _ in range(5)]
        assert sa == [child_b.randbits(32) for _ in range(5)]
        assert sa != [child_c.randbits(32) for _ in range(5)]
        assert parent.deterministic

    def test_os_backed_mode(self):
        r = system_random()
        assert not r.deterministic
        assert len(r.randbytes(16)) == 16


def _sha(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


class TestGoldenStream:
    """The seeded stream is pinned bit for bit: every draw method, for a
    fixed seed, must keep returning what it returned when these vectors
    were recorded.  Benchmarks and seeded tests generate their *data*
    through these methods, so a drifting stream silently changes every
    workload; the buffer internals may change, the bytes may not."""

    def test_randbytes(self):
        r = SecureRandom(2024)
        out = [r.randbytes(n).hex() for n in (1, 5, 12, 31, 32, 33, 64, 100, 0, 7)]
        assert out[:3] == ["bc", "1f2ff85bed", "4f07c21255b03144049a02ef"]
        assert _sha(out) == (
            "ab27e8bcda181f91467754b53090cab2e03614fb9cb7f22c6d010860cfa55598"
        )

    def test_randbits(self):
        r = SecureRandom(2024)
        widths = (1, 6, 7, 8, 36, 53, 64, 96, 255, 256, 257, 0, 13)
        out = [r.randbits(k) for k in widths]
        assert out[:7] == [
            1, 7, 23, 248, 24676462716, 645095601242259, 211531133537157965,
        ]
        assert out[-2:] == [0, 1064]
        assert _sha(out) == (
            "17b63fa0854f87705b05ee431d957459e8a6d15ef03d1a1565c5eb8802312cf7"
        )

    def test_randint_below(self):
        r = SecureRandom(2024)
        uppers = (1, 2, 3, 64, 65, 1000, 1 << 53, (1 << 53) + 1, 10**30, 64, 64, 7)
        assert [r.randint_below(u) for u in uppers] == [
            0, 0, 1, 39, 3, 776, 6029774665361024, 1432608910621331,
            741492212447605277491966361827, 62, 19, 1,
        ]

    def test_randint(self):
        r = SecureRandom(2024)
        ranges = ((0, 0), (1, 6), (-5, 5), (10, 10**9), (1, (1 << 128) - 1), (3, 4))
        assert [r.randint(lo, hi) for lo, hi in ranges] == [
            0, 2, 0, 995344890, 24371022764424695623361031373769100783, 4,
        ]

    def test_shuffle_and_permutation(self):
        r = SecureRandom(2024)
        items = list(range(17))
        r.shuffle(items)
        assert items == [2, 10, 11, 9, 6, 7, 8, 12, 13, 16, 14, 1, 0, 4, 15, 5, 3]
        assert r.permutation(11) == [2, 9, 8, 10, 0, 6, 3, 5, 1, 7, 4]

    def test_interleaved_reads_across_refills(self):
        """600 reads of mixed widths, enough to cross many buffer refills."""
        r = SecureRandom(b"mixed")
        out = []
        for i in range(200):
            out.append(r.randbits(1 + (i * 37) % 300))
            out.append(int.from_bytes(r.randbytes(i % 9), "big"))
            out.append(r.randint_below(64))
        assert _sha(out) == (
            "6bd1be95d06877568335f3d5053da854c53163c0e063760df68dfa9486c31afa"
        )

    def test_spawn(self):
        assert SecureRandom(5).spawn("child").randbits(64) == 18183550039928210189

    def test_benchmark_relation(self):
        """The benchmark's rows come out of ``correlated_relation``; this
        is the relation its default seed has always produced."""
        from repro.data import correlated_relation

        rows = correlated_relation(
            n_objects=256, n_attributes=6, correlation=0.95, seed=12
        ).rows
        assert _sha(rows) == (
            "907f5b67ec942a43f83c3cfca24c58537ad085a5e508b154cf56a1873ba1d54d"
        )

    def test_state_survives_pickling_mid_buffer(self):
        import pickle

        r = SecureRandom(77)
        r.randbytes(13)
        clone = pickle.loads(pickle.dumps(r))
        assert clone.randbytes(100) == r.randbytes(100)


class TestRanges:
    def test_randbits_range(self):
        r = SecureRandom(1)
        for k in (1, 7, 63, 200):
            for _ in range(50):
                assert 0 <= r.randbits(k) < (1 << k)

    def test_randbits_zero(self):
        assert SecureRandom(1).randbits(0) == 0

    def test_randint_below(self):
        r = SecureRandom(2)
        values = {r.randint_below(5) for _ in range(200)}
        assert values == {0, 1, 2, 3, 4}

    def test_randint_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SecureRandom(1).randint_below(0)

    def test_randint_inclusive(self):
        r = SecureRandom(3)
        values = {r.randint(3, 5) for _ in range(100)}
        assert values == {3, 4, 5}

    def test_randint_empty_range(self):
        with pytest.raises(ValueError):
            SecureRandom(1).randint(5, 4)

    def test_rand_unit_is_unit(self):
        import math

        r = SecureRandom(4)
        for modulus in (15, 35, 77):
            for _ in range(20):
                u = r.rand_unit(modulus)
                assert math.gcd(u, modulus) == 1

    def test_rand_nonzero(self):
        r = SecureRandom(5)
        assert all(1 <= r.rand_nonzero(7) <= 6 for _ in range(50))

    @pytest.mark.parametrize(
        "modulus",
        [2, 7, (1 << 64) + 2, (1 << 255) + 12345, (1 << 512) - 3],
        ids=["two", "seven", "2^64+2", "2^255+c", "2^512-3"],
    )
    def test_rand_nonzero_batch_reads_like_the_loop(self, modulus):
        """Under one seed the batch returns the loop's values and leaves
        the stream where the loop leaves it.  Just above a power of two
        (``2^64 + 2``, ``2^255 + c``: ``n − 1`` one bit wider than most
        of its range) about half the attempts are rejected."""
        for count in (0, 1, 5, 300):
            batch, loop = SecureRandom(6), SecureRandom(6)
            batch.randbytes(3)
            loop.randbytes(3)
            drawn = batch.rand_nonzero_batch(modulus, count)
            assert drawn == [loop.rand_nonzero(modulus) for _ in range(count)]
            assert all(1 <= v < modulus for v in drawn)
            assert batch.randbytes(16) == loop.randbytes(16)

    def test_rand_nonzero_batch_os_backed(self):
        r = system_random()
        modulus = (1 << 64) + 2
        drawn = r.rand_nonzero_batch(modulus, 200)
        assert len(drawn) == 200 and all(1 <= v < modulus for v in drawn)
        assert len(set(drawn)) == 200
        with pytest.raises(ValueError):
            r.rand_nonzero_batch(1, 3)


class TestPermutations:
    def test_shuffle_is_permutation(self):
        r = SecureRandom(6)
        items = list(range(20))
        shuffled = list(items)
        r.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_permutation(self):
        r = SecureRandom(7)
        perm = r.permutation(10)
        assert sorted(perm) == list(range(10))

    def test_choice(self):
        r = SecureRandom(8)
        assert r.choice([42]) == 42
        assert all(r.choice(["a", "b"]) in ("a", "b") for _ in range(10))

    def test_choice_empty(self):
        with pytest.raises(ValueError):
            SecureRandom(1).choice([])
