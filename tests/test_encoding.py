"""Tests for the signed score encoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.encoding import SignedEncoder
from repro.exceptions import EncodingRangeError

MODULUS = (1 << 127) + 1  # stand-in 128-bit odd modulus


@pytest.fixture(scope="module")
def encoder():
    return SignedEncoder(MODULUS, score_bits=16, blind_bits=24)


class TestConstruction:
    def test_too_small_modulus_rejected(self):
        with pytest.raises(EncodingRangeError):
            SignedEncoder(1 << 40, score_bits=32, blind_bits=40)

    def test_paper_sizes_fit(self):
        SignedEncoder((1 << 255) + 1, score_bits=32, blind_bits=40)


class TestEncodeDecode:
    @given(st.integers(min_value=-(MODULUS // 2) + 1, max_value=MODULUS // 2))
    @settings(max_examples=40)
    def test_roundtrip(self, encoder, value):
        assert encoder.decode(encoder.encode(value)) == value

    def test_negative_embedding(self, encoder):
        assert encoder.encode(-1) == MODULUS - 1
        assert encoder.decode(MODULUS - 1) == -1

    def test_out_of_range(self, encoder):
        with pytest.raises(EncodingRangeError):
            encoder.encode(MODULUS)


class TestScores:
    def test_check_score_bounds(self, encoder):
        assert encoder.check_score(0) == 0
        assert encoder.check_score(encoder.max_score) == encoder.max_score
        with pytest.raises(EncodingRangeError):
            encoder.check_score(-1)
        with pytest.raises(EncodingRangeError):
            encoder.check_score(encoder.max_score + 1)

    def test_sentinel_dominates_scores(self, encoder):
        assert encoder.sentinel > encoder.max_score
