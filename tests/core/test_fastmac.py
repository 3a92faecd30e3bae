"""Partial-digest fast MAC (Section 7): coverage accounting, detection of
covered vs uncovered tampering, speed/strength monotonicity."""

import pytest

from repro.core.auth import auth_function_for
from repro.core.fastmac import CHUNK, PREFIX, PartialDigestFunction
from repro.sim.config import AuthMode

UMAC = auth_function_for(AuthMode.UMAC)
KEY = b"0123456789abcdef"
MESSAGE = bytes(i & 0xFF for i in range(2048))


class TestConstruction:
    def test_coverage_bounds(self):
        with pytest.raises(ValueError):
            PartialDigestFunction(UMAC, 0.0)
        with pytest.raises(ValueError):
            PartialDigestFunction(UMAC, 1.5)

    def test_name_encodes_coverage(self):
        assert PartialDigestFunction(UMAC, 0.25).name == "partial-umac-25"

    def test_full_coverage_is_identity_selection(self):
        f = PartialDigestFunction(UMAC, 1.0)
        assert f.select(MESSAGE) == MESSAGE
        assert f.covered_fraction(MESSAGE) == 1.0

    def test_short_messages_always_fully_covered(self):
        f = PartialDigestFunction(UMAC, 0.1)
        short = b"x" * PREFIX
        assert f.select(short) == short
        assert f.covered_fraction(short) == 1.0


class TestCoverage:
    @pytest.mark.parametrize("coverage", [0.25, 0.5, 0.75])
    def test_actual_fraction_near_target(self, coverage):
        f = PartialDigestFunction(UMAC, coverage)
        actual = f.covered_fraction(MESSAGE)
        assert coverage * 0.6 <= actual <= min(1.0, coverage * 1.5 + 0.05)

    def test_selection_is_smaller_for_lower_coverage(self):
        sel25 = PartialDigestFunction(UMAC, 0.25).select(MESSAGE)
        sel75 = PartialDigestFunction(UMAC, 0.75).select(MESSAGE)
        assert len(sel25) < len(sel75) <= len(MESSAGE) + 200

    def test_prefix_always_covered(self):
        f = PartialDigestFunction(UMAC, 0.2)
        assert f.select(MESSAGE)[:PREFIX] == MESSAGE[:PREFIX]


class TestDetection:
    def test_deterministic_tags(self):
        f = PartialDigestFunction(UMAC, 0.5)
        assert f.compute(KEY, MESSAGE, 1) == f.compute(KEY, MESSAGE, 1)

    def test_bound_compute_gives_the_same_tags(self):
        f = PartialDigestFunction(UMAC, 0.5)
        bound = f.bind()
        assert [bound(KEY, MESSAGE, n) for n in range(3)] == [
            f.compute(KEY, MESSAGE, n) for n in range(3)
        ]

    def test_prefix_tamper_always_detected(self):
        f = PartialDigestFunction(UMAC, 0.25)
        t = f.compute(KEY, MESSAGE, 1)
        tampered = bytearray(MESSAGE)
        tampered[10] ^= 0xFF  # inside the always-covered prefix
        assert f.compute(KEY, bytes(tampered), 1) != t

    def test_covered_chunk_tamper_detected(self):
        f = PartialDigestFunction(UMAC, 0.5)
        t = f.compute(KEY, MESSAGE, 1)
        tampered = bytearray(MESSAGE)
        tampered[PREFIX] ^= 0x01  # first body chunk is always sampled
        assert f.compute(KEY, bytes(tampered), 1) != t

    def test_uncovered_tamper_missed(self):
        """The trade-off's cost, demonstrated: some byte exists whose flip
        leaves the tag unchanged."""
        f = PartialDigestFunction(UMAC, 0.25)
        t = f.compute(KEY, MESSAGE, 1)
        missed = 0
        for pos in range(PREFIX, len(MESSAGE), 7):
            tampered = bytearray(MESSAGE)
            tampered[pos] ^= 0x01
            if f.compute(KEY, bytes(tampered), 1) == t:
                missed += 1
        assert missed > 0

    def test_full_coverage_misses_nothing(self):
        f = PartialDigestFunction(UMAC, 1.0)
        t = f.compute(KEY, MESSAGE, 1)
        for pos in range(0, len(MESSAGE), 97):
            tampered = bytearray(MESSAGE)
            tampered[pos] ^= 0x01
            assert f.compute(KEY, bytes(tampered), 1) != t

    def test_length_extension_detected(self):
        f = PartialDigestFunction(UMAC, 0.25)
        assert f.compute(KEY, MESSAGE, 1) != f.compute(KEY, MESSAGE + b"\x00" * CHUNK, 1)


class TestForgeryModel:
    def test_better_than_crc_worse_than_full(self):
        f = PartialDigestFunction(UMAC, 0.5)
        p = f.forgery_probability(MESSAGE)
        assert 2.0**-32 < p < 1.0

    def test_monotone_in_coverage(self):
        probs = [
            PartialDigestFunction(UMAC, c).forgery_probability(MESSAGE)
            for c in (0.25, 0.5, 0.75, 1.0)
        ]
        assert probs == sorted(probs, reverse=True)

    def test_empirical_miss_rate_matches_model(self):
        """Fraction of single-byte tampers that evade the tag ≈ 1 - coverage."""
        f = PartialDigestFunction(UMAC, 0.5)
        t = f.compute(KEY, MESSAGE, 1)
        positions = range(0, len(MESSAGE), 3)
        missed = 0
        for pos in positions:
            tampered = bytearray(MESSAGE)
            tampered[pos] ^= 0x01
            if f.compute(KEY, bytes(tampered), 1) == t:
                missed += 1
        empirical = missed / len(list(positions))
        modeled = f.forgery_probability(MESSAGE)
        assert abs(empirical - modeled) < 0.15
