import hashlib
import itertools

import pytest

from betapar.bounds import (
    IMPOSSIBLE_EVIDENCE,
    NO_EVIDENCE,
    block_impossible_unit_conjugate,
    block_lower_bound_nonsimple,
    block_lower_bound_simple,
    lower_bound_1block,
    upper_bound_corollaries,
)
from betapar.numeration import EventuallyPeriodicString
from betapar.numeration import parse_eventually_periodic as eps


class TestOneBlock:
    def test_fibonacci(self):
        assert lower_bound_1block([1, -1, -1]) == 3

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_dbonacci(self, d):
        assert lower_bound_1block([1] + [-1] * d) == d + 1

    def test_quadratic(self):
        # |f(1)| = |1-4-2| = 5, +2 for a real base; attained by a+b+1 = 7
        assert lower_bound_1block([1, -4, -2]) == 7


class TestSimpleBound:
    def test_42(self):
        assert block_lower_bound_simple(eps("42")) == 7

    def test_tribonacci(self):
        assert block_lower_bound_simple(eps("111")) == 3

    def test_hypothesis_violation(self):
        assert block_lower_bound_simple(eps("12")) is None

    def test_single_digit_not_applicable(self):
        assert block_lower_bound_simple(eps("3")) is None

    def test_infinite_not_applicable(self):
        assert block_lower_bound_simple(eps("3(1)")) is None

    def test_interior_dip_not_applicable(self):
        # t_m must be <= every t_i, so an interior 0 breaks the hypothesis
        assert block_lower_bound_simple(eps("101")) is None


class TestNonSimpleBound:
    def test_minus_42(self):
        assert block_lower_bound_nonsimple(eps("3(1)")) == 5

    def test_minus_31(self):
        assert block_lower_bound_nonsimple(eps("2(1)")) == 3

    def test_case3_violation(self):
        assert block_lower_bound_nonsimple(eps("11(2)")) is None

    def test_finite_not_applicable(self):
        assert block_lower_bound_nonsimple(eps("42")) is None

    def test_case2(self):
        # m=1, p=2: t1 > t2 > t3
        assert block_lower_bound_nonsimple(eps("5(31)")) == 2 * 5 - 3

    def test_case3_longer_preperiod(self):
        assert block_lower_bound_nonsimple(eps("532(1)")) == 2 * 5 - 3


class TestUpperBounds:
    def test_42(self):
        assert upper_bound_corollaries(eps("42")) == (6, 8)

    def test_tribonacci_pins_m(self):
        assert upper_bound_corollaries(eps("111")) == (2, 2)

    def test_minus(self):
        assert upper_bound_corollaries(eps("3(1)")) == (4, 6)

    def test_not_applicable(self):
        assert upper_bound_corollaries(eps("12")) is None
        assert upper_bound_corollaries(eps("1(12)")) is None

    def test_golden_enumeration(self):
        # every preperiod of length <= 4 and period of length <= 2 over the
        # digits 0..4: 781 * 31 = 24,211 strings, 173 of them bracketed
        def words(n):
            return [w for k in range(n + 1) for w in itertools.product(range(5), repeat=k)]

        out = [upper_bound_corollaries(EventuallyPeriodicString(pre, per))
               for pre in words(4) for per in words(2)]
        assert len(out) == 24211 and sum(iv is not None for iv in out) == 173
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "5424f9ddf7933d66359b750f0b2e33339adb04e4c54d850256a8647284fa1299")

    def test_lower_never_exceeds_upper(self):
        for text in ["42", "111", "53", "3(1)", "2(1)", "521(1)"]:
            iv = upper_bound_corollaries(eps(text))
            if iv is not None:
                assert iv[0] <= iv[1]


class TestUnitCircleReporter:
    def test_salem_like_quartic(self):
        assert block_impossible_unit_conjugate([1, -1, -1, -1, 1]) == IMPOSSIBLE_EVIDENCE

    def test_lehmer_polynomial(self):
        # Lehmer's degree-10 Salem polynomial: one real root > 1, its inverse,
        # and eight roots on the unit circle
        lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
        assert block_impossible_unit_conjugate(lehmer) == IMPOSSIBLE_EVIDENCE

    def test_cyclotomic_octic(self):
        # x^8 - x^4 + 1, the 24th cyclotomic polynomial: every root has modulus 1
        assert block_impossible_unit_conjugate([1, 0, 0, 0, -1, 0, 0, 0, 1]) == IMPOSSIBLE_EVIDENCE

    def test_fibonacci(self):
        assert block_impossible_unit_conjugate([1, -1, -1]) == NO_EVIDENCE

    def test_tribonacci(self):
        assert block_impossible_unit_conjugate([1, -1, -1, -1]) == NO_EVIDENCE

    def test_palindrome_without_unit_root(self):
        # palindromic, but all four roots are real and far from modulus 1,
        # so the palindrome test alone must not produce evidence
        assert block_impossible_unit_conjugate([1, -7, 13, -7, 1]) == NO_EVIDENCE
