import random
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betapar.algebraic import (
    BetaBase,
    MinimalPolynomial,
    QuotientValue,
    base_from_spec,
    certified_floor,
    dbonacci_base,
    eval_digit_string,
    fibonacci_base,
    qv_add,
    qv_mul_beta_pow,
    qv_sign,
    qv_sub,
    quadratic_minus_base,
    quadratic_plus_base,
    self_reciprocal,
    tribonacci_base,
    values_equal,
)
from betapar.blocks import BlockAdder, make_block_params
from betapar.conversion import check_sum
from betapar.digits import DigitString, parse_digits


def qv(base, *coeffs, scale=0):
    return QuotientValue(base, coeffs, scale)


class TestQuotientArithmetic:
    def test_zero_identity(self, fib):
        z = QuotientValue.from_int(fib, 0)
        assert qv_add(z, z).is_zero()

    def test_fibonacci_beta_plus_one_is_beta_squared(self, fib):
        # by hand: X^2 = X + 1, so beta + 1 reduces to the vector (1, 1)
        s = qv_add(QuotientValue.beta_power(fib, 1), QuotientValue.from_int(fib, 1))
        assert s.coeffs == (1, 1) and s.scale == 0
        assert values_equal(s, QuotientValue.beta_power(fib, 2))

    def test_doubling_at_scale(self, fib):
        inv = QuotientValue.beta_power(fib, -1)
        s = qv_add(inv, inv)
        assert values_equal(s, qv_mul_beta_pow(QuotientValue.from_int(fib, 2), -1))

    def test_mul_beta_pow_examples(self, fib):
        one = QuotientValue.from_int(fib, 1)
        assert qv_mul_beta_pow(one, 2).coeffs == (1, 1)
        assert qv_mul_beta_pow(one, 0) is one
        down_up = qv_mul_beta_pow(qv_mul_beta_pow(one, -1), 1)
        assert values_equal(down_up, one)

    def test_mismatched_bases_rejected(self, fib, tri):
        with pytest.raises(ValueError):
            qv_add(QuotientValue.from_int(fib, 1), QuotientValue.from_int(tri, 1))


class TestValuesKeepTheirScale:
    def test_a_value_keeps_the_coeffs_and_scale_it_is_built_with(self, fib, tri):
        for x, kept in [(qv(fib, 1, 1, scale=2), ((1, 1), 2)), (qv(fib, 0, 0, scale=3), ((0, 0), 3)),
                        (qv(tri, 4, 0, -6, scale=9), ((4, 0, -6), 9))]:
            assert (x.coeffs, x.scale) == kept
        assert QuotientValue.beta_power(tri, -50).coeffs == (1, 0, 0)

    def test_equality_is_value_equality(self, fib):
        one = QuotientValue.from_int(fib, 1)
        assert qv(fib, 1, 1, scale=2) == one  # beta^2 / beta^2
        assert hash(qv(fib, 1, 1, scale=2)) == hash(one)
        assert qv(fib, 0, 0, scale=3) == qv(fib, 0, 0)
        assert qv(fib, 1, 1, scale=3) != one

    def test_values_over_different_bases_are_unequal(self, fib, tri):
        assert QuotientValue.from_int(fib, 1) != QuotientValue.from_int(tri, 1)
        assert QuotientValue.from_int(fib, 0) != QuotientValue.from_int(tri, 0)

    @pytest.mark.parametrize("d,n", [(2, 13000), (2, 20000), (3, 4000), (3, 20000)])
    @pytest.mark.parametrize("build", ["beta_power", "one_digit"])
    def test_a_deep_negative_power_signs_at_the_starting_precision(self, d, n, build):
        # folded into a scale-0 vector, beta^-13000 on Fibonacci hit the
        # precision cap; kept at its scale it is the unit vector
        base = dbonacci_base(d)
        if build == "beta_power":
            x = QuotientValue.beta_power(base, -n)
        else:
            x = eval_digit_string(DigitString((1,), -n), base)
        start = time.perf_counter()
        assert qv_sign(x) == 1
        assert time.perf_counter() - start < 0.1
        assert base._dy[0] == 64


class TestValuesEqual:
    def test_worked_conversion_case(self, qp42):
        a = eval_digit_string(parse_digits("1,2,2.2"), qp42)
        b = eval_digit_string(parse_digits("0,7,0"), qp42)
        assert values_equal(a, b)

    def test_zeros_at_different_scales(self, fib):
        assert values_equal(qv(fib, 0, 0), qv(fib, 0, 0, scale=3))

    def test_fibonacci_relation(self, fib):
        a = eval_digit_string(parse_digits("1,1"), fib)
        b = eval_digit_string(parse_digits("1,0,0"), fib)
        assert values_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(c0=st.integers(-50, 50), c1=st.integers(-50, 50),
       e=st.integers(0, 6), n=st.integers(-20, 20))
def test_mul_beta_pow_roundtrip(c0, c1, e, n):
    base = _FIB
    a = QuotientValue(base, (c0, c1), e)
    assert values_equal(qv_mul_beta_pow(qv_mul_beta_pow(a, n), -n), a)


@settings(max_examples=40, deadline=None)
@given(c0=st.integers(-30, 30), c1=st.integers(-30, 30),
       i=st.integers(0, 4), j=st.integers(0, 4))
def test_values_equal_is_equivalence(c0, c1, i, j):
    # reflexive on a, symmetric and transitive across scaled copies of a
    base = _FIB
    a = QuotientValue(base, (c0, c1), 0)
    b = qv_mul_beta_pow(qv_mul_beta_pow(a, i), -i)
    c = qv_mul_beta_pow(qv_mul_beta_pow(a, -j), j)
    assert values_equal(a, a)
    assert values_equal(a, b) and values_equal(b, a)
    assert values_equal(a, b) and values_equal(b, c) and values_equal(a, c)


_FIB = dbonacci_base(2)


class TestEvalDigitString:
    def test_empty(self, fib):
        assert eval_digit_string(DigitString(), fib).is_zero()

    def test_linearity_against_digitwise_sum(self, fib):
        import random

        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(0, 8)
            s = DigitString(tuple(rng.randint(-3, 3) for _ in range(n)),
                            rng.randint(-2, 4))
            m = rng.randint(0, 8)
            t = DigitString(tuple(rng.randint(-3, 3) for _ in range(m)),
                            rng.randint(-2, 4))
            lhs = qv_add(eval_digit_string(s, fib), eval_digit_string(t, fib))
            assert values_equal(lhs, eval_digit_string(s + t, fib))

    def test_unit(self, fib):
        v = eval_digit_string(parse_digits("1"), fib)
        assert values_equal(v, QuotientValue.from_int(fib, 1))

    def test_two_as_beta_plus_beta_minus2(self, fib):
        v = eval_digit_string(parse_digits("1,0.0,1"), fib)
        assert values_equal(v, QuotientValue.from_int(fib, 2))

    def test_scale_tracks_fraction(self, fib):
        v = eval_digit_string(parse_digits("0.0,1"), fib)
        assert values_equal(v, QuotientValue.beta_power(fib, -2))

    def test_a_high_offset_leaves_the_base_unchanged(self):
        # an evaluation reads and grows no cache, even at beta^3000, and
        # gives the same vector once the cache holds those powers
        base = dbonacci_base(2)
        digits = (1, 0, -2, 1)
        before = dict(vars(base))
        v = base.digits_vector(digits, 3000)
        assert vars(base) == before
        assert v == tuple(sum(dig * p for dig, p in zip(digits, col))
                          for col in zip(*(base.power_vector(3000 + i) for i in range(4))))
        assert base.digits_vector(digits, 3000) == v


class TestRefineAndFloor:
    def test_floor_exact_integer(self, fib):
        assert certified_floor(QuotientValue.from_int(fib, 2)) == 2

    def test_floor_beta_powers(self, fib):
        assert certified_floor(QuotientValue.beta_power(fib, 1)) == 1
        assert certified_floor(QuotientValue.beta_power(fib, 2)) == 2

    def test_floor_bracket_property(self, fib):
        def floor_bracketed(base, coeffs, scale):
            n = base.floor_of_vector(coeffs, scale)
            pw = base.power_vector(scale)
            assert base.sign_of_vector(tuple(c - n * p for c, p in zip(coeffs, pw))) >= 0
            assert base.sign_of_vector(tuple(c - (n + 1) * p for c, p in zip(coeffs, pw))) < 0
            assert certified_floor(QuotientValue(base, coeffs, scale)) == n
            return n

        for coeffs, scale in [((3, -1), 0), ((-5, 4), 1), ((7, 2), 3), ((0, 1), 2)]:
            floor_bracketed(fib, coeffs, scale)
        rng = random.Random(41)
        bases = (fib, tribonacci_base(), dbonacci_base(4), quadratic_plus_base(4, 2),
                 quadratic_minus_base(3, 1), base_from_spec("1,-1,0,-1"))
        for base in bases:
            d = base.degree
            for scale in (0, 1, 3, 8, 20):
                for bound in (3, 1000, 10 ** 9):
                    for _ in range(5):
                        floor_bracketed(base, [rng.randint(-bound, bound) for _ in range(d)],
                                        scale)
            # m * beta^j at scale j sits on a unit boundary; adding or removing
            # 1 moves the value by beta^-j, just above or just below it
            for j in (1, 4, 15):
                pw = base.power_vector(j)
                for m in (-3, 0, 1, 2, 17):
                    exact = [m * p for p in pw]
                    assert floor_bracketed(base, exact, j) == m
                    above = [exact[0] + 1] + exact[1:]
                    assert floor_bracketed(base, above, j) == m
                    below = [exact[0] - 1] + exact[1:]
                    assert floor_bracketed(base, below, j) == m - 1

    def test_floor_of_a_large_value_takes_few_sign_calls(self, monkeypatch):
        # the 64-bit enclosure of beta^40 is about 2^20 units wide; refined
        # until it pins the floor to one unit, the exact correction needs
        # only a couple of sign tests instead of one per unit
        base = quadratic_plus_base(4, 2)
        v = QuotientValue.beta_power(base, 40)
        sign = BetaBase.sign_of_vector
        calls = []

        def counted(self, w):
            calls.append(w)
            return sign(self, w)

        monkeypatch.setattr(BetaBase, "sign_of_vector", counted)
        n = certified_floor(v)
        monkeypatch.undo()
        assert len(calls) <= 4
        assert qv_sign(qv_sub(v, QuotientValue.from_int(base, n))) >= 0
        assert qv_sign(qv_sub(v, QuotientValue.from_int(base, n + 1))) < 0

    def test_a_floor_on_a_unit_boundary_asks_one_sign(self, monkeypatch):
        # 7 beta^5 at scale 5 is exactly 7: the enclosure pins the floor to
        # 6 or 7, and the one sign, of 7 beta^5 - 7 beta^5, is of the zero vector
        base = quadratic_plus_base(4, 2)
        v = tuple(7 * c for c in base.power_vector(5))
        sign = BetaBase.sign_of_vector
        calls = []

        def counted(self, w):
            calls.append(w)
            return sign(self, w)

        monkeypatch.setattr(BetaBase, "sign_of_vector", counted)
        assert base.floor_of_vector(v, 5) == 7
        monkeypatch.undo()
        assert calls == [(0, 0)]

    def test_negative_exponents_are_refused(self):
        # a negative power, low or scale would index a cache from its end,
        # so its answer would depend on what was cached before: it raises,
        # on a fresh base and after the caches grow alike
        base = fibonacci_base()
        for grown in (False, True):
            if grown:
                base.power_vector(10)
                base.value_enclosure(base.unit_vector(), 0, 10)
            for call in (lambda: base.power_vector(-1),
                         lambda: base.value_enclosure((1, 0), 0, -1),
                         lambda: base.digits_vector((1,), -1),
                         lambda: base.floor_of_vector((1, 0), -1),
                         lambda: base.float_value((1, 0), -1)):
                with pytest.raises(ValueError):
                    call()
        assert base.floor_of_vector((0, 1)) == 1

    def test_floor_at_a_large_scale_encloses_few_powers(self):
        # +-beta^-20000 lies strictly between -1 and 1, so its floor is 0 or
        # -1 without an enclosure of beta^20000 or the 20,000 powers below it
        for base in (fibonacci_base(), tribonacci_base()):
            cached = len(base._dy[2])
            v = QuotientValue.beta_power(base, -20000)
            neg = QuotientValue(base, tuple(-c for c in v.coeffs), v.scale)
            start = time.perf_counter()
            assert (certified_floor(v), certified_floor(neg)) == (0, -1)
            assert time.perf_counter() - start < 0.05
            assert len(base._dy[2]) <= cached + 4


    def test_floor_reads_one_snapshot(self, monkeypatch):
        # another thread may raise the precision between two reads of the
        # dyadic snapshot; here the raise to 256 bits comes right after the
        # first read.  Value and power enclosures at two precisions would
        # put the estimate off by 2^192, and the exact correction would then
        # walk up one unit per sign call
        class Raising(BetaBase):
            def _powers_dyadic(self, bits, n):
                out = super()._powers_dyadic(bits, n)
                if self.raise_once:
                    self.raise_once = False
                    self._refine_dyadic(256)
                return out

        sign = BetaBase.sign_of_vector
        calls = []

        def counted(self, w):
            calls.append(w)
            assert len(calls) <= 50, "floor walks one unit per sign call"
            return sign(self, w)

        want = [certified_floor(QuotientValue.beta_power(quadratic_plus_base(4, 2), n))
                for n in (6, 12)]
        monkeypatch.setattr(BetaBase, "sign_of_vector", counted)
        for n, floor in zip((6, 12), want):
            base = Raising([1, -4, -2], (Fraction(4), Fraction(6)))  # quadratic-plus:4,2
            base.raise_once = True
            calls.clear()
            assert certified_floor(QuotientValue.beta_power(base, n)) == floor
            assert len(calls) <= 4
            assert base._dy[0] == 256

    def test_precision_raise_refines_the_snapshot(self, monkeypatch):
        # each doubling bisects from the snapshot's [num, num + 1], one step
        # per new bit: 64 + 128 + ... + 2048 steps from 64 to 4096 bits
        base = tribonacci_base()
        sign = MinimalPolynomial.sign_at_dyadic
        calls = []

        def counted(self, num, bits):
            calls.append(bits)
            return sign(self, num, bits)

        monkeypatch.setattr(MinimalPolynomial, "sign_at_dyadic", counted)
        for bits in (128, 256, 512, 1024, 2048, 4096):
            base._refine_dyadic(bits)
        monkeypatch.undo()
        assert len(calls) <= 4100
        bits, num = base._dy[:2]
        assert bits == 4096
        assert sign(base.poly, num, bits) != sign(base.poly, num + 1, bits)  # beta inside


class TestConcurrency:
    def test_power_caches_agree_across_threads(self, monkeypatch):
        # shift_vector yields to the other threads between cache appends, and
        # a short switch interval interleaves the dyadic enclosure loop too,
        # so eight threads extend the caches of one fresh base at the same
        # time; each must read what a base of its own computes
        fresh = tribonacci_base()
        want = (fresh.power_vector(40), fresh.float_value(fresh.unit_vector(), 40))
        shift = BetaBase.shift_vector

        def yielding(self, v):
            time.sleep(0)
            return shift(self, v)

        monkeypatch.setattr(BetaBase, "shift_vector", yielding)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                base = tribonacci_base()
                barrier = threading.Barrier(8, timeout=10)
                got = []

                def work():
                    barrier.wait()
                    got.append((base.power_vector(40), base.float_value(base.unit_vector(), 40)))

                threads = [threading.Thread(target=work) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                assert got == [want] * 8
        finally:
            sys.setswitchinterval(interval)

    def test_power_vectors_of_different_exponents_agree_across_threads(self, monkeypatch):
        # eight threads ask one fresh base for different powers; shift_vector
        # is slowest in the threads with the smallest exponents, so short
        # extensions of the power cache are published after long ones, and
        # every publication pauses, so other threads publish between it and
        # the caller's next read.  Each thread must read what a base of its
        # own computes
        class Pausing(BetaBase):
            def __setattr__(self, name, value):
                super().__setattr__(name, value)
                if name == "_powvecs":
                    time.sleep(0.002)

        exponents = [10 + 13 * i for i in range(8)]
        fresh = tribonacci_base()
        want = [[fresh.power_vector(n + extra) for extra in (0, 7)] for n in exponents]
        shift = BetaBase.shift_vector
        pace = threading.local()

        def paced(self, v):
            time.sleep(getattr(pace, "delay", 0))
            return shift(self, v)

        monkeypatch.setattr(BetaBase, "shift_vector", paced)
        for _ in range(3):
            base = Pausing([1, -1, -1, -1], (Fraction(3, 2), 2))
            barrier = threading.Barrier(8, timeout=10)
            got = [None] * 8

            def work(i):
                pace.delay = 2e-3 / (i + 1) ** 2
                barrier.wait()
                try:
                    got[i] = [base.power_vector(exponents[i] + extra) for extra in (0, 7)]
                except Exception as exc:
                    got[i] = exc

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            assert got == want

    def test_precision_raise_is_never_seen_half_done(self):
        # every attribute write sleeps first, so readers run between the
        # writes that raise the base's dyadic precision; each sign they
        # read must still be right
        class Yielding(BetaBase):
            def __setattr__(self, name, value):
                time.sleep(0.001)
                super().__setattr__(name, value)

        for _ in range(3):
            base = Yielding([1, -1, -1, -1], (Fraction(3, 2), 2))
            one = base.unit_vector()
            cases = []
            for n in range(1, 40):
                pw = base.power_vector(n)
                cases.append((tuple(p - u for p, u in zip(pw, one)), 1))
                cases.append((tuple(-p for p in pw), -1))
            done = threading.Event()
            wrong = []

            def read():
                try:
                    while not done.is_set():
                        wrong.extend(v for v, want in cases if base.sign_of_vector(v) != want)
                except Exception as exc:  # a torn enclosure may also leave a sign undecided
                    wrong.append(exc)

            readers = [threading.Thread(target=read) for _ in range(7)]
            for t in readers:
                t.start()
            try:
                base._refine_dyadic(1024)
            finally:
                done.set()
            for t in readers:
                t.join(timeout=30)
                assert not t.is_alive()
            assert not wrong


class TestFloats:
    def test_beta_float_fibonacci(self, fib):
        assert abs(float(QuotientValue.beta_power(fib, 1)) - 1.6180) < 1e-3

    def test_beta_float_tribonacci(self, tri):
        assert abs(float(QuotientValue.beta_power(tri, 1)) - 1.8393) < 1e-3

    def test_floats_after_a_hard_comparison(self):
        # signing beta^-800 raises the base's dyadic precision to thousands of bits
        tri = tribonacci_base()
        assert qv_sign(QuotientValue.beta_power(tri, -800)) == 1
        assert abs(float(QuotientValue.beta_power(tri, 1)) - 1.8392868) < 1e-7
        assert abs(float(QuotientValue.beta_power(tri, 3)) - 1.8392868 ** 3) < 1e-6
        adder = BlockAdder(tri, make_block_params(tri, 2, 5))
        x, y = parse_digits("2,1,2,0,1"), parse_digits("1,2,2.0,1")
        assert check_sum(adder, x, y, adder.add(x, y))

    def test_float_of_a_large_scale_underflows(self):
        assert float(QuotientValue.beta_power(quadratic_plus_base(4, 2), -800)) == 0.0

    def test_float_at_a_large_scale_encloses_few_powers(self):
        # |beta^-20000| < beta^2 * 1.5^-20000, far below the smallest
        # subnormal, so the float is 0.0 without an enclosure of beta^20000
        for base in (fibonacci_base(), tribonacci_base()):
            cached = len(base._dy[2])
            v = QuotientValue.beta_power(base, -20000)
            neg = QuotientValue(base, tuple(-c for c in v.coeffs), v.scale)
            start = time.perf_counter()
            assert (float(v), float(neg)) == (0.0, 0.0)
            assert time.perf_counter() - start < 0.05
            assert len(base._dy[2]) <= cached + 4

    def test_float_near_the_underflow_is_not_cut_short(self):
        # beta^-1400 on Fibonacci is about 2.6e-293: the bound through the
        # interval's lower end 3/2 does not prove an underflow, so the
        # float is computed in full
        fib = fibonacci_base()
        got = float(QuotientValue.beta_power(fib, -1400))
        want = float(Fraction("1.6180339887498948482045868343656381177203") ** -1400)
        assert got > 0 and abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [100, 600])
    def test_float_of_a_folded_vector(self, n):
        # the vector of beta^-n at scale 0: coefficients near 0.74^-n, value
        # 1.84^-n, built by n multiplications by beta^-1 = beta^2 - beta - 1
        tri = tribonacci_base()
        v = tri.unit_vector()
        for _ in range(n):
            s1 = tri.shift_vector(v)
            v = tuple(c - a - b for a, b, c in zip(v, s1, tri.shift_vector(s1)))
        got = float(QuotientValue(tri, v, 0))
        beta = Fraction("1.8392867552141611325518525646532866004242")
        want = float(beta ** -n)
        assert got > 0 and abs(got - want) <= 1e-15 * want

    def test_float_of_a_scaled_value(self, qp42):
        beta = float(QuotientValue.beta_power(qp42, 1))
        x = QuotientValue(qp42, (3, 5), 7)
        assert x.scale == 7
        assert abs(float(x) - (3 + 5 * beta) / beta ** 7) < 1e-15


class TestPolynomialValidation:
    def test_monic_required(self):
        with pytest.raises(ValueError):
            MinimalPolynomial([2, -1, -1])

    def test_degree_at_least_two(self):
        with pytest.raises(ValueError):
            MinimalPolynomial([1, -2])

    def test_rational_root_rejected(self):
        with pytest.raises(ValueError):
            MinimalPolynomial([1, -3, 2])  # (X-1)(X-2)
        with pytest.raises(ValueError):
            MinimalPolynomial([1, -4, 4])  # (X-2)^2

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            BetaBase([1, -1, -1], (Fraction(1, 2), 2))  # lo <= 1
        with pytest.raises(ValueError):
            BetaBase([1, -1, -1], (3, 4))  # no sign change

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            BetaBase([1, -1, -1], (2, Fraction(3, 2)))
        with pytest.raises(ValueError, match="empty interval"):
            BetaBase([1, -1, -1], (Fraction(3, 2), Fraction(3, 2)))

    def test_interval_is_a_fraction_pair(self, fib):
        assert fib.interval == (Fraction(3, 2), Fraction(2))

    def test_conjugate_roots_are_distinct_bases(self):
        # X^2 - 6X + 7 has two real roots above 1 (3 +- sqrt(2)); bases
        # bracketing different roots must not be interchangeable
        big = BetaBase([1, -6, 7], (3, 5))
        small = BetaBase([1, -6, 7], (Fraction(3, 2), 2))
        assert big != small
        assert big == BetaBase([1, -6, 7], (4, Fraction(9, 2)))
        with pytest.raises(ValueError):
            qv_add(QuotientValue.from_int(big, 1), QuotientValue.from_int(small, 1))
        assert certified_floor(QuotientValue.beta_power(big, 1)) == 4
        assert certified_floor(QuotientValue.beta_power(small, 1)) == 1


class TestSelfReciprocal:
    @pytest.mark.parametrize("coeffs,expected", [
        ([1, -1, -1], False),
        ([1, -1, -1, -1, 1], True),
        ([1, -4, -2], False),
        ([1, -2, 3, -2, 1], True),
    ])
    def test_examples(self, coeffs, expected):
        assert self_reciprocal(coeffs) is expected


def test_base_from_spec_forms():
    assert base_from_spec("fibonacci").poly.coefficients == (1, -1, -1)
    assert base_from_spec("dbonacci:4").poly.degree == 4
    assert base_from_spec("quadratic-plus:4,2").poly.coefficients == (1, -4, -2)
    assert base_from_spec("quadratic-minus:4,1").poly.coefficients == (1, -4, 1)
    raw = base_from_spec("1,-1,-1,-1")
    assert raw.poly.coefficients == (1, -1, -1, -1)
    with pytest.raises(ValueError):
        base_from_spec("nonsense")
