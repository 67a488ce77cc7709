"""Tests of the independent checker.  Run with: python3 -m pytest perfbench"""

import itertools
import os
import random
import sys
from collections import namedtuple

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import valuecheck as vc  # noqa: E402

S = namedtuple("S", "digits msd_exponent")


def mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize("poly", [vc.quadratic_plus_poly(4, 2), vc.quadratic_minus_poly(4, 2),
                                  vc.family_poly("plus_special", 3), vc.TRIBONACCI_POLY])
def test_remainder_of_multiples_is_zero(poly):
    rng = random.Random(5)
    for _ in range(50):
        q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 30))]
        p = mul(q, poly)
        assert not any(vc.remainder(p, poly))
        p[rng.randrange(len(p))] += 1
        assert any(vc.remainder(p, poly))


def test_identities_from_the_minimal_polynomials():
    # beta^2 = 4 beta + 2, so 1,0,0 = 4,2 and (dividing by beta) 1,0 = 4.2
    plus = vc.quadratic_plus_poly(4, 2)
    assert vc.value_preserved(plus, S((1, 0, 0), 2), S((4, 2), 1))
    assert vc.value_preserved(plus, S((1, 0), 1), S((4, 2), 0))
    assert not vc.value_preserved(plus, S((1, 0, 0), 2), S((4, 3), 1))
    # beta^2 + 2 = 4 beta
    assert vc.value_preserved(vc.quadratic_minus_poly(4, 2), S((4, 0), 1), S((1, 0, 0), 2), S((2,), 0))
    # beta^3 = beta^2 + beta + 1
    assert vc.value_preserved(vc.TRIBONACCI_POLY, S((1, 0, 0, 0), 3), S((1, 1, 1), 2))
    assert vc.value_preserved(vc.TRIBONACCI_POLY, S((), 0), S((), 0))


def test_paper_alphabets():
    assert vc.gde_alphabets("plus", 4, 2) == ((0, 7), (0, 6))
    assert vc.gde_alphabets("plus_special", 3) == ((0, 6), (0, 5))
    assert vc.gde_alphabets("minus", 4, 2) == ((0, 5), (0, 4))
    assert vc.adder_alphabet("plus", 4, 2, 3) == (-3, 3)
    assert vc.adder_alphabet("minus", 4, 2, 2) == (-2, 2)
    assert vc.in_alphabet(S((2, 0, 1), 0), (0, 2))
    assert not vc.in_alphabet(S((3,), 0), (0, 2))


@pytest.mark.parametrize("alphabet,n", [((0, 3), 3), ((0, 7), 2), ((-1, 1), 4)])
def test_exhaustive_count_matches_enumeration(alphabet, n):
    digits = range(alphabet[0], alphabet[1] + 1)
    strings = {()}
    for length in range(1, n + 1):
        strings.update(w for w in itertools.product(digits, repeat=length) if w[0] != 0)
    assert vc.exhaustive_count(alphabet, n) == len(strings)


def test_checker_agrees_with_betapar_adders():
    from betapar.quadratic import quadratic_adder
    from betapar.digits import parse_digits

    adder = quadratic_adder("plus", 4, 2)
    x = y = parse_digits("6")
    out = adder.add(x, y)
    assert str(out) == "2,3.0,2"
    poly = vc.quadratic_plus_poly(4, 2)
    assert vc.value_preserved(poly, out, x, y)
    wrong = S(out.digits[:-1] + (out.digits[-1] + 1,), out.msd_exponent)
    assert not vc.value_preserved(poly, wrong, x, y)


def test_negative_control_rejects_corrupted_rules():
    from betapar.quadratic import gde_minus, gde_plus
    from workloads import negative_control

    assert negative_control(gde_plus(4, 2), vc.quadratic_plus_poly(4, 2), 2) == []
    assert negative_control(gde_minus(3, 1), vc.quadratic_minus_poly(3, 1), 2) == []


def test_negative_control_flags_a_verifier_that_passes_everything(monkeypatch):
    from betapar import conversion
    from betapar.quadratic import gde_plus
    from workloads import negative_control

    def vacuous(rule, strategy):
        return conversion.ConversionReport(rule.name, "stub", 1, [])

    monkeypatch.setattr(conversion, "verify_conversion", vacuous)
    problems = negative_control(gde_plus(4, 2), vc.quadratic_plus_poly(4, 2), 2)
    assert len(problems) == 1 and "verify_conversion passed" in problems[0]
