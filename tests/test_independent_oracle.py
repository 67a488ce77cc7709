"""Cross-checks of the exact arithmetic against an independent numeric route.

Everything else in the suite trusts values_equal and the certified floors.
These tests rebuild the value semantics from scratch with mpmath (root via
polyroots, digit strings evaluated as plain power sums at 60 digits) and
compare. A systematic defect in the dyadic enclosure layer cannot hide
from a disagreement here.
"""

import random

import mpmath as mp
import pytest

from betapar.algebraic import (
    QuotientValue,
    base_from_spec,
    certified_floor,
    eval_digit_string,
)
from betapar.blocks import BlockAdder, make_block_params
from betapar.digits import DigitString
from betapar.quadratic import quadratic_adder

DPS = 60


def mp_root(base):
    with mp.workdps(DPS):
        roots = mp.polyroots([mp.mpf(c) for c in base.poly.coefficients],
                             maxsteps=200, extraprec=240)
        lo, hi = (float(t) for t in base.interval)
        real = [r.real for r in roots if abs(r.imag) < 1e-30 and lo - 1e-9 < r.real < hi + 1e-9]
        assert len(real) == 1
        return real[0]


def mp_value(s, beta):
    with mp.workdps(DPS):
        acc = mp.mpf(0)
        for e, d in s.iter_pairs():
            acc += d * beta ** e
        return acc


def mp_qv(v, beta):
    with mp.workdps(DPS):
        acc = mp.mpf(0)
        for i, c in enumerate(v.coeffs):
            acc += c * beta ** i
        return acc / beta ** v.scale


@pytest.mark.parametrize("spec", ["fibonacci", "tribonacci", "quadratic-plus:4,2",
                                  "quadratic-minus:4,2"])
def test_eval_matches_numeric_power_sum(spec):
    base = base_from_spec(spec)
    beta = mp_root(base)
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(0, 10)
        s = DigitString(tuple(rng.randint(-2, 4) for _ in range(n)), rng.randint(-3, 5))
        exact = eval_digit_string(s, base)
        with mp.workdps(DPS):
            diff = abs(mp_qv(exact, beta) - mp_value(s, beta))
            assert diff < mp.mpf(10) ** (-(DPS - 20))


@pytest.mark.parametrize("spec", ["fibonacci", "quadratic-plus:4,2"])
def test_certified_floor_matches_numeric(spec):
    base = base_from_spec(spec)
    beta = mp_root(base)
    rng = random.Random(77)
    checked = 0
    for _ in range(200):
        v = QuotientValue(base, tuple(rng.randint(-40, 40) for _ in range(base.degree)),
                          rng.randint(0, 3))
        with mp.workdps(DPS):
            x = mp_qv(v, beta)
            if abs(x - mp.nint(x)) < mp.mpf(10) ** (-20):
                continue  # numeric route cannot decide boundary cases
            assert certified_floor(v) == int(mp.floor(x))
            checked += 1
    assert checked > 150


def test_gde_adder_sums_numerically():
    adder = quadratic_adder("plus", 4, 2)
    beta = mp_root(adder.base)
    rng = random.Random(5)
    for _ in range(30):
        n, m = rng.randint(0, 10), rng.randint(0, 10)
        x = DigitString(tuple(rng.randint(0, 6) for _ in range(n)), n - 1)
        y = DigitString(tuple(rng.randint(0, 6) for _ in range(m)), m - 1)
        out = adder.add(x, y)
        with mp.workdps(DPS):
            diff = abs(mp_value(out, beta) - mp_value(x, beta) - mp_value(y, beta))
            assert diff < mp.mpf(10) ** (-(DPS - 25))


def test_block_adder_sums_numerically():
    base = base_from_spec("tribonacci")
    adder = BlockAdder(base, make_block_params(base, 2, 5))
    beta = mp_root(base)
    rng = random.Random(6)
    for _ in range(20):
        n, m = rng.randint(0, 30), rng.randint(0, 30)
        x = DigitString(tuple(rng.randint(0, 2) for _ in range(n)), n - 1)
        y = DigitString(tuple(rng.randint(0, 2) for _ in range(m)), m - 1)
        out = adder.add(x, y)
        with mp.workdps(DPS):
            diff = abs(mp_value(out, beta) - mp_value(x, beta) - mp_value(y, beta))
            assert diff < mp.mpf(10) ** (-(DPS - 25))
