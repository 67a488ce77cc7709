"""Exact output strings of the shifted GDE adders, the signed block adder
and the greedy expansions.

The adder strings were recorded from the separately built shifted and
negated rules and the on-the-fly block conjugation that the layered adder
replaced; any change to the fold, the layer order or the conjugation shows
up here as a different digit string even when the value stays correct.
The greedy strings and their ``exact`` flags were recorded from the
QuotientValue greedy loop that ``greedy_vector_digits`` replaced, and pin
the truncation at the digit limit.  The two unsigned block adder strings
were recorded from the memoized block adder that read every block once per
neighbour; the quadratic one has k = 4, so its operands cross block edges
and negative exponents often.
"""

import random

import pytest

from betapar.algebraic import (
    QuotientValue,
    fibonacci_base,
    qv_compare,
    qv_sign,
    quadratic_minus_base,
    quadratic_plus_base,
    tribonacci_base,
)
from betapar.blocks import BlockAdder, dbonacci_block_adder, make_block_params
from betapar.digits import DigitString, format_digits
from betapar.numeration import greedy_expand, greedy_expand_ge1
from betapar.quadratic import shifted_adder


def _operands(seed, lo, hi, length):
    rng = random.Random(seed)
    pairs = []
    for _ in range(3):
        pair = []
        for _ in range(2):
            digits = tuple(rng.randint(lo, hi) for _ in range(length))
            pair.append(DigitString(digits, rng.randint(-3, length - 1)))
        pairs.append(tuple(pair))
    return pairs


GOLDEN = {
    "plus-4-2-d3": (101, 16, [
        "-1,-1,1,1,-2,-2,-1,-1,0,-3.0,0,-2,1,-3,0,2,2,1,0,2,3",
        "-2,-3,0,0,-1,-2,-2,-2,1.1,2,2,2,0,3,-1,0,2,2,0,-2,-1,-2,-2,0,1,1",
        "-3,0,3,1,1,2,2,0.-3,1,0,0,1,-1,1,0,-1,1,-1,-2,0,-2,0,1,2",
    ]),
    "minus-4-2-d2": (202, 16, [
        "1,-2,0,-1,1,-1,0,2,-1,1,1,-2,1,1,-1.0,1,-2,-1,1,-2,1,1,-2,0,-1,2,-2",
        "-1,2,1,-1,0,-1,1,2,0,0,0,-2.-2,0,-1,1,1,-1",
        "-1,0,2,1,0,-2,2,-2,0,2,0,1.1,-1,-2,0,1,-2,0,2,-2",
    ]),
    "tribonacci-signed": (303, 30, [
        "-1,1,1,0,1,0,1,0,1,0,1,0,1,1,0,1,0,0,0,0,0,1,0,1,0,0,1,0,0,1."
        "0,0,0,1,1,0,0,1,0,1,0,1,1,-1,0,1,1,0,0,1,1,1,1,1,0,1,0,1,0,1",
        "-1,1,1,0,1,1,1,0,0,1,0,1,0,0,1,0."
        "1,0,0,0,0,1,1,0,1,1,0,1,0,0,1,0,-1,1,1,0,0,1,0,1,1,1,0,0,0,0,-1",
        "-1,1,0,0,1,1,0,1,0,0,1,1,0,1,-1,0,1,1,1,0,1,1,0,1,0,0,1,1,-1."
        "-1,1,0,1,0,1,1,0,1,1,0,1,1,1",
    ]),
    "tribonacci-unsigned": (404, 30, [
        "1,1,0,0,0,1,1,0,0,1,1,0,0,0,1,1,0,1,0,2,0.2,0,1,0,1,0,1,1,0,0,0,0,0,1,1",
        "1,0,0,0,0,0,1,0,1,0,1,0,1,0,2,1,0,1,2,1,0,0,0,1,0,1,0,1,0,0."
        "1,1,1,0,2,1,1,1,0,1,1,0,1,1,0,0,0,1",
        "1,0,0,1,1,0,0,1,1,0,0,1,1,0,1,0,1,1,0,0,1,0,0,1,0,0,1,2,0."
        "1,1,0,1,0,0,1,0,1,0,0,0,1,0,0,1,1,1,1,0,1,1,0,1,0,0,0,2,2,0,0,1,1",
    ]),
    "quadratic-minus-3-1-block": (505, 16, [
        "1,1,0,2,2,0,1,2.1,1,1,1,3,1,1,2,0,2,0,1,4,1,0,2",
        "2,2,1,3,0,0,1,2.1,0,0,2,1,3,0,1,2,0,2,1,4,0,0,2,1",
        "1,1,2,0,4,1,0,3,1.3,0,1,2,2,0,0,0,2,1,1",
    ]),
}


@pytest.fixture(scope="module")
def adders(tri, qm31):
    return {
        "plus-4-2-d3": shifted_adder("plus", 4, 2, d=3),
        "minus-4-2-d2": shifted_adder("minus", 4, 2, d=2),
        "tribonacci-signed": dbonacci_block_adder(3, signed=True, s=5),
        "tribonacci-unsigned": BlockAdder(tri, make_block_params(tri, 2, 5)),
        "quadratic-minus-3-1-block": BlockAdder(qm31, make_block_params(qm31, 1, 1)),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(adders, name):
    adder = adders[name]
    seed, length, expected = GOLDEN[name]
    lo, hi = adder.alphabet.min_digit, adder.alphabet.max_digit
    got = [format_digits(adder.add(x, y)) for x, y in _operands(seed, lo, hi, length)]
    assert got == expected


# -- greedy expansions -----------------------------------------------------------

GREEDY_BASES = {
    "fibonacci": fibonacci_base,
    "tribonacci": tribonacci_base,
    "quadratic-plus:4,2": lambda: quadratic_plus_base(4, 2),
    "quadratic-minus:4,2": lambda: quadratic_minus_base(4, 2),
}


def _greedy_cases(base, seed, count=10):
    """Seeded (function, x, limit) cases, x = value(coeffs) * beta**(-e).

    Each digit limit is drawn around e, so the cut falls both above and
    below the leading digit.  greedy_expand_ge1 with max_frac = 0 is left
    out for x < 1 here; that case has its own test.
    """
    rng = random.Random(seed)
    one = QuotientValue.from_int(base, 1)
    expand, ge1 = [], []
    while len(expand) < count or len(ge1) < count:
        coeffs = tuple(rng.randint(-20, 40) for _ in range(base.degree))
        e = rng.randint(0, 14)
        x = QuotientValue(base, coeffs, e)
        if qv_sign(x) < 0:
            continue
        below_one = qv_compare(x, one) < 0
        limit = rng.randint(max(0, e - 5), e + 6)
        if below_one and len(expand) < count:
            expand.append(("greedy_expand", x, max(1, limit)))
        elif len(ge1) < count and (limit or not below_one):
            ge1.append(("greedy_expand_ge1", x, limit))
    return expand + ge1


def _greedy_outputs(name, seed):
    base = GREEDY_BASES[name]()
    out = []
    for fn, x, limit in _greedy_cases(base, seed):
        res = (greedy_expand if fn == "greedy_expand" else greedy_expand_ge1)(x, base, limit)
        out.append((format_digits(res.string), res.exact))
    return out


GREEDY_GOLDEN = {
    "fibonacci": (41, [
        ("0.0,0,0,0,0,0,0,0,0,0,1,0,0,1,0,1", True),
        ("0.0,0,0,0,0,1", False),
        ("0.1,0,0,1,0,0,0,1,0,0,0,0,1", True),
        ("0.0,0,0,0,0,1,0,0,0,0,1,0,0,0,0,0,0,1", False),
        ("0", False),
        ("0.0,0,0,0,1,0,1,0,0,1", False),
        ("0.0,0,1,0,1,0,1,0,0,1", False),
        ("0.0,0,0,1", False),
        ("0.0,1,0,0,1", False),
        ("0.0,0,0,0,1,0,1,0,1", False),
        ("1", False),
        ("1,0,0,1.0,0,1,0,0,0,0,0,1", False),
        ("1,0,1,0,1.0,1,0,1,0,1", False),
        ("1,0,0,0,1,0,0,0,0.0,0,0,0,0,1", True),
        ("1,0,1,0,1,0,0", False),
        ("1,0,1,0,0.0,1", False),
        ("1.0,1,0,1", False),
        ("1,0,0,0,0,0,1,0,1", True),
        ("1,0,0,0,0,0,0", False),
        ("1,0,0,1,0,1,0.1,0,1", False),
    ]),
    "tribonacci": (43, [
        ("0.0,0,0,0,0,1,0,1,1", False),
        ("0.0,0,0,1,0,0,1", False),
        ("0.0,1", False),
        ("0.0,0,0,0,0,1,0,0,1,0,1", False),
        ("0", False),
        ("0.0,0,0,0,0,0,0,0,0,1,0,1", False),
        ("0.0,0,1,0,1,0,1,0,1,0,1", False),
        ("0.0,0,0,0,1,0,1,1", False),
        ("0.1,0,0,1,0,0,1,0,1,0,1,0,0,1", False),
        ("0.0,0,0,0,1,0,1,0,1,0,0,0,1,1,0,0,1", False),
        ("1,0,0.0,1,0,0,1,1", False),
        ("1,1,0,0.1", False),
        ("1,1,0,0,1,1.0,0,1", False),
        ("1,0,0,1,0,0,1,0,0", False),
        ("1,0,0.1,0,1,1,0,0,1", False),
        ("1,0,1,0,0,0", False),
        ("1,0,1", False),
        ("1,0.1,1,0,0,0,1,0,1,0,0,1", False),
        ("1,0,1,0,0,0,1", False),
        ("0.0,0,0,1,0,0,0,1,0,0,1,0,0,0,0,1,1", False),
    ]),
    "quadratic-plus:4,2": (47, [
        ("0.0,0,0,0,0,0,2,3,2", False),
        ("0.0,0,0,2,2,0,4", True),
        ("0", False),
        ("0.0,0,0,0,0,0,0,0,0,0,2,0,0,4", False),
        ("0.2,1,3", False),
        ("0.0,0,3,1,2,2,2", True),
        ("0.0,0,0,0,0,0,0,1,1,1,1", False),
        ("0.0,0,0,0,0,1,0,2,2,4", True),
        ("0", False),
        ("0.0,0,0,3,4,1,2", True),
        ("1,0,3,2", False),
        ("0.1", False),
        ("0.0,0,0,0,0,0,0,0,0,0,2", False),
        ("0.0,0,0,0,0,0,0,0,0,1,2,4", False),
        ("0", False),
        ("0.0,0,0,0,0,0,2,3,2", False),
        ("0.2", False),
        ("0.0,0,0,0,0,0,0,0,0,0,1,0,2", False),
        ("0", False),
        ("0.0,0,0,0,0,0,0,1,1", False),
    ]),
    "quadratic-minus:4,2": (53, [
        ("0.0,0,0,0,0,0,0,0,0,0,3,1", False),
        ("0.0,0,0,0,0,0,0,1,0,2,3,1", False),
        ("0.0,0,0,0,3,0,1,1", False),
        ("0", False),
        ("0.0,0,0,0,0,0,2,2,1,1", False),
        ("0", False),
        ("0.0,0,0,0,0,0,2,0,2,1", True),
        ("0.0,0,0,0,1", False),
        ("0.0,0,0,0,0,0,0,0,0,2,0,0,0,0,1", False),
        ("0.0,3,0,1,0,3,0,2", True),
        ("1,0,2,2,1", False),
        ("2,1.0,2,3", False),
        ("3,0,2,1.3", False),
        ("3,0", False),
        ("0", False),
        ("0.0,1,0,0,1,0,1,1,2", False),
        ("0.0,0,0,0,0,0,0,0,0,0,2", False),
        ("0.0,1", True),
        ("1.3,0,3,1,0,2", True),
        ("0.0,0,0,0,3,1", True),
    ]),
}


@pytest.mark.parametrize("name", sorted(GREEDY_GOLDEN))
def test_greedy_golden_outputs(name):
    seed, expected = GREEDY_GOLDEN[name]
    assert _greedy_outputs(name, seed) == expected
