"""Exact output strings of the shifted GDE adders and the signed block adder.

The expected strings were recorded from the separately built shifted and
negated rules and the on-the-fly block conjugation that the layered adder
replaced; any change to the fold, the layer order or the conjugation shows
up here as a different digit string even when the value stays correct.
"""

import random

import pytest

from betapar.blocks import dbonacci_block_adder
from betapar.digits import DigitString, format_digits
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
}


@pytest.fixture(scope="module")
def adders():
    return {
        "plus-4-2-d3": shifted_adder("plus", 4, 2, d=3),
        "minus-4-2-d2": shifted_adder("minus", 4, 2, d=2),
        "tribonacci-signed": dbonacci_block_adder(3, signed=True, s=5),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(adders, name):
    adder = adders[name]
    seed, length, expected = GOLDEN[name]
    lo, hi = adder.alphabet.min_digit, adder.alphabet.max_digit
    got = [format_digits(adder.add(x, y)) for x, y in _operands(seed, lo, hi, length)]
    assert got == expected
