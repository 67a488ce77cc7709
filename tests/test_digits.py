import pytest

from betapar.digits import Alphabet, DigitString, format_digits, parse_digits


def test_parse_format_roundtrip():
    for text in ["1,2,2.2", "3", "0", "-1,0.2", "0.0,1", "10,0,-3", "2,1.1"]:
        s = parse_digits(text)
        assert parse_digits(format_digits(s)) == s


def test_parse_examples():
    s = parse_digits("1,2,2.2")
    assert s.digits == (1, 2, 2, 2)
    assert s.msd_exponent == 2
    assert s.fractional_depth == 1
    assert parse_digits("0").is_zero()
    assert parse_digits("0.0,1").digit_at(-2) == 1
    for text in ("", "  ", "."):
        assert parse_digits(text) == DigitString()
    assert parse_digits("1.") == DigitString((1,), 0)
    assert parse_digits(".5") == DigitString((5,), -1)
    assert DigitString().fractional_depth == 0


def test_canonical_strips_zeros():
    s = DigitString((0, 0, 1, 0, 2, 0, 0), 6)
    assert s.digits == (1, 0, 2)
    assert s.msd_exponent == 4
    assert s.lsd_exponent == 2
    assert DigitString((0, 0, 0), 5).is_zero()


def test_from_bytes_is_the_constructor():
    # the packed fold's path: signed bytes, stripped with bytes.strip
    for digits in [(0, 0, 1, -1, 0, 2, 0, 0), (-128, 127), (0, 0, 0), (), (5,)]:
        raw = bytes(d & 255 for d in digits)
        for msd in (-3, 0, 4):
            assert DigitString._from_bytes(raw, msd) == DigitString(digits, msd), (digits, msd)


def test_digitwise_add_examples():
    x = parse_digits("1,1")
    y = parse_digits("1,0.1")
    assert format_digits(x + y) == "2,1.1"
    z = DigitString()
    assert x + z == x
    m = parse_digits("6")
    assert (m + m).digit_at(0) == 12


def test_shift_and_negate():
    s = parse_digits("1,2.1")
    assert s.shifted(2).digit_at(3) == 1
    assert s.negated().digit_at(1) == -1
    assert s.shifted(3).shifted(-3) == s


def test_from_pairs_accumulates():
    s = DigitString.from_pairs([(0, 1), (2, 1), (0, 2)])
    assert s.digit_at(0) == 3
    assert s.digit_at(2) == 1


def test_alphabet_contract():
    a = Alphabet(-2, 3)
    assert len(a) == 6
    assert 0 in a and -2 in a and 3 in a and 4 not in a
    assert a.shifted(1) == Alphabet(-3, 2)
    assert a.negated() == Alphabet(-3, 2)
    assert Alphabet(0, 2).plus(Alphabet(0, 2)) == Alphabet(0, 4)
    with pytest.raises(ValueError):
        Alphabet(1, 3)


def test_malformed_parse():
    with pytest.raises(ValueError, match="more than one radix point"):
        parse_digits("1.2.3")


def _immutable_values():
    from betapar.algebraic import MinimalPolynomial, QuotientValue, tribonacci_base
    from betapar.blocks import make_block_params
    from betapar.numeration import EventuallyPeriodicString

    tri = tribonacci_base()
    return [Alphabet(-1, 2), parse_digits("1,0.2"), EventuallyPeriodicString((2,), (1,)),
            MinimalPolynomial([1, -1, -1, -1]), QuotientValue(tri, (1, 2, 0), 3),
            make_block_params(tri, 2, 5)]


@pytest.mark.parametrize("value", _immutable_values(), ids=lambda v: type(v).__name__)
def test_immutable_values_copy(value):
    import copy

    for dup in (copy.copy(value), copy.deepcopy(value)):
        assert dup == value
        assert dup is value or type(value).__name__ == "BlockParams"


def _pickled_values():
    from betapar.algebraic import MinimalPolynomial, QuotientValue, tribonacci_base
    from betapar.numeration import EventuallyPeriodicString

    tri = tribonacci_base()
    return [Alphabet(-1, 2), parse_digits("1,0.2"), EventuallyPeriodicString((2,), (1,)),
            MinimalPolynomial([1, -1, -1, -1]), QuotientValue(tri, (1, 2, 0), 3), tri]


@pytest.mark.parametrize("value", _pickled_values(), ids=lambda v: type(v).__name__)
def test_values_pickle(value):
    import pickle

    dup = pickle.loads(pickle.dumps(value))
    assert type(dup) is type(value) and dup == value
    assert repr(dup) == repr(value)


def test_pickled_block_adder_adds_as_the_original():
    import pickle
    import random

    from betapar.blocks import dbonacci_block_adder

    adder = dbonacci_block_adder(3)
    dup = pickle.loads(pickle.dumps(adder))
    assert dup.params == adder.params and dup.base == adder.base
    rng = random.Random(11)
    for _ in range(20):
        n, m = rng.randint(0, 40), rng.randint(0, 40)
        x = DigitString([rng.randint(0, 2) for _ in range(n)], n - 1 - rng.randint(0, 5))
        y = DigitString([rng.randint(0, 2) for _ in range(m)], m - 1)
        assert dup.add(x, y) == adder.add(x, y)
