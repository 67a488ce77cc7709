import random

import pytest

from betapar.algebraic import (
    QuotientValue,
    eval_digit_string,
    qv_add,
    qv_mul_int,
    values_equal,
)
from betapar.conversion import (
    apply_local,
    check_sum,
    exhaustive,
    fixed_letters,
    verify_conversion,
)
from betapar.digits import Alphabet, DigitString, parse_digits
from betapar.quadratic import (
    gde_minus,
    gde_plus,
    gde_plus_special,
    quadratic_adder,
    shifted_adder,
)


class TestHypotheses:
    def test_plus_needs_gap(self):
        with pytest.raises(ValueError):
            gde_plus(3, 2)  # a >= b+2 violated
        with pytest.raises(ValueError):
            gde_plus(4, 1)  # b >= 2 violated

    def test_special_needs_a3(self):
        with pytest.raises(ValueError):
            gde_plus_special(2)

    def test_minus_needs_gap(self):
        with pytest.raises(ValueError):
            gde_minus(3, 2)


class TestAlphabets:
    def test_plus(self, rule_plus42):
        assert rule_plus42.input_alphabet == Alphabet(0, 7)
        assert rule_plus42.output_alphabet == Alphabet(0, 6)

    def test_special(self, rule_special3):
        assert rule_special3.input_alphabet == Alphabet(0, 6)
        assert rule_special3.output_alphabet == Alphabet(0, 5)

    def test_minus(self, rule_minus41):
        assert rule_minus41.input_alphabet == Alphabet(0, 4)
        assert rule_minus41.output_alphabet == Alphabet(0, 3)


class TestCaseTraces:
    """Frozen single-string traces of the case tables, oracle-confirmed."""

    def test_plus42_seven(self, rule_plus42):
        # carries fire above and below the 7 (q=+1 under it, q=-1 below)
        assert apply_local(rule_plus42, parse_digits("0,7,0")) == parse_digits("1,2,2.2")

    def test_plus42_three_unchanged(self, rule_plus42):
        assert apply_local(rule_plus42, parse_digits("3")) == parse_digits("3")

    def test_special4_top_digit(self):
        rule = gde_plus_special(4)
        out = apply_local(rule, parse_digits("8"))
        assert out == parse_digits("1,3.1,3")
        assert values_equal(eval_digit_string(out, rule.base),
                            eval_digit_string(parse_digits("8"), rule.base))

    def test_minus42_isolated_top(self):
        rule = gde_minus(4, 2)
        assert apply_local(rule, parse_digits("5")) == parse_digits("1,1.2")

    def test_all_zero(self, rule_special3):
        assert apply_local(rule_special3, DigitString()).is_zero()


class TestValueNeutrality:
    def test_plus_identity(self, rule_plus42):
        base = rule_plus42.base
        lhs = QuotientValue.beta_power(base, 2)
        rhs = qv_add(qv_mul_int(QuotientValue.beta_power(base, 1), 4),
                     QuotientValue.from_int(base, 2))
        assert values_equal(lhs, rhs)

    def test_minus_identity(self):
        rule = gde_minus(4, 2)
        base = rule.base
        lhs = QuotientValue.beta_power(base, 2)
        rhs = qv_add(qv_mul_int(QuotientValue.beta_power(base, 1), 4),
                     QuotientValue.from_int(base, -2))
        assert values_equal(lhs, rhs)


class TestExhaustiveShort:
    """Length-4 sweeps per rule; the length-6 sweeps live in the acceptance suite."""

    @pytest.mark.parametrize("make,args", [
        (gde_plus, (4, 2)),
        (gde_plus, (5, 2)),
        (gde_plus_special, (3,)),
        (gde_minus, (3, 1)),
        (gde_minus, (4, 1)),
        (gde_minus, (4, 2)),
    ])
    def test_verify(self, make, args):
        rule = make(*args)
        rep = verify_conversion(rule, exhaustive(4))
        assert rep.verdict == "pass", rep.to_json()


class TestFixedLetters:
    def test_plus_family(self):
        for a, b in [(4, 2), (5, 2), (5, 3)]:
            assert fixed_letters(gde_plus(a, b)) == set(range(a + b))

    def test_special_family(self):
        for a in (3, 4):
            assert fixed_letters(gde_plus_special(a)) == set(range(2 * a - 1))

    def test_minus_family(self):
        for a, b in [(3, 1), (4, 1), (4, 2)]:
            assert fixed_letters(gde_minus(a, b)) == set(range(a - 1))

    def test_zero_always_fixed(self, rule_plus42, rule_special3, rule_minus41):
        for rule in (rule_plus42, rule_special3, rule_minus41):
            assert 0 in fixed_letters(rule)


class TestQuadraticAdder:
    def test_zero_plus_zero(self):
        adder = quadratic_adder("plus", 4, 2)
        assert adder.add(DigitString(), DigitString()).is_zero()

    def test_six_plus_six(self):
        adder = quadratic_adder("plus", 4, 2)
        out = adder.add(parse_digits("6"), parse_digits("6"))
        assert check_sum(adder, parse_digits("6"), parse_digits("6"), out)
        assert out.alphabet_ok(Alphabet(0, 6))
        assert values_equal(eval_digit_string(out, adder.base),
                            QuotientValue.from_int(adder.base, 12))

    def test_minus_33(self):
        adder = quadratic_adder("minus", 4, 1)
        x = parse_digits("3,3")
        assert check_sum(adder, x, x, adder.add(x, x))
        assert adder.alphabet == Alphabet(0, 3)

    @pytest.mark.parametrize("kind,a,b", [
        ("plus", 4, 2), ("plus_special", 3, None), ("minus", 4, 2)])
    def test_random_pairs(self, kind, a, b):
        adder = quadratic_adder(kind, a, b)
        top = adder.alphabet.max_digit
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(0, 8)
            x = DigitString(tuple(rng.randint(0, top) for _ in range(n)), n - 1)
            m = rng.randint(0, 8)
            y = DigitString(tuple(rng.randint(0, top) for _ in range(m)), m - 1)
            assert check_sum(adder, x, y, adder.add(x, y))


class TestBoundAttainment:
    """Every shipped preset attains its cardinality lower bound exactly."""

    @pytest.mark.parametrize("a,b", [(4, 2), (5, 2), (5, 3)])
    def test_plus_presets(self, a, b):
        from betapar.bounds import block_lower_bound_simple
        from betapar.numeration import renyi_dbeta

        adder = quadratic_adder("plus", a, b)
        bound = block_lower_bound_simple(renyi_dbeta(adder.base))
        assert bound == adder.alphabet.cardinality == a + b + 1

    @pytest.mark.parametrize("a,b", [(3, 1), (4, 1), (4, 2), (5, 3)])
    def test_minus_presets(self, a, b):
        from betapar.bounds import block_lower_bound_nonsimple
        from betapar.numeration import renyi_dbeta

        adder = quadratic_adder("minus", a, b)
        bound = block_lower_bound_nonsimple(renyi_dbeta(adder.base))
        assert bound == adder.alphabet.cardinality == a + b - 1

    @pytest.mark.parametrize("a", [3, 4])
    def test_special_presets(self, a):
        from betapar.bounds import block_lower_bound_simple
        from betapar.numeration import renyi_dbeta

        adder = quadratic_adder("plus_special", a)
        bound = block_lower_bound_simple(renyi_dbeta(adder.base))
        assert bound == adder.alphabet.cardinality == 2 * a


class TestShiftedAdder:
    def test_range_checks(self):
        with pytest.raises(ValueError):
            shifted_adder("minus", 4, 1, d=3)  # 3 > a-2
        with pytest.raises(ValueError):
            shifted_adder("minus", 4, 2, d=1)  # 1 < b
        with pytest.raises(ValueError):
            shifted_adder("plus", 4, 2, d=7)  # 7 > a+b

    def test_d0_matches_plain(self):
        plain = quadratic_adder("plus", 4, 2)
        sh = shifted_adder("plus", 4, 2, d=0)
        x = parse_digits("5,1")
        y = parse_digits("6,0.3")
        assert plain.add(x, y) == sh.add(x, y)

    def test_plus_d3_random(self):
        adder = shifted_adder("plus", 4, 2, d=3)
        assert adder.alphabet == Alphabet(-3, 3)
        rng = random.Random(55)
        for _ in range(40):
            n = rng.randint(0, 8)
            x = DigitString(tuple(rng.randint(-3, 3) for _ in range(n)), n - 1)
            m = rng.randint(0, 8)
            y = DigitString(tuple(rng.randint(-3, 3) for _ in range(m)), m - 1)
            assert check_sum(adder, x, y, adder.add(x, y))

    def test_minus_d1_alphabet(self):
        adder = shifted_adder("minus", 4, 1, d=1)
        assert adder.alphabet == Alphabet(-1, 2)
        x, y = parse_digits("-1,2"), parse_digits("2,-1.1")
        assert check_sum(adder, x, y, adder.add(x, y))

    def test_shifted_conversion_random_500(self):
        from betapar.conversion import random_strings, verify_conversion

        adder = shifted_adder("plus", 4, 2, d=3)
        rep = verify_conversion(adder, random_strings(500, seed=6))
        assert rep.verdict == "pass", rep.to_json()

    def test_minus_d2_tabulates_one_table(self, monkeypatch):
        # only the gde's own window table is built; conjugation reads it at w + c
        from betapar.conversion import LocalRule

        calls = []
        tabulate = LocalRule._tabulate

        def counted(rule):
            calls.append(rule.name)
            tabulate(rule)

        monkeypatch.setattr(LocalRule, "_tabulate", counted)
        shifted_adder("minus", 4, 2, d=2)
        assert calls == ["gde-minus:4,2"]
