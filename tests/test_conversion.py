import random

import pytest

from betapar.algebraic import eval_digit_string, values_equal
from betapar.conversion import (
    LocalRule,
    apply_local,
    check_sum,
    exhaustive,
    fixed_letters,
    make_adder_by_elimination,
    make_shifted_adder,
    random_strings,
    verify_conversion,
)
from betapar.digits import Alphabet, DigitString, parse_digits
from betapar.quadratic import gde_minus


def _seeded_strings(alphabet, n, seed, maxlen=12):
    """The strings that verify_conversion draws for random_strings(n, seed)."""
    rng = random.Random(seed)
    for _ in range(n):
        length = rng.randint(0, maxlen)
        digits = tuple(rng.randint(alphabet.min_digit, alphabet.max_digit)
                       for _ in range(length))
        yield DigitString(digits, length - 1)


class TestLocalRule:
    def test_zero_window_invariant_enforced(self, fib):
        with pytest.raises(ValueError):
            LocalRule(fib, 0, 0, Alphabet(0, 1), Alphabet(0, 1), lambda w: 1)

    def test_out_of_alphabet_window_rejected(self, fib):
        with pytest.raises(ValueError):
            LocalRule(fib, 0, 0, Alphabet(0, 2), Alphabet(0, 1), lambda w: w[0])

    def test_identity(self, fib):
        A = Alphabet(0, 3)
        rule = LocalRule(fib, 0, 0, A, A, lambda w: w[0])
        s = parse_digits("3,0,1.2")
        assert apply_local(rule, s) == s
        assert fixed_letters(rule) == {0, 1, 2, 3}


class TestApplyLocal:
    def test_zero_maps_to_zero(self, rule_plus42):
        assert apply_local(rule_plus42, DigitString()).is_zero()

    def test_worked_case(self, rule_plus42):
        assert apply_local(rule_plus42, parse_digits("0,7,0")) == parse_digits("1,2,2.2")

    def test_letter_fixed(self, rule_plus42):
        assert apply_local(rule_plus42, parse_digits("3")) == parse_digits("3")

    def test_alphabet_checked(self, rule_plus42):
        with pytest.raises(ValueError):
            apply_local(rule_plus42, parse_digits("9"))


class TestVerifyConversion:
    def test_identity_random_passes(self, fib):
        A = Alphabet(0, 1)
        rule = LocalRule(fib, 0, 0, A, A, lambda w: w[0])
        rep = verify_conversion(rule, random_strings(100, seed=1))
        assert rep.verdict == "pass" and rep.checked_count == 100

    def test_corrupted_rule_fails_with_counterexample(self, fib):
        # perturb one window output by +1: value mismatch forced
        def broken(w):
            return w[0] + 1 if w == (1,) else w[0]

        rule = LocalRule(fib, 0, 0, Alphabet(0, 1), Alphabet(0, 2), broken, name="broken")
        rep = verify_conversion(rule, exhaustive(3))
        assert rep.verdict == "fail"
        assert rep.failures[0][2] == "value mismatch"
        assert rep.to_dict()["failures"]

    def test_exhaustive_monotone(self, rule_minus41):
        # a pass at length L implies a pass at any shorter length
        long = verify_conversion(rule_minus41, exhaustive(4))
        short = verify_conversion(rule_minus41, exhaustive(2))
        assert long.verdict == "pass" and short.verdict == "pass"
        assert short.checked_count < long.checked_count

    def test_report_json_roundtrip(self, rule_minus41):
        import json

        rep = verify_conversion(rule_minus41, exhaustive(2))
        data = json.loads(rep.to_json())
        assert data["verdict"] == "pass" and data["checked"] == rep.checked_count


class TestShiftRule:
    """Conjugation by a plateau letter and mirroring through digit negation."""

    def test_zero_shift_is_same_rule(self, rule_plus42):
        u = parse_digits("7,0,3.6")
        plain = apply_local(rule_plus42, u)
        assert rule_plus42.convert(u) == apply_local(rule_plus42, u, 0) == plain

    def test_unfixed_letter_rejected(self):
        # minus:4,2 fixes only {0, 1, 2}; d = 3 needs 3 fixed
        with pytest.raises(ValueError, match="3 is not a fixed letter"):
            make_shifted_adder(gde_minus(4, 2), 4, 3)

    def test_shifted_rule_verifies(self, rule_plus42):
        base = rule_plus42.base
        for u in _seeded_strings(Alphabet(-3, 4), 300, seed=9):
            v = apply_local(rule_plus42, u, 3)
            assert v.alphabet_ok(Alphabet(-3, 3))
            assert values_equal(eval_digit_string(v, base), eval_digit_string(u, base))

    def test_negate_rule_verifies(self, rule_plus42):
        base = rule_plus42.base
        for u in _seeded_strings(Alphabet(-7, 0), 200, seed=9):
            v = apply_local(rule_plus42, u.negated(), 0).negated()
            assert v.alphabet_ok(Alphabet(-6, 0))
            assert values_equal(eval_digit_string(v, base), eval_digit_string(u, base))

    def test_plateau_input_alphabet_checked(self, rule_plus42):
        with pytest.raises(ValueError):
            apply_local(rule_plus42, parse_digits("5"), 3)  # 5 + 3 is outside {0..7}


class TestEliminationAdder:
    def test_alphabet_contract_enforced(self, rule_plus42):
        with pytest.raises(ValueError):
            make_adder_by_elimination(rule_plus42, 5)

    def test_add_zero(self, rule_plus42):
        adder = make_adder_by_elimination(rule_plus42, 6)
        x = parse_digits("4,0,5")
        out = adder.add(x, DigitString())
        assert values_equal(eval_digit_string(out, adder.base),
                            eval_digit_string(x, adder.base))

    def test_effective_window_recorded(self, rule_plus42):
        adder = make_adder_by_elimination(rule_plus42, 6)
        assert adder.effective_window == 6 * (rule_plus42.p - 1) + 1

    def test_conversion_rule_view_value_correct(self, rule_plus42):
        # the A+A -> A conversion view re-splits the digitwise sum, so its
        # output string may differ from add(x, y); the values must agree
        adder = make_adder_by_elimination(rule_plus42, 6)
        assert adder.input_alphabet == Alphabet(0, 12)
        assert adder.output_alphabet == Alphabet(0, 6)
        base = adder.base
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(0, 8)
            x = DigitString(tuple(rng.randint(0, 6) for _ in range(n)), n - 1)
            m = rng.randint(0, 8)
            y = DigitString(tuple(rng.randint(0, 6) for _ in range(m)), m - 1)
            via_rule = adder.convert(x + y)
            via_adder = adder.add(x, y)
            assert check_sum(adder, x, y, via_adder)
            assert via_rule.alphabet_ok(adder.alphabet)
            assert values_equal(eval_digit_string(via_rule, base),
                                eval_digit_string(via_adder, base))

    def test_composite_rule_windows_consistent(self, rule_minus41):
        # window-by-window evaluation must agree with whole-string evaluation
        adder = make_adder_by_elimination(rule_minus41, 3)
        # three layers of a (3, 3)-local rule: the composite is (9, 9)-local
        mem = 3 * rule_minus41.memory
        ant = 3 * rule_minus41.anticipation
        rng = random.Random(4)
        for _ in range(5):
            n = rng.randint(1, 6)
            u = DigitString(tuple(rng.randint(0, 6) for _ in range(n)), n - 1)
            fast = adder.convert(u)
            slow_digits = []
            msd, lsd = u.support()
            for j in range(msd + mem, lsd - ant - 1, -1):
                w = tuple(u.digit_at(k) for k in range(j + ant, j - mem - 1, -1))
                # the window alone, centred at exponent mem
                slow_digits.append(adder.convert(DigitString(w, mem + ant)).digit_at(mem))
            assert DigitString(tuple(slow_digits), msd + mem) == fast


class TestLocality:
    def test_outside_window_never_matters(self, rule_plus42):
        # inputs agreeing on [j-r, j+t] produce the same output digit at j
        rng = random.Random(7)
        r, t = rule_plus42.memory, rule_plus42.anticipation
        for _ in range(300):
            w = [rng.randint(0, 7) for _ in range(r + t + 1)]
            j = rng.randint(5, 10)
            left1 = [rng.randint(0, 7) for _ in range(rng.randint(0, 4))]
            left2 = [rng.randint(0, 7) for _ in range(rng.randint(0, 4))]
            right1 = [rng.randint(0, 7) for _ in range(rng.randint(0, 4))]
            right2 = [rng.randint(0, 7) for _ in range(rng.randint(0, 4))]
            u1 = DigitString(tuple(left1 + w + right1), j + t + len(left1))
            u2 = DigitString(tuple(left2 + w + right2), j + t + len(left2))
            v1 = apply_local(rule_plus42, u1)
            v2 = apply_local(rule_plus42, u2)
            assert v1.digit_at(j) == v2.digit_at(j)

    def test_composite_locality_radius(self, rule_minus41):
        # perturbations beyond the effective window radius cannot reach position 0
        adder = make_adder_by_elimination(rule_minus41, 3)
        radius = adder.effective_window  # strictly larger than the true radius
        rng = random.Random(13)
        for _ in range(10):
            core = tuple(rng.randint(0, 3) for _ in range(5))
            x1 = DigitString(core, 2)
            far = DigitString((rng.randint(1, 3),), radius + 3)
            y = DigitString(tuple(rng.randint(0, 3) for _ in range(4)), 1)
            out1 = adder.add(x1, y)
            out2 = adder.add(x1 + far, y)
            assert out1.digit_at(0) == out2.digit_at(0)


class TestShiftedChain:
    def test_full_negative_shift_is_negation(self, rule_plus42):
        adder = make_shifted_adder(rule_plus42, 6, 6)
        x = parse_digits("-4,-2")
        y = parse_digits("-1.-6")
        out = adder.add(x, y)
        assert check_sum(adder, x, y, out)
        assert adder.alphabet == Alphabet(-6, 0)

    def test_mixed_shift_random(self, rule_plus42):
        adder = make_shifted_adder(rule_plus42, 6, 2)
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(0, 8)
            x = DigitString(tuple(rng.randint(-2, 4) for _ in range(n)), n - 1)
            m = rng.randint(0, 8)
            y = DigitString(tuple(rng.randint(-2, 4) for _ in range(m)), m - 1)
            assert check_sum(adder, x, y, adder.add(x, y))


class TestCheckSum:
    def test_accepts_the_adder_sum(self, rule_plus42):
        adder = make_adder_by_elimination(rule_plus42, 6)
        x, y = parse_digits("6,6"), parse_digits("5.1")
        assert check_sum(adder, x, y, adder.add(x, y))

    def test_rejects_a_wrong_value(self, rule_plus42):
        adder = make_adder_by_elimination(rule_plus42, 6)
        x, y = parse_digits("6"), parse_digits("6")
        assert not check_sum(adder, x, y, parse_digits("2,3.0,1"))

    def test_rejects_digits_outside_the_alphabet(self, rule_plus42):
        # 12 has the right value but is no digit of {0..6}
        adder = make_adder_by_elimination(rule_plus42, 6)
        x, y = parse_digits("6"), parse_digits("6")
        assert not check_sum(adder, x, y, parse_digits("12"))
