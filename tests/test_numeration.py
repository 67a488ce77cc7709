import itertools
import random

import pytest

from betapar import numeration
from betapar.algebraic import (
    BetaBase,
    QuotientValue,
    base_from_spec,
    dbonacci_base,
    eval_digit_string,
    qv_mul_beta_pow,
    qv_sub,
    quadratic_minus_base,
    quadratic_plus_base,
    values_equal,
)
from betapar.digits import DigitString, parse_digits
from betapar.numeration import (
    F,
    INCONCLUSIVE,
    PF,
    AdmissibilityAutomaton,
    EventuallyPeriodicString,
    canonical_alphabet,
    classify_parry,
    greedy_expand,
    greedy_expand_ge1,
    greedy_fractional_depth,
    greedy_tail,
    greedy_vector_digits,
    is_admissible,
    iter_beta_integer_words,
    lex_compare,
    parse_eventually_periodic,
    pf_sufficient,
    quasi_greedy,
    renyi_dbeta,
)

eps = parse_eventually_periodic


class TestEventuallyPeriodic:
    def test_normalization_primitive_period(self):
        s = EventuallyPeriodicString((2,), (1, 1))
        assert s.period == (1,)

    def test_normalization_minimal_preperiod(self):
        s = EventuallyPeriodicString((2, 1), (2, 1))
        assert s.preperiod == () and s.period in ((2, 1), (1, 2))
        # the sequence itself is unchanged
        assert [s.digit_at(i) for i in range(6)] == [2, 1, 2, 1, 2, 1]

    def test_parse_format(self):
        for text in ["42", "111", "2(1)", "3(1)", "1(10)", "", "(1)"]:
            assert str(eps(text)) == text
        assert eps("10,11").preperiod == (10, 11)

    def test_lex_compare_presentations_equal(self):
        a = eps("1(01)")
        b = eps("10(10)")
        assert lex_compare(a, b) == 0

    def test_lex_compare_orders(self):
        assert lex_compare(eps("11"), eps("(10)")) > 0
        assert lex_compare(eps("101"), eps("(10)")) < 0
        assert lex_compare(eps("(121)"), eps("(12)")) < 0  # 1211.. vs 1212..
        assert lex_compare(eps("0"), eps("(10)")) < 0


class TestLexCompareOracle:
    def test_against_long_prefix_comparison(self):
        # independent oracle: expand both sequences far beyond the horizon
        # and compare the prefixes directly
        from hypothesis import given, settings
        from hypothesis import strategies as st

        digit = st.integers(0, 3)

        @settings(max_examples=300, deadline=None)
        @given(pre1=st.lists(digit, max_size=5), per1=st.lists(digit, max_size=4),
               pre2=st.lists(digit, max_size=5), per2=st.lists(digit, max_size=4))
        def check(pre1, per1, pre2, per2):
            x = EventuallyPeriodicString(pre1, per1)
            y = EventuallyPeriodicString(pre2, per2)
            a = [x.digit_at(i) for i in range(200)]
            b = [y.digit_at(i) for i in range(200)]
            expected = (a > b) - (a < b)
            assert lex_compare(x, y) == expected

        check()


class TestCanonicalAlphabet:
    def test_fibonacci(self, fib):
        assert list(canonical_alphabet(fib)) == [0, 1]

    def test_quadratic_plus(self, qp42):
        assert canonical_alphabet(qp42).max_digit == 4

    def test_dbonacci3(self, tri):
        assert list(canonical_alphabet(tri)) == [0, 1]


class TestGreedyExpand:
    def test_zero(self, fib):
        res = greedy_expand(QuotientValue.from_int(fib, 0), fib, 5)
        assert res.string.is_zero() and res.exact

    def test_beta_inverse_squared(self, fib):
        res = greedy_expand(QuotientValue.beta_power(fib, -2), fib, 10)
        assert res.exact
        assert res.string == parse_digits("0.0,1")

    def test_beta_inverse(self, fib):
        res = greedy_expand(QuotientValue.beta_power(fib, -1), fib, 10)
        assert res.exact and res.string == parse_digits("0.1")

    def test_domain_errors(self, fib):
        with pytest.raises(ValueError):
            greedy_expand(QuotientValue.from_int(fib, 1), fib, 5)
        with pytest.raises(ValueError):
            greedy_expand(QuotientValue.from_int(fib, -1), fib, 5)

    @pytest.mark.parametrize("spec", ["quadratic-plus:4,2", "tribonacci"])
    def test_a_value_over_another_base_is_rejected(self, fib, spec):
        # phi - 1 = 0.618... over Fibonacci; read in quadratic-plus:4,2 the
        # same vector is worth about 3.45, and tribonacci has another degree
        base = base_from_spec(spec)
        x = QuotientValue(fib, (-1, 1))
        msg = r"over BetaBase\(fibonacci\), not over BetaBase\(%s\)" % spec
        with pytest.raises(ValueError, match=msg):
            greedy_expand(x, base, 6)
        with pytest.raises(ValueError, match=msg):
            greedy_expand_ge1(QuotientValue(fib, (0, 1)), base, 6)

    def test_truncation_marker(self, fib):
        # 1/beta + 1/beta has no finite greedy expansion prefix of length 1
        x = qv_mul_beta_pow(QuotientValue.from_int(fib, 2), -2)
        res = greedy_expand(x, fib, 1)
        assert not res.exact

    def test_cut_expansion_stops_at_the_cut(self, monkeypatch):
        # x = 1 - beta^-300 is stored as (beta^300 - 1) * beta^-300; its first
        # digit must not cost the 300 integer digits of beta^300 - 1
        base = quadratic_plus_base(4, 2)
        x = qv_mul_beta_pow(qv_sub(QuotientValue.beta_power(base, 300),
                                   QuotientValue.from_int(base, 1)), -300)
        floor = BetaBase.floor_of_vector
        calls = []

        def counted(self, v, scale=0):
            calls.append(scale)
            return floor(self, v, scale)

        monkeypatch.setattr(BetaBase, "floor_of_vector", counted)
        res = greedy_expand(x, base, 1)
        monkeypatch.undo()
        assert len(calls) <= 10
        assert res.string == parse_digits("0.4") and not res.exact


def _exact_floor_digits(base, vec, lowest):
    """greedy_vector_digits as one exact floor per position, for reference."""
    d = base.degree
    if not any(vec):
        return [], [], True
    if base.sign_of_vector(vec) < 0:
        raise ValueError("greedy expansion needs a non-negative value")
    n = 0
    while base.floor_of_vector(vec, n + 1) > 0:
        n += 1
    int_digits = [0] * (n + 1)
    r = vec
    for j in range(n, max(lowest, 0) - 1, -1):
        dig = base.floor_of_vector(r, j)
        if dig:
            pw = base.power_vector(j)
            r = tuple(r[i] - dig * pw[i] for i in range(d))
        int_digits[j] = dig
    frac = []
    exact = not any(r)
    while not exact and len(frac) < -lowest:
        r = base.shift_vector(r)
        dig = base.floor_of_vector(r)
        r = (r[0] - dig,) + r[1:]
        frac.append(dig)
        exact = not any(r)
    return int_digits, frac, exact


class TestGreedyVectorDigits:
    @pytest.mark.parametrize("spec", ["fibonacci", "tribonacci", "dbonacci:4",
                                      "quadratic-plus:4,2", "quadratic-minus:3,1",
                                      "quadratic-minus:4,2"])
    def test_matches_exact_floor_per_position(self, spec):
        # digit strings (whose remainders often end exactly on a power),
        # multiples of single powers, and arbitrary small vectors, cut at
        # positions above, at and below the radix point
        base = base_from_spec(spec)
        rng = random.Random(spec)
        cases = 0
        for _ in range(340):
            kind = rng.randrange(3)
            if kind == 0:
                vec = [0] * base.degree
                for j in range(rng.randint(1, 30)):
                    dig = rng.randint(0, 4)
                    vec = [a + dig * p for a, p in zip(vec, base.power_vector(j))]
                vec = tuple(vec)
            elif kind == 1:
                vec = tuple(rng.randint(1, 5) * c for c in base.power_vector(rng.randint(0, 40)))
            else:
                vec = tuple(rng.randint(-60, 200) for _ in range(base.degree))
                if base.sign_of_vector(vec) < 0:
                    vec = tuple(-c for c in vec)
            for lowest in (3, 0, -5, -30):
                assert (greedy_vector_digits(base, vec, lowest)
                        == _exact_floor_digits(base, vec, lowest)), (vec, lowest)
                cases += 1
        assert cases == 4 * 340  # 340 vectors per base, 2,040 over the six

    def test_negative_value_rejected(self, fib):
        with pytest.raises(ValueError):
            greedy_vector_digits(fib, (1, -1), 0)  # 1 - beta < 0


class TestGreedyGe1:
    def test_one(self, fib):
        res = greedy_expand_ge1(QuotientValue.from_int(fib, 1), fib)
        assert res.exact and res.string == parse_digits("1")

    def test_two_fibonacci(self, fib):
        res = greedy_expand_ge1(QuotientValue.from_int(fib, 2), fib)
        assert res.exact and res.string == parse_digits("1,0.0,1")

    def test_two_quadratic(self, qp42):
        res = greedy_expand_ge1(QuotientValue.from_int(qp42, 2), qp42)
        assert res.exact and res.string == parse_digits("2")

    @pytest.mark.parametrize("power", [-1, -3])
    def test_no_fractional_digits_below_one(self, fib, qp42, power):
        # the integer part of 0 < x < 1 is zero, and cutting x off is inexact
        for base in (fib, qp42):
            res = greedy_expand_ge1(QuotientValue.beta_power(base, power), base, max_frac=0)
            assert res.string.is_zero() and not res.exact

    @pytest.mark.parametrize("max_frac", [-1, -3])
    def test_negative_max_frac_rejected(self, tri, max_frac):
        # a negative cut would drop integer digits: 3 = 11.001 in Tribonacci
        # would come back as 1,0... or 0...
        with pytest.raises(ValueError, match="max_frac"):
            greedy_expand_ge1(QuotientValue.from_int(tri, 3), tri, max_frac=max_frac)

    def test_output_admissible(self, fib):
        dstar = quasi_greedy(renyi_dbeta(fib))
        rng = random.Random(11)
        for _ in range(50):
            n = QuotientValue.from_int(fib, rng.randint(0, 4000))
            res = greedy_expand_ge1(n, fib)
            assert res.exact
            assert is_admissible(res.string, dstar)
            assert values_equal(eval_digit_string(res.string, fib), n)


class TestRenyi:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_dbonacci(self, d):
        base = base_from_spec("dbonacci:%d" % d)
        assert renyi_dbeta(base) == EventuallyPeriodicString((1,) * d)

    @pytest.mark.parametrize("a,b", [(4, 2), (5, 2), (5, 3), (3, 2), (7, 4)])
    def test_quadratic_plus_family(self, a, b):
        assert renyi_dbeta(quadratic_plus_base(a, b)) == EventuallyPeriodicString((a, b))

    @pytest.mark.parametrize("a,b", [(3, 1), (4, 1), (4, 2), (5, 3), (6, 2)])
    def test_quadratic_minus_family(self, a, b):
        got = renyi_dbeta(quadratic_minus_base(a, b))
        assert got == EventuallyPeriodicString((a - 1,), (a - b - 1,))

    def test_unknown_on_tiny_budget(self, qm31, monkeypatch):
        monkeypatch.setattr(numeration, "_MAX_STEPS", 1)
        assert renyi_dbeta(qm31) is None

    def test_greedy_tail(self, tri, qm31):
        assert greedy_tail(qm31, (0, 0)) == EventuallyPeriodicString(())
        assert greedy_tail(qm31, (-2, 1)) == eps("(1)")  # beta - 2 = .1^omega
        assert greedy_tail(tri, (-1, -1, 1)) == eps("1")  # beta^2 - beta - 1 = 1/beta
        assert greedy_tail(qm31, (-2, 1), max_steps=0) is None

    @pytest.mark.parametrize("d", [2, 3])
    def test_fractional_depth_has_no_digit_cap(self, d):
        # beta^-600 as a scale-0 vector on a fresh base: its greedy tail
        # ends exactly after 600 digits
        base = dbonacci_base(d)
        inverse = (-1,) * (d - 1) + (1,)  # 1/beta = beta^(d-1) - ... - beta - 1
        vec = base.unit_vector()
        for _ in range(600):
            vec = tuple(a + vec[0] * b for a, b in zip(vec[1:] + (0,), inverse))
        back = vec
        for _ in range(600):
            back = base.shift_vector(back)
        assert back == base.unit_vector()
        assert greedy_fractional_depth(base, vec) == 600

    def test_fractional_depth_of_endless_tail_raises(self):
        # sqrt(3) - 1 in the non-Pisot base sqrt(3): its greedy tail neither
        # ends nor repeats, so the search stops after _MAX_STEPS digits
        with pytest.raises(RuntimeError):
            greedy_fractional_depth(base_from_spec("1,0,-3"), (-1, 1))

    def test_fractional_depth_of_periodic_tail_raises(self, qm31):
        # beta - 2 = .1^omega: its greedy tail repeats, so it has no end
        # within _MAX_STEPS digits either
        with pytest.raises(RuntimeError):
            greedy_fractional_depth(qm31, (-2, 1))

    def test_classify(self, fib, qm31, monkeypatch):
        assert classify_parry(fib)[0] == "simple"
        kind, d = classify_parry(quadratic_minus_base(4, 2))
        assert kind == "non-simple" and str(d) == "3(1)"
        monkeypatch.setattr(numeration, "_MAX_STEPS", 1)
        assert classify_parry(qm31) == ("unknown", None)


class TestQuasiGreedy:
    def test_fibonacci(self):
        assert quasi_greedy(eps("11")) == eps("(10)")

    def test_tribonacci(self):
        assert quasi_greedy(eps("111")) == eps("(110)")

    def test_infinite_unchanged(self):
        d = eps("2(1)")
        assert quasi_greedy(d) is d

    @pytest.mark.parametrize("spec", ["fibonacci", "tribonacci", "quadratic-plus:4,2",
                                      "quadratic-plus:5,3", "dbonacci:5"])
    def test_never_constant_period(self, spec):
        # the Renyi expansion can never take the form t1^omega, so the
        # quasi-greedy period must not collapse to the single letter t1
        d = renyi_dbeta(base_from_spec(spec))
        q = quasi_greedy(d)
        assert q.period != (d.digit_at(0),)


class TestAdmissibility:
    def test_zero_always(self, fib):
        dstar = quasi_greedy(renyi_dbeta(fib))
        assert is_admissible(DigitString(), dstar)

    def test_eleven_rejected(self, fib):
        dstar = quasi_greedy(renyi_dbeta(fib))
        assert not is_admissible(eps("11"), dstar)

    def test_101_accepted(self, fib):
        dstar = quasi_greedy(renyi_dbeta(fib))
        assert is_admissible(DigitString((1, 0, 1), 2), dstar)

    def test_greedy_outputs_admissible(self, qp42):
        dstar = quasi_greedy(renyi_dbeta(qp42))
        rng = random.Random(3)
        for _ in range(40):
            coeffs = (rng.randint(0, 30), rng.randint(0, 30))
            v = QuotientValue(qp42, coeffs, rng.randint(0, 2))
            res = greedy_expand_ge1(v, qp42, max_frac=40)
            if res.exact:
                assert is_admissible(res.string, dstar)

    def test_eventually_periodic_input(self, fib):
        dstar = quasi_greedy(renyi_dbeta(fib))
        assert is_admissible(eps("(100)"), dstar)
        assert not is_admissible(eps("(110)"), dstar)


def lex_admissible(seq, dstar):
    """Reference: every suffix of seq strictly below dstar by lex_compare."""
    n = len(seq.preperiod) + len(seq.period)
    return all(lex_compare(seq.suffix(k), dstar) < 0 for k in range(n + 1))


class TestAdmissibilityAutomaton:
    """The automaton against the lex_compare definition, on a simple Parry
    base (d* = (110)^omega) and a non-simple one (d* = 2 1^omega)."""

    SPECS = ["tribonacci", "quadratic-minus:3,1"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_finite_words_match_lex_compare(self, spec):
        aut = AdmissibilityAutomaton.of_base(base_from_spec(spec))
        digits = range(aut.expected[0] + 1)
        for n in range(7):
            for w in itertools.product(digits, repeat=n):
                seq = EventuallyPeriodicString(w)
                assert is_admissible(seq, aut.dstar) == lex_admissible(seq, aut.dstar), w
                assert is_admissible(DigitString(w, 2), aut.dstar) == lex_admissible(seq, aut.dstar)

    @pytest.mark.parametrize("spec", SPECS)
    def test_periodic_words_match_lex_compare(self, spec):
        aut = AdmissibilityAutomaton.of_base(base_from_spec(spec))
        digits = range(aut.expected[0] + 1)
        for m in range(3):
            for n in range(1, 4):
                for pre in itertools.product(digits, repeat=m):
                    for per in itertools.product(digits, repeat=n):
                        seq = EventuallyPeriodicString(pre, per)
                        assert is_admissible(seq, aut.dstar) == lex_admissible(seq, aut.dstar), seq

    @pytest.mark.parametrize("spec", SPECS)
    def test_words_match_filtering(self, spec):
        base = base_from_spec(spec)
        aut = AdmissibilityAutomaton.of_base(base)
        digits = range(aut.expected[0] + 1)
        brute = {()}
        for n in range(1, 7):
            for w in itertools.product(digits, repeat=n):
                if w[0] and lex_admissible(EventuallyPeriodicString(w), aut.dstar):
                    brute.add(w)
        words = list(iter_beta_integer_words(base, 6))
        assert len(words) == len(brute) and set(words) == brute

    def test_tribonacci_periodic_examples(self, tri):
        aut = AdmissibilityAutomaton.of_base(tri)
        assert is_admissible(eps("(100)"), aut.dstar)
        assert not is_admissible(eps("(110)"), aut.dstar)  # d* itself
        assert not is_admissible(eps("0(110)"), aut.dstar)
        assert is_admissible(eps("(1100)"), aut.dstar)

    def test_nonsimple_tail(self, qm31):
        aut = AdmissibilityAutomaton.of_base(qm31)
        assert not is_admissible(eps("2(1)"), aut.dstar)  # d* itself
        assert is_admissible(eps("(1)"), aut.dstar)
        assert aut.accepts(eps("(1)"), 0)
        assert not aut.accepts(eps("(1)"), aut.step(0, 2))

    @pytest.mark.parametrize("text", ["12", "(01)", "1(2)"])
    def test_rejects_what_is_not_quasi_greedy(self, text):
        with pytest.raises(ValueError):
            AdmissibilityAutomaton(eps(text))


class TestPfSufficient:
    @pytest.mark.parametrize("text,expected", [
        ("42", F),
        ("111", F),
        ("2(1)", PF),
        ("3(1)", PF),
        ("12", INCONCLUSIVE),
        ("101", INCONCLUSIVE),
        ("1(12)", INCONCLUSIVE),
    ])
    def test_examples(self, text, expected):
        assert pf_sufficient(eps(text)) == expected


class TestBetaIntegerWords:
    def test_enumeration_matches_filtering(self, fib):
        # the pruned DFS must produce exactly the words the single-string
        # admissibility test accepts
        import itertools

        dstar = quasi_greedy(renyi_dbeta(fib))
        brute = {()}
        for n in range(1, 7):
            for w in itertools.product((0, 1), repeat=n):
                if w[0] and is_admissible(EventuallyPeriodicString(w), dstar):
                    brute.add(w)
        assert set(iter_beta_integer_words(fib, 6)) == brute

    def test_fibonacci_zeckendorf(self, fib):
        words = sorted(iter_beta_integer_words(fib, 4))
        assert () in words
        for w in words:
            assert "11" not in "".join(map(str, w))
        assert len(words) == 8  # Fibonacci count of Zeckendorf words

    def test_values_distinct(self, tri):
        words = list(iter_beta_integer_words(tri, 6))
        vals = {w: eval_digit_string(DigitString(w, len(w) - 1), tri).coeffs for w in words}
        assert len(set(vals.values())) == len(words)

    def test_max_len_zero_is_the_zero_word(self, fib):
        assert list(iter_beta_integer_words(fib, 0)) == [()]

    def test_negative_max_len_rejected(self, fib):
        with pytest.raises(ValueError, match="max_len"):
            list(iter_beta_integer_words(fib, -1))


class TestGreedyMaximality:
    def test_lex_greatest_among_representations(self, fib):
        # the greedy expansion is lexicographically the greatest among all
        # canonical-alphabet representations of the same value
        from betapar.algebraic import QuotientValue, qv_compare

        one = QuotientValue.from_int(fib, 1)
        rng = random.Random(21)
        top = canonical_alphabet(fib).max_digit
        checked = 0
        for _ in range(200):
            word = tuple(rng.randint(0, top) for _ in range(8))
            s = DigitString(word, -1)
            v = eval_digit_string(s, fib)
            if qv_compare(v, one) >= 0:
                continue
            res = greedy_expand(v, fib, 40)
            assert res.exact  # Fibonacci has the (F) property
            assert values_equal(eval_digit_string(res.string, fib), v)
            got = tuple(res.string.digit_at(-i) for i in range(1, 9))
            assert got >= word
            checked += 1
        assert checked > 50
