import itertools
import random
import re

import pytest

from betapar import quadratic
from betapar.algebraic import (
    QuotientValue,
    eval_digit_string,
    values_equal,
)
from betapar.conversion import (
    ChainAdder,
    LocalRule,
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
    gde_rule,
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

    def test_missing_b_names_b(self):
        calls = [(quadratic_adder, ("minus", 4)), (quadratic_adder, ("plus", 4)),
                 (gde_rule, ("plus", 5)), (shifted_adder, ("minus", 4))]
        for fn, args in calls:
            with pytest.raises(ValueError, match=r"\bneeds b\b"):
                fn(*args)

    def test_special_takes_no_other_b(self):
        # b is a - 1 in the special family: any other b is an error, not dropped
        for fn, args in [(gde_rule, ("plus_special", 3, 7)),
                         (quadratic_adder, ("plus_special", 3, 99))]:
            with pytest.raises(ValueError, match=r"b = a-1 = 2, got b=\d+"):
                fn(*args)
        assert gde_rule("plus_special", 3, 2).name == gde_rule("plus_special", 3).name
        assert quadratic_adder("plus_special", 4, 3).alphabet == Alphabet(0, 7)


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
        rhs = QuotientValue(base, (2, 4))  # 4 beta + 2
        assert values_equal(lhs, rhs)

    def test_minus_identity(self):
        rule = gde_minus(4, 2)
        base = rule.base
        lhs = QuotientValue.beta_power(base, 2)
        rhs = QuotientValue(base, (-2, 4))  # 4 beta - 2
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
        assert bound == len(adder.alphabet) == a + b + 1

    @pytest.mark.parametrize("a,b", [(3, 1), (4, 1), (4, 2), (5, 3)])
    def test_minus_presets(self, a, b):
        from betapar.bounds import block_lower_bound_nonsimple
        from betapar.numeration import renyi_dbeta

        adder = quadratic_adder("minus", a, b)
        bound = block_lower_bound_nonsimple(renyi_dbeta(adder.base))
        assert bound == len(adder.alphabet) == a + b - 1

    @pytest.mark.parametrize("a", [3, 4])
    def test_special_presets(self, a):
        from betapar.bounds import block_lower_bound_simple
        from betapar.numeration import renyi_dbeta

        adder = quadratic_adder("plus_special", a)
        bound = block_lower_bound_simple(renyi_dbeta(adder.base))
        assert bound == len(adder.alphabet) == 2 * a


class TestShiftedAdder:
    def test_range_checks(self):
        with pytest.raises(ValueError):
            shifted_adder("minus", 4, 1, d=3)  # 3 > a-2
        with pytest.raises(ValueError):
            shifted_adder("minus", 4, 2, d=1)  # 1 < b
        with pytest.raises(ValueError):
            shifted_adder("plus", 4, 2, d=7)  # 7 > a+b

    def test_d0_matches_plain(self):
        # d = 0 is the unshifted adder for every family, the minus family too
        for kind, x, y in (("plus", "5,1", "6,0.3"), ("minus", "4,3.1", "2,4.4,1")):
            plain = quadratic_adder(kind, 4, 2)
            sh = shifted_adder(kind, 4, 2)  # d defaults to 0
            x, y = parse_digits(x), parse_digits(y)
            assert sh.alphabet == plain.alphabet
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
        adder = shifted_adder("plus", 4, 2, d=3)
        rng = random.Random(6)
        for _ in range(500):
            x, y = (DigitString(tuple(rng.randint(-3, 3) for _ in range(n)), n - 1)
                    for n in (rng.randint(0, 12), rng.randint(0, 12)))
            assert check_sum(adder, x, y, adder.add(x, y)), (x, y)

    def test_minus_d2_tabulates_one_table(self):
        # the one table is the gde's carry table, 6^5 entries; the plateau
        # window that ChainAdder checks goes through the window loop, which
        # memoises no window of an untabulated rule
        adder = shifted_adder("minus", 4, 2, d=2)
        assert len(adder.layer._carry[0]) == 6 ** 5
        assert adder.layer._windows == {}


# the presets of acceptance criterion 2
PRESETS = [("plus", 4, 2), ("plus", 5, 3), ("plus_special", 3, None),
           ("plus_special", 4, None), ("minus", 3, 1), ("minus", 4, 2)]


def _plateaus(kind, a, b, M):
    """The letters the family's adders conjugate by: d for positive layers
    (when d < M), M - d for negative ones (when d > 0)."""
    shifts = [0] + list(range(b, a - 1)) if kind == "minus" else range(M + 1)
    return sorted({c for d in shifts for c, used in ((d, d < M), (M - d, d > 0)) if used})


class TestCarryPath:
    """A GDE rule's one carry path besides the window loop, its packed step,
    agrees with the window loop of a plain LocalRule on plateau frames."""

    @pytest.mark.parametrize("kind,a,b", PRESETS)
    def test_carry_path_equals_window_loop(self, kind, a, b):
        # the frames are those a fold reads: a word lifted by a plateau
        # letter c of the family's adders, its pads filled with c
        rule = gde_rule(kind, a, b)
        plain = LocalRule(rule.base, rule.memory, rule.anticipation, rule.input_alphabet,
                          rule.output_alphabet, rule.window_fn, tabulate_threshold=0)
        assert type(rule).outputs is LocalRule.outputs  # digit lists go through the window loop
        top = rule.input_alphabet.max_digit
        M = rule.output_alphabet.max_digit
        t, r = rule.anticipation, rule.memory
        rng = random.Random(2024)
        for c in _plateaus(kind, a, b, M):
            words = [(), (top - c,), (top - c,) * 12]
            while len(words) < 200:
                n = rng.randint(1, 12)
                words.append(tuple(rng.randint(-c, top - c) for _ in range(n)))
            for word in words:
                padded = [c] * (t + r) + [v + c for v in word] + [c] * (t + r)
                step = rule.packed_step(len(padded))
                out = step(int.from_bytes(bytes(padded), "big")).to_bytes(len(padded), "big")
                assert out == bytes(t) + bytes(plain.outputs(padded)) + bytes(r), (c, word)


class TestPackedStep:
    """A GDE rule's packed step is its outputs on every padded list, packed."""

    @pytest.mark.parametrize("kind,a,b", PRESETS)
    def test_packed_step_equals_outputs(self, kind, a, b):
        # random pads, unlike a fold's plateau, make the carries next to
        # the pads count
        rule = gde_rule(kind, a, b)
        top = rule.input_alphabet.max_digit
        t, r = rule.anticipation, rule.memory
        rng = random.Random(2025)
        for _ in range(200):
            padded = [rng.randint(0, top) for _ in range(rng.randint(rule.p, 40))]
            step = rule.packed_step(len(padded))
            out = step(int.from_bytes(bytes(padded), "big")).to_bytes(len(padded), "big")
            assert out == bytes(t) + bytes(rule.outputs(padded)) + bytes(r), padded


class TestCarryTables:
    """The translate tables of a GDE rule are its carry table read one digit at a time."""

    @pytest.mark.parametrize("kind,a,b", PRESETS + [("plus", 40, 22)])
    def test_tables_walk_to_the_carry_table(self, kind, a, b):
        rule = gde_rule(kind, a, b)
        assert rule.packed_step(rule.p) is not None
        carry, n, reach = rule._carry[:3]
        digit_class, first, *rest = rule._tables
        assert len(rest) == reach - 1
        for index, window in enumerate(itertools.product(range(n), repeat=reach)):
            state = first[window[0]]
            for table, d in zip(rest, window[1:]):
                state = table[state + digit_class[d]]
            assert (0, 1, -1)[state] == carry[index], window

    def test_index_past_a_byte_keeps_the_list_fold(self, monkeypatch):
        # a synthetic carry of plus:40,22 that is 1 where the first and last
        # digits of the window agree: the automaton has a state for every
        # first digit and a class for every digit, and 64 * 64 indices do
        # not fit a byte, although top + sum |g_i| is 126
        gde = quadratic._gde

        def synthetic(base, top, ahead, behind, q, name):
            return gde(base, top, ahead, behind,
                       lambda *z: int(z[0] == z[-1] > 0), name + "-synthetic")

        monkeypatch.setattr(quadratic, "_gde", synthetic)
        rule = gde_plus(40, 22)
        assert rule.packed_step(10) is None
        assert rule._tables is None  # kept, so the next fold does not compile again


def _de_bruijn(n, p):
    """A de Bruijn sequence of order p over {0..n-1}: every p-digit word is one
    of its cyclic windows, exactly once (Fredricksen-Kessler-Maiorana: the
    Lyndon words of length dividing p, concatenated in lexicographic order)."""
    seq, word = [], [-1]
    while word:
        word[-1] += 1
        if p % len(word) == 0:
            seq.extend(word)
        m = len(word)
        while len(word) < p:
            word.append(word[-m])
        while word and word[-1] == n - 1:
            word.pop()
    return seq


def _packed_on_every_window(rule):
    """Whether one packed step equals the window loop on a frame that holds
    every window over the input alphabet, so by the locality of
    ``packed_step`` on every frame."""
    seq = _de_bruijn(rule.input_alphabet.max_digit + 1, rule.p)
    frame = seq + seq[:rule.p - 1]
    out = rule.packed_step(len(frame))(int.from_bytes(bytes(frame), "big"))
    want = bytes(rule.anticipation) + bytes(rule.outputs(frame)) + bytes(rule.memory)
    return out == int.from_bytes(want, "big")


class TestEveryWindow:
    """A GDE rule's packed step is its window map on every window."""

    @pytest.fixture(autouse=True)
    def no_replay(self, monkeypatch):
        # a step that hands the frame to the window loop would compare the
        # window loop with itself
        def replay(rule, width):
            raise AssertionError("%s: the packed step replayed the window loop" % rule.name)

        monkeypatch.setattr(quadratic, "_window_step", replay)

    def test_de_bruijn(self):
        seq = _de_bruijn(3, 4)
        cyclic = seq + seq[:3]
        assert len(seq) == 81
        assert len({tuple(cyclic[i:i + 4]) for i in range(81)}) == 81

    @pytest.mark.parametrize("kind,a,b", PRESETS)
    def test_packed_step_equals_window_map_on_every_window(self, kind, a, b):
        assert _packed_on_every_window(gde_rule(kind, a, b))

    def test_a_corrupted_table_fails_the_check(self):
        # the all-zero window has carry 0; the last table now says +1 for it
        rule = gde_rule("plus", 4, 2)
        assert _packed_on_every_window(rule)
        *tables, last = rule._tables
        rule._tables = [*tables, bytes([(last[0] + 1) % 3]) + last[1:]]
        with pytest.raises(AssertionError):
            assert _packed_on_every_window(rule)


class TestOutputGuard:
    """Construction reads no window table, so output digits are guarded where they are made."""

    @pytest.mark.parametrize("a,b", [(3, 1), (4, 2)])
    def test_minus_presets_proved_at_p(self, a, b):
        # p = 7 windows: the length-7 sweep reads every window, so it proves
        # the value and the output alphabet for strings of every length
        rule = gde_minus(a, b)
        assert rule.p == 7
        rep = verify_conversion(rule, exhaustive(rule.p))
        assert rep.verdict == "pass", rep.to_json()

    def test_slipped_carry_case_raises_naming_the_window(self, monkeypatch):
        # drop the top-digit carry of gde_minus(4, 2) when all four neighbours
        # are 0: construction still succeeds, and the carry path hands the
        # string to the window loop, which names the window
        gde = quadratic._gde

        def slipped(base, top, ahead, behind, q, name):
            def q2(*z):
                return 0 if z == (0,) * ahead + (top,) + (0,) * behind else q(*z)
            return gde(base, top, ahead, behind, q2, name + "-slipped")

        shipped = gde_minus(4, 2)
        monkeypatch.setattr(quadratic, "_gde", slipped)
        rule = gde_minus(4, 2)
        for text in ("5,5", "5,0,1", "4,4,4"):
            u = parse_digits(text)
            assert apply_local(rule, u) == apply_local(shipped, u)
        error = "gde-minus:4,2-slipped: window (0, 0, 0, 5, 0, 0, 0) maps to 5 outside {0..4}"
        for text in ("5", "3,1,0,0,0,5"):
            with pytest.raises(ValueError, match=re.escape(error)):
                apply_local(rule, parse_digits(text))
        assert verify_conversion(rule, exhaustive(1)).failures[-1] == ("5", "", "error: " + error)
        # the packed fold of an adder hands the failing layer to the window loop too
        with pytest.raises(ValueError, match=re.escape(error)):
            ChainAdder(rule, rule.output_alphabet).add(parse_digits("4"), parse_digits("1"))
