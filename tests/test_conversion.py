import gc
import itertools
import random
import re
import sys
import threading
import tracemalloc
import weakref

import pytest

from betapar import conversion
from betapar.algebraic import eval_digit_string, values_equal
from betapar.blocks import dbonacci_block_adder
from betapar.conversion import (
    ChainAdder,
    LocalRule,
    apply_local,
    check_sum,
    exhaustive,
    fixed_letters,
    random_strings,
    verify_conversion,
)
from betapar.digits import Alphabet, DigitString, format_digits, parse_digits
from betapar.quadratic import gde_minus, gde_rule, quadratic_adder, shifted_adder


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

    def test_untabulated_window_loop_keeps_no_memo(self):
        # a long string through an untabulated rule's window loop leaves no
        # window behind, and a window outside the output alphabet still raises
        rule = gde_rule("minus", 4, 2)
        rng = random.Random(5)
        u = DigitString([rng.randint(0, 5) for _ in range(2000)], 1999)
        assert conversion._same_value(rule.base, apply_local(rule, u), u)
        assert rule._windows == {}
        slip = (0, 0, 0, 5, 0, 0, 0)
        slipped = LocalRule(rule.base, rule.memory, rule.anticipation, rule.input_alphabet,
                            rule.output_alphabet, lambda w: 9 if w == slip else rule.window_fn(w),
                            name="slipped", tabulate_threshold=0)
        with pytest.raises(ValueError, match=re.escape("window %r maps to 9" % (slip,))):
            apply_local(slipped, DigitString((5,), 0))
        assert slipped._windows == {}
        assert slipped.window((0,) * 7) == 0 and slipped._windows == {(0,) * 7: 0}


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

    def test_sweep_to_p_is_tight(self):
        # the lemma of the module docstring proves a rule at length p, and no
        # shorter length does: raising the output of the all-ones window of
        # plus:4,2 (p = 5) by one breaks only strings holding five ones
        rule = gde_rule("plus", 4, 2)
        ones = (1,) * rule.p
        raised = LocalRule(rule.base, rule.memory, rule.anticipation, rule.input_alphabet,
                           rule.output_alphabet, lambda w: rule.window_fn(w) + (w == ones),
                           name="raised", tabulate_threshold=0)
        assert rule.p == 5
        assert verify_conversion(raised, exhaustive(rule.p - 1)).verdict == "pass"
        report = verify_conversion(raised, exhaustive(rule.p))
        assert [(f[0], f[2]) for f in report.failures] == [("1,1,1,1,1", "value mismatch")]

    @pytest.mark.parametrize("strategy", [exhaustive(2), random_strings(10, seed=1)],
                             ids=["exhaustive", "random"])
    def test_sweeps_take_a_local_rule(self, rule_plus42, strategy):
        adder = ChainAdder(rule_plus42, Alphabet(0, 6))
        with pytest.raises(TypeError, match="verify_conversion takes a LocalRule, got ChainAdder"):
            verify_conversion(adder, strategy)

    def test_report_json_roundtrip(self, rule_minus41):
        import json

        rep = verify_conversion(rule_minus41, exhaustive(2))
        data = json.loads(rep.to_json())
        assert data["verdict"] == "pass" and data["checked"] == rep.checked_count


def _per_string_report(rule, maxlen):
    """The exhaustive report as the strings one by one give it: each string is
    converted whole by apply_local and checked with conversion._same_value."""
    digits = list(rule.input_alphabet)
    words = [()] + [(first,) + rest for n in range(1, maxlen + 1) for first in digits if first
                    for rest in itertools.product(digits, repeat=n - 1)]
    failures = []
    checked = 0
    for word in words:
        checked += 1
        u = DigitString(word, len(word) - 1)
        try:
            v = apply_local(rule, u)
        except ValueError as exc:
            failures.append((format_digits(u), "", "error: %s" % exc))
        else:
            if not v.alphabet_ok(rule.output_alphabet):
                failures.append((format_digits(u), format_digits(v), "digit outside output alphabet"))
            elif not conversion._same_value(rule.base, v, u):
                failures.append((format_digits(u), format_digits(v), "value mismatch"))
        if len(failures) >= conversion._MAX_FAILURES:
            break
    label = "exhaustive(%d)" % maxlen
    return conversion.ConversionReport(rule.name, label, checked, failures).to_dict()


def _minus_flush_sum(rule, s):
    """-K(s) from its definition: minus the Horner sum of the flush windows of
    the suffix s, e(s + 0^(p - |s|)) at beta^(|s| - 1) down to e(s[-1:] + 0^(p - 1))."""
    windows = [s[i:] + (0,) * (rule.p - len(s) + i) for i in range(len(s))]
    e = [rule.window_fn(w) - w[rule.anticipation] for w in windows]
    return tuple(-a for a in rule.base.digits_vector(reversed(e)))


def _untabulated_corruption(rule):
    """The rule with its lone-1 window raised by 1, left untabulated (the
    benchmark's negative control)."""
    lone = tuple(1 if i == rule.anticipation else 0 for i in range(rule.p))
    fn = rule.window_fn
    return LocalRule(rule.base, rule.memory, rule.anticipation, rule.input_alphabet,
                     rule.output_alphabet, lambda w: fn(w) + (w == lone),
                     name=rule.name + "-untabulated", tabulate_threshold=0)


# the presets of acceptance criterion 2
PRESETS = [("plus", 4, 2), ("plus", 5, 3), ("plus_special", 3, None),
           ("plus_special", 4, None), ("minus", 3, 1), ("minus", 4, 2)]


@pytest.fixture(scope="module", params=PRESETS, ids=lambda spec: "%s:%s,%s" % spec)
def preset(request):
    return gde_rule(*request.param)


class TestResidueWalk:
    """The exhaustive sweep walks prefixes; its reports equal the per-string sweep's."""

    @pytest.mark.parametrize("form", ["plain", "untabulated-corrupted", "cli-corrupted"])
    def test_presets_match_per_string_sweep(self, preset, form, corrupt):
        rule = {"plain": preset, "untabulated-corrupted": _untabulated_corruption(preset),
                "cli-corrupted": corrupt(preset)}[form]
        for n in range(5):
            report = verify_conversion(rule, exhaustive(n)).to_dict()
            assert report == _per_string_report(rule, n)
        assert (report["verdict"] == "pass") == (form == "plain")

    def test_one_local_rules(self, fib):
        # h = r + t = 0: no flush windows, every window a single digit
        A = Alphabet(0, 2)
        identity = LocalRule(fib, 0, 0, A, A, lambda w: w[0], name="identity")
        broken = LocalRule(fib, 0, 0, Alphabet(0, 1), Alphabet(0, 2),
                           lambda w: w[0] + 1 if w == (1,) else w[0], name="broken")
        for rule in (identity, broken):
            for n in range(5):
                assert verify_conversion(rule, exhaustive(n)).to_dict() == _per_string_report(rule, n)
        assert verify_conversion(identity, exhaustive(4)).checked_count == 1 + 2 + 6 + 18 + 54

    def test_raising_windows_give_the_per_string_errors(self, qp42):
        # a 2 followed by a 0 maps outside {0..2}: prefix windows raise for a
        # 2 inside the string, flush windows for a trailing 2; a lone 1 is a
        # value mismatch, so both kinds of failure interleave in order
        def fn(w):
            if w[1] == 2 and w[2] == 0:
                return 3
            return 2 if w == (0, 1, 0) else w[1]

        rule = LocalRule(qp42, 1, 1, Alphabet(0, 2), Alphabet(0, 2), fn, name="raising",
                         tabulate_threshold=0)
        for n in range(5):
            assert verify_conversion(rule, exhaustive(n)).to_dict() == _per_string_report(rule, n)
        failures = verify_conversion(rule, exhaustive(4)).failures
        error = "error: raising: window (%d, 2, 0) maps to 3 outside {0..2}"
        # "2" raises in a flush window, "2,0" in a prefix window
        assert [(f[0], f[2]) for f in failures] == [
            ("1", "value mismatch"), ("2", error % 0), ("1,0", "value mismatch"),
            ("1,2", error % 1), ("2,0", error % 0)]

    def test_failures_stop_at_the_fifth(self, fib):
        # every string holding a 1 fails; the sweep stops at the fifth failure
        rule = LocalRule(fib, 1, 1, Alphabet(0, 1), Alphabet(0, 2),
                         lambda w: w[1] + (w[1] == 1), name="doubling")
        rep = verify_conversion(rule, exhaustive(6))
        assert len(rep.failures) == conversion._MAX_FAILURES
        assert rep.to_dict() == _per_string_report(rule, 6)
        assert rep.checked_count == 6  # "", "1", "1,0", "1,1", "1,0,0", "1,0,1"

    def test_shared_rule_sweeps_agree_across_threads(self):
        # the rule's two memos, empty at the start, fill from eight threads at
        # once; every report and every entry is what one thread on a fresh rule
        # reads, and the rule grows no attribute
        rule = gde_minus(4, 2)
        names = set(vars(rule))
        fresh = gde_minus(4, 2)
        expected = verify_conversion(fresh, exhaustive(3)).to_dict()
        reports = _in_threads(lambda: verify_conversion(rule, exhaustive(3)).to_dict())
        assert all(rep == expected for rep in reports)
        assert expected["verdict"] == "pass"
        assert set(vars(rule)) == names
        assert rule._flushes and rule._flushes == fresh._flushes
        assert rule._windows
        for w, out in rule._windows.items():
            assert out == rule.window_fn(w) and out in rule.output_alphabet

    def test_memo_changes_no_later_result(self):
        # the flush memo outlives a sweep, and no later sweep reads differently for it
        rule = gde_rule("minus", 3, 1)
        for n in (3, 2, rule.p):
            assert (verify_conversion(rule, exhaustive(n)).to_dict()
                    == verify_conversion(gde_rule("minus", 3, 1), exhaustive(n)).to_dict())
        assert len(rule._flushes) < 2 * len(rule.input_alphabet) ** (rule.p - 1)
        for s, f in rule._flushes.items():
            assert f == _minus_flush_sum(rule, s)
        corrupted = _untabulated_corruption(rule)
        first, second = (verify_conversion(corrupted, exhaustive(3)).failures for _ in range(2))
        assert first and second == first

    def test_memoised_flush_failure_keeps_no_frame_alive(self):
        # a flush window that raises is memoised as its message: a stored
        # exception would keep, through its traceback, every frame of the
        # sweep and of its caller alive for as long as the rule lives
        rule = gde_rule("plus", 4, 2)
        bad = (6, 0, 0, 0, 0)  # read only as a flush window by strings of at most 4 digits
        raising = LocalRule(rule.base, rule.memory, rule.anticipation, rule.input_alphabet,
                            rule.output_alphabet, lambda w: 7 if w == bad else rule.window_fn(w),
                            name="raising", tabulate_threshold=0)

        class Held:
            pass

        def sweep():
            held = Held()
            return weakref.ref(held), verify_conversion(raising, exhaustive(2)).to_dict()

        ref, report = sweep()
        gc.collect()
        assert ref() is None
        assert report == _per_string_report(raising, 2)
        assert report["failures"][0] == {
            "input": "6", "output": "",
            "reason": "error: raising: window (6, 0, 0, 0, 0) maps to 7 outside {0..6}"}
        assert not any(isinstance(f, BaseException) for f in raising._flushes.values())

    def test_shared_adder_sums_agree_across_threads(self):
        # the fold keeps its frame to itself: neither the packed steps of a
        # shared shifted adder nor the block map of the signed Tribonacci
        # adder holds state between calls, and the threads race the first
        # compile of a fresh rule's carry tables
        for make in (lambda: shifted_adder("minus", 4, 2, d=2),
                     lambda: quadratic_adder("plus_special", 3),
                     lambda: dbonacci_block_adder(3, signed=True, s=5)):
            adder = make()
            lo, hi = adder.alphabet.min_digit, adder.alphabet.max_digit
            rng = random.Random(8)
            pairs = [tuple(DigitString(tuple(rng.randint(lo, hi) for _ in range(n)), n - 1)
                           for n in (rng.randint(0, 40), rng.randint(0, 40)))
                     for _ in range(20)]
            expected = [make().add(x, y) for x, y in pairs]
            assert not hasattr(adder.layer, "_tables")
            sums = _in_threads(lambda: [adder.add(x, y) for x, y in pairs])
            assert all(out == expected for out in sums)
            assert all(check_sum(adder, x, y, out) for (x, y), out in zip(pairs, expected))


def _in_threads(work, n=8):
    """work() run by n threads released together, switching every microsecond."""
    barrier = threading.Barrier(n)
    results = []

    def run():
        barrier.wait(timeout=60)
        results.append(work())

    threads = [threading.Thread(target=run, daemon=True) for _ in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == n
    return results


class TestShiftRule:
    """Conjugation by a plateau letter and mirroring through digit negation."""

    def test_zero_shift_is_same_rule(self, rule_plus42):
        u = parse_digits("7,0,3.6")
        assert apply_local(rule_plus42, u, 0) == apply_local(rule_plus42, u)

    def test_unfixed_letter_rejected(self):
        # minus:4,2 fixes only {0, 1, 2}; d = 3 needs 3 fixed
        with pytest.raises(ValueError, match="3 is not a fixed letter"):
            ChainAdder(gde_minus(4, 2), Alphabet(-3, 1))

    def test_unfixed_plateau_rejected_by_apply_local(self):
        # computing only near the support would give -1,-1,-1,0.-1,-1,-1, worth not 1
        for u in (parse_digits("1"), DigitString()):
            with pytest.raises(ValueError, match="plateau 3 is not a fixed letter of gde-minus:4,2"):
                apply_local(gde_minus(4, 2), u, 3)

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
            ChainAdder(rule_plus42, Alphabet(0, 5))

    def test_add_zero(self, rule_plus42):
        adder = ChainAdder(rule_plus42, Alphabet(0, 6))
        x = parse_digits("4,0,5")
        out = adder.add(x, DigitString())
        assert values_equal(eval_digit_string(out, adder.base),
                            eval_digit_string(x, adder.base))

    def test_effective_window_recorded(self, rule_plus42):
        adder = ChainAdder(rule_plus42, Alphabet(0, 6))
        assert adder.effective_window == 6 * (rule_plus42.p - 1) + 1

    def test_composite_rule_windows_consistent(self):
        # output digit j of add(x, y) reads x and y only on [j - mem, j + ant],
        # the effective window: every layer, positive or negative, is the
        # rule's (r, t)-local map, so a changed digit i moves only j in [i - ant, i + mem]
        rng = random.Random(4)
        for adder in (shifted_adder("minus", 4, 1), shifted_adder("plus", 4, 2, d=3)):
            layers = adder.hi_layers + adder.lo_layers
            mem = layers * adder.layer.memory
            ant = layers * adder.layer.anticipation
            assert mem + ant + 1 == adder.effective_window
            lo, hi = adder.alphabet.min_digit, adder.alphabet.max_digit
            for _ in range(40):
                x = DigitString(tuple(rng.randint(lo, hi) for _ in range(12)), 5)
                digits = [rng.randint(lo, hi) for _ in range(12)]
                y = DigitString(tuple(digits), 5)
                k = rng.randrange(12)
                digits[k] = rng.choice([dig for dig in range(lo, hi + 1) if dig != digits[k]])
                changed = adder.add(x, DigitString(tuple(digits), 5)) - adder.add(x, y)
                i = 5 - k  # exponent of the changed digit
                for n, dig in enumerate(changed.digits):
                    if dig:
                        assert i - ant <= changed.msd_exponent - n <= i + mem

    @pytest.mark.parametrize("make", [lambda: quadratic_adder("plus", 4, 2),
                                      lambda: shifted_adder("minus", 4, 2, d=2),
                                      lambda: dbonacci_block_adder(3, signed=True, s=5)])
    def test_operand_outside_alphabet_raises(self, make):
        # the fold checks each operand where it packs it, whether its layers
        # run a GDE rule's packed step or the block adder's window loop
        adder = make()
        if isinstance(adder.layer, LocalRule):
            assert adder.layer.packed_step(10) is not None
        lo, hi = adder.alphabet.min_digit, adder.alphabet.max_digit
        good = DigitString((hi, 0, lo, 1), 2)
        for bad_digit in (lo - 1, hi + 1, 300):
            bad = DigitString((1, bad_digit, 0, hi), 1)
            error = "digit out of adder alphabet %s in %s" % (adder.alphabet, bad)
            for x, y in ((bad, good), (good, bad), (bad, DigitString())):
                with pytest.raises(ValueError, match=re.escape(error)):
                    adder.add(x, y)

    def test_byte_lane_overflow_rejected(self, rule_plus42):
        # a layer over {0..128} reads digit sums up to 128, which set bit 7 of a byte
        stub = LocalRule(rule_plus42.base, 0, 0, Alphabet(0, 128), Alphabet(0, 127),
                         lambda w: min(w[0], 127))
        with pytest.raises(ValueError, match="overflow a byte lane"):
            ChainAdder(stub, Alphabet(0, 127))

    def test_construction_adds_nothing(self, monkeypatch):
        # shifted and signed adders keep the value by construction: building
        # one runs no addition
        calls = []
        add = ChainAdder.add
        monkeypatch.setattr(ChainAdder, "add", lambda self, x, y: calls.append(1) or add(self, x, y))
        shifted_adder("plus", 4, 2, d=3)
        dbonacci_block_adder(3, signed=True, s=5)
        assert not calls


def _layer_by_layer_add(adder, x, y):
    """x + y by the round trip the fold replaces: each layer one apply_local of a DigitString."""
    layer, d = adder.layer, adder.lo_layers
    s = x
    for i in range(1, adder.hi_layers + 1):
        s = apply_local(layer, s + DigitString([dig >= i for dig in y.digits], y.msd_exponent), d)
    for i in range(1, adder.lo_layers + 1):
        s = s + DigitString([-(dig <= -i) for dig in y.digits], y.msd_exponent)
        s = apply_local(layer, s.negated(), adder.hi_layers).negated()
    return s


FOLD_ADDERS = {
    "plus:4,2": lambda: quadratic_adder("plus", 4, 2),
    "minus:4,2": lambda: quadratic_adder("minus", 4, 2),
    "plus-special:3": lambda: quadratic_adder("plus_special", 3),
    "plus:4,2-shift3": lambda: shifted_adder("plus", 4, 2, d=3),
    "minus:4,2-shift2": lambda: shifted_adder("minus", 4, 2, d=2),
    "minus:3,1-shift1": lambda: shifted_adder("minus", 3, 1, d=1),
    "plus:5,3": lambda: quadratic_adder("plus", 5, 3),
    "plus-special:4": lambda: quadratic_adder("plus_special", 4),
    "minus:3,1": lambda: quadratic_adder("minus", 3, 1),
    "signed-tribonacci": lambda: dbonacci_block_adder(3, signed=True, s=5),
    "signed-fibonacci": lambda: dbonacci_block_adder(2, signed=True),
}


def _fold_pairs(alphabet, n, seed):
    """n seeded operand pairs over alphabet: zeros, disjoint supports, then random strings."""
    rng = random.Random(seed)
    lo, hi = alphabet.min_digit, alphabet.max_digit

    def draw(length, msd):
        return DigitString(tuple(rng.randint(lo, hi) for _ in range(length)), msd)

    zero = DigitString()
    x, y = draw(9, 4), draw(7, 3)
    pairs = [(zero, zero), (x, zero), (zero, y), (x, y.shifted(-30)), (y.shifted(30), x),
             (x.shifted(-7), y.shifted(5))]  # both zero, one zero, disjoint, fractional
    while len(pairs) < n:
        pairs.append((draw(rng.randint(0, 24), rng.randint(-12, 12)),
                      draw(rng.randint(0, 24), rng.randint(-12, 12))))
    return pairs


class TestChainFold:
    """ChainAdder.add folds every layer on one frame; the sums are the round trip's."""

    @pytest.mark.parametrize("name", FOLD_ADDERS)
    def test_fold_matches_layer_by_layer(self, name):
        adder = FOLD_ADDERS[name]()
        for x, y in _fold_pairs(adder.alphabet, 200, 23):
            out = adder.add(x, y)
            assert out == _layer_by_layer_add(adder, x, y), (x, y)
            assert check_sum(adder, x, y, out)

    @pytest.mark.parametrize("a,b,packed", [(40, 22, True), (40, 23, False)])
    def test_byte_guard(self, a, b, packed):
        # top + sum |g_i| is 126 on plus:40,22 and 128 on plus:40,23, whose
        # sums could set bit 7 of a byte: that rule has no packed step, and
        # the fold steps it through its window loop
        adder = quadratic_adder("plus", a, b)
        assert (adder.layer.packed_step(10) is not None) == packed
        for x, y in _fold_pairs(adder.alphabet, 30, 29):
            assert adder.add(x, y) == _layer_by_layer_add(adder, x, y), (x, y)

    @pytest.mark.parametrize("name", ["minus:4,2-shift2", "signed-tribonacci", "plus:40,23"])
    def test_one_outputs_call_per_layer(self, monkeypatch, name):
        # a GDE layer within the byte guard is one packed step and calls no
        # outputs; a block layer, which has no packed step, and a GDE rule
        # past the guard, whose packed step is None, are one outputs call
        # each, through the window-loop step
        adder = {**FOLD_ADDERS, "plus:40,23": lambda: quadratic_adder("plus", 40, 23)}[name]()
        cls = type(adder.layer)
        outputs = cls.outputs
        calls = []

        def forbidden(*args):
            raise AssertionError("the fold makes no per-layer application or plateau check")

        if getattr(adder.layer, "packed_step", lambda width: None)(10):
            packed_step = cls.packed_step

            def counted(self, width):
                step = packed_step(self, width)
                return lambda z: calls.append(1) or step(z)

            monkeypatch.setattr(cls, "packed_step", counted)
            monkeypatch.setattr(cls, "outputs", forbidden)
        else:
            monkeypatch.setattr(cls, "outputs",
                                lambda self, padded: calls.append(1) or outputs(self, padded))
        monkeypatch.setattr(conversion, "apply_local", forbidden)
        monkeypatch.setattr(conversion, "fixes", forbidden)
        x, y = _fold_pairs(adder.alphabet, 7, 5)[-1]  # the first random pair
        out = adder.add(x, y)
        assert len(calls) == adder.hi_layers + adder.lo_layers
        monkeypatch.undo()
        assert out == _layer_by_layer_add(adder, x, y)


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
        adder = ChainAdder(rule_minus41, Alphabet(0, 3))
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
        adder = ChainAdder(rule_plus42, Alphabet(-6, 0))
        x = parse_digits("-4,-2")
        y = parse_digits("-1.-6")
        out = adder.add(x, y)
        assert check_sum(adder, x, y, out)
        assert adder.alphabet == Alphabet(-6, 0)

    def test_mixed_shift_random(self, rule_plus42):
        adder = ChainAdder(rule_plus42, Alphabet(-2, 4))
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(0, 8)
            x = DigitString(tuple(rng.randint(-2, 4) for _ in range(n)), n - 1)
            m = rng.randint(0, 8)
            y = DigitString(tuple(rng.randint(-2, 4) for _ in range(m)), m - 1)
            assert check_sum(adder, x, y, adder.add(x, y))


class TestCheckSum:
    def test_accepts_the_adder_sum(self, rule_plus42):
        adder = ChainAdder(rule_plus42, Alphabet(0, 6))
        x, y = parse_digits("6,6"), parse_digits("5.1")
        assert check_sum(adder, x, y, adder.add(x, y))

    def test_rejects_a_wrong_value(self, rule_plus42):
        adder = ChainAdder(rule_plus42, Alphabet(0, 6))
        x, y = parse_digits("6"), parse_digits("6")
        assert not check_sum(adder, x, y, parse_digits("2,3.0,1"))

    def test_difference_with_fractional_digits(self, rule_plus42):
        # 6 + 6 = 2,3.0,2: the difference from the digitwise sum 12 reaches
        # beta^-2, below the lowest digit of either operand
        adder = ChainAdder(rule_plus42, Alphabet(0, 6))
        x, y = parse_digits("6"), parse_digits("6")
        out = parse_digits("2,3.0,2")
        assert (out - (x + y)).lsd_exponent == -2
        assert check_sum(adder, x, y, out)
        x, y = parse_digits("3,6.0,5"), parse_digits("4.6,6,1")
        out = adder.add(x, y)
        assert (out - (x + y)).fractional_depth > 0
        assert check_sum(adder, x, y, out)

    def test_rejects_a_single_unit_error(self, rule_plus42):
        # one unit k places below the lowest digit of a correct sum
        adder = ChainAdder(rule_plus42, Alphabet(0, 6))
        x, y = parse_digits("3,6.0,5"), parse_digits("4.6,6,1")
        out = adder.add(x, y)
        for k in (1, 5, 40):
            wrong = out + DigitString((1,), out.lsd_exponent - k)
            assert wrong.alphabet_ok(adder.alphabet)
            assert not check_sum(adder, x, y, wrong)

    def test_rejects_digits_outside_the_alphabet(self, rule_plus42):
        # 12 has the right value but is no digit of {0..6}
        adder = ChainAdder(rule_plus42, Alphabet(0, 6))
        x, y = parse_digits("6"), parse_digits("6")
        assert not check_sum(adder, x, y, parse_digits("12"))

    @pytest.mark.parametrize("make", [lambda: quadratic_adder("minus", 4, 2),
                                      lambda: dbonacci_block_adder(3, signed=True, s=5)],
                             ids=["minus:4,2", "signed-tribonacci"])
    def test_a_long_check_is_lean_and_caches_nothing(self, make):
        # the Horner steps of the difference of two equal 20,000-digit sums
        # stay small, so the check traces well under 5 MB and leaves the
        # base's power cache as it was
        adder = make()
        lo, hi = adder.alphabet.min_digit, adder.alphabet.max_digit
        rng = random.Random(20000)
        x, y = (DigitString(tuple(rng.randint(lo, hi) for _ in range(20000)), 19999)
                for _ in range(2))
        out = adder.add(x, y)
        cached = len(adder.base._powvecs)
        tracemalloc.start()
        try:
            assert check_sum(adder, x, y, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20
        assert len(adder.base._powvecs) == cached
        top = out.digits[0]
        wrong = DigitString((lo if top != lo else hi,) + out.digits[1:], out.msd_exponent)
        assert not check_sum(adder, x, y, wrong)
