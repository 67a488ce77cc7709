"""Acceptance suite: one test per shipped claim, at full stated size.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines; each test prints its line only after every assertion in it has
held.  Budgets are asserted where the claim carries one.
"""

import random
import time


from betapar.algebraic import (
    base_from_spec,
    eval_digit_string,
    qv_add,
    tribonacci_base,
    values_equal,
)
from betapar.blocks import dbonacci_block_adder, estimate_s
from betapar.bounds import (
    IMPOSSIBLE_EVIDENCE,
    NO_EVIDENCE,
    block_impossible_unit_conjugate,
    block_lower_bound_nonsimple,
    block_lower_bound_simple,
    lower_bound_1block,
)
from betapar.conversion import (
    apply_local,
    check_sum,
    exhaustive,
    fixed_letters,
    verify_conversion,
)
from betapar.digits import DigitString
from betapar.numeration import (
    EventuallyPeriodicString,
    canonical_alphabet,
    greedy_expand,
    is_admissible,
    parse_eventually_periodic,
    quasi_greedy,
    renyi_dbeta,
)
from betapar.quadratic import (
    gde_minus,
    gde_plus,
    gde_plus_special,
    quadratic_adder,
    shifted_adder,
)

GDE_PRESETS = [
    ("plus", (4, 2), gde_plus),
    ("plus", (5, 3), gde_plus),
    ("plus_special", (3,), gde_plus_special),
    ("plus_special", (4,), gde_plus_special),
    ("minus", (3, 1), gde_minus),
    ("minus", (4, 2), gde_minus),
]


def _report(num, text):
    print("\nACCEPTANCE %d: PASS - %s" % (num, text))


def _random_string(rng, top, maxlen, lo=0):
    n = rng.randint(0, maxlen)
    return DigitString(tuple(rng.randint(lo, top) for _ in range(n)), n - 1)


def test_criterion_1_dbeta_reproduction():
    cases = []
    for d in range(2, 7):
        cases.append(("dbonacci:%d" % d, EventuallyPeriodicString((1,) * d)))
    for a, b in [(4, 2), (5, 2), (5, 3)]:
        cases.append(("quadratic-plus:%d,%d" % (a, b), EventuallyPeriodicString((a, b))))
    for a, b in [(3, 1), (4, 1), (4, 2), (5, 3)]:
        cases.append(("quadratic-minus:%d,%d" % (a, b),
                      EventuallyPeriodicString((a - 1,), (a - b - 1,))))
    for spec, expected in cases:
        t0 = time.monotonic()
        got = renyi_dbeta(base_from_spec(spec))
        elapsed = time.monotonic() - t0
        assert got == expected, (spec, str(got))
        assert elapsed < 1.0, (spec, elapsed)
    _report(1, "d_beta(1) exact for %d preset bases, each under 1 s" % len(cases))


def test_criterion_2_gde_exhaustive_length6():
    t0 = time.monotonic()
    total = 0
    for _, args, make in GDE_PRESETS:
        rule = make(*args)
        rep = verify_conversion(rule, exhaustive(6))
        assert rep.verdict == "pass", rep.to_json()
        total += rep.checked_count
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, elapsed
    _report(2, "exhaustive length-6 verification of 6 GDE rules, %d strings in %.0f s"
            % (total, elapsed))


def test_criterion_3_fixed_letters_exact():
    for a, b in [(4, 2), (5, 3)]:
        assert fixed_letters(gde_plus(a, b)) == set(range(a + b))
    for a in (3, 4):
        assert fixed_letters(gde_plus_special(a)) == set(range(2 * a - 1))
    for a, b in [(3, 1), (4, 2)]:
        assert fixed_letters(gde_minus(a, b)) == set(range(a - 1))
    _report(3, "fixed-letter sets match exactly: plus {0..a+b-1}, minus {0..a-2}")


def test_criterion_4_full_and_shifted_adders():
    for kind, args, _ in GDE_PRESETS:
        adder = quadratic_adder(kind, *args)
        top = adder.alphabet.max_digit
        rng = random.Random(4000 + top)
        for _ in range(1000):
            x = _random_string(rng, top, 10)
            y = _random_string(rng, top, 10)
            out = adder.add(x, y)
            assert check_sum(adder, x, y, out)
            assert out.alphabet_ok(adder.alphabet)

    shift_ranges = []
    for kind, args, _ in GDE_PRESETS:
        if kind == "minus":
            a, b = args
            shift_ranges.append((kind, args, range(b, a - 1)))
        elif kind == "plus":
            a, b = args
            shift_ranges.append((kind, args, range(0, a + b + 1)))
        else:
            a = args[0]
            shift_ranges.append((kind, args, range(0, 2 * a)))
    pairs = 0
    for kind, args, drange in shift_ranges:
        for d in drange:
            adder = shifted_adder(kind, *args, d=d)
            rng = random.Random(8000 + 31 * d)
            lo, hi = adder.alphabet.min_digit, adder.alphabet.max_digit
            for _ in range(200):
                x = _random_string(rng, hi, 10, lo)
                y = _random_string(rng, hi, 10, lo)
                out = adder.add(x, y)
                assert check_sum(adder, x, y, out)
                assert out.alphabet_ok(adder.alphabet)
                pairs += 1
    _report(4, "6 x 1000 adder pairs plus %d shifted-adder pairs, all value-exact" % pairs)


def test_criterion_5_tribonacci_block_adder():
    tri = tribonacci_base()
    assert estimate_s(tri, 12) == 5

    adder = dbonacci_block_adder(3, s=5)
    assert (adder.params.k, adder.params.ell, adder.params.s) == (14, 2, 5)
    rng = random.Random(14235)
    t0 = time.monotonic()
    for _ in range(500):
        x = _random_string(rng, 2, 40)
        y = _random_string(rng, 2, 40)
        out = adder.add(x, y)  # InsufficientParamsError would propagate
        assert out.alphabet_ok(adder.params.A)
        assert values_equal(eval_digit_string(out, tri),
                            qv_add(eval_digit_string(x, tri), eval_digit_string(y, tri)))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, elapsed
    _report(5, "Tribonacci 14-block adder: 500 length<=40 additions exact in %.1f s; "
               "estimate_s = 5" % elapsed)


def test_criterion_6_bound_consistency():
    for d in range(2, 7):
        assert lower_bound_1block([1] + [-1] * d) == d + 1
    simple = block_lower_bound_simple(parse_eventually_periodic("42"))
    attained = len(quadratic_adder("plus", 4, 2).alphabet)
    assert simple == 7 == attained
    nonsimple = block_lower_bound_nonsimple(parse_eventually_periodic("3(1)"))
    attained_minus = len(quadratic_adder("minus", 4, 2).alphabet)
    assert nonsimple == 5 == attained_minus == 4 + 2 - 1
    _report(6, "1-block bound d+1 for d-bonacci; block bounds 7 and 5 attained")


def test_criterion_7_impossibility_reporter():
    assert block_impossible_unit_conjugate([1, -1, -1, -1, 1]) == IMPOSSIBLE_EVIDENCE
    assert block_impossible_unit_conjugate([1, -1, -1]) == NO_EVIDENCE
    assert block_impossible_unit_conjugate([1, -1, -1, -1]) == NO_EVIDENCE
    _report(7, "unit-circle reporter: evidence for the palindromic quartic only")


class TestCriterion8Properties:
    def test_locality_fuzzing(self):
        rules = [make(*args) for _, args, make in GDE_PRESETS]
        rng = random.Random(888)
        trials = 10000
        for _ in range(trials):
            rule = rules[rng.randrange(len(rules))]
            top = rule.input_alphabet.max_digit
            r, t = rule.memory, rule.anticipation
            w = [rng.randint(0, top) for _ in range(r + t + 1)]
            j = rng.randint(0, 6)
            u1 = _random_string(rng, top, 4)
            u2 = _random_string(rng, top, 4)
            s1 = DigitString(tuple(u1.digits) + tuple(w) + tuple(u2.digits),
                             j + t + len(u1.digits))
            u3 = _random_string(rng, top, 4)
            u4 = _random_string(rng, top, 4)
            s2 = DigitString(tuple(u3.digits) + tuple(w) + tuple(u4.digits),
                             j + t + len(u3.digits))
            assert apply_local(rule, s1).digit_at(j) == apply_local(rule, s2).digit_at(j)
        _report(8, "locality fuzzing: %d window trials" % trials)

    def test_decomposition_identity(self):
        # decompose builds its parts from one exact greedy expansion and
        # checks none of this; the digitwise oracle checks it here
        adder = dbonacci_block_adder(3, s=5)
        rng = random.Random(777)
        base, (k, ell, s, B, A) = adder.base, adder.params
        for _ in range(10000):
            u = tuple(rng.randint(0, 4) for _ in range(k))
            L, C, S = adder.decompose(u)
            assert (len(L), len(C), len(S)) == (2 * ell, k, 2 * s)
            assert all(dig in B for dig in L + C + S), u
            assert base.digits_vector(S + C + L) == base.digits_vector(u, 2 * s), u
        _report(8, "decomposition identity: 10^4 random Tribonacci blocks")

    def test_fixed_blocks(self):
        adder = dbonacci_block_adder(3, s=5)
        rng = random.Random(666)
        k = adder.params.k
        for _ in range(100):
            u = tuple(rng.randint(0, 1) for _ in range(k))
            assert adder.phi(u, u, u) == u
        _report(8, "fixed blocks: phi(u,u,u) = u for 100 random B-blocks")

    def test_greedy_maximality(self):
        from betapar.algebraic import QuotientValue, qv_compare

        checked = 0
        for spec, length in [("fibonacci", 12), ("quadratic-plus:4,2", 8)]:
            base = base_from_spec(spec)
            dstar = quasi_greedy(renyi_dbeta(base))
            one = QuotientValue.from_int(base, 1)
            top = canonical_alphabet(base).max_digit
            rng = random.Random(555)
            while checked < (500 if spec == "fibonacci" else 1000):
                word = tuple(rng.randint(0, top) for _ in range(length))
                if not is_admissible(EventuallyPeriodicString(word), dstar):
                    continue
                s = DigitString(word, -1)
                v = eval_digit_string(s, base)
                if qv_compare(v, one) >= 0:
                    continue
                res = greedy_expand(v, base, 3 * length)
                assert res.exact
                assert values_equal(eval_digit_string(res.string, base), v)
                got = tuple(res.string.digit_at(-i) for i in range(1, length + 1))
                assert got >= word
                checked += 1
        assert checked == 1000
        _report(8, "greedy maximality: 1000 random admissible strings")
