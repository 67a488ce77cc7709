"""The three workloads: set-up, operation inputs, the timed call and its checks.

Each workload fixes the work of one operation, so that every operation of
a run costs the same and a run's memory depends on its operation count
only, never on how fast the code is.  Inputs are drawn from the run's seeded
random generator outside the timed region, and every output is checked
outside it by :mod:`valuecheck`, which does not use ``betapar``.

betapar's functions are looked up on their modules at each call, so that
the traced run's wrappers (see :mod:`spans`) see the benchmark's own calls.
"""

from __future__ import annotations

from betapar import blocks, conversion, quadratic
from betapar.digits import DigitString

import valuecheck as vc


def random_string(rng, alphabet, length):
    """A digit string of exactly `length` integer digits over `alphabet`.

    The first and last digits are nonzero, so the string keeps its length.
    """
    lo, hi = alphabet
    nonzero = [d for d in range(lo, hi + 1) if d]
    digits = ([rng.choice(nonzero)] + [rng.randint(lo, hi) for _ in range(length - 2)]
              + [rng.choice(nonzero)])
    return DigitString(digits, length - 1)


class GdeAdd:
    """Five GDE-chain adders, each adding one pair of fresh operands per operation."""

    name = "gde-add"
    setup_repeats = 3
    ops_per_second = 24
    trace_ops = 24
    length = 300
    # (kind, a, b, d): full adders have d = None, shifted adders their shift
    ADDERS = [
        ("plus", 4, 2, None),
        ("minus", 4, 2, None),
        ("plus_special", 3, None, None),
        ("plus", 4, 2, 3),
        ("minus", 4, 2, 2),
    ]

    def setup(self):
        adders = []
        for kind, a, b, d in self.ADDERS:
            args = (kind, a) if b is None else (kind, a, b)
            adders.append(quadratic.quadratic_adder(*args) if d is None
                          else quadratic.shifted_adder(*args, d=d))
        return adders

    def setup_problems(self, adders):
        problems = []
        for adder, (kind, a, b, d) in zip(adders, self.ADDERS):
            want = vc.adder_alphabet(kind, a, b, d or 0)
            got = (adder.alphabet.min_digit, adder.alphabet.max_digit)
            if got != want:
                problems.append("%s: alphabet %s, paper states %s" % (adder.name, got, want))
        return problems

    def inputs(self, adders, rng):
        return [(random_string(rng, vc.adder_alphabet(kind, a, b, d or 0), self.length),
                 random_string(rng, vc.adder_alphabet(kind, a, b, d or 0), self.length))
                for kind, a, b, d in self.ADDERS]

    def work(self, inputs):
        return sum(len(x.digits) + len(y.digits) for x, y in inputs)

    def run(self, adders, inputs):
        return [adder.add(x, y) for adder, (x, y) in zip(adders, inputs)]

    def check(self, adders, inputs, outputs):
        for (kind, a, b, d), (x, y), out in zip(self.ADDERS, inputs, outputs):
            if not vc.in_alphabet(out, vc.adder_alphabet(kind, a, b, d or 0)):
                return False
            if not vc.value_preserved(vc.family_poly(kind, a, b), out, x, y):
                return False
        return True

    def memo_entries(self, adders):
        return 0


class BlockAdd:
    """Tribonacci 14-block adders, unsigned on {0,1,2} and signed on {-1,0,1}."""

    name = "block-add"
    setup_repeats = 1  # one set-up is about 17 s, almost all of it estimate_s
    ops_per_second = 80
    trace_ops = 100
    n_blocks = 10

    def setup(self):
        unsigned = blocks.dbonacci_block_adder(3)  # s from estimate_s(tribonacci, 12)
        signed = blocks.dbonacci_block_adder(3, signed=True, s=unsigned.params.s)
        return unsigned, signed

    def setup_problems(self, state):
        unsigned, signed = state
        problems = []
        p = unsigned.params
        if (p.k, p.ell, p.s) != vc.TRIBONACCI_BLOCK_PARAMS:
            problems.append("block parameters (k, ell, s) = %s, paper states %s"
                            % ((p.k, p.ell, p.s), vc.TRIBONACCI_BLOCK_PARAMS))
        if (p.A.min_digit, p.A.max_digit) != vc.TRIBONACCI_BLOCK_ALPHABET:
            problems.append("unsigned alphabet %s" % p.A)
        if (signed.alphabet.min_digit, signed.alphabet.max_digit) != vc.TRIBONACCI_SIGNED_ALPHABET:
            problems.append("signed alphabet %s" % signed.alphabet)
        return problems

    def inputs(self, state, rng):
        n = self.n_blocks * vc.TRIBONACCI_BLOCK_PARAMS[0]
        return [(random_string(rng, alphabet, n), random_string(rng, alphabet, n))
                for alphabet in (vc.TRIBONACCI_BLOCK_ALPHABET, vc.TRIBONACCI_SIGNED_ALPHABET)]

    def work(self, inputs):
        return sum(len(x.digits) + len(y.digits) for x, y in inputs)

    def run(self, state, inputs):
        return [adder.add(x, y) for adder, (x, y) in zip(state, inputs)]

    def check(self, state, inputs, outputs):
        alphabets = (vc.TRIBONACCI_BLOCK_ALPHABET, vc.TRIBONACCI_SIGNED_ALPHABET)
        for alphabet, (x, y), out in zip(alphabets, inputs, outputs):
            if not vc.in_alphabet(out, alphabet):
                return False
            if not vc.value_preserved(vc.TRIBONACCI_POLY, out, x, y):
                return False
        return True

    def memo_entries(self, state):
        unsigned, signed = state
        return sum(len(getattr(adder, "_memo", ())) for adder in (unsigned, signed.inner))


class Sweep:
    """Exhaustive verification of the six GDE presets at one fixed length."""

    name = "sweep"
    setup_repeats = 3
    ops_per_second = 70
    trace_ops = 50
    n = 2
    samples = 4  # apply_local outputs re-checked per preset and operation
    # the presets of acceptance criterion 2
    PRESETS = [
        ("plus", 4, 2),
        ("plus", 5, 3),
        ("plus_special", 3, None),
        ("plus_special", 4, None),
        ("minus", 3, 1),
        ("minus", 4, 2),
    ]

    def setup(self):
        return [quadratic.gde_rule(kind, a, b) for kind, a, b in self.PRESETS]

    def setup_problems(self, rules):
        problems = []
        for rule, (kind, a, b) in zip(rules, self.PRESETS):
            want_in, want_out = vc.gde_alphabets(kind, a, b)
            got_in = (rule.input_alphabet.min_digit, rule.input_alphabet.max_digit)
            got_out = (rule.output_alphabet.min_digit, rule.output_alphabet.max_digit)
            if (got_in, got_out) != (want_in, want_out):
                problems.append("%s: alphabets %s -> %s, paper states %s -> %s"
                                % (rule.name, got_in, got_out, want_in, want_out))
            problems.extend(negative_control(rule, vc.family_poly(kind, a, b), self.n))
        return problems

    def inputs(self, rules, rng):
        samples = []
        for kind, a, b in self.PRESETS:
            alphabet, _ = vc.gde_alphabets(kind, a, b)
            lo, hi = alphabet
            words = []
            for _ in range(self.samples):
                length = rng.randint(1, self.n)
                words.append(DigitString([rng.randint(lo, hi) for _ in range(length)], length - 1))
            samples.append(words)
        return samples

    def work(self, inputs):
        return sum(vc.exhaustive_count(vc.gde_alphabets(kind, a, b)[0], self.n)
                   for kind, a, b in self.PRESETS)

    def run(self, rules, inputs):
        return [conversion.verify_conversion(rule, conversion.exhaustive(self.n)) for rule in rules]

    def check(self, rules, inputs, reports):
        for rule, (kind, a, b), report, words in zip(rules, self.PRESETS, reports, inputs):
            alphabet_in, alphabet_out = vc.gde_alphabets(kind, a, b)
            if report.verdict != "pass":
                return False
            if report.checked_count != vc.exhaustive_count(alphabet_in, self.n):
                return False
            poly = vc.family_poly(kind, a, b)
            for u in words:
                v = conversion.apply_local(rule, u)
                if not (vc.in_alphabet(v, alphabet_out) and vc.value_preserved(poly, v, u)):
                    return False
        return True

    def memo_entries(self, rules):
        return 0


def negative_control(rule, poly, n):
    """Problems found when a rule with one window output raised by 1 is swept.

    The corrupted window is the one centred on a lone digit 1, which every
    exhaustive sweep meets with the string "1".  Both verify_conversion and
    the independent value check must reject the corrupted rule.
    """
    window = [0] * rule.p
    window[rule.anticipation] = 1
    window = tuple(window)
    fn = rule.window_fn

    def corrupted(w):
        return fn(w) + (1 if w == window else 0)

    # tabulate_threshold=0: left untabulated, the corrupted rule costs nothing to build
    bad = conversion.LocalRule(rule.base, rule.memory, rule.anticipation, rule.input_alphabet,
                               rule.output_alphabet, corrupted, name=rule.name + "-corrupted",
                               tabulate_threshold=0)
    problems = []
    if conversion.verify_conversion(bad, conversion.exhaustive(n)).verdict != "fail":
        problems.append("%s: verify_conversion passed the corrupted rule" % rule.name)
    one = DigitString((1,), 0)
    if vc.value_preserved(poly, conversion.apply_local(bad, one), one):
        problems.append("%s: value check accepted the corrupted rule" % rule.name)
    return problems


WORKLOADS = {wl.name: wl for wl in (GdeAdd(), BlockAdd(), Sweep())}
