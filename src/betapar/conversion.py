"""p-local functions, digit set conversions, and elimination-chain adders.

A :class:`LocalRule` is a sliding-window digit map: output digit v_j is
Phi(u_{j+t}, ..., u_j, ..., u_{j-r}) where r is the memory and t the
anticipation, p = r + t + 1.  Windows are passed most-significant digit
first.  A rule with Phi(0^p) = 0 preserves finite support, and when it also
preserves the value sum u_j beta^j it is a digit set conversion computable
in parallel.

Value preservation is never assumed here: :func:`verify_conversion` checks
rules against the exact Z[beta] oracle, exhaustively over short strings or
on seeded random strings, and reports the first counterexamples.

Adders are built by greatest-digit-elimination chains: to add x and y over
{0..M}, split y into indicator layers y(i) with y(i)_j = 1 iff y_j >= i and
fold s_i = gde(s_{i-1} + y(i)); every intermediate sum stays within the
gde's input alphabet {0..M+1}.  The composite is (M(p-1)+1)-local.  Shifted
alphabets {-d..M-d} conjugate the layer map by a plateau letter c: the map
reads u + c at every position and c is subtracted from its output again
(``convert(u, c)``).  Positive layers use c = d; negative layers use the
mirror image -convert(-u, M-d).  Finite support survives exactly when the
layer fixes the plateau letter, which :class:`ChainAdder` checks at
construction.  Value preservation carries over by a plateau argument: lift
u by c on a huge interval K around its support and apply the original map;
the interior matches the conjugate output shifted by c, while each edge
contributes a fixed pattern scaled by beta^(+-K).  The value identity of the
original map holds for every K, which forces both edge contributions to
vanish.  The same fold runs over any layer with that ``convert`` and
``fixes`` protocol: a :class:`LocalRule` or a k-block adder.  Conjugated
chains are heuristic by design and must be re-verified through
:func:`verify_conversion` before use.

Rules are immutable and shareable; window evaluations are independent per
position, so data-parallel evaluation is allowed and must stay bit-identical
to sequential evaluation (both paths run the same window function).
"""

from __future__ import annotations

import itertools
import json
import random as _random
from typing import NamedTuple

from .algebraic import eval_digit_string, values_equal
from .digits import Alphabet, DigitString, format_digits

TABULATE_THRESHOLD = 10 ** 6


class LocalRule:
    """p-local digit map with declared input/output alphabets.

    ``window_fn`` receives a (t+r+1)-tuple, most significant digit first,
    and must be total on windows over the input alphabet.  Construction
    checks Phi(0^p) = 0; when the window space is small enough the whole
    table is built eagerly, which doubles as a proof that every window
    output lies in the declared output alphabet.
    """

    def __init__(self, base, memory, anticipation, input_alphabet, output_alphabet,
                 window_fn, name=None, tabulate_threshold=TABULATE_THRESHOLD):
        if memory < 0 or anticipation < 0:
            raise ValueError("memory and anticipation must be non-negative")
        self.base = base
        self.memory = memory
        self.anticipation = anticipation
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.window_fn = window_fn
        self.name = name or "rule"
        self._table = None
        zero_out = window_fn((0,) * self.p)
        if zero_out != 0:
            raise ValueError("window_fn(0^p) = %r; finite support would break" % (zero_out,))
        if tabulate_threshold and len(input_alphabet) ** self.p <= tabulate_threshold:
            self._tabulate()

    @property
    def p(self):
        return self.memory + self.anticipation + 1

    def _tabulate(self):
        table = {}
        window_fn = self.window_fn
        lo = self.output_alphabet.min_digit
        hi = self.output_alphabet.max_digit
        for w in itertools.product(self.input_alphabet, repeat=self.p):
            out = window_fn(w)
            if not lo <= out <= hi:
                raise ValueError("%s: window %r maps to %r outside %s"
                                 % (self.name, w, out, self.output_alphabet))
            table[w] = out
        self._table = table

    def window(self, w):
        if self._table is not None:
            return self._table[w]
        out = self.window_fn(w)
        if out not in self.output_alphabet:
            raise ValueError("%s: window %r maps to %r outside %s"
                             % (self.name, w, out, self.output_alphabet))
        return out

    def fixes(self, c):
        """Whether the constant letter c is a fixed point: Phi(c^p) = c."""
        return (c in self.input_alphabet and c in self.output_alphabet
                and self.window((c,) * self.p) == c)

    def convert(self, u, plateau=0):
        """The rule applied to u conjugated by the plateau letter; see apply_local."""
        return apply_local(self, u, plateau)

    def __repr__(self):
        return "LocalRule(%s, r=%d, t=%d, %s -> %s)" % (
            self.name, self.memory, self.anticipation,
            self.input_alphabet, self.output_alphabet)


def apply_local(rule, u, plateau=0):
    """Sliding-window application of a rule to a finite digit string.

    The rule reads u + c at every position, c the plateau letter, and c is
    subtracted from each output digit, so u must lie in the input alphabet
    shifted down by c.  Outside the support the input is the constant c.
    Output positions j with the window disjoint from the support are 0
    because c must be a fixed letter, Phi(c^p) = c (ChainAdder checks this
    at construction), so only j in [lsd - t, msd + r] is computed.
    """
    c = plateau
    if not u.alphabet_ok(rule.input_alphabet.shifted(c)):
        raise ValueError("digit out of alphabet %s in %s" % (rule.input_alphabet.shifted(c), u))
    if u.is_zero():
        return DigitString()
    r = rule.memory
    t = rule.anticipation
    p = r + t + 1
    # padded[i] is u + c at exponent msd + r + t - i
    padded = [c] * (r + t) + [d + c for d in u.digits] + [c] * (r + t)
    window = rule.window
    out = [window(tuple(padded[i:i + p])) - c for i in range(len(padded) - p + 1)]
    return DigitString(out, u.msd_exponent + r)


def fixed_letters(rule):
    """Letters h with Phi(h^p) = h, i.e. constant sequences mapped to themselves.

    Fixed letters are what make alphabet shifting possible.
    """
    return {h for h in rule.input_alphabet if rule.fixes(h)}


def check_sum(adder, x, y, out):
    """Whether out, a sum of x and y, lies in adder.alphabet with the exact value of x + y.

    The value is compared in Z[beta] through the oracle, never in floating point.
    """
    base = adder.base
    return out.alphabet_ok(adder.alphabet) and values_equal(
        eval_digit_string(out, base), eval_digit_string(x + y, base))


# -- verification harness ------------------------------------------------------


class Exhaustive(NamedTuple):
    maxlen: int


class RandomStrings(NamedTuple):
    n: int
    seed: int
    maxlen: int = 12


exhaustive = Exhaustive
random_strings = RandomStrings


class ConversionReport:
    """Outcome of a verification sweep; verdict is pass iff no failures."""

    def __init__(self, rule_name, strategy, checked_count, failures):
        self.rule_name = rule_name
        self.strategy = strategy
        self.checked_count = checked_count
        self.failures = failures

    @property
    def verdict(self):
        return "pass" if not self.failures else "fail"

    def to_dict(self):
        return {
            "rule": self.rule_name,
            "strategy": self.strategy,
            "checked": self.checked_count,
            "verdict": self.verdict,
            "failures": [
                {"input": f[0], "output": f[1], "reason": f[2]} for f in self.failures
            ],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)

    def __repr__(self):
        return "ConversionReport(%s, checked=%d, %s)" % (
            self.rule_name, self.checked_count, self.verdict)


def _iter_exhaustive(alphabet, maxlen):
    digits = list(alphabet)
    nonzero = [d for d in digits if d != 0]
    yield ()
    for length in range(1, maxlen + 1):
        if length == 1:
            for d in nonzero:
                yield (d,)
            continue
        for first in nonzero:
            for rest in itertools.product(digits, repeat=length - 1):
                yield (first,) + rest


def _iter_random(alphabet, n, seed, maxlen):
    rng = _random.Random(seed)
    lo = alphabet.min_digit
    hi = alphabet.max_digit
    for _ in range(n):
        length = rng.randint(0, maxlen)
        yield tuple(rng.randint(lo, hi) for _ in range(length))


_MAX_FAILURES = 5


def verify_conversion(rule, strategy):
    """Check alphabet containment and exact value preservation of a conversion.

    ``rule`` is anything with ``base``, ``name``, ``input_alphabet``,
    ``output_alphabet`` and ``convert(u)``: a local rule or an adder used as
    its A+A -> A conversion.

    Exhaustive mode enumerates every string over the input alphabet up to
    the given length (leading zeros skipped; they only duplicate shorter
    strings).  Random mode draws seeded strings.  Each input is applied
    through the rule and the input and output values are compared with the
    exact oracle; failures are serialized into the report.
    """
    failures = []
    checked = 0
    if isinstance(strategy, Exhaustive):
        words = _iter_exhaustive(rule.input_alphabet, strategy.maxlen)
        label = "exhaustive(%d)" % strategy.maxlen
    elif isinstance(strategy, RandomStrings):
        words = _iter_random(rule.input_alphabet, strategy.n, strategy.seed, strategy.maxlen)
        label = "random(n=%d, seed=%d)" % (strategy.n, strategy.seed)
    else:
        raise TypeError("strategy must be Exhaustive or RandomStrings")
    if strategy.maxlen < 0:
        raise ValueError("maxlen must be non-negative, got %d" % strategy.maxlen)
    if isinstance(strategy, RandomStrings) and strategy.n < 1:
        raise ValueError("n must be at least 1, got %d" % strategy.n)

    base = rule.base
    for word in words:
        checked += 1
        u = DigitString(word, len(word) - 1)
        try:
            v = rule.convert(u)
        except ValueError as exc:
            failures.append((format_digits(u), "", "error: %s" % exc))
        else:
            if not v.alphabet_ok(rule.output_alphabet):
                failures.append((format_digits(u), format_digits(v), "digit outside output alphabet"))
            elif not values_equal(eval_digit_string(u, base), eval_digit_string(v, base)):
                failures.append((format_digits(u), format_digits(v), "value mismatch"))
        if len(failures) >= _MAX_FAILURES:
            break
    return ConversionReport(rule.name, label, checked, failures)


# -- elimination-chain adders ---------------------------------------------------


class ChainAdder:
    """Parallel adder over a contiguous alphabet {-d..M-d} folding one layer map.

    ``layer`` converts {0..M+1} (or more) to {0..M} through
    ``layer.convert(u, plateau)`` and reports fixed letters through
    ``layer.fixes(c)``: a greatest-digit-elimination :class:`LocalRule`, or
    a k-block adder.  Addition of x and y folds the indicator layers of y
    into x: positive layers through ``layer.convert(., d)``, negative ones
    through ``-layer.convert(-., M-d)``.  The adder is itself the digit set
    conversion from A+A to A (``convert``): the two addends are recovered
    from the digitwise sum by clamping, which is 1-local.
    """

    def __init__(self, layer, alphabet):
        M = len(alphabet) - 1
        if layer.output_alphabet != Alphabet(0, M) or M + 1 not in layer.input_alphabet:
            raise ValueError("layer must convert {0..%d} to {0..%d}, got %s -> %s"
                             % (M + 1, M, layer.input_alphabet, layer.output_alphabet))
        self.layer = layer
        self.base = layer.base
        self.alphabet = alphabet
        self.input_alphabet = alphabet.plus(alphabet)
        self.output_alphabet = alphabet
        self.hi_layers = alphabet.max_digit
        self.lo_layers = d = -alphabet.min_digit
        # positive layers are conjugated by d, negative layers by M - d
        for c, used in ((d, self.hi_layers > 0), (M - d, d > 0)):
            if used and not layer.fixes(c):
                raise ValueError("%d is not a fixed letter of %s" % (c, layer.name))
        self.name = "%s-adder" % layer.name + ("-shift%d" % d if d else "")

    @property
    def effective_window(self):
        """Window width of the composite map over a local-rule layer."""
        return 1 + (self.hi_layers + self.lo_layers) * (self.layer.p - 1)

    def add(self, x, y):
        for s in (x, y):
            if not s.alphabet_ok(self.alphabet):
                raise ValueError("digit out of adder alphabet %s in %s" % (self.alphabet, s))
        layer = self.layer
        d = self.lo_layers
        s = x
        for i in range(1, self.hi_layers + 1):
            s = layer.convert(s + _indicator(y, lambda dig, i=i: dig >= i, 1), d)
        for i in range(1, self.lo_layers + 1):
            s = s + _indicator(y, lambda dig, i=i: dig <= -i, -1)
            s = layer.convert(s.negated(), self.hi_layers).negated()  # M - d = hi_layers
        return s

    def split_sum(self, w):
        """Clamp-split a digitwise sum over A+A back into two A-strings."""
        lo = self.alphabet.min_digit
        hi = self.alphabet.max_digit
        x = DigitString(tuple(max(lo, min(dig, hi)) for dig in w.digits), w.msd_exponent)
        return x, w - x

    def convert(self, u):
        """The adder as a digit set conversion from A+A to A."""
        return self.add(*self.split_sum(u))


def _indicator(y, pred, sign):
    return DigitString([sign if pred(d) else 0 for d in y.digits], y.msd_exponent)

