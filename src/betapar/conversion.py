"""p-local functions, digit set conversions, and elimination-chain adders.

A :class:`LocalRule` is a sliding-window digit map: output digit v_j is
Phi(u_{j+t}, ..., u_j, ..., u_{j-r}) where r is the memory and t the
anticipation, p = r + t + 1.  Windows are passed most-significant digit
first.  A rule with Phi(0^p) = 0 preserves finite support, and when it also
preserves the value sum u_j beta^j it is a digit set conversion computable
in parallel.

Value preservation is never assumed for a rule: :func:`verify_conversion`
checks it against the exact Z[beta] oracle, exhaustively over short strings
or on seeded random strings, and reports the first counterexamples.  Its
random sweeps and :func:`check_sum` share one exact test,
:func:`_same_value`: two digit strings have equal values iff their
digitwise difference evaluates to the zero vector.  An exhaustive sweep
takes a :class:`LocalRule` and tests the same identity without converting
a string whole.  Pad u with h = r + t zeros on each side; then
e_m = Phi(window m) - (window m)[t] is digit m of v - u, most significant
first, so v keeps the value of u iff the Horner sum of the e_m is the zero
vector.  Window m reads only the first m + 1 digits of u, so the sweep is
one walk over prefixes that carries the partial Horner sum and reads each
window once per prefix; the last h windows read only u's last h digits and
are summed once per suffix.

A sweep through p digits proves a rule for every length.  Lemma: let Phi
be p-local with Phi(0^p) = 0 and h = p - 1; if every string of at most p
digits keeps its value, every finite string does.  Proof: let T_i be
beta^h times the Horner sum of e_0 .. e_{i-1}, and K(s) the Horner sum of
the last h windows of a string whose last h digits are s; a string of n
digits passes iff T_n = -K(s), and T_{i+1} = beta T_i + e_i beta^h.  Any
window w, its first h digits s and its last d, is the last prefix window
of the string w with its leading zeros dropped, and that string and its
prefixes have at most p digits, so the two longest pass:
-K(s[1:] + d) = -beta K(s) + e(w) beta^h.  This identity then holds on
every window, and from T_0 = 0 = -K(0^h) it gives T_i = -K(s_i) for every
prefix of every string, by induction on i.  So a rule that fails at some
length fails on a string of at most p digits, and the sweep, which reads
every window, also proves the output alphabet.  The bound is tight: one
window raised by 1 on a rule with p = 5 passes every string of 4 digits
and fails on the window itself.

Adders are built by greatest-digit-elimination chains: to add x and y over
{0..M}, split y into indicator layers y(i) with y(i)_j = 1 iff y_j >= i and
fold s_i = gde(s_{i-1} + y(i)); every intermediate sum stays within the
gde's input alphabet {0..M+1}.  The composite is (M(p-1)+1)-local.  Shifted
alphabets {-d..M-d} conjugate the layer map by a plateau letter c: the map
reads u + c at every position and c is subtracted from its output again.
Positive layers use c = d; negative layers use the mirror image
c - Phi(c - u) with c = M - d.  Finite support survives exactly when the
layer fixes the plateau letter (:func:`fixes`), which :class:`ChainAdder`
checks at construction.  Value preservation carries over by a plateau
argument: lift u by c on a huge interval K around its support and apply
the original map; the interior matches the conjugate output shifted by c,
while each edge contributes a fixed pattern scaled by beta^(+-K).  The
value identity of the original map holds for every K, which forces both
edge contributions to vanish.

The fold runs over any layer: a p-local map on blocks of k digits with
``memory`` r, ``anticipation`` t, ``k``, ``p``, both alphabets, a ``name``
and ``outputs(padded)``, the k output digits of every p-block window of a
padded digit list, most significant first.  A :class:`LocalRule` is one
with k = 1, a k-block adder one with r = t = 1.  A layer moves the support
of a string at most r blocks up and t blocks down, and its fixed plateau
letter keeps every digit farther out at 0.  So :meth:`ChainAdder.add` lays
x and y once into a frame of ints grown by n = M such steps on each side,
which holds every intermediate sum, and runs each layer as one
``outputs`` call over the frame padded with c, with no digit string, no
alphabet check and no plateau check between layers: the chain argument
keeps every read in the input alphabet, and ``outputs`` still raises on a
digit outside the output alphabet.  :func:`apply_local(layer, u, c)
<apply_local>` applies one layer to a digit string through the same
padding (:func:`_outputs`), and checks u's alphabet and the letter c.

Rules are shareable: their two memos, of window outputs and flush sums
-K(s), hold pure functions of the rule, one dict assignment per entry, so
racing threads at worst compute an entry twice.  A faster path, such as the
GDE carry path, must stay bit-identical to the window loop; tests check it.
"""

from __future__ import annotations

import itertools
import json
import random as _random
from typing import NamedTuple

from .digits import Alphabet, DigitString, format_digits

TABULATE_THRESHOLD = 10 ** 6
RANDOM_MAXLEN = 12  # random_strings draws strings of 0 .. RANDOM_MAXLEN digits


class LocalRule:
    """p-local digit map with declared input/output alphabets.

    ``window_fn`` receives a (t+r+1)-tuple, most significant digit first,
    and must be total on windows over the input alphabet.  ``window(w)``
    checks each output against the output alphabet and memoises it.
    Construction checks Phi(0^p) = 0, and reads every window when there are
    at most ``tabulate_threshold``, which proves the output alphabet up
    front.  :meth:`outputs` is the window loop, which a subclass may
    replace by an equal computation.
    """

    k = 1  # a 1-block map: each window position is one digit

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
        self._windows = _WindowMemo(self)
        self.window = self._windows.__getitem__
        self._flushes = {(): (0,) * base.degree}  # -K(s) of the residue walk, kept for every sweep
        zero_out = window_fn((0,) * self.p)
        if zero_out != 0:
            raise ValueError("window_fn(0^p) = %r; finite support would break" % (zero_out,))
        if tabulate_threshold and len(input_alphabet) ** self.p <= tabulate_threshold:
            for w in itertools.product(input_alphabet, repeat=self.p):
                self.window(w)

    @property
    def p(self):
        return self.memory + self.anticipation + 1

    def outputs(self, padded):
        """Phi of every p-digit window of the list padded, most significant first."""
        p = self.p
        return [self.window(tuple(padded[i:i + p])) for i in range(len(padded) - p + 1)]

    def __repr__(self):
        return "LocalRule(%s, r=%d, t=%d, %s -> %s)" % (
            self.name, self.memory, self.anticipation,
            self.input_alphabet, self.output_alphabet)


class _WindowMemo(dict):
    """A rule's window outputs; a missing one is computed, checked and stored."""

    def __init__(self, rule):
        self.rule = rule

    def __missing__(self, w):
        rule = self.rule
        out = rule.window_fn(w)
        alphabet = rule.output_alphabet
        if not alphabet.min_digit <= out <= alphabet.max_digit:
            raise ValueError("%s: window %r maps to %r outside %s" % (rule.name, w, out, alphabet))
        self[w] = out
        return out


def apply_local(layer, u, plateau=0):
    """Sliding-window application of a layer to a finite digit string.

    The layer, a p-local map on blocks of k digits (k = 1 for a rule), reads
    u + c at every position on a block grid fixed at multiples of k, c the
    plateau letter, and c is subtracted from each output digit, so u must
    lie in the input alphabet shifted down by c.  The output frame is u's
    support grown by r blocks up and t blocks down, which :func:`_outputs`
    pads with c; output blocks farther out are 0 because c is a fixed
    letter (:func:`fixes`), and any other c != 0 raises ValueError (c = 0 is
    fixed by construction).
    """
    c = plateau
    if not u.alphabet_ok(layer.input_alphabet.shifted(c)):
        raise ValueError("digit out of alphabet %s in %s" % (layer.input_alphabet.shifted(c), u))
    if c and not fixes(layer, c):
        raise ValueError("plateau %d is not a fixed letter of %s" % (c, layer.name))
    if u.is_zero():
        return DigitString()
    k = layer.k
    top = (u.msd_exponent // k + 1 + layer.memory) * k
    frame = _laid_out(u, top, (u.lsd_exponent // k - layer.anticipation) * k)
    out = _outputs(layer, [v + c for v in frame] if c else frame, c)
    return DigitString([v - c for v in out] if c else out, top - 1)


def _laid_out(u, top, bottom):
    """The digits of u at exponents top - 1 down to bottom, most significant first."""
    frame = [0] * (top - bottom)
    start = top - 1 - u.msd_exponent
    frame[start:start + len(u.digits)] = u.digits
    return frame


def _outputs(layer, frame, c):
    """The layer's output digits over a frame of read digits, most significant first.

    ``layer.outputs`` reads the frame padded with t blocks of the plateau
    letter c above and r blocks below, so output digit i sits at the
    exponent of frame digit i.
    """
    k = layer.k
    return layer.outputs([c] * (layer.anticipation * k) + frame + [c] * (layer.memory * k))


def fixes(layer, c):
    """Whether the constant letter c is a fixed point of the layer: Phi(c^p) = c^k."""
    return (c in layer.input_alphabet and c in layer.output_alphabet
            and layer.outputs([c] * (layer.p * layer.k)) == [c] * layer.k)


def fixed_letters(layer):
    """Letters h with Phi(h^p) = h^k, i.e. constant sequences mapped to themselves.

    Fixed letters are what make alphabet shifting possible.
    """
    return {h for h in layer.input_alphabet if fixes(layer, h)}


def _same_value(base, u, v):
    """Whether the digit strings u and v have the same value, decided exactly.

    value(u) - value(v) is beta**lsd times the digitwise difference u - v
    read from its lowest digit, and beta != 0, so the values agree iff that
    difference evaluates to the zero vector, the only vector of value 0
    because f is the minimal polynomial of beta.
    """
    return not any(base.digits_vector(reversed((u - v).digits)))


def check_sum(adder, x, y, out):
    """Whether out, a sum of x and y, lies in adder.alphabet with the exact value of x + y.

    The value is compared in Z[beta] by :func:`_same_value`, never in floating point.
    """
    return out.alphabet_ok(adder.alphabet) and _same_value(adder.base, out, x + y)


# -- verification harness ------------------------------------------------------


class Exhaustive(NamedTuple):
    maxlen: int


class RandomStrings(NamedTuple):
    n: int
    seed: int


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


def _iter_random(alphabet, n, seed):
    rng = _random.Random(seed)
    lo = alphabet.min_digit
    hi = alphabet.max_digit
    for _ in range(n):
        length = rng.randint(0, RANDOM_MAXLEN)
        yield tuple(rng.randint(lo, hi) for _ in range(length))


_MAX_FAILURES = 5


def _residue_walk(rule, maxlen):
    """(checked, failures) of the exhaustive sweep of a local rule through maxlen digits.

    Strings come by length, then lexicographically, the first digit nonzero.
    With h = r + t, one depth-first walk per length carries
    T_i = beta^h * Horner(e_0 .. e_{i-1}) down the prefixes, T_{i+1} =
    beta T_i + e_i beta^h.  The last h windows read only the last h padded
    digits s, and their Horner sum is K(s) = e(s + 0^(p - |s|))
    beta^(|s| - 1) + K(s[1:]), K(()) = 0.  K depends only on the rule and s,
    so -K(s) is memoised on the rule (``rule._flushes``) for every later sweep:
    at most |A|^h suffixes of h digits and their tails, fewer than 2 |A|^h
    entries in all.  A string of length n passes iff T_n = -K(s).

    A window that raises ValueError fails every string that reads it, as in
    apply_local, which reads the windows in the same order: the prefix
    windows, then the flush windows from the top down.  v is rebuilt by
    apply_local only to report a value mismatch.  ``rule.window`` never
    returns a digit outside the output alphabet (a window outside it
    raises), so no alphabet is checked.
    """
    base = rule.base
    t = rule.anticipation
    h = rule.memory + t
    window = rule.window
    shift = base.shift_vector
    powers = [base.power_vector(i) for i in range(h + 1)]
    top = powers[h]
    zero = (0,) * base.degree
    digits = tuple(rule.input_alphabet)
    nonzero = tuple(d for d in digits if d)
    cancel = rule._flushes  # -K(s), or the message of the first flush window of s that raises
    failures = []
    checked = 1  # the empty string, mapped to itself

    def flush(s):
        f = cancel.get(s)
        if f is None:
            w = s + (0,) * (h + 1 - len(s))
            try:
                e = window(w) - w[t]
            except ValueError as exc:
                f = str(exc)  # not exc, whose traceback would keep this sweep's frames alive
            else:
                f = flush(s[1:])
                if e and not isinstance(f, str):
                    f = tuple([a - e * b for a, b in zip(f, powers[len(s) - 1])])
            cancel[s] = f
        return f

    def fail(word, output, reason):
        failures.append((format_digits(DigitString(word, len(word) - 1)), output, reason))
        return len(failures) >= _MAX_FAILURES

    def walk(word, i, tail, carry):
        """Visit the strings of length len(word) that extend word[:i]; True once the
        failures are full.  tail is the last h padded digits, carry T_i."""
        nonlocal checked
        n = len(word)
        lifted = shift(carry)
        for d in digits if i else nonzero:
            word[i] = d
            w = tail + (d,)
            try:
                e = window(w) - w[t]
            except ValueError as exc:
                for rest in itertools.product(digits, repeat=n - i - 1):
                    checked += 1
                    if fail(tuple(word[:i + 1]) + rest, "", "error: %s" % exc):
                        return True
                continue
            c = tuple([a + e * b for a, b in zip(lifted, top)]) if e else lifted
            if i + 1 < n:
                if walk(word, i + 1, w[1:], c):
                    return True
                continue
            checked += 1
            f = flush(w[1:])
            if c == f:
                continue
            u = tuple(word)
            if isinstance(f, str):
                stop = fail(u, "", "error: %s" % f)
            else:
                v = apply_local(rule, DigitString(u, n - 1))
                stop = fail(u, format_digits(v), "value mismatch")
            if stop:
                return True
        return False

    for n in range(1, maxlen + 1):
        if walk([0] * n, 0, (0,) * h, zero):
            break
    return checked, failures


def verify_conversion(rule, strategy):
    """Check exact value preservation of a :class:`LocalRule`.

    Exhaustive mode checks every string over the rule's input alphabet up
    to the given length (leading zeros skipped; they only duplicate
    shorter strings) in one residue walk over the prefixes,
    :func:`_residue_walk`: digit m of v - u is e_m = Phi(window m) minus the
    window's centre digit, and the value is kept iff the Horner sum of the
    e_m is the zero vector, so no string is converted or evaluated whole.

    Random mode draws seeded strings over the input alphabet, applies the
    rule to each through :func:`apply_local` and compares the input and output
    values with the exact oracle.  No mode checks the output alphabet:
    ``rule.window`` and ``rule.outputs`` raise rather than return a digit
    outside it.  Failures, at most five, are serialized into the report.
    """
    if not isinstance(rule, LocalRule):
        raise TypeError("verify_conversion takes a LocalRule, got %s" % type(rule).__name__)
    if isinstance(strategy, Exhaustive):
        if strategy.maxlen < 0:
            raise ValueError("maxlen must be non-negative, got %d" % strategy.maxlen)
        checked, failures = _residue_walk(rule, strategy.maxlen)
        return ConversionReport(rule.name, "exhaustive(%d)" % strategy.maxlen, checked, failures)
    if not isinstance(strategy, RandomStrings):
        raise TypeError("strategy must be Exhaustive or RandomStrings")
    if strategy.n < 1:
        raise ValueError("n must be at least 1, got %d" % strategy.n)

    failures = []
    checked = 0
    base = rule.base
    for word in _iter_random(rule.input_alphabet, strategy.n, strategy.seed):
        checked += 1
        u = DigitString(word, len(word) - 1)
        try:
            v = apply_local(rule, u)
        except ValueError as exc:
            failures.append((format_digits(u), "", "error: %s" % exc))
        else:
            if not _same_value(base, v, u):
                failures.append((format_digits(u), format_digits(v), "value mismatch"))
        if len(failures) >= _MAX_FAILURES:
            break
    label = "random(n=%d, seed=%d)" % (strategy.n, strategy.seed)
    return ConversionReport(rule.name, label, checked, failures)


# -- elimination-chain adders ---------------------------------------------------


class ChainAdder:
    """Parallel adder over a contiguous alphabet {-d..M-d} folding one layer map.

    ``layer`` converts {0..M+1} (or more) to {0..M}: a
    greatest-digit-elimination :class:`LocalRule` or a k-block adder.
    Addition of x and y folds the indicator layers of y into x on one frame
    of ints, as the module docstring sets out: a positive layer reads
    s + d + [y_j >= i] and its output less d is the new s, a negative one
    reads M - d - s + [y_j <= -i] and M - d less its output is the new s.
    Construction checks with :func:`fixes` that both plateau letters in use
    are fixed, and only then is the fold's frame exact.
    """

    def __init__(self, layer, alphabet):
        M = len(alphabet) - 1
        if layer.output_alphabet != Alphabet(0, M) or M + 1 not in layer.input_alphabet:
            raise ValueError("layer must convert {0..%d} to {0..%d}, got %s -> %s"
                             % (M + 1, M, layer.input_alphabet, layer.output_alphabet))
        self.layer = layer
        self.base = layer.base
        self.alphabet = alphabet
        self.hi_layers = alphabet.max_digit
        self.lo_layers = d = -alphabet.min_digit
        # positive layers are conjugated by d, negative layers by M - d
        for c, used in ((d, self.hi_layers > 0), (M - d, d > 0)):
            if used and not fixes(layer, c):
                raise ValueError("%d is not a fixed letter of %s" % (c, layer.name))
        self.name = "%s-adder" % layer.name + ("-shift%d" % d if d else "")

    @property
    def effective_window(self):
        """Window width in digits: each layer pass of a k-block p-local map
        (a local rule has k = 1) widens the window by p - 1 blocks."""
        layer = self.layer
        return (1 + (self.hi_layers + self.lo_layers) * (layer.p - 1)) * layer.k

    def add(self, x, y):
        for s in (x, y):
            if not s.alphabet_ok(self.alphabet):
                raise ValueError("digit out of adder alphabet %s in %s" % (self.alphabet, s))
        operands = [s for s in (x, y) if not s.is_zero()]
        if not operands:
            return DigitString()
        layer = self.layer
        k = layer.k
        n = self.hi_layers + self.lo_layers
        # a layer grows the support by r blocks up and t blocks down: the frame holds n of each
        top = (max(s.msd_exponent for s in operands) // k + 1 + n * layer.memory) * k
        bottom = (min(s.lsd_exponent for s in operands) // k - n * layer.anticipation) * k
        w = _laid_out(y, top, bottom)
        d = self.lo_layers
        c = self.hi_layers  # M - d
        # positive layers read s + d and the indicator [w_j >= i]; a layer's output is the next s + d
        u = [v + d for v in _laid_out(x, top, bottom)]
        for i in range(1, c + 1):
            u = _outputs(layer, [v + (b >= i) for v, b in zip(u, w)], d)
        if not d:
            return DigitString(u, top - 1)
        # negative layers read the mirror image c - s and the indicator [w_j <= -i];
        # a layer's output is the next c - s
        u = [c + d - v for v in u]
        for i in range(1, d + 1):
            u = _outputs(layer, [v + (b <= -i) for v, b in zip(u, w)], c)
        return DigitString([c - v for v in u], top - 1)
