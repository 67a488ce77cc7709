"""Greedy (Renyi) expansions, d_beta(1), Parry classification, admissibility.

The greedy expansion of x in [0, 1) is produced digit by digit by
x_j = floor(beta * r_{j-1}), r_j = beta * r_{j-1} - x_j, with exact
remainders in Z[beta], over the alphabet {0, ..., ceil(beta) - 1}:
greedy_vector_digits cuts it at a position, greedy_tail runs it to an
exact end.  Applied to 1 this yields d_beta(1), whose eventual
periodicity (a repeated remainder) classifies beta as a simple or
non-simple Parry number.  A sequence is admissible when every suffix is
strictly lexicographically below the quasi-greedy expansion d*_beta(1);
Parry's automaton, whose states are its prefixes, decides it.

Eventually periodic strings serialize as ``pre(per)``, e.g. ``2(1)``;
digits are concatenated when all fit in 0..9 and comma-separated otherwise.

Everything here is pure and immutable; see :mod:`betapar.algebraic` for the
exact-arithmetic layer.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .algebraic import QuotientValue, certified_floor, qv_sign
from .digits import Alphabet, DigitString, Immutable

F = "F"
PF = "PF"
INCONCLUSIVE = "inconclusive"

_MAX_STEPS = 10000  # the greedy digits renyi_dbeta computes before answering None


class EventuallyPeriodicString(Immutable):
    """Digit sequence pre . per^omega; empty period means a finite string.

    Normal form: the period is primitive (not a proper power) and the
    preperiod is minimal (its last digit differs from the period's last
    digit).  Normalization only changes the (preperiod, period) presentation,
    never the underlying sequence.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod, period=()):
        pre = list(int(d) for d in preperiod)
        per = list(int(d) for d in period)
        if per:
            for q in range(1, len(per) + 1):
                if len(per) % q == 0 and per == per[:q] * (len(per) // q):
                    per = per[:q]
                    break
            while pre and pre[-1] == per[-1]:
                pre.pop()
                per = [per[-1]] + per[:-1]
        object.__setattr__(self, "preperiod", tuple(pre))
        object.__setattr__(self, "period", tuple(per))

    def is_finite(self):
        return not self.period

    def digit_at(self, i):
        """0-based digit t_{i+1}; positions beyond a finite string are 0."""
        if i < len(self.preperiod):
            return self.preperiod[i]
        if not self.period:
            return 0
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def suffix(self, k):
        """The sequence shifted left by k positions, as a normalized string."""
        if k <= len(self.preperiod):
            return EventuallyPeriodicString(self.preperiod[k:], self.period)
        if not self.period:
            return EventuallyPeriodicString(())
        r = (k - len(self.preperiod)) % len(self.period)
        return EventuallyPeriodicString((), self.period[r:] + self.period[:r])

    def __eq__(self, other):
        return (isinstance(other, EventuallyPeriodicString)
                and self.preperiod == other.preperiod and self.period == other.period)

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __repr__(self):
        return "EventuallyPeriodicString(%r, %r)" % (self.preperiod, self.period)

    def __str__(self):
        return format_eventually_periodic(self)


def format_eventually_periodic(s):
    digits = list(s.preperiod) + list(s.period)
    compact = all(0 <= d <= 9 for d in digits)

    def fmt(part):
        return "".join(str(d) for d in part) if compact else ",".join(str(d) for d in part)

    out = fmt(s.preperiod)
    if s.period:
        out += "(" + fmt(s.period) + ")"
    return out


def parse_eventually_periodic(text):
    """Parse ``pre(per)`` with digits concatenated (0..9) or comma-separated."""
    text = text.strip()

    def digits_of(part):
        part = part.strip()
        if "," in part or "-" in part:
            return tuple(int(t) for t in part.split(","))
        return tuple(int(ch) for ch in part)

    if "(" in text:
        if not text.endswith(")"):
            raise ValueError("malformed eventually periodic string %r" % text)
        pre, per = text[:-1].split("(", 1)
        return EventuallyPeriodicString(digits_of(pre), digits_of(per))
    return EventuallyPeriodicString(digits_of(text))


def lex_compare(x, y):
    """Three-way lexicographic comparison of eventually periodic sequences.

    Proof sketch for the decision horizon: let P = max(|pre_x|, |pre_y|).
    Beyond position P both sequences are periodic, with periods |per_x| and
    |per_y|, hence both are also periodic with period L = lcm of the two
    (a finite string counts as period 1, being 0^omega).  Suppose the
    sequences agree on all positions < P + L.  For n >= P + L, both
    x_n = x_{n-L} and y_n = y_{n-L} since n - L >= P, so by induction on n
    they agree at every position.  Contrapositive: the first disagreement,
    if any, occurs at some position < P + L, so examining P + L positions
    decides the order (one extra position is examined out of caution).
    """
    px = len(x.preperiod)
    py = len(y.preperiod)
    lx = len(x.period) or 1
    ly = len(y.period) or 1
    horizon = max(px, py) + (lx * ly) // gcd(lx, ly) + 1
    for i in range(horizon):
        a = x.digit_at(i)
        b = y.digit_at(i)
        if a != b:
            return -1 if a < b else 1
    return 0


def canonical_alphabet(base):
    """{0, ..., ceil(beta) - 1}; for our irrational bases the max is floor(beta)."""
    beta = QuotientValue.beta_power(base, 1)
    return Alphabet(0, certified_floor(beta))


class GreedyExpansion(NamedTuple):
    """Expansion result; ``exact`` is False when digits were truncated."""

    string: DigitString
    exact: bool

    def __str__(self):
        return str(self.string) + ("" if self.exact else "...")


def greedy_expand(x, base, max_digits):
    """First max_digits digits of the greedy expansion of x in [0, 1).

    Terminates early (exact) when a remainder hits 0; otherwise the result
    carries a truncation marker instead of raising, because d_beta(1)
    probing needs prefixes of non-terminating expansions.
    """
    if max_digits < 1:
        raise ValueError("max_digits must be at least 1")
    if certified_floor(x) != 0:
        raise ValueError("greedy_expand needs 0 <= x < 1")
    return _greedy_down_to(x, base, -max_digits)


def greedy_expand_ge1(x, base, max_frac=64):
    """Greedy expansion of x >= 0; integer part exact, fractional part may truncate.

    The digit sequence of the result is beta-admissible by construction.
    """
    if max_frac < 0:
        raise ValueError("max_frac must be non-negative, got %d" % max_frac)
    if qv_sign(x) < 0:
        raise ValueError("greedy_expand_ge1 needs x >= 0")
    return _greedy_down_to(x, base, -max_frac)


def _greedy_down_to(x, base, lowest):
    """Greedy digits of x >= 0 at positions >= lowest; inexact iff a nonzero one is cut.

    x = value(coeffs) * beta**(-scale), and the greedy expansion commutes
    with multiplication by powers of beta, so the digits of coeffs are
    shifted down by the scale.
    """
    if x.base != base:
        raise ValueError("x is a value over %r, not over %r" % (x.base, base))
    e = x.scale
    ints, frac, exact = greedy_vector_digits(base, x.coeffs, lowest + e)
    return GreedyExpansion(DigitString(ints[::-1] + frac, len(ints) - 1 - e), exact)


def renyi_dbeta(base):
    """d_beta(1) by the greedy algorithm with exact remainders in Z[beta].

    A zero remainder gives a finite d_beta(1) (simple Parry number); a
    repeated remainder vector gives the eventually periodic form (Parry
    number).  Returns None when neither happens within _MAX_STEPS digits:
    the honest third answer, since preperiod and period of d_beta(1) are
    not bounded for a general base.
    """
    return greedy_tail(base, base.unit_vector(), _MAX_STEPS)


def greedy_tail(base, r, max_steps=None):
    """The greedy digits of beta * r, beta * r', ... for a remainder r >= 0.

    For r in [0, 1) this is the greedy expansion of value(r); for r = 1 it
    is d_beta(1).  Remainders are exact Z[beta] vectors, so a zero
    remainder ends a finite expansion and a repeated one closes its period.
    Returns an EventuallyPeriodicString, or None when neither happens
    within max_steps digits (no cap when max_steps is None).
    """
    seen = {}
    digits = []
    while any(r):
        i = seen.get(r)
        if i is not None:
            return EventuallyPeriodicString(digits[:i], digits[i:])
        if len(digits) == max_steps:
            return None
        seen[r] = len(digits)
        t, r = _greedy_step(base, r)
        digits.append(t)
    return EventuallyPeriodicString(digits)


def classify_parry(base):
    """('simple' | 'non-simple' | 'unknown', d_beta(1) or None)."""
    d = renyi_dbeta(base)
    if d is None:
        return ("unknown", None)
    return ("simple" if d.is_finite() else "non-simple", d)


def quasi_greedy(d):
    """d*_beta(1): finite t_1..t_m becomes (t_1 .. t_{m-1} (t_m - 1))^omega."""
    if not d.is_finite():
        return d
    pre = d.preperiod
    if not pre or pre[0] < 1:
        raise ValueError("not a valid d_beta(1): leading digit must be >= 1")
    per = pre[:-1] + (pre[-1] - 1,)
    if not any(per):
        raise ValueError("quasi-greedy period would be all zeros (integer base?)")
    return EventuallyPeriodicString((), per)


def _as_sequence(s):
    if isinstance(s, EventuallyPeriodicString):
        return s
    if isinstance(s, DigitString):
        return EventuallyPeriodicString(s.digits)
    raise TypeError("expected DigitString or EventuallyPeriodicString")


class AdmissibilityAutomaton:
    """Parry's automaton: the sequences whose every suffix is strictly below d*.

    d* = t_1 t_2 ... is the quasi-greedy expansion d*_beta(1).  State i
    says that the digits read so far end with t_1 .. t_i, and expects
    t_{i+1}.  On digit a, a < t_{i+1} resets to state 0, a = t_{i+1} goes
    to state i + 1 (wrapping from the end of the period back to its
    start) and a > t_{i+1} rejects.  The reset is sound because d* is the
    largest of its shifts: every suffix ending in the smaller digit is
    then strictly below d*, however it goes on.  A sequence is admissible
    iff its run never rejects and resets infinitely often; a run that stops
    resetting reads a shift of d* from some point on, so a suffix equals
    d*.  Finite strings are padded with 0^omega, which always resets.
    ``moves[i]``: the accepted (digit, next state) pairs of state i, ascending.
    """

    __slots__ = ("dstar", "expected", "wrap", "moves")

    def __init__(self, dstar):
        n = len(dstar.preperiod) + len(dstar.period)
        if dstar.is_finite() or any(lex_compare(dstar.suffix(k), dstar) > 0
                                    for k in range(1, n)):
            raise ValueError("%s is not a quasi-greedy expansion d*_beta(1)" % dstar)
        self.dstar = dstar
        self.expected = dstar.preperiod + dstar.period
        self.wrap = len(dstar.preperiod)
        self.moves = tuple(tuple((a, 0) for a in range(t)) + ((t, self.step(i, t)),)
                           for i, t in enumerate(self.expected))

    @classmethod
    def of_base(cls, base):
        """The automaton of d*_beta(1); raises if d_beta(1) is not found."""
        d = renyi_dbeta(base)
        if d is None:
            raise ValueError("d_beta(1) unknown; no admissibility automaton for %r" % base)
        return cls(quasi_greedy(d))

    def step(self, state, digit):
        """The state after reading digit, or None if digit is rejected."""
        t = self.expected[state]
        if digit < t:
            return 0
        if digit > t:
            return None
        state += 1
        return self.wrap if state == len(self.expected) else state

    def accepts(self, seq, state=0):
        """Whether the eventually periodic seq, read from state, stays admissible.

        The period is read whole from each state it starts in until that
        state repeats; the cycle of period runs so closed must reset.
        """
        for a in seq.preperiod:
            state = self.step(state, a)
            if state is None:
                return False
        if not seq.period:
            return True
        starts = {}
        resets = []
        while state not in starts:
            starts[state] = len(resets)
            reset = False
            for a in seq.period:
                reset = reset or a < self.expected[state]
                state = self.step(state, a)
                if state is None:
                    return False
            resets.append(reset)
        return any(resets[starts[state]:])


def is_admissible(s, dstar):
    """True iff every suffix of s (a DigitString or an eventually periodic
    sequence) is strictly lexicographically below dstar.

    This is Parry's characterization of greedy digit sequences, decided by
    the :class:`AdmissibilityAutomaton` of dstar; dstar must therefore be a
    quasi-greedy expansion d*_beta(1) (infinite, and the largest of its
    shifts), and ValueError is raised otherwise.
    """
    return AdmissibilityAutomaton(dstar).accepts(_as_sequence(s))


def pf_sufficient(d):
    """Sufficient-condition check for the (F) / (PF) classes.

    F when d_beta(1) = t_1..t_m finite with t_1 >= ... >= t_m >= 1; PF when
    d_beta(1) = t_1..t_m t^omega with t_1 >= ... >= t_m > t >= 1.  Returns
    'inconclusive' otherwise, which is NOT a negative certificate.
    """
    if d.is_finite():
        ts = d.preperiod
        if ts and all(t >= 1 for t in ts) and all(a >= b for a, b in zip(ts, ts[1:])):
            return F
        return INCONCLUSIVE
    if len(d.period) == 1:
        t = d.period[0]
        ts = d.preperiod
        if (ts and t >= 1 and ts[-1] > t
                and all(x >= 1 for x in ts)
                and all(a >= b for a, b in zip(ts, ts[1:]))):
            return PF
    return INCONCLUSIVE


def greedy_vector_digits(base, vec, lowest):
    """Greedy digits of a non-negative Z[beta] vector at positions >= lowest.

    Returns (int_digits, frac_digits, exact): int_digits ascending (index =
    position; positions below lowest read 0), frac_digits[i] the digit at
    position -(i+1), and exact False iff a nonzero digit lies below lowest.
    It is the one routine that reads greedy digits cut at a position.

    The integer digits come from one dyadic enclosure: value(vec) in [L, H]
    and each beta**j in [plo_j, phi_j], all from one snapshot of the base.
    Walking down from a position m with value(vec) < beta**(m + 1), the
    digit at j is certified when L // phi_j == H // plo_j, and the enclosure
    of the remainder is then narrowed by that digit's share.  Otherwise the
    exact remainder vector, kept alongside, decides: it is tested against
    m * beta**j for m = H // plo_j, and failing that the digit is the exact
    floor_of_vector, after which the remainder is enclosed afresh.  Either
    way each digit is the exact floor of a remainder below beta**(j + 1),
    so it is below beta.  Below lowest the walk only looks for the top
    digit, whose position sizes int_digits.  The fractional digits are
    exact floors one at a time, by the step that greedy_tail takes.
    """
    if not any(vec):
        return [], [], True
    L, H, plo, phi, _ = base.value_enclosure(vec)
    if L < 0 and (H < 0 or base.sign_of_vector(vec) < 0):
        raise ValueError("greedy expansion needs a non-negative value")
    # m: a position with value(vec) < beta**(m + 1), so no digit lies above m
    m = 0
    while True:
        while m + 1 < len(plo) and plo[m + 1] <= H:
            m += 1
        if m + 1 < len(plo):
            break
        L, H, plo, phi, _ = base.value_enclosure(vec, n=2 * m + 2)
    d = base.degree
    low = max(lowest, 0)
    top = None
    int_digits = [0]
    r = vec
    for j in range(m, -1, -1):
        if j < low and top is not None:
            break
        dig = max(L, 0) // phi[j]  # the remainder is never negative
        fresh = False
        if dig != H // plo[j]:
            dig = H // plo[j]
            pw = base.power_vector(j)
            if any(r[i] != dig * pw[i] for i in range(d)):
                dig = base.floor_of_vector(r, j)
                fresh = True
        if dig and top is None:
            top = j
            int_digits = [0] * (j + 1)
        if dig and j >= low:
            int_digits[j] = dig
            pw = base.power_vector(j)
            r = tuple(r[i] - dig * pw[i] for i in range(d))
            if not any(r):
                break
            L -= dig * phi[j]
            H -= dig * plo[j]
        if fresh:
            L, H, plo, phi, _ = base.value_enclosure(r, n=m)
    frac = []
    while any(r) and len(frac) < -lowest:
        dig, r = _greedy_step(base, r)
        frac.append(dig)
    return int_digits, frac, not any(r)


def _greedy_step(base, r):
    """One fractional greedy step: the digit floor(beta * r) and the new remainder."""
    r = base.shift_vector(r)
    dig = base.floor_of_vector(r)
    if dig:
        r = (r[0] - dig,) + r[1:]
    return dig, r


def greedy_fractional_depth(base, vec):
    """Number of fractional digits of the greedy expansion of value(vec) >= 0.

    They are read by :func:`greedy_vector_digits` down to position
    -_MAX_STEPS; RuntimeError is raised when a nonzero digit lies below,
    as for a periodic tail or one that never repeats (a non-Pisot base).
    Neither happens for sums of beta-integers in a (PF) base.
    """
    _, frac, exact = greedy_vector_digits(base, vec, -_MAX_STEPS)
    if not exact:
        raise RuntimeError("greedy expansion of %r does not end within %d fractional digits"
                           % (vec, _MAX_STEPS))
    return len(frac)


def admissible_greedy_depth(base, automaton, vec, state):
    """Fractional digits of greedy(z), z = value(vec) in [0, 1), read after state.

    Returns the number of digits when the word that led to state followed
    by greedy(z) is admissible, and None when it is not.  A non-terminating
    greedy(z) is decided exactly by :func:`greedy_tail`, which ends at a
    repeated remainder.  An admissible infinite tail raises, since then the
    value read has no finite greedy expansion, which cannot happen for an
    (F)/(PF) base.
    """
    tail = greedy_tail(base, vec)
    if not automaton.accepts(tail, state):
        return None
    if tail.period:
        raise RuntimeError("greedy expansion %s is admissible and infinite: "
                           "the base is not (PF)" % tail)
    return len(tail.preperiod)


def iter_beta_integer_words(base, max_len):
    """Yield digit tuples (msd first, no leading zero) of all beta-integers
    with at most max_len digits, the zero word included as ().

    A word is the greedy expansion of its value iff Parry's automaton
    accepts it; a rejected prefix has no accepted extension, so a DFS
    that carries the automaton state enumerates exactly the admissible words.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative, got %d" % max_len)
    aut = AdmissibilityAutomaton.of_base(base)
    word = []

    def rec(state):
        yield tuple(word)
        if len(word) < max_len:
            for d, nxt in aut.moves[state][not word:]:  # a word has no leading 0
                word.append(d)
                yield from rec(nxt)
                word.pop()

    yield from rec(0)
