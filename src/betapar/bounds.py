"""Lower and upper bounds on alphabets admitting (block) parallel addition.

Conventions: the alphabet is A = {0, ..., M}.  Functions named
``*_lower_bound_*`` return bounds on the CARDINALITY #A = M + 1;
:func:`upper_bound_corollaries` brackets the minimal M itself.  Each bound
carries explicit hypothesis checks and returns None ("not applicable")
instead of silently applying a formula outside its theorem; the non-simple
hypotheses in particular are intricate.

The unit-circle test is a reporter, not a decision procedure: it combines
the exact palindrome test on the minimal polynomial with numerically
certified root-modulus enclosures, and an enclosure straddling 1 counts as
evidence only.
"""

from __future__ import annotations

from fractions import Fraction

from .algebraic import MinimalPolynomial, root_moduli, self_reciprocal
from .numeration import F, PF, pf_sufficient

IMPOSSIBLE_EVIDENCE = "impossible-evidence"
NO_EVIDENCE = "no-evidence"


def lower_bound_1block(poly, is_real_gt1=True):
    """Minimal cardinality of an alphabet allowing 1-block parallel addition.

    |f(1)| always; |f(1)| + 2 when beta is a real number > 1.  For the
    d-bonacci polynomial this evaluates to d + 1.
    """
    if not isinstance(poly, MinimalPolynomial):
        poly = MinimalPolynomial(poly)
    bound = abs(poly.eval_int(1))
    return bound + 2 if is_real_gt1 else bound


def _sequence_digits(d, count):
    return [d.digit_at(i) for i in range(count)]


def block_lower_bound_simple(d):
    """Cardinality bound t_1 + t_m + 1 for simple Parry bases, or None.

    Hypotheses: d_beta(1) = t_1 .. t_m finite, m >= 2, and
    1 <= t_m <= t_i for all i.  The bound says block parallel addition on
    {0..M} forces M >= t_1 + t_m.
    """
    if not d.is_finite():
        return None
    ts = d.preperiod
    m = len(ts)
    if m < 2:
        return None
    tm = ts[-1]
    if tm < 1 or any(t < tm for t in ts):
        return None
    return ts[0] + tm + 1


def block_lower_bound_nonsimple(d):
    """Cardinality bound 2 t_1 - t_2 for eventually periodic d_beta(1), or None.

    Applicable when some presentation t_1..t_m (t_{m+1}..t_{m+p})^omega of
    the sequence satisfies one of:

    1. m = p = 1;
    2. m = 1, p >= 2, t_1 > t_2 and t_2 > t_j for 2 < j <= p + 1;
    3. m >= 2, t_1 > t_2 >= t_j for 2 <= j <= m and t_2 > t_j for
       m + 1 <= j <= m + p.

    Presentations differ only by unrolling the period into the preperiod,
    which never changes the bound value (it reads t_1 and t_2 only); all
    unrollings up to one full period are tried.  The bound says
    M >= 2 t_1 - t_2 - 1.
    """
    if d.is_finite():
        return None
    p = len(d.period)
    m_min = len(d.preperiod)
    horizon = m_min + 2 * p + 2
    ts = _sequence_digits(d, horizon + 1)

    def case_holds(m):
        t = ts  # 0-based: t[j-1] is the paper's t_j
        if m == 1 and p == 1:
            return True
        if m == 1 and p >= 2:
            return t[0] > t[1] and all(t[1] > t[j - 1] for j in range(3, p + 2))
        if m >= 2:
            return (t[0] > t[1]
                    and all(t[1] >= t[j - 1] for j in range(2, m + 1))
                    and all(t[1] > t[j - 1] for j in range(m + 1, m + p + 1)))
        return False

    for m in range(max(1, m_min), m_min + p + 1):
        if case_holds(m):
            return 2 * ts[0] - ts[1]
    return None


def upper_bound_corollaries(d):
    """Bracketing interval [lo, hi] for the minimal M, or None.

    Finite non-increasing d_beta(1) = t_1 >= ... >= t_m >= 1 gives
    t_1 + t_m <= M <= 2 t_1.  Eventually periodic
    d_beta(1) = t_1..t_m t^omega with t_1 > t_2 >= ... >= t_m > t >= 1
    gives 2 t_1 - t_2 - 1 <= M <= 2 t_1.  (The source states the second
    hypothesis chain with an apparent typo, "t_1 > t_2 >= t_2 >= ...";
    it is implemented as the monotone chain above.)  These are the (F) and
    (PF) conditions of :func:`pf_sufficient`, the second with a strict
    first step.  Note this brackets M, not the cardinality M + 1.
    """
    kind = pf_sufficient(d)
    ts = d.preperiod
    if kind == F:
        return (ts[0] + ts[-1], 2 * ts[0])
    if kind == PF and (len(ts) == 1 or ts[0] > ts[1]):
        t2 = ts[1] if len(ts) >= 2 else d.period[0]
        return (2 * ts[0] - t2 - 1, 2 * ts[0])
    return None


def block_impossible_unit_conjugate(poly, eps=Fraction(1, 10 ** 6)):
    """Report evidence that no alphabet allows block parallel addition.

    'impossible-evidence' when the polynomial equals plus/minus its
    reciprocal (exact) AND some certified root-modulus enclosure of width
    <= eps straddles 1 (numerical).  Anything else is 'no-evidence'.
    Explicitly a reporter: a straddling enclosure is consistent with a
    unit-circle conjugate but does not prove one.
    """
    if not isinstance(poly, MinimalPolynomial):
        poly = MinimalPolynomial(poly)
    if not self_reciprocal(poly):
        return NO_EVIDENCE
    for enc in root_moduli(poly, eps):
        if enc is None:
            continue
        lo, hi = enc
        if lo <= 1 <= hi:
            return IMPOSSIBLE_EVIDENCE
    return NO_EVIDENCE
