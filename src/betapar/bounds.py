"""Lower and upper bounds on alphabets admitting (block) parallel addition.

Conventions: the alphabet is A = {0, ..., M}.  Functions named
``*_lower_bound_*`` return bounds on the CARDINALITY #A = M + 1;
:func:`upper_bound_corollaries` brackets the minimal M itself.  Each bound
carries explicit hypothesis checks and returns None ("not applicable")
instead of silently applying a formula outside its theorem; the non-simple
hypotheses in particular are intricate.

The unit-circle test is an exact decision: it counts the roots of modulus 1
with a Sturm chain over rationals, so no numeric root finding is involved.
"""

from __future__ import annotations

from fractions import Fraction

from .algebraic import MinimalPolynomial, self_reciprocal
from .numeration import F, PF, pf_sufficient

IMPOSSIBLE_EVIDENCE = "impossible-evidence"
NO_EVIDENCE = "no-evidence"


def lower_bound_1block(poly):
    """Minimal cardinality of an alphabet allowing 1-block parallel addition.

    |f(1)| + 2, since beta is a real number > 1 (every base here is).  For
    the d-bonacci polynomial this evaluates to d + 1.
    """
    if not isinstance(poly, MinimalPolynomial):
        poly = MinimalPolynomial(poly)
    return abs(poly.evaluate(1)) + 2


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
    ts = [d.digit_at(i) for i in range(horizon + 1)]

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


def block_impossible_unit_conjugate(poly):
    """Decide whether f has a root of modulus 1, which rules out block parallel addition.

    'impossible-evidence' when some root of f lies on the unit circle,
    'no-evidence' otherwise; the decision is exact.  An irreducible f with
    a root z of modulus 1 also has the root 1/z = conj(z), so f equals plus
    or minus its reciprocal; as +-1 are not roots, f is then palindromic of
    even degree 2m and f(z) = z**m g(z + 1/z).  The unit-circle roots of f
    are the real roots of g in (-2, 2), which a Sturm chain counts; g(+-2)
    is f(+-1) up to sign, never 0.  Irreducibility of f is asserted by the
    caller and not proved.  On a reducible f the answer is about the roots
    of f, but only a palindromic f gets the Sturm count: a unit-circle root
    of a factor of a non-palindromic f is missed.
    """
    if not isinstance(poly, MinimalPolynomial):
        poly = MinimalPolynomial(poly)
    if not self_reciprocal(poly):
        return NO_EVIDENCE
    g = _trace_polynomial(poly.coefficients)
    n = len(g) - 1
    chain = [g, [c * (n - j) for j, c in enumerate(g[:-1])]]
    while len(chain[-1]) > 1 and (r := _remainder(chain[-2], chain[-1])):
        chain.append([-c for c in r])
    if _sign_changes(chain, -2) > _sign_changes(chain, 2):
        return IMPOSSIBLE_EVIDENCE
    return NO_EVIDENCE


def _trace_polynomial(c):
    """g with f(z) = z**m g(z + 1/z) for the palindromic f = c of degree 2m.

    z**k + z**(-k) = D_k(z + 1/z) with D_0 = 2, D_1 = t and
    D_{k+1} = t D_k - D_{k-1}.  Coefficients are highest degree first.
    """
    m = len(c) // 2
    g = [c[m]] + [0] * m  # lowest degree first while building
    prev, cur = [2], [0, 1]
    for k in range(1, m + 1):
        for i, x in enumerate(cur):
            g[i] += c[m - k] * x
        nxt = [0] + cur
        for i, x in enumerate(prev):
            nxt[i] -= x
        prev, cur = cur, nxt
    return g[::-1]


def _remainder(a, b):
    """Remainder of a divided by b over the rationals, highest degree first; [] for 0."""
    a = [Fraction(x) for x in a]
    while len(a) >= len(b):
        q = a[0] / b[0]
        a = [x - q * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    while a and a[0] == 0:
        a.pop(0)
    return a


def _sign_changes(chain, x):
    """Sign changes along the chain evaluated at x, zeros skipped."""
    signs = []
    for p in chain:
        acc = 0
        for c in p:
            acc = acc * x + c
        if acc:
            signs.append(acc > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))
