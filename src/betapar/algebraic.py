"""Exact arithmetic in Z[beta] for a real algebraic-integer base beta > 1.

The base is given by its monic irreducible minimal polynomial f of degree
d >= 2 together with a rational isolating interval (lo, hi), lo > 1,
bracketing exactly one real root.  Elements of Z[beta] are integer vectors
of length d in the power basis 1, beta, ..., beta**(d-1); since f is the
minimal polynomial, the vector representation is unique, so equality of
values is equality of vectors.

A :class:`QuotientValue` represents beta**(-e) * (c_0 + c_1 beta + ... +
c_{d-1} beta**(d-1)) with the non-negative integer scale e it is built
with.  Every digit string evaluates to such a value through
:meth:`BetaBase.digits_vector`, the one evaluation of digits, by Horner
steps, and exact equality of two values is decided by raising the smaller
scale to the larger and comparing vectors.  Since beta != 0, two digit
strings have equal values iff their digitwise difference evaluates to the
zero vector: the oracle check every conversion in the package is verified
with, linear in the length on a Pisot base, where the Horner steps of a
zero value stay bounded (C. Frougny, Math. Systems Theory 25, 1992).

Certified comparisons (floors, signs) use dyadic interval enclosures of the
powers of beta obtained by bisection of f, with precision doubled, in one
loop, until the enclosure decides the question; a floor is refined until
the enclosure pins it to n or n + 1, and one exact sign picks between them.

Values are immutable.  A base caches the power vectors asked for by
exponent, never an evaluation's, and grows the cache by building each
extension privately and publishing it in one assignment; its dyadic
precision, enclosure of beta and power enclosures form one immutable
snapshot, replaced in one assignment; 8-thread tests check that threads
sharing a base read what a fresh base computes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .digits import DigitString, Immutable

_SIGN_BITS_START = 64
# Guards caller-asserted irreducibility: over X^4 - 3X^2 + 1 =
# (X^2 - X - 1)(X^2 + X - 1), which passes the rational-root check, the
# nonzero vector (-1, -1, 1, 0) is worth 0, and no precision decides its sign.
_SIGN_BITS_LIMIT = 1 << 14
# A double below 2**-1075, half the smallest subnormal, rounds to 0.0; one
# more bit covers the rounding of the logarithm that float_value compares.
_UNDERFLOW_LOG2 = 1076


class MinimalPolynomial(Immutable):
    """Monic integer polynomial, coefficients highest degree first, d >= 2.

    Irreducibility is asserted by the caller and only spot-checked: a
    rational (hence integer) root is always rejected, which is a complete
    irreducibility test up to degree 3.  Full factorization is out of scope.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = tuple(int(c) for c in coefficients)
        if len(coeffs) < 3:
            raise ValueError("degree must be at least 2")
        if coeffs[0] != 1:
            raise ValueError("polynomial must be monic")
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs[-1] == 0:
            raise ValueError("X divides the polynomial; not irreducible")
        for r in _divisors(abs(coeffs[-1])):
            if self.evaluate(r) == 0 or self.evaluate(-r) == 0:
                raise ValueError("rational root %d; polynomial is reducible" % r)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def evaluate(self, x):
        """f(x) by Horner's rule; exact for an int or a Fraction x."""
        acc = 0
        for c in self.coefficients:
            acc = acc * x + c
        return acc

    def sign_at_dyadic(self, num, bits):
        """Sign of f(num / 2**bits), computed exactly in integers."""
        d = self.degree
        acc = 0
        for j, c in enumerate(self.coefficients):
            acc += c * num ** (d - j) * (1 << (bits * j))
        return (acc > 0) - (acc < 0)

    def reduction_vector(self):
        """Vector r with beta**d = sum r[i] * beta**i (ascending)."""
        coeffs = self.coefficients
        d = self.degree
        return tuple(-coeffs[d - i] for i in range(d))

    def __eq__(self, other):
        return isinstance(other, MinimalPolynomial) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return "MinimalPolynomial(%r)" % (list(self.coefficients),)

    def __str__(self):
        terms = []
        d = self.degree
        for j, c in enumerate(self.coefficients):
            if c == 0:
                continue
            p = d - j
            mono = "X^%d" % p if p > 1 else ("X" if p == 1 else "")
            if p == 0:
                terms.append("%+d" % c)
            elif c == 1:
                terms.append("+" + mono)
            elif c == -1:
                terms.append("-" + mono)
            else:
                terms.append("%+d%s" % (c, mono))
        out = "".join(terms)
        return out[1:] if out.startswith("+") else out


def _divisors(n):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


class BetaBase:
    """A real algebraic-integer base beta > 1.

    Holds the minimal polynomial, a rational isolating interval with
    lo > 1 and a sign change across it, cached reduced power vectors of
    beta, and cached dyadic enclosures of the powers at escalating
    precision.  The cached state only ever tightens; results never depend
    on how far the cache has been refined.
    """

    def __init__(self, poly, isolating_interval, name=None):
        if not isinstance(poly, MinimalPolynomial):
            poly = MinimalPolynomial(poly)
        lo, hi = isolating_interval
        lo = Fraction(lo)
        hi = Fraction(hi)
        if not lo < hi:
            raise ValueError("empty interval")
        if not lo > 1:
            raise ValueError("isolating interval must have lo > 1")
        slo = _fraction_sign(poly.evaluate(lo))
        shi = _fraction_sign(poly.evaluate(hi))
        if slo == 0 or shi == 0 or slo == shi:
            raise ValueError("isolating interval endpoints must straddle a root")
        self.poly = poly
        self.interval = (lo, hi)
        self.name = name
        self.degree = poly.degree
        self._red = poly.reduction_vector()
        self._sign_at_lo = slo
        self._powvecs = [tuple([1] + [0] * (poly.degree - 1))]
        # dyadic snapshot (bits, num, plo, phi): beta in [num, num+1] / 2**bits
        # and beta**i in [plo[i], phi[i]] / 2**bits; never mutated, only replaced
        self._dy = (0, None, None, None)
        self._refine_dyadic(_SIGN_BITS_START)

    # -- exact vector arithmetic -------------------------------------------

    def unit_vector(self):
        return self._powvecs[0]

    def shift_vector(self, v):
        """Vector of beta * value(v), reduced by the minimal polynomial."""
        c = v[-1]
        if c:
            red = self._red
            return (c * red[0],) + tuple([a + c * r for a, r in zip(v, red[1:])])
        return (0,) + v[:-1]

    def power_vector(self, n):
        """Reduced vector of beta**n, n >= 0; cached."""
        if n < 0:
            raise ValueError("negative power %d" % n)
        pv = self._powvecs
        if len(pv) <= n:
            pv = list(pv)
            while len(pv) <= n:
                pv.append(self.shift_vector(pv[-1]))
            self._powvecs = pv  # one assignment: no thread sees a partial extension
        return pv[n]

    def digits_vector(self, digits, low=0):
        """Vector of sum digits[i] * beta**(low + i), the digits least significant first.

        The one evaluation of digits in Z[beta], by Horner steps from the
        most significant digit, then low shifts; it reads and grows no cache.
        """
        if low < 0:
            raise ValueError("negative low %d" % low)
        v = (0,) * self.degree
        for dig in reversed(tuple(digits)):
            v = self.shift_vector(v)
            v = (v[0] + dig,) + v[1:]
        for _ in range(low):
            v = self.shift_vector(v)
        return v

    # -- dyadic enclosures ---------------------------------------------------

    def _refine_dyadic(self, bits):
        """The dyadic snapshot at >= bits of precision, bisecting f if needed.

        Bisection starts from the current snapshot's [num, num + 1] when
        there is one, so raising the precision costs one step per new bit.
        """
        snap = self._dy
        if bits <= snap[0]:
            return snap
        if snap[1] is not None:
            lo_num = snap[1] << (bits - snap[0])
            hi_num = (snap[1] + 1) << (bits - snap[0])
        else:
            lo, hi = self.interval
            lo_num = (lo.numerator << bits) // lo.denominator
            hi_num = -((-hi.numerator << bits) // hi.denominator)
        slo = self._sign_at_lo
        while hi_num - lo_num > 1:
            mid = (lo_num + hi_num) // 2
            s = self.poly.sign_at_dyadic(mid, bits)
            if s == 0 or s == slo:
                lo_num = mid
            else:
                hi_num = mid
        snap = (bits, lo_num, [1 << bits], [1 << bits])
        self._dy = snap  # one assignment: no thread sees bits and num out of step
        return snap

    def _powers_dyadic(self, bits, n):
        """Integer enclosures [plo[i], phi[i]] / 2**bits of beta**i, i <= n."""
        bits, blo, plo, phi = self._refine_dyadic(bits)
        if len(plo) <= n:
            plo, phi = list(plo), list(phi)
            bhi = blo + 1
            while len(plo) <= n:
                plo.append((plo[-1] * blo) >> bits)
                phi.append(-((-phi[-1] * bhi) >> bits))
            if self._dy[0] == bits:  # never replace a finer snapshot
                self._dy = (bits, blo, plo, phi)
        return plo, phi, bits

    def value_enclosure(self, v, bits=0, n=0):
        """(L, H, plo, phi, bits), all read from one dyadic snapshot.

        value(v) lies in [L, H] / 2**bits, and beta**i in [plo[i], phi[i]] /
        2**bits for every i <= n; the precision is at least the bits asked
        for, and at least the base's current one.  Taking both from one
        snapshot keeps them at one precision while another thread raises it.
        """
        if n < 0:
            raise ValueError("negative power %d" % n)
        plo, phi, bits = self._powers_dyadic(bits, max(n, len(v) - 1))
        L = H = 0
        for i, c in enumerate(v):
            if c > 0:
                L += c * plo[i]
                H += c * phi[i]
            elif c < 0:
                L += c * phi[i]
                H += c * plo[i]
        return L, H, plo, phi, bits

    def _enclosure_until(self, v, n, answer):
        """answer(L, H, plo, phi) for the first value_enclosure(v, bits, n) where it is not None.

        The one loop that raises precision: bits start at the base's own
        precision and double up to the cap.
        """
        bits = 0
        while bits <= _SIGN_BITS_LIMIT:
            L, H, plo, phi, bits = self.value_enclosure(v, bits, n)
            out = answer(L, H, plo, phi)
            if out is not None:
                return out
            bits *= 2
        raise RuntimeError("undecided at the precision limit: %r" % (v,))

    def _below_power(self, v, scale):
        """The first j, doubling from len(v), with j >= scale or |value(v)| < beta**j proved."""
        j = len(v)
        while j < scale:
            L, H, plo = self.value_enclosure(v, 0, j)[:3]
            if max(H, -L) < plo[j]:
                break
            j *= 2
        return j

    def sign_of_vector(self, v):
        """Certified sign of value(v); exact zero test first, so this terminates."""
        if not any(v):
            return 0
        return self._enclosure_until(v, 0, lambda L, H, *_: 1 if L > 0 else -1 if H < 0 else None)

    def floor_of_vector(self, v, scale=0):
        """Exact floor of beta**(-scale) * value(v).

        The enclosure is refined until it pins the floor to n or n + 1; one
        exact sign, of value(v) - (n + 1) * beta**scale, then picks between
        them, so a floor asks at most one sign.  At a large scale,
        |value(v)| < beta**j <= beta**scale (:meth:`_below_power`) makes
        the floor 0 or -1, by the sign.
        """
        if self._below_power(v, scale) < scale:
            return -1 if self.sign_of_vector(v) < 0 else 0

        def pinned(L, H, plo, phi):
            n = L // phi[scale] if L >= 0 else L // plo[scale]
            top = H // plo[scale] if H >= 0 else H // phi[scale]
            return (n, top) if top - n <= 1 else None
        n, top = self._enclosure_until(v, scale, pinned)
        above = tuple(a - top * p for a, p in zip(v, self.power_vector(scale)))
        return top if n < top and self.sign_of_vector(above) >= 0 else n

    def float_value(self, v, scale=0):
        """Double-precision approximation of beta**(-scale)*value(v) (reporting only).

        Midpoints of the enclosures of value(v) and beta**scale, divided as
        integers, refined until the enclosure of value(v) excludes 0 and is
        narrower than 2**-60 of its size, however large the coefficients:
        within a few units in the last place, 0.0 for the zero vector and on
        underflow.  At a large scale, |value(v)| < beta**j
        (:meth:`_below_power`) bounds the result by lo**(j - scale), lo the
        lower end of the isolating interval; below half the smallest
        subnormal that is 0.0, with no enclosure of beta**scale.
        """
        if not any(v):
            return 0.0
        if (scale - self._below_power(v, scale)) * math.log2(self.interval[0]) > _UNDERFLOW_LOG2:
            return 0.0

        def close(L, H, plo, phi):
            if (L > 0 or H < 0) and (H - L) << 60 < min(abs(L), abs(H)):
                return (L + H) / (plo[scale] + phi[scale])
        return self._enclosure_until(v, scale, close)

    def __eq__(self, other):
        # same polynomial AND overlapping isolating intervals: a polynomial
        # can have several real roots > 1, and intervals isolating the same
        # root always intersect (both contain it) while intervals isolating
        # different roots cannot
        return (isinstance(other, BetaBase) and self.poly == other.poly
                and self.interval[0] <= other.interval[1]
                and other.interval[0] <= self.interval[1])

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        if self.name:
            return "BetaBase(%s)" % self.name
        return "BetaBase(%s)" % self.poly


def _fraction_sign(x):
    return (x > 0) - (x < 0)


class QuotientValue(Immutable):
    """beta**(-scale) * (c_0 + c_1 beta + ... + c_{d-1} beta**(d-1)), scale >= 0.

    A value keeps the (coeffs, scale) it is built with: no division by beta
    folds beta**(-n) into coefficients that grow with n on a unit base.
    ``==`` is value equality (:func:`values_equal`), false across bases,
    and the hash is the base's, so equal values hash alike.
    """

    __slots__ = ("base", "coeffs", "scale")

    def __init__(self, base, coeffs, scale=0):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != base.degree:
            raise ValueError("coefficient vector must have length %d" % base.degree)
        if scale < 0:
            raise ValueError("scale must be non-negative")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "scale", scale)

    @classmethod
    def from_int(cls, base, n):
        return cls(base, (n,) + (0,) * (base.degree - 1))

    @classmethod
    def beta_power(cls, base, n):
        """The value beta**n for any integer n (negative n raises the scale)."""
        if n >= 0:
            return cls(base, base.power_vector(n))
        return cls(base, base.unit_vector(), -n)

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, QuotientValue) and self.base == other.base
                and values_equal(self, other))

    def __hash__(self):
        return hash(self.base)

    def __repr__(self):
        return "QuotientValue(%r, scale=%d)" % (list(self.coeffs), self.scale)

    def __float__(self):
        return self.base.float_value(self.coeffs, self.scale)


def _check_same_base(a, b):
    if a.base != b.base:
        raise ValueError("values live over different bases: %r vs %r" % (a.base, b.base))


def qv_add(a, b):
    """Exact sum over the common base, at the larger of the two scales."""
    _check_same_base(a, b)
    base = a.base
    e = max(a.scale, b.scale)
    va = base.digits_vector(a.coeffs, e - a.scale)
    vb = base.digits_vector(b.coeffs, e - b.scale)
    return QuotientValue(base, tuple(x + y for x, y in zip(va, vb)), e)


def qv_neg(a):
    return QuotientValue(a.base, tuple(-c for c in a.coeffs), a.scale)


def qv_sub(a, b):
    return qv_add(a, qv_neg(b))


def qv_mul_beta_pow(a, n):
    """Exact product value(a) * beta**n; negative n increases the scale."""
    if n == 0:
        return a
    shift = max(n - a.scale, 0)
    return QuotientValue(a.base, a.base.digits_vector(a.coeffs, shift), a.scale - n + shift)


def values_equal(a, b):
    """True iff value(a) = value(b), decided exactly.

    Raising the smaller scale to the larger reduces the question to equality
    of two integer vectors, which is valid because f is the minimal
    polynomial of beta (the power basis is Q-linearly independent).
    """
    _check_same_base(a, b)
    if a.scale < b.scale:
        a, b = b, a
    return a.coeffs == a.base.digits_vector(b.coeffs, a.scale - b.scale)


def qv_sign(a):
    """Certified sign of the value (-1, 0, +1)."""
    return a.base.sign_of_vector(a.coeffs)


def qv_compare(a, b):
    """Certified three-way comparison of values."""
    return qv_sign(qv_sub(a, b))


def eval_digit_string(s, base):
    """Exact value of sum s_j beta**j as a QuotientValue.

    The scale of the result is the number of fractional positions of s.
    """
    if not isinstance(s, DigitString):
        raise TypeError("expected DigitString")
    lsd = s.lsd_exponent
    return QuotientValue(base, base.digits_vector(reversed(s.digits), max(lsd, 0)), max(-lsd, 0))


def certified_floor(v):
    """Exact floor of the real value of v (see :meth:`BetaBase.floor_of_vector`)."""
    return v.base.floor_of_vector(v.coeffs, v.scale)


def self_reciprocal(poly):
    """True iff the coefficient list is palindromic or anti-palindromic.

    A real algebraic integer with a conjugate on the unit circle forces its
    minimal polynomial to equal plus or minus its own reciprocal, so this is
    a cheap necessary-condition detector (never a proof).
    """
    if not isinstance(poly, MinimalPolynomial):
        poly = MinimalPolynomial(poly)
    c = poly.coefficients
    rev = tuple(reversed(c))
    return c == rev or c == tuple(-x for x in rev)


# -- presets -----------------------------------------------------------------

def fibonacci_base():
    return dbonacci_base(2)


def tribonacci_base():
    return dbonacci_base(3)


def dbonacci_base(d):
    """Root > 1 of X^d = X^(d-1) + ... + X + 1; lies in (3/2, 2) for d >= 2."""
    if d < 2:
        raise ValueError("d-bonacci needs d >= 2")
    coeffs = [1] + [-1] * d
    name = {2: "fibonacci", 3: "tribonacci"}.get(d, "dbonacci:%d" % d)
    return BetaBase(coeffs, (Fraction(3, 2), Fraction(2)), name=name)


def quadratic_plus_base(a, b):
    """Positive root of X**2 = a X + b, 1 <= b <= a; lies in (a, a+1)."""
    if not (1 <= b <= a):
        raise ValueError("quadratic-plus needs 1 <= b <= a")
    lo = Fraction(a) if a >= 2 else Fraction(5, 4)
    return BetaBase([1, -a, -b], (lo, Fraction(a + b)), name="quadratic-plus:%d,%d" % (a, b))


def quadratic_minus_base(a, b):
    """Larger root of X**2 = a X - b, a >= b+2 >= 3; lies in (a-1, a)."""
    if not (b >= 1 and a >= b + 2):
        raise ValueError("quadratic-minus needs b >= 1 and a >= b + 2")
    return BetaBase([1, -a, b], (Fraction(a - 1), Fraction(a)), name="quadratic-minus:%d,%d" % (a, b))


def base_from_spec(spec):
    """Resolve a base preset name or raw coefficient list.

    Accepted forms: ``fibonacci``, ``tribonacci``, ``dbonacci:d``,
    ``quadratic-plus:a,b``, ``quadratic-minus:a,b``, or a comma-separated
    monic coefficient list highest degree first such as ``1,-1,-1``.
    """
    spec = spec.strip().lower()
    if spec == "fibonacci":
        return fibonacci_base()
    if spec == "tribonacci":
        return tribonacci_base()
    if spec.startswith("dbonacci:"):
        return dbonacci_base(int(spec.split(":", 1)[1]))
    if spec.startswith("quadratic-plus:"):
        a, b = (int(t) for t in spec.split(":", 1)[1].split(","))
        return quadratic_plus_base(a, b)
    if spec.startswith("quadratic-minus:"):
        a, b = (int(t) for t in spec.split(":", 1)[1].split(","))
        return quadratic_minus_base(a, b)
    try:
        coeffs = [int(t) for t in spec.split(",")]
    except ValueError:
        raise ValueError("unknown base spec %r" % spec) from None
    return BetaBase(coeffs, _bracket_dominant_root(MinimalPolynomial(coeffs)))


def _bracket_dominant_root(poly):
    """Bracket the largest real root > 1 by grid search plus sign change.

    Good enough for the presets' cousins; callers with awkward polynomials
    should pass an explicit isolating interval to BetaBase.
    """
    bound = 1 + max(abs(c) for c in poly.coefficients[1:])
    step = Fraction(1)
    for _ in range(12):
        x = Fraction(bound)
        fx = poly.evaluate(x)
        while x - step > 1:
            y = x - step
            fy = poly.evaluate(y)
            if (fy > 0) != (fx > 0):
                return (y, x)
            x, fx = y, fy
        step /= 2
    raise ValueError("could not isolate a real root > 1; supply an interval")
