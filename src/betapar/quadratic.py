"""Greatest-digit-elimination rules for quadratic Pisot bases, and their adders.

Three explicit eliminations are shipped, one per family of quadratic bases:

* ``gde_plus(a, b)``          beta^2 = a beta + b,   a >= b+2, b >= 2:
  {0..a+b+1} -> {0..a+b}
* ``gde_plus_special(a)``     beta^2 = a beta + a-1, a >= 3:
  {0..2a} -> {0..2a-1}
* ``gde_minus(a, b)``         beta^2 = a beta - b,   a >= b+2, b >= 1:
  {0..a+b-1} -> {0..a+b-2}

Each rule first selects a carry q_j from a short case table reading the
digits near position j, then outputs
x_j = z_j - a q_j -(+) b q_{j+1} + q_{j-1}, which deducts q_j times a
representation of zero (beta^2 - a beta -+ b) and therefore cannot change
the value.  The case tables are transcribed verbatim; construction
enumerates every window, which both asserts that all outputs stay inside
the declared alphabet and freezes the table for fast application.  Any
transcription slip fails loudly at construction or in the exhaustive
verification sweeps.

Note on window widths: the carry q_j reads one digit each way (two for the
special and minus tables), but the output x_j also consumes q_{j+1} and
q_{j-1}, so the full digit maps are 5-, 6- and 7-local respectively.

The carry choice depends on neighbouring digits, so all three rules are
neighbour-sensitive.
"""

from __future__ import annotations

from .algebraic import (
    QuotientValue,
    qv_add,
    qv_mul_int,
    quadratic_minus_base,
    quadratic_plus_base,
    values_equal,
)
from .conversion import (
    LocalRule,
    make_adder_by_elimination,
    make_shifted_adder,
    random_strings,
    verify_conversion,
)
from .digits import Alphabet

_SHIFT_VERIFY_SEED = 1729
_SHIFT_VERIFY_STRINGS = 200


def _assert_zero_identity(base, a, b_signed):
    """beta^2 - a beta - b_signed must be exactly zero in Z[beta]."""
    lhs = QuotientValue.beta_power(base, 2)
    rhs = qv_add(qv_mul_int(QuotientValue.beta_power(base, 1), a),
                 QuotientValue.from_int(base, b_signed))
    if not values_equal(lhs, rhs):
        raise AssertionError("base polynomial does not match the elimination identity")


def gde_plus(a, b):
    """Greatest digit elimination for beta^2 = a beta + b, a >= b+2, b >= 2."""
    if not (b >= 2 and a >= b + 2):
        raise ValueError("gde_plus needs a >= b+2 and b >= 2")
    base = quadratic_plus_base(a, b)
    _assert_zero_identity(base, a, b)
    top = a + b + 1

    def q(zp, z, zm):
        if z == top:
            return 1
        if z == a + b and (zp <= b - 1 or zm >= a):
            return 1
        if a + 1 <= z <= a + b - 1 and zp <= b - 1:
            return 1
        if z == a and zp <= b - 1 and zm >= a:
            return 1
        if z <= b - 1 and zp >= a:
            return -1
        return 0

    def window_fn(w):
        # w = (z_{j+2}, z_{j+1}, z_j, z_{j-1}, z_{j-2})
        return w[2] - a * q(w[1], w[2], w[3]) - b * q(w[0], w[1], w[2]) + q(w[2], w[3], w[4])

    return LocalRule(base, 2, 2, Alphabet(0, top), Alphabet(0, a + b), window_fn,
                     name="gde-plus:%d,%d" % (a, b))


def gde_plus_special(a):
    """Greatest digit elimination for beta^2 = a beta + (a-1), a >= 3.

    This is the a = b+1 member of the plus family, where the generic table
    does not apply; its case table reads one more digit ahead.
    """
    if a < 3:
        raise ValueError("gde_plus_special needs a >= 3")
    base = quadratic_plus_base(a, a - 1)
    _assert_zero_identity(base, a, a - 1)
    top = 2 * a

    def q(zpp, zp, z, zm):
        if z == 2 * a and zp <= 2 * a - 1:
            return 1
        if z == 2 * a and zp == 2 * a and zpp >= a:
            return 1
        if z == 2 * a - 1 and zp <= a - 1:
            return 1
        if z == 2 * a - 1 and a <= zp <= 2 * a - 1 and zm >= a:
            return 1
        if z == 2 * a - 1 and zp == 2 * a and zpp >= a and zm >= a:
            return 1
        if a + 1 <= z <= 2 * a - 2 and zp <= a - 1:
            return 1
        if z == a and zp <= a - 1 and zm >= a:
            return 1
        if z <= a - 2 and zp >= a:
            return -1
        return 0

    def window_fn(w):
        # w = (z_{j+3}, z_{j+2}, z_{j+1}, z_j, z_{j-1}, z_{j-2})
        return (w[3] - a * q(w[1], w[2], w[3], w[4])
                - (a - 1) * q(w[0], w[1], w[2], w[3]) + q(w[2], w[3], w[4], w[5]))

    return LocalRule(base, 2, 3, Alphabet(0, top), Alphabet(0, 2 * a - 1), window_fn,
                     name="gde-plus-special:%d" % a)


def gde_minus(a, b):
    """Greatest digit elimination for beta^2 = a beta - b, a >= b+2, b >= 1."""
    if not (b >= 1 and a >= b + 2):
        raise ValueError("gde_minus needs a >= b+2 and b >= 1")
    base = quadratic_minus_base(a, b)
    _assert_zero_identity(base, a, -b)
    top = a + b - 1

    def q(zpp, zp, z, zm, zmm):
        if z == a + b - 1:
            return 1
        if a - 1 <= z <= a + b - 2 and (zp >= a - 1 or zm >= a - 1):
            return 1
        if z == a - 2:
            # both-sides cases; note the last one requires all four neighbours
            if zp == a + b - 1 and zm == a + b - 1:
                return 1
            if zp == a + b - 1 and zm >= a - 1 and zmm >= a - 1:
                return 1
            if zm == a + b - 1 and zp >= a - 1 and zpp >= a - 1:
                return 1
            if zp >= a - 1 and zm >= a - 1 and zpp >= a - 1 and zmm >= a - 1:
                return 1
        return 0

    def window_fn(w):
        # w = (z_{j+3}, z_{j+2}, z_{j+1}, z_j, z_{j-1}, z_{j-2}, z_{j-3})
        return (w[3] - a * q(w[1], w[2], w[3], w[4], w[5])
                + b * q(w[0], w[1], w[2], w[3], w[4]) + q(w[2], w[3], w[4], w[5], w[6]))

    return LocalRule(base, 3, 3, Alphabet(0, top), Alphabet(0, a + b - 2), window_fn,
                     name="gde-minus:%d,%d" % (a, b))


_KINDS = ("plus", "plus_special", "minus")


def gde_rule(kind, a, b=None):
    if kind == "plus":
        return gde_plus(a, b)
    if kind == "plus_special":
        return gde_plus_special(a)
    if kind == "minus":
        return gde_minus(a, b)
    raise ValueError("kind must be one of %s" % (_KINDS,))


def _adder_top(kind, a, b):
    if kind == "plus":
        return a + b
    if kind == "plus_special":
        return 2 * a - 1
    return a + b - 2


def quadratic_adder(kind, a, b=None):
    """Full parallel adder on the attained alphabet for the given family.

    Target alphabets: plus {0..a+b}, plus_special {0..2a-1}, minus
    {0..a+b-2}; these cardinalities meet the corresponding lower bounds.
    """
    rule = gde_rule(kind, a, b)
    return make_adder_by_elimination(rule, _adder_top(kind, a, b))


def shifted_adder(kind, a, b=None, d=0, verify=True):
    """Adder on the shifted alphabet {-d .. M-d} for the given family.

    Allowed shifts: 0 <= d <= a+b for the plus families (any contiguous
    alphabet of the attained cardinality containing 0), and b <= d <= a-2
    for the minus family.  The construction conjugates the elimination rule
    by fixed letters; the adder, as its own A+A -> A conversion, is
    oracle-verified right here on 200 strings with a fixed seed;
    a verification failure is a bug, not a recoverable condition.
    """
    M = _adder_top(kind, a, b)
    if kind == "minus":
        if not (b <= d <= a - 2):
            raise ValueError("minus-family shift needs b <= d <= a-2, got d=%d" % d)
    else:
        if not (0 <= d <= M):
            raise ValueError("shift out of range: 0 <= d <= %d, got d=%d" % (M, d))
    rule = gde_rule(kind, a, b)
    adder = make_shifted_adder(rule, M, d)
    if verify and d != 0:
        report = verify_conversion(adder, random_strings(_SHIFT_VERIFY_STRINGS,
                                                         _SHIFT_VERIFY_SEED))
        if report.verdict != "pass":
            raise AssertionError("shifted adder failed oracle verification: %s"
                                 % report.to_json())
    return adder
