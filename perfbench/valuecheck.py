"""Independent correctness checks for the benchmark's operations.

Nothing here uses ``betapar``: digit strings are read only through their
``digits`` (most significant first) and ``msd_exponent`` attributes, and the
minimal polynomials and alphabets are written down from the paper.

A digit string u has value sum_j u_j beta^j.  Two strings have equal value
iff the minimal polynomial of beta divides sum_j (u_j - v_j) X^(j + m) over
Z[X], where m shifts every exponent to be non-negative.  The minimal
polynomials are monic, so integer long division decides this exactly.
"""

from __future__ import annotations


# Minimal polynomials, coefficients from X^0 upwards (all monic).
def quadratic_plus_poly(a, b):
    """X^2 - aX - b."""
    return (-b, -a, 1)


def quadratic_minus_poly(a, b):
    """X^2 - aX + b."""
    return (b, -a, 1)


TRIBONACCI_POLY = (-1, -1, -1, 1)  # X^3 - X^2 - X - 1


def family_poly(kind, a, b=None):
    """Minimal polynomial of a quadratic GDE family member."""
    if kind == "plus":
        return quadratic_plus_poly(a, b)
    if kind == "plus_special":
        return quadratic_plus_poly(a, a - 1)
    if kind == "minus":
        return quadratic_minus_poly(a, b)
    raise ValueError("unknown family %r" % kind)


# Alphabets the paper states, as inclusive (lo, hi) pairs.
def gde_alphabets(kind, a, b=None):
    """(input, output) alphabets of the greatest-digit-elimination rule."""
    if kind == "plus":
        return (0, a + b + 1), (0, a + b)
    if kind == "plus_special":
        return (0, 2 * a), (0, 2 * a - 1)
    if kind == "minus":
        return (0, a + b - 1), (0, a + b - 2)
    raise ValueError("unknown family %r" % kind)


def adder_alphabet(kind, a, b=None, d=0):
    """The shifted adder alphabet {-d .. M-d}; d = 0 is the full adder."""
    _, (_, top) = gde_alphabets(kind, a, b)
    return (-d, top - d)


TRIBONACCI_BLOCK_ALPHABET = (0, 2)
TRIBONACCI_SIGNED_ALPHABET = (-1, 1)
TRIBONACCI_BLOCK_PARAMS = (14, 2, 5)  # (k, ell, s)


def alphabet_size(alphabet):
    lo, hi = alphabet
    return hi - lo + 1


def exhaustive_count(alphabet, n):
    """Strings checked by an exhaustive sweep up to length n: |A|^n.

    The sweep skips leading zeros, so it visits the empty string and
    (|A| - 1) |A|^(L-1) strings of each length L; these sum to |A|^n.
    """
    return alphabet_size(alphabet) ** n


def remainder(poly, divisor):
    """Remainder of poly by a monic divisor, both ascending integer lists."""
    r = list(poly)
    n = len(divisor) - 1
    if divisor[-1] != 1:
        raise ValueError("divisor must be monic")
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i]
        if c:
            for j in range(n + 1):
                r[i - n + j] -= c * divisor[j]
    return r[:n]


def _difference(out, operands):
    """Ascending coefficients of sum (out - operands)_j X^(j + m)."""
    acc = {}
    for s, sign in [(out, 1)] + [(x, -1) for x in operands]:
        e = s.msd_exponent
        for dig in s.digits:
            if dig:
                acc[e] = acc.get(e, 0) + sign * dig
            e -= 1
    acc = {e: c for e, c in acc.items() if c}
    if not acc:
        return []
    lo = min(acc)
    coeffs = [0] * (max(acc) - lo + 1)
    for e, c in acc.items():
        coeffs[e - lo] = c
    return coeffs


def value_preserved(poly, out, *operands):
    """True iff value(out) = sum of value(operands) for the base of poly."""
    return not any(remainder(_difference(out, operands), poly))


def in_alphabet(s, alphabet):
    lo, hi = alphabet
    return all(lo <= dig <= hi for dig in s.digits)
