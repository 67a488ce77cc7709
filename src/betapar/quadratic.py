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
the value.  The three rules differ only in their case tables, which are
transcribed verbatim; :func:`_gde` is the rest of the construction.  It
tabulates the carry once, and the rule applies itself through that table:
no window table is built.  A digit list reads it by a rolling index
(:meth:`_CarryRule.outputs`); an adder's fold reads it word-parallel, as a
carry program compiled from the table on the first fold
(:meth:`_CarryRule.packed_step`).  Every output digit is still checked
against the declared alphabet when it is produced, and any transcription
slip fails loudly there or in the exhaustive verification sweeps.

Note on window widths: the carry q_j reads one digit each way (two ahead
for the special table, two each way for the minus table), but the output
x_j also consumes q_{j+1} and q_{j-1}, so the full digit maps are 5-, 6-
and 7-local respectively.  Every adder takes its alphabet from its rule.

The carry choice depends on neighbouring digits, so all three rules are
neighbour-sensitive.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_, or_

from .algebraic import quadratic_minus_base, quadratic_plus_base
from .conversion import ChainAdder, LocalRule
from .digits import Alphabet


class _CarryRule(LocalRule):
    """A GDE rule that applies itself through its carry table; see :func:`_gde`."""

    def outputs(self, padded):
        """The window loop's outputs: a rolling carry index gives every q_j, then x_j."""
        carry, n, high, a, b = self._carry
        i = 0
        q = [carry[(i := i % high * n + d)] for d in padded]  # q[k]: carry of digits ending at k
        k = self.p - 3  # from q[k] on, each index holds all reach = p - 2 digits
        out = [z - a * q0 - b * qa + qb for z, qa, q0, qb
               in zip(padded[self.anticipation:], q[k:], q[k + 1:], q[k + 2:])]
        if min(out) < 0 or max(out) > n - 2:  # outside {0..top-1}
            return LocalRule.outputs(self, padded)  # raises ValueError naming the window
        return out

    def packed_step(self, width):
        """The layer on a packed padded frame of ``width`` digits, or None if a byte may overflow.

        Digit i of the padded list sits in byte width - 1 - i of the packed
        int z, so a shift by 8 bits moves every digit one place.  The step
        returns the packed outputs, 0 in the t pad bytes above and the r
        below, computed on every byte at once (SIMD within a register):

        * [z >= v] is ((z | H) - v ONES) & H, H bit 7 of every byte and ONES
          a 1 in each, and an interval of values is the XOR of two of them;
        * [q_j = +1] and [q_j = -1] are ORs of ANDs of interval masks
          shifted onto q_j's byte, one AND per box of the carry program
          (:func:`_carry_program`), compiled on the first call and kept on
          the rule in one assignment;
        * x_j = z_j - a q_j - b q_{j+1} + q_{j-1} is pos - neg, pos the terms
          that add and neg those that subtract, so (pos | H) - neg holds
          128 + x_j in every byte where x_j >= 0, and no borrow crosses a
          byte.

        pos stays below top + a + |b| + 2, which must not reach bit 7; a
        rule whose sums may is folded as lists.  If a byte leaves
        {0..top-1}, the window loop reads the unpacked frame and raises
        ValueError naming the window, as :meth:`outputs` does.
        """
        carry, n, high, a, b = self._carry
        if n + a + abs(b) >= 128:
            return None
        try:
            cuts, terms, plus, minus = self._program
        except AttributeError:
            cuts, terms, plus, minus = self._program = _carry_program(
                carry, n, self.anticipation - 1)
        r, t = self.memory, self.anticipation
        ones = (1 << 8 * width) // 255
        hi = ones << 7
        # bit 7 of the bytes whose carry reads the frame only, and of the output bytes
        exact = ((1 << 8 * (width - r - t + 2)) // 255) << 8 * (r - 1) + 7
        mid = ((1 << 8 * (width - r - t)) // 255) << 8 * r
        mid_hi = mid << 7
        low = mid * 127
        tops = mid * (n - 1)
        subs = [v * ones for v in cuts]
        bb = abs(b)

        def step(z):
            zh = z | hi
            ge = [hi, *[(zh - s) & hi for s in subs], 0]  # [z >= v] for v = 0, the cuts, top + 1
            masks = [(ge[i] ^ ge[j]) >> s if s >= 0 else (ge[i] ^ ge[j]) << -s
                     for i, j, s in terms]
            qp, qm = [(reduce(or_, [reduce(and_, map(masks.__getitem__, box)) for box in boxes], 0)
                       & exact) >> 7 for boxes in (plus, minus)]  # 1 where q_j = +1, -1
            up, down = (qm, qp) if b > 0 else (qp, qm)  # q_{j+1} where -b q_{j+1} adds, subtracts
            pos = z + a * qm + bb * (up >> 8) + (qp << 8)
            neg = a * qp + bb * (down >> 8) + (qm << 8)
            x = (pos | hi) - neg  # 128 + x_j in every output byte where x_j >= 0
            if x & mid_hi == mid_hi and not (x - tops) & mid_hi:  # and x_j <= top - 1
                return x & low
            # the window loop raises ValueError naming the window
            out = LocalRule.outputs(self, list(z.to_bytes(width, "big")))
            return int.from_bytes(bytes(out), "big") << 8 * r

        return step


def _carry_program(carry, n, ahead):
    """The carry table as boxes of threshold masks, for :meth:`_CarryRule.packed_step`.

    The flat table splits on its most significant digit into runs of equal
    sub-tables, and each run recursively, until a piece is constant.  A
    piece worth q = +1 or -1 is a box: an interval [v, w) of values for each
    digit it constrains, so [q_j = q] is the OR of its boxes' ANDs of
    interval masks [z >= v] ^ [z >= w].  Returns the cuts v, 0 < v <= top,
    whose threshold masks the intervals read; the terms, one per distinct
    (digit, interval): the indices of its two masks in [H, *cuts, 0] and the
    shift in bits that moves the digit's byte onto q_j's; and the boxes of
    q = +1 and of q = -1 as tuples of term indices.
    """
    boxes = {1: [], -1: []}

    def split(start, size, k, box):
        piece = carry[start:start + size]
        if piece.count(piece[0]) == size:
            if piece[0]:
                boxes[piece[0]].append(box)
            return
        size //= n
        runs = itertools.groupby(range(n), lambda v: carry[start + v * size:start + (v + 1) * size])
        for _, run in runs:
            v, *rest = run
            w = v + 1 + len(rest)
            split(start + v * size, size, k + 1, box if (v, w) == (0, n) else box + ((k, v, w),))

    split(0, len(carry), 0, ())
    intervals = sorted({term for box in boxes[1] + boxes[-1] for term in box})
    cuts = sorted({v for _, lo, hi in intervals for v in (lo, hi)} - {0, n})
    index = {v: i for i, v in enumerate([0, *cuts, n])}
    terms = [(index[lo], index[hi], 8 * (ahead - k)) for k, lo, hi in intervals]
    term = {interval: i for i, interval in enumerate(intervals)}
    plus, minus = ([tuple(term[i] for i in box) for box in boxes[q]] for q in (1, -1))
    return cuts, terms, plus, minus


def _gde(base, a, b_signed, top, ahead, behind, q, name):
    """The elimination {0..top} -> {0..top-1} with carry q, for beta^2 = a beta + b_signed.

    q reads the ``ahead`` digits above z_j, z_j itself and the ``behind``
    digits below it, most significant first.  It is tabulated once, as a
    flat list indexed by those digits in radix top + 1; the output
    x_j = z_j - a q_j - b_signed q_{j+1} + q_{j-1} reads it at j+1, j and
    j-1 (strings by a rolling index, single windows through ``window_fn``),
    so the rule has memory behind+1 and anticipation ahead+1.
    """
    if base.poly.reduction_vector() != (b_signed, a):  # f is minimal: beta^2 = a beta + b_signed
        raise AssertionError("base polynomial does not match the elimination identity")
    n = top + 1
    reach = ahead + 1 + behind
    carry = list(itertools.starmap(q, itertools.product(range(n), repeat=reach)))
    high = n ** (reach - 1)

    def window_fn(w):
        # w = (z_{j+ahead+1}, ..., z_j, ..., z_{j-behind-1}) with z_j at w[ahead + 1];
        # q_{j+1}, q_j and q_{j-1} read w[0:reach], w[1:reach+1] and w[2:]
        above = 0
        for d in w[:reach]:
            above = above * n + d
        here = above % high * n + w[reach]
        below = here % high * n + w[reach + 1]
        return w[ahead + 1] - a * carry[here] - b_signed * carry[above] + carry[below]

    rule = _CarryRule(base, behind + 1, ahead + 1, Alphabet(0, top), Alphabet(0, top - 1),
                      window_fn, name=name, tabulate_threshold=0)
    rule._carry = carry, n, high, a, b_signed
    return rule


def gde_plus(a, b):
    """Greatest digit elimination for beta^2 = a beta + b, a >= b+2, b >= 2."""
    if not (b >= 2 and a >= b + 2):
        raise ValueError("gde_plus needs a >= b+2 and b >= 2")
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

    return _gde(quadratic_plus_base(a, b), a, b, top, 1, 1, q, "gde-plus:%d,%d" % (a, b))


def gde_plus_special(a):
    """Greatest digit elimination for beta^2 = a beta + (a-1), a >= 3.

    This is the a = b+1 member of the plus family, where the generic table
    does not apply; its case table reads one more digit ahead.
    """
    if a < 3:
        raise ValueError("gde_plus_special needs a >= 3")

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

    return _gde(quadratic_plus_base(a, a - 1), a, a - 1, 2 * a, 2, 1, q,
                "gde-plus-special:%d" % a)


def gde_minus(a, b):
    """Greatest digit elimination for beta^2 = a beta - b, a >= b+2, b >= 1."""

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

    return _gde(quadratic_minus_base(a, b), a, -b, a + b - 1, 2, 2, q, "gde-minus:%d,%d" % (a, b))


def gde_rule(kind, a, b=None):
    if kind in ("plus", "minus") and b is None:
        raise ValueError("the %s family needs b" % kind)
    if kind == "plus":
        return gde_plus(a, b)
    if kind == "plus_special":
        return gde_plus_special(a)
    if kind == "minus":
        return gde_minus(a, b)
    raise ValueError("kind must be one of ('plus', 'plus_special', 'minus')")


def quadratic_family(base):
    """(kind, a, b) of the GDE family whose base polynomial is X^2 - a X -+ b."""
    coeffs = base.poly.coefficients
    if len(coeffs) == 3:
        _, c1, c0 = coeffs
        a, b = -c1, abs(c0)
        if c0 < 0:
            return ("plus_special" if b == a - 1 else "plus"), a, b
        return "minus", a, b
    raise ValueError("gde-chain addition needs a quadratic base, got %s" % base.poly)


def quadratic_adder(kind, a, b=None):
    """Full parallel adder on the elimination's output alphabet for the given family.

    Target alphabets: plus {0..a+b}, plus_special {0..2a-1}, minus
    {0..a+b-2}; these cardinalities meet the corresponding lower bounds.
    It is :func:`shifted_adder` at d = 0.
    """
    return shifted_adder(kind, a, b)


def shifted_adder(kind, a, b=None, d=0):
    """Adder on the shifted alphabet {-d .. M-d} for the given family.

    M is the top digit of the rule's output alphabet.  Allowed shifts:
    d = 0 for every family (the unshifted adder), 0 < d <= M for the plus
    families (any contiguous alphabet of the attained cardinality
    containing 0), and b <= d <= a-2 for the minus family.  A shifted
    adder conjugates the elimination rule by fixed letters: each layer
    applies the rule to u + c and subtracts c again, and
    :class:`ChainAdder` checks at construction that c is fixed.  The
    plateau argument of :mod:`betapar.conversion` carries the rule's value
    identity over to the conjugate, and every window the rule returns lies
    in its output alphabet, so a shifted adder keeps the value by
    construction, as the unshifted one does.
    """
    rule = gde_rule(kind, a, b)
    M = rule.output_alphabet.max_digit
    if d and kind == "minus" and not (b <= d <= a - 2):
        raise ValueError("minus-family shift needs d = 0 or b <= d <= a-2, got d=%d" % d)
    return ChainAdder(rule, Alphabet(-d, M - d))
