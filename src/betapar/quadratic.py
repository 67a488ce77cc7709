"""Greatest-digit-elimination rules for quadratic Pisot bases, and their adders.

Three explicit eliminations are shipped, one per family of quadratic bases:

* ``gde_plus(a, b)``          beta^2 = a beta + b,   a >= b+2, b >= 2:
  {0..a+b+1} -> {0..a+b}
* ``gde_plus_special(a)``     beta^2 = a beta + a-1, a >= 3:
  {0..2a} -> {0..2a-1}
* ``gde_minus(a, b)``         beta^2 = a beta - b,   a >= b+2, b >= 1:
  {0..a+b-1} -> {0..a+b-2}

Each rule first selects a carry q_j from a short case table reading the
digits near position j, then outputs x_j = z_j + g_0 q_{j+1} + g_1 q_j +
g_2 q_{j-1}, where g_0 + g_1 X + g_2 X^2 = g = f is the base's own minimal
polynomial, a representation of zero: the layer adds q_j beta^(j-1) g(beta)
= 0 at every j and therefore cannot change the value.  The three rules
differ only in their case tables, which are transcribed verbatim; :func:`_gde`
is the rest of the construction.  It tabulates the carry once and reads no
window when built: a digit list goes through the window loop, which keeps no
memo, and a fold reads the carry table word-parallel, one ``bytes.translate``
per digit of the window, through an automaton compiled from it on the first
fold (:meth:`_CarryRule.packed_step`).  Every output digit is still checked
against the declared alphabet when it is produced, and any transcription
slip fails loudly there or in the exhaustive verification sweeps.

Note on window widths: the carry q_j reads one digit each way (two ahead
for the special table, two each way for the minus table), but the output
x_j also consumes q_{j+1} and q_{j-1}, so the full digit maps are 5-, 6-
and 7-local respectively, and all three are neighbour-sensitive.  Every
adder takes its alphabet from its rule.
"""

from __future__ import annotations

import itertools

from .algebraic import quadratic_minus_base, quadratic_plus_base
from .conversion import ChainAdder, LocalRule, _window_step
from .digits import Alphabet


class _CarryRule(LocalRule):
    """A GDE rule: its window loop, and a packed step for folds; see :func:`_gde`."""

    def packed_step(self, width):
        """The layer on a packed padded frame of ``width`` digits, or None if a byte may overflow.

        Digit i of the padded list sits in byte width - 1 - i of the packed
        int z, so a shift by 8 bits moves every digit one place.  The step
        returns the packed outputs, 0 in the t pad bytes above and the r
        below, computed on every byte at once (SIMD within a register):

        * an automaton reads each carry window most significant digit first
          (:func:`_carry_tables`, compiled on the first call and kept on the
          rule in one assignment): one ``bytes.translate`` of z gives every
          byte its first state, each later digit one more translate of the
          state shifted a byte down plus the packed digit classes of z, and
          after reach passes every byte holds 1 where q = +1 and 2 where
          q = -1 for the window whose last digit it is;
        * lifted r - 2 bytes, the carry masks q+ and q- hold q_{j+1} on z_j's
          byte, so x = z + (q+ - q-) g(256) adds g_i q_{j+1-i} to z_j.  With
          g(256) = kp - kn, its positive and negative coefficients, x is
          (pos | H) - neg for pos = z + q+ kp + q- kn and neg = q- kp + q+ kn,
          H bit 7 of every byte: 128 + x_j in every byte where x_j >= 0.

        A rule returns None, and the fold steps it through its window loop,
        unless pos stays below bit 7 (top + sum |g_i| < 128) and no automaton
        index reaches 256.  Then no carry or borrow crosses a byte, and each
        carry reads its own window, so an output byte is a function of the p
        digits the window loop reads for it: the step equals the window loop
        on every frame once it does on a frame holding every window.  If a
        byte leaves {0..top-1}, the window loop raises ValueError naming the
        window.
        """
        carry, n, reach, g, kp, kn = self._carry
        try:
            tables = self._tables
        except AttributeError:
            tables = self._tables = n + sum(map(abs, g)) <= 128 and _carry_tables(carry, n, reach)
        if not tables:
            return None
        digit_class, first, *rest = tables
        r, t = self.memory, self.anticipation
        ones = (1 << 8 * width) // 255
        hi = ones << 7
        # 1 in the bytes whose q_{j+1} reads the frame only, and in the output bytes
        exact = ones >> 8 * (r + t - 2) << 8 * (r - 2)
        mid = ones >> 8 * (r + t) << 8 * r
        mid_hi = mid << 7
        low = mid * 127
        tops = mid * (n - 1)

        def step(z):
            frame = z.to_bytes(width, "big")
            dc = int.from_bytes(frame.translate(digit_class), "big")
            q = int.from_bytes(frame.translate(first), "big")
            for table in rest:
                q = int.from_bytes(((q >> 8) + dc).to_bytes(width, "big").translate(table), "big")
            q <<= 8 * (r - 2)  # from the byte of q_{j+1}'s last digit onto z_j's
            qp, qm = q & exact, (q >> 1) & exact  # 1 where q_{j+1} = +1, -1
            x = (z + qp * kp + qm * kn | hi) - qm * kp - qp * kn
            if x & mid_hi == mid_hi and not (x - tops) & mid_hi:  # 0 <= x_j <= top - 1
                return x & low
            return _window_step(self, width)(z)  # which raises ValueError naming the window

        return step


def _carry_tables(carry, n, reach):
    """The carry table as an automaton of 256-byte translate tables, for
    :meth:`_CarryRule.packed_step`; None if an index may reach 256.

    The automaton reads a window of ``reach`` digits most significant
    first.  Its state after k digits is the class of the prefix: the
    distinct sub-tables carry[idx*size:(idx+1)*size] of the n^k prefixes
    idx, each held by the start of its first occurrence.  From the second
    digit on, a digit moves it by the digit's class, the interval between
    two cuts v, where some state's next state differs at v - 1 and v.
    Returns the digit class of each digit and one table per digit read: the
    first maps a digit to its state, each later one maps state + digit
    class to the next state, and the last maps it to 1 where q = +1 and 2
    where q = -1.  A state is stored times the number of classes, so that
    one addition forms the next index.
    """
    size = len(carry)
    starts = [0]
    rows = []  # per digit read: for each state, the next state of every digit
    for _ in range(reach):
        size //= n
        seen = {}  # sub-table: (its state, its first start)
        rows.append([[seen.setdefault(tuple(carry[s:s + size]), (len(seen), s))[0]
                      for s in range(start, start + n * size, size)] for start in starts])
        starts = [s for _, s in seen.values()]
    cuts = [v for v in range(1, n)
            if any(row[v] != row[v - 1] for level in rows[1:] for row in level)]
    radix = len(cuts) + 1
    if max(len(level) for level in rows[1:]) * radix > 256:
        return None
    # what a table stores for each next state: the state times radix, or the carry's mask
    stored = [range(0, 256 * radix, radix)] * (reach - 1) + [[carry[s] % 3 for s in starts]]
    tables = [[stored[k][row[v]] for row in level for v in ([0, *cuts] if k else range(n))]
              for k, level in enumerate(rows)]
    digit_class = [sum(c <= v for c in cuts) for v in range(n)]
    return [bytes(table).ljust(256, b"\0") for table in (digit_class, *tables)]


def _gde(base, top, ahead, behind, q, name):
    """The elimination {0..top} -> {0..top-1} with carry q, adding q times g = f.

    q reads the ``ahead`` digits above z_j, z_j itself and the ``behind``
    digits below it, most significant first, and is tabulated once as a flat
    list indexed by those digits in radix top + 1.  With g = (g_0, g_1, g_2)
    the base's minimal polynomial, lowest degree first, the output x_j = z_j
    + g_0 q_{j+1} + g_1 q_j + g_2 q_{j-1} reads the carry at j+1, j and j-1,
    so the rule has memory behind+1 and anticipation ahead+1.
    """
    g = base.poly.coefficients[::-1]
    n = top + 1
    reach = ahead + 1 + behind
    carry = list(itertools.starmap(q, itertools.product(range(n), repeat=reach)))
    size = n ** reach
    terms = [(gi, n ** (len(g) - 1 - i)) for i, gi in enumerate(g)]  # g_i, place of q_{j+1-i}

    def window_fn(w):
        # w = (z_{j+ahead+1}, ..., z_j, ..., z_{j-behind-1}) with z_j at w[ahead + 1]
        index = 0
        for d in w:
            index = index * n + d
        x = w[ahead + 1]
        for gi, place in terms:
            x += gi * carry[index // place % size]
        return x

    rule = _CarryRule(base, behind + 1, ahead + 1, Alphabet(0, top), Alphabet(0, top - 1),
                      window_fn, name=name, tabulate_threshold=0)
    kp = sum(c << 8 * i for i, c in enumerate(g) if c > 0)  # g(256) = kp - kn
    kn = sum(-c << 8 * i for i, c in enumerate(g) if c < 0)
    rule._carry = carry, n, reach, g, kp, kn
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

    return _gde(quadratic_plus_base(a, b), top, 1, 1, q, "gde-plus:%d,%d" % (a, b))


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

    return _gde(quadratic_plus_base(a, a - 1), 2 * a, 2, 1, q, "gde-plus-special:%d" % a)


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

    return _gde(quadratic_minus_base(a, b), a + b - 1, 2, 2, q, "gde-minus:%d,%d" % (a, b))


def gde_rule(kind, a, b=None):
    if kind in ("plus", "minus") and b is None:
        raise ValueError("the %s family needs b" % kind)
    if kind == "plus":
        return gde_plus(a, b)
    if kind == "plus_special":
        if b not in (None, a - 1):
            raise ValueError("the plus_special family has b = a-1 = %d, got b=%r" % (a - 1, b))
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
