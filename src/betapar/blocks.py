"""k-block 3-local parallel addition for bases with the (PF) property.

Digits are grouped into blocks of length k = 2(l + s).  Every block u over
the doubled alphabet decomposes as

    u = L(u) * beta^k + C(u) + S(u) * beta^(-2s)

with L over 2l digits, C over k digits and S over 2s digits, all drawn from
the base alphabet B = {0..floor(beta)}; the block map

    Phi(f, g, h) = L(h) + C(g) + S(f) * beta^(2l)

(f the more significant neighbour block, h the less significant) then adds
in parallel because the L/C/S contributions telescope across blocks.
Blocks already over B keep L = S = 0 and C = u, which pins the zero block
to zero and makes every B-block a fixed point of Phi(u, u, u).

Decomposition is computed on demand: the block's exact value is multiplied
by beta^(2s) and greedily expanded; the expansion must be a beta-integer
fitting in 2k positions, otherwise the chosen (l, s) are insufficient for
this input and :class:`InsufficientParamsError` is raised (the runtime
fit-check standing in for the existence argument).  A conversion
decomposes each block it reads once and keeps nothing afterwards.

The parameter l is computed from the base by a certified comparison.  The
parameter s is L_plus, the most fractional digits that a sum of two
beta-integers can have: :func:`certify_s` computes it exactly by a finite
search over the sums' greedy expansions (J. Bernat, "Computation of L_plus
for several cubic Pisot numbers", DMTCS 2007), and :func:`estimate_s`
keeps the older sweep over short beta-integers as a cross-check that can
only come out lower.
"""

from __future__ import annotations

import collections
import itertools
import random as _random
from typing import NamedTuple

from .conversion import ChainAdder, check_sum
from .digits import Alphabet, DigitString
from .numeration import (
    F,
    PF,
    AdmissibilityAutomaton,
    admissible_greedy_depth,
    canonical_alphabet,
    greedy_fractional_depth,
    greedy_vector_digits,
    iter_beta_integer_words,
    pf_sufficient,
    renyi_dbeta,
)


class InsufficientParamsError(ValueError):
    """The chosen (l, s) cannot decompose some encountered block."""


class BlockParams(NamedTuple):
    k: int
    ell: int
    s: int
    B: Alphabet
    A: Alphabet

    def __repr__(self):
        return "BlockParams(k=%d, ell=%d, s=%d, B=%s, A=%s)" % (
            self.k, self.ell, self.s, self.B, self.A)


class BlockDecomposition(NamedTuple):
    """u = value(L)*beta^k + value(C) + value(S)*beta^(-2s), digits over B."""

    L: tuple
    C: tuple
    S: tuple


def make_block_params(base, ell, s):
    """Assemble parameters; k = 2(ell + s), B the canonical digits, A = B + B."""
    if ell < 0 or s < 0 or ell + s == 0:
        raise ValueError("need ell, s >= 0 and a positive block length k = 2(ell + s); "
                         "got ell=%d, s=%d" % (ell, s))
    B = canonical_alphabet(base)
    A = B.plus(B)
    return BlockParams(2 * (ell + s), ell, s, B, A)


def _pf_certified(base):
    """Whether d_beta(1) of the base passes the (F)/(PF) sufficient check."""
    d = renyi_dbeta(base)
    return d is not None and pf_sufficient(d) in (F, PF)


def params_for_pf_base(base, s, allow_non_pf=False):
    """Block parameters with the smallest l such that 2*floor(beta)/(beta-1) < beta^l.

    The comparison is certified: l is the smallest integer with
    beta^(l+1) - beta^l - 2*floor(beta) > 0, decided by exact sign in
    Z[beta].  The base must look (F) or (PF) by the sufficient-condition
    check unless the caller overrides (the check is not a negative
    certificate, so overriding can be legitimate).
    """
    if not allow_non_pf and not _pf_certified(base):
        raise ValueError("base not certified (F)/(PF) by the sufficient condition; "
                         "pass allow_non_pf=True to proceed at your own risk")
    t1 = canonical_alphabet(base).max_digit
    unit = base.unit_vector()
    ell = 0
    while True:
        vec = tuple(base.power_vector(ell + 1)[i] - base.power_vector(ell)[i]
                    - 2 * t1 * unit[i] for i in range(base.degree))
        if base.sign_of_vector(vec) > 0:
            return make_block_params(base, ell, s)
        ell += 1
        if ell > 64:
            raise RuntimeError("no l <= 64 satisfies the margin inequality")


class BlockAdder:
    """k-block 3-local adder on A = B + B for a fixed base and parameters.

    As a digit set conversion it maps A + A to A (``convert``).
    """

    def __init__(self, base, params):
        self.base = base
        self.params = params
        self.alphabet = self.output_alphabet = params.A
        self.input_alphabet = params.A.plus(params.A)
        self.name = "block:%d,%d,%d" % (params.k, params.ell, params.s)

    # -- block-level operations ------------------------------------------------

    def decompose(self, u):
        """The (L, C, S) triple of a block u over A + A; u and the parts run LSD first.

        Deterministic: repeated calls return equal triples, as the block map
        requires.
        """
        k, ell, s, B, A = self.params
        u = tuple(u)
        if len(u) != k:
            raise ValueError("block must have exactly k=%d digits" % k)
        inA2 = self.input_alphabet
        for dig in u:
            if dig not in inA2:
                raise ValueError("block digit %d outside %s" % (dig, inA2))
        base = self.base
        vec = base.mul_power(base.digits_vector(reversed(u)), 2 * s)  # u * beta^(2s)
        if all(dig in B for dig in u):
            dec = BlockDecomposition((0,) * (2 * ell), u, (0,) * (2 * s))
        else:
            int_digits, frac, exact = greedy_vector_digits(base, vec, 0)
            if not exact or len(int_digits) > 2 * k:
                raise InsufficientParamsError(
                    "parameters (ell=%d, s=%d) insufficient for block %r" % (ell, s, u))
            pos = list(int_digits) + [0] * (2 * k - len(int_digits))
            dec = BlockDecomposition(tuple(pos[2 * s + k:2 * k]),
                                     tuple(pos[2 * s:2 * s + k]),
                                     tuple(pos[0:2 * s]))
        # digits over B, and vec = u * beta^(2s) is S, C, L read as one string
        for part in dec:
            for dig in part:
                if dig not in B:
                    raise InsufficientParamsError("decomposition digit %d outside %s" % (dig, B))
        if base.digits_vector(reversed(dec.S + dec.C + dec.L)) != vec:
            raise AssertionError("decomposition identity failed for block %r" % (u,))
        return dec

    def _block_map(self, df, dg, dh):
        """Phi from decomposed neighbours: digit i is C(g)_i plus digit i of L(h) S(f)."""
        out = [c + t for c, t in zip(dg.C, dh.L + df.S)]
        A = self.params.A
        for dig in out:
            if dig not in A:
                raise AssertionError("block map produced digit %d outside %s" % (dig, A))
        return out

    def phi(self, f, g, h):
        """Output block: digit i is C(g)_i + L(h)_i below 2l, C(g)_i + S(f)_{i-2l} above."""
        return tuple(self._block_map(self.decompose(f), self.decompose(g), self.decompose(h)))

    # -- string-level addition ---------------------------------------------------

    def add(self, x, y):
        """Parallel addition of two digit strings over A.

        The block grid is fixed at multiples of k, so the radix point always
        sits on a block boundary; operands are implicitly padded with zero
        digits to whole blocks.
        """
        A = self.params.A
        for t in (x, y):
            if not t.alphabet_ok(A):
                raise ValueError("digit out of alphabet %s in %s" % (A, t))
        u = x + y
        return self.convert(u)

    def convert(self, u, plateau=0):
        """Digit set conversion from A+A to A by blockwise application of phi.

        The map reads u + c at every position, c the plateau letter, and c
        is subtracted from its output again.  Far blocks are the constant-c
        block, so finite support survives when that block is fixed.  Each
        block read is decomposed once: u + c is laid out least significant
        digit first on the block grid, from two blocks below the support to
        two blocks above it, and every output block takes the triples of its
        three neighbours.
        """
        if u.is_zero():
            return DigitString()
        k = self.params.k
        c = plateau
        msd, lsd = u.support()
        lo = (lsd // k - 2) * k  # exponent of padded[0]
        padded = [c] * ((msd // k + 3) * k - lo)
        padded[lsd - lo:msd - lo + 1] = [dig + c for dig in reversed(u.digits)]
        decs = [self.decompose(padded[i:i + k]) for i in range(0, len(padded), k)]
        out = []
        for j in range(1, len(decs) - 1):
            out.extend(self._block_map(decs[j + 1], decs[j], decs[j - 1]))
        return DigitString([dig - c for dig in reversed(out)], lo + k + len(out) - 1)

    def fixes(self, c):
        """Whether the constant-c block is fixed: Phi(c^k, c^k, c^k) = c^k."""
        block = (c,) * self.params.k
        return c in self.params.A and self.phi(block, block, block) == block


# -- the block parameter s: exact certificate and empirical estimate ------------


class SCertificate(NamedTuple):
    """The exact s of a base and a pair of beta-integers that attains it.

    greedy(witness_x + witness_y) has exactly s fractional digits; states
    counts the search states reached.
    """

    s: int
    witness_x: DigitString
    witness_y: DigitString
    states: int


def certify_s(base):
    """The largest number of fractional digits in the greedy expansion of x + y
    over all beta-integers x and y, with a pair that attains it.

    A breadth-first search reads x, y and g digit by digit, most
    significant first, with leading zeros, where g is to be the greedy
    integer part of x + y.  A state is (P, q_x, q_y, q_g): P in Z[beta] is
    the value of x + y - g read so far, so P' = beta * P + a + b - c on
    digits a, b, c, and the q are the states of the three words in the
    admissibility automaton.  After m more digits the final value is
    z = beta^m * P + R, with R in (-beta^m, 2 * beta^m) because admissible
    words of m digits are worth less than beta^m; z in [0, 1) thus needs
    -2 < P < 1 + beta^-m, and the search drops every P outside (-2, 2),
    each bound decided by one exact sign.  The reachable P are sums
    e_i beta^i with |e_i| <= 2 floor(beta), so for a Pisot base, which the
    (F)/(PF) check ensures, their conjugates are bounded too and the search
    is finite.  A state ends a sum when 0 <= P < 1 and g followed by
    greedy(P) is admissible, so that g . greedy(P) is the greedy expansion
    of x + y; s is the largest greedy depth over those states.
    """
    if not _pf_certified(base):
        raise ValueError("certify_s needs a base certified (F)/(PF)")
    aut = AdmissibilityAutomaton.of_base(base)
    top = aut.expected[0]
    unit = base.unit_vector()
    deg = base.degree
    sign = base.sign_of_vector

    def plus(v, n):
        return tuple(v[i] + n * unit[i] for i in range(deg))

    def inside(P):
        return sign(plus(P, 2)) > 0 and sign(plus(P, -2)) < 0

    def depth(P, qg):
        if sign(P) < 0 or sign(plus(P, -1)) >= 0:
            return None
        return admissible_greedy_depth(base, aut, P, qg)

    digit_triples = list(itertools.product(range(top + 1), repeat=3))
    start = ((0,) * deg, 0, 0, 0)
    parent = {start: None}
    in_range = {}
    depths = {}
    best, best_state = 0, start
    queue = collections.deque([start])
    while queue:
        state = queue.popleft()
        P, qx, qy, qg = state
        key = (P, qg)
        if key not in depths:
            depths[key] = depth(P, qg)
        if depths[key] is not None and depths[key] > best:
            best, best_state = depths[key], state
        shifted = base.shift_vector(P)
        for a, b, c in digit_triples:
            nx, ny, ng = aut.step(qx, a), aut.step(qy, b), aut.step(qg, c)
            if nx is None or ny is None or ng is None:
                continue
            nP = (shifted[0] + a + b - c,) + shifted[1:]
            if nP not in in_range:
                in_range[nP] = inside(nP)
            nxt = (nP, nx, ny, ng)
            if in_range[nP] and nxt not in parent:
                parent[nxt] = (state, a, b)
                queue.append(nxt)
    xs, ys = [], []
    state = best_state
    while parent[state] is not None:
        state, a, b = parent[state]
        xs.append(a)
        ys.append(b)
    return SCertificate(best, DigitString(xs[::-1], len(xs) - 1),
                        DigitString(ys[::-1], len(ys) - 1), len(parent))


class EstimateReport(NamedTuple):
    """Result of the fractional-depth sweep behind estimate_s.

    ``s`` is the largest observed depth; ``exhaustive_len`` tells up to
    which word length the sweep covered all pairs.  When exhaustive_len <
    test_len the value is an estimate (sampling covered the rest) and the
    runtime fit-check in decompose is the safety net.
    """

    s: int
    exhaustive_len: int
    test_len: int
    pairs_checked: int

    @property
    def is_estimate(self):
        return self.exhaustive_len < self.test_len


def estimate_s_report(base, test_len, pair_budget=300000, sample_pairs=2000, seed=7):
    """Max number of fractional digits in greedy expansions of x + y.

    x and y range over the beta-integers with at most test_len digits:
    exhaustively over all pairs while their count stays within pair_budget,
    then over seeded random pairs drawn from the longer words.  The
    returned value is a lower estimate of the true bound.
    """
    if not _pf_certified(base):
        raise ValueError("estimate_s needs a base certified (F)/(PF)")
    words_by_len = [[] for _ in range(test_len + 1)]
    for w in iter_beta_integer_words(base, test_len):
        words_by_len[len(w)].append(w)

    counts = list(itertools.accumulate(len(ws) for ws in words_by_len))
    exh_len = 0
    for n in range(1, test_len + 1):
        total = counts[n]
        if total * (total + 1) // 2 <= pair_budget:
            exh_len = n
        else:
            break

    vals = [base.digits_vector(w) for n in range(exh_len + 1) for w in words_by_len[n]]
    pairs = ((x, y) for i, x in enumerate(vals) for y in vals[i:])
    if exh_len < test_len:
        rng = _random.Random(seed)
        pool = vals + [base.digits_vector(w)
                       for n in range(exh_len + 1, test_len + 1) for w in words_by_len[n]]
        pairs = itertools.chain(pairs, ((pool[rng.randrange(len(pool))],
                                         pool[rng.randrange(len(pool))])
                                        for _ in range(sample_pairs)))
    deg = base.degree
    best = checked = 0
    for x, y in pairs:
        best = max(best, greedy_fractional_depth(base, tuple(x[t] + y[t] for t in range(deg))))
        checked += 1
    return EstimateReport(best, exh_len, test_len, checked)


def estimate_s(base, test_len, pair_budget=300000, sample_pairs=2000, seed=7):
    """Smallest s consistent with the swept pairs; see estimate_s_report."""
    return estimate_s_report(base, test_len, pair_budget, sample_pairs, seed).s


# -- d-bonacci instantiations ----------------------------------------------------


_SIGNED_VERIFY_SEED = 2357
_SIGNED_VERIFY_PAIRS = 200


class SignedBlockAdder(ChainAdder):
    """Block adder on the symmetric alphabet {-floor(beta) .. floor(beta)}.

    The layered fold of :class:`ChainAdder` over the non-negative block
    adder ``inner``, conjugated by the plateau letter c = floor(beta): the
    constant-c block is a fixed point of the block map, so finite support
    survives.  Positive layers of y go through the conjugated map, negative
    layers through its mirror image under digit negation.  Instances verify
    themselves on seeded random pairs at construction; the underlying
    corollary is cited, not restated, in the source material, so the
    verification is part of the contract.
    """

    def __init__(self, base, params):
        self.params = params
        self.inner = BlockAdder(base, params)
        t1 = params.B.max_digit
        super().__init__(self.inner, Alphabet(-t1, t1))
        rng = _random.Random(_SIGNED_VERIFY_SEED)
        k = params.k
        for _ in range(_SIGNED_VERIFY_PAIRS):
            n = rng.randint(0, 3 * k)
            x = DigitString(tuple(rng.randint(-t1, t1) for _ in range(n)), n - 1)
            m = rng.randint(0, 3 * k)
            y = DigitString(tuple(rng.randint(-t1, t1) for _ in range(m)), m - 1)
            if not check_sum(self, x, y, self.add(x, y)):
                raise AssertionError("signed block adder wrong for %s + %s" % (x, y))


def dbonacci_block_adder(d, signed=False, s=None):
    """Block adder for the d-bonacci base on {0,1,2} (or {-1,0,1} when signed).

    s defaults to the exact bound from :func:`certify_s`; for the
    Tribonacci base that is 5, giving the 14-block 3-local adder.
    """
    if d < 2:
        raise ValueError("d-bonacci needs d >= 2")
    from .algebraic import dbonacci_base

    base = dbonacci_base(d)
    if s is None:
        s = certify_s(base).s
    params = params_for_pf_base(base, s)
    if signed:
        return SignedBlockAdder(base, params)
    return BlockAdder(base, params)
