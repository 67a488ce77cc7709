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

Decomposition is computed on demand.  A block over B costs no evaluation;
any other block's exact value times beta^(2s) is evaluated once by
:meth:`BetaBase.digits_vector`, a sum of the base's cached power vectors,
and greedily expanded; the expansion must be a beta-integer fitting in 2k
positions, otherwise the chosen (l, s) are insufficient for this input and
:class:`InsufficientParamsError` is raised (the runtime fit-check standing
in for the existence argument).  The greedy digits are read from one dyadic
enclosure of that value, with an exact test only where a digit boundary
falls inside the enclosure (see :func:`betapar.numeration.greedy_vector_digits`).
The parts are exact by construction: each greedy digit is an exact floor
below beta, so it lies in B, and an exact expansion leaves a zero
remainder, so the parts sum to the value.  A conversion decomposes each
block it reads once and keeps nothing afterwards.

The parameter l is computed from the base by a certified comparison.  The
parameter s is L_plus, the most fractional digits that a sum of two
beta-integers can have: :func:`certify_s` computes it exactly by a finite
search over the sums' greedy expansions (J. Bernat, "Computation of L_plus
for several cubic Pisot numbers", DMTCS 2007), and :func:`estimate_s`
expands the sums of every pair of beta-integers up to a given length, an
independent cross-check that is exact for those words and can only come
out lower.
"""

from __future__ import annotations

import collections
import itertools
import operator
from typing import NamedTuple

from .conversion import ChainAdder, apply_local
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


def params_for_pf_base(base, s):
    """Block parameters with the smallest l such that 2*floor(beta)/(beta-1) < beta^l.

    The comparison is certified: l is the smallest integer with
    beta^(l+1) - beta^l - 2*floor(beta) > 0, decided by exact sign in
    Z[beta].  The base must look (F) or (PF) by the sufficient-condition
    check; that check is not a negative certificate, and
    :func:`make_block_params` builds parameters for any base unchecked.
    """
    if not _pf_certified(base):
        raise ValueError("base not certified (F)/(PF) by the sufficient condition; "
                         "make_block_params builds unchecked parameters")
    t1 = canonical_alphabet(base).max_digit
    unit = base.unit_vector()
    ell = 0
    while True:
        vec = tuple(base.power_vector(ell + 1)[i] - base.power_vector(ell)[i]
                    - 2 * t1 * unit[i] for i in range(base.degree))
        if base.sign_of_vector(vec) > 0:
            return make_block_params(base, ell, s)
        ell += 1


class BlockAdder:
    """k-block 3-local adder on A = B + B for a fixed base and parameters.

    As a digit set conversion it is a layer of
    :func:`betapar.conversion.apply_local`: a 3-local map on blocks of k
    digits (memory and anticipation 1) from A + A to A.
    """

    memory = anticipation = 1
    p = 3  # an output block reads its own input block and both neighbours

    def __init__(self, base, params):
        self.base = base
        self.params = params
        self.k = params.k
        self.alphabet = self.output_alphabet = params.A
        self.input_alphabet = params.A.plus(params.A)
        self.name = "block:%d,%d,%d" % (params.k, params.ell, params.s)

    # -- block-level operations ------------------------------------------------

    def decompose(self, u):
        """The (L, C, S) triple of a block u over A + A; u and the parts run LSD first.

        A block over B is returned as C = u, L = S = 0, unevaluated.  Any
        other block is evaluated once, as u * beta^(2s), and expanded
        greedily, raising InsufficientParamsError unless the expansion is
        exact and fits in 2k digits; S, C and L are its digits at positions
        [0, 2s), [2s, 2s + k) and [2s + k, 2k).  They need no check: the
        expansion starts at an m with u * beta^(2s) < beta^(m + 1), so every
        digit is an exact floor below beta and lies in B, and ``exact``
        means the remainder vector is zero.  Repeated calls return equal
        triples, as the block map requires.
        """
        k, ell, s, B, A = self.params
        u = tuple(u)
        if len(u) != k:
            raise ValueError("block must have exactly k=%d digits" % k)
        lo, hi = min(u), max(u)
        inA2 = self.input_alphabet
        if lo not in inA2 or hi not in inA2:
            raise ValueError("block digits %d..%d outside %s" % (lo, hi, inA2))
        if hi <= B.max_digit:  # B and A + A both start at 0
            return BlockDecomposition((0,) * (2 * ell), u, (0,) * (2 * s))
        base = self.base
        int_digits, _, exact = greedy_vector_digits(base, base.digits_vector(u, 2 * s), 0)
        if not exact or len(int_digits) > 2 * k:
            raise InsufficientParamsError(
                "parameters (ell=%d, s=%d) insufficient for block %r" % (ell, s, u))
        pos = int_digits + [0] * (2 * k - len(int_digits))
        return BlockDecomposition(tuple(pos[2 * s + k:]), tuple(pos[2 * s:2 * s + k]),
                                  tuple(pos[:2 * s]))

    def _block_map(self, df, dg, dh):
        """Phi from decomposed neighbours: digit i is C(g)_i plus digit i of L(h) S(f).

        Every part lies over B by construction (see decompose), so each
        digit lies in B + B = A.
        """
        return [c + t for c, t in zip(dg.C, dh.L + df.S)]

    def phi(self, f, g, h):
        """Output block: digit i is C(g)_i + L(h)_i below 2l, C(g)_i + S(f)_{i-2l} above."""
        return tuple(self._block_map(self.decompose(f), self.decompose(g), self.decompose(h)))

    def outputs(self, padded):
        """The output blocks of every 3-block window of padded, most significant first.

        Each block is decomposed once, its digits reversed into the LSD-first
        order of decompose (as a list: a traced call may read it again);
        f, the first block of a window, is the more significant neighbour.
        """
        k = self.k
        decs = [self.decompose(padded[i:i + k][::-1]) for i in range(0, len(padded), k)]
        out = []
        for f, g, h in zip(decs, decs[1:], decs[2:]):
            out.extend(reversed(self._block_map(f, g, h)))
        return out

    # -- string-level addition ---------------------------------------------------

    def add(self, x, y):
        """Parallel addition of two digit strings over A: apply_local of x + y."""
        A = self.params.A
        for t in (x, y):
            if not t.alphabet_ok(A):
                raise ValueError("digit out of alphabet %s in %s" % (A, t))
        return apply_local(self, x + y)


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
    -2 < P < 1 + beta^-m, and the search drops every P outside (-2, 2).
    Each P reached is read once, by its exact floor: it is kept when
    -2 <= floor(P) <= 1 and P != -2.  The reachable P are sums e_i beta^i
    with |e_i| <= 2 floor(beta), so for a Pisot base, which the (F)/(PF)
    check ensures, their conjugates are bounded too and the search is
    finite.  A state ends a sum when floor(P) = 0 and g followed by
    greedy(P) is admissible, so that g . greedy(P) is the greedy expansion
    of x + y; s is the largest greedy depth over those states.
    """
    if not _pf_certified(base):
        raise ValueError("certify_s needs a base certified (F)/(PF)")
    aut = AdmissibilityAutomaton.of_base(base)
    top = aut.expected[0]
    minus_two = (-2,) + (0,) * (base.degree - 1)
    digit_triples = list(itertools.product(range(top + 1), repeat=3))
    start = ((0,) * base.degree, 0, 0, 0)
    parent = {start: None}
    floors = {start[0]: 0}
    depths = {}
    best, best_state = 0, start
    queue = collections.deque([start])
    while queue:
        state = queue.popleft()
        P, qx, qy, qg = state
        key = (P, qg)
        if key not in depths:
            depths[key] = admissible_greedy_depth(base, aut, P, qg) if floors[P] == 0 else None
        if depths[key] is not None and depths[key] > best:
            best, best_state = depths[key], state
        shifted = base.shift_vector(P)
        for a, b, c in digit_triples:
            nx, ny, ng = aut.step(qx, a), aut.step(qy, b), aut.step(qg, c)
            if nx is None or ny is None or ng is None:
                continue
            nP = (shifted[0] + a + b - c,) + shifted[1:]
            if nP not in floors:
                floors[nP] = base.floor_of_vector(nP)
            nxt = (nP, nx, ny, ng)
            if -2 <= floors[nP] <= 1 and nP != minus_two and nxt not in parent:
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
    """Result of the sweep behind estimate_s.

    ``s`` is the most fractional digits over the swept sums, and
    ``pairs_checked`` the n(n + 1)/2 unordered pairs of the n words swept.
    """

    s: int
    pairs_checked: int


def estimate_s_report(base, test_len):
    """Max number of fractional digits in greedy expansions of x + y.

    x and y range over every pair of beta-integers with at most test_len
    digits, x = y and the zero word included.  A greedy expansion depends
    only on the value, and a value has one vector, so each distinct sum
    vector is expanded once.  The cost grows with the square of the word
    count, with no budget: Tribonacci has 1,705 words at 12 digits.
    """
    if not _pf_certified(base):
        raise ValueError("estimate_s needs a base certified (F)/(PF)")
    vals = [base.digits_vector(w[::-1]) for w in iter_beta_integer_words(base, test_len)]
    sums = {tuple(map(operator.add, x, y)) for i, x in enumerate(vals) for y in vals[i:]}
    n = len(vals)
    return EstimateReport(max(greedy_fractional_depth(base, v) for v in sums), n * (n + 1) // 2)


def estimate_s(base, test_len):
    """Smallest s consistent with the swept pairs; see estimate_s_report."""
    return estimate_s_report(base, test_len).s


# -- d-bonacci instantiations ----------------------------------------------------


class SignedBlockAdder(ChainAdder):
    """Block adder on the symmetric alphabet {-floor(beta) .. floor(beta)}.

    The layered fold of :class:`ChainAdder` over the non-negative block
    adder ``inner``: each layer is one ``inner.outputs`` call over the
    fold's frame of ints, conjugated by the plateau letter c = floor(beta).
    The constant-c block is a fixed point of the block map, so finite
    support survives.  Positive layers of y go through the conjugated map,
    negative layers through its mirror image under digit negation.  The
    sum keeps its value by construction: the block map keeps the value of
    every finite string over A + A because L, C and S telescope across
    blocks, and the plateau argument of :mod:`betapar.conversion` carries
    that identity over to the conjugated map and its mirror image.  A
    block whose decomposition does not fit the parameters raises
    :class:`InsufficientParamsError` rather than giving a wrong sum.
    """

    def __init__(self, base, params):
        self.params = params
        self.inner = BlockAdder(base, params)
        t1 = params.B.max_digit
        super().__init__(self.inner, Alphabet(-t1, t1))


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
