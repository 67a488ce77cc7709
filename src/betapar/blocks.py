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

Decomposition is computed lazily: the block's exact value is multiplied by
beta^(2s) and greedily expanded; the expansion must be a beta-integer
fitting in 2k positions, otherwise the chosen (l, s) are insufficient for
this input and :class:`InsufficientParamsError` is raised (the runtime
fit-check standing in for the existence argument).  Decompositions are
memoized per adder; inserts are idempotent and deterministic, so the memo
behaves correctly under concurrent use.

The parameter l is computed from the base by a certified comparison; s is
supplied by the caller or estimated empirically by sweeping sums of
beta-integers (the bound it estimates is Bernat's constant, which is an
input here, not something this package derives).
"""

from __future__ import annotations

import itertools
import random as _random
from typing import NamedTuple

from .conversion import ChainAdder, check_sum
from .digits import Alphabet, DigitString
from .numeration import (
    F,
    PF,
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
    if ell < 0 or s < 0:
        raise ValueError("ell and s must be non-negative")
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
        self._memo = {}

    # -- block-level operations ------------------------------------------------

    def decompose(self, u):
        """The fixed (L, C, S) triple for a block u over A + A.

        Deterministic and memoized: repeated calls return the identical
        triple, as the block map requires.
        """
        u = tuple(u)
        hit = self._memo.get(u)
        if hit is not None:
            return hit
        dec = self._decompose(u)
        self._memo[u] = dec
        return dec

    def _decompose(self, u):
        k, ell, s, B, A = self.params
        if len(u) != k:
            raise ValueError("block must have exactly k=%d digits" % k)
        inA2 = A.plus(A)
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
        self._check_decomposition(u, vec, dec)
        return dec

    def _check_decomposition(self, u, vec, dec):
        """Digits over B, and vec = u * beta^(2s) is S, C, L read as one string."""
        B = self.params.B
        for part in dec:
            for dig in part:
                if dig not in B:
                    raise InsufficientParamsError("decomposition digit %d outside %s" % (dig, B))
        if self.base.digits_vector(reversed(dec.S + dec.C + dec.L)) != vec:
            raise AssertionError("decomposition identity failed for block %r" % (u,))

    def phi(self, f, g, h):
        """Output block: digit i is C(g)_i + L(h)_i below 2l, C(g)_i + S(f)_{i-2l} above."""
        k, ell, s, B, A = self.params
        df = self.decompose(tuple(f))
        dg = self.decompose(tuple(g))
        dh = self.decompose(tuple(h))
        out = []
        for i in range(k):
            dig = dg.C[i] + (dh.L[i] if i < 2 * ell else df.S[i - 2 * ell])
            if dig not in A:
                raise AssertionError("block map produced digit %d outside %s" % (dig, A))
            out.append(dig)
        return tuple(out)

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
        block, so finite support survives when that block is fixed.
        """
        if u.is_zero():
            return DigitString()
        k = self.params.k
        c = plateau
        msd, lsd = u.support()

        def block(j):
            return tuple(u.digit_at(j * k + i) + c for i in range(k))

        pairs = []
        for j in range(lsd // k - 1, msd // k + 2):
            v = self.phi(block(j + 1), block(j), block(j - 1))
            for i, dig in enumerate(v):
                if dig != c:
                    pairs.append((j * k + i, dig - c))
        return DigitString.from_pairs(pairs)

    def fixes(self, c):
        """Whether the constant-c block is fixed: Phi(c^k, c^k, c^k) = c^k."""
        block = (c,) * self.params.k
        return c in self.params.A and self.phi(block, block, block) == block


# -- empirical estimation of s -------------------------------------------------


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
    words_by_len = [[()]]
    for n in range(1, test_len + 1):
        words_by_len.append([])
    for w in iter_beta_integer_words(base, test_len):
        if w:
            words_by_len[len(w)].append(w)

    counts = list(itertools.accumulate(len(ws) for ws in words_by_len))
    exh_len = 0
    for n in range(1, test_len + 1):
        total = counts[n]
        if total * (total + 1) // 2 <= pair_budget:
            exh_len = n
        else:
            break

    deg = base.degree
    best = 0
    checked = 0
    vals = [base.digits_vector(w) for n in range(exh_len + 1) for w in words_by_len[n]]
    for i, x in enumerate(vals):
        for y in vals[i:]:
            s2 = tuple(x[t] + y[t] for t in range(deg))
            dep = greedy_fractional_depth(base, s2)
            checked += 1
            if dep > best:
                best = dep
    if exh_len < test_len:
        rng = _random.Random(seed)
        pool = [base.digits_vector(w) for n in range(test_len + 1) for w in words_by_len[n]]
        for _ in range(sample_pairs):
            x = pool[rng.randrange(len(pool))]
            y = pool[rng.randrange(len(pool))]
            s2 = tuple(x[t] + y[t] for t in range(deg))
            dep = greedy_fractional_depth(base, s2)
            checked += 1
            if dep > best:
                best = dep
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


def dbonacci_block_adder(d, signed=False, s=None, test_len=12):
    """Block adder for the d-bonacci base on {0,1,2} (or {-1,0,1} when signed).

    s defaults to the empirical estimate over sums of beta-integers with at
    most test_len digits; for the Tribonacci base this reproduces the known
    bound 5, giving the 14-block 3-local adder.
    """
    if d < 2:
        raise ValueError("d-bonacci needs d >= 2")
    from .algebraic import dbonacci_base

    base = dbonacci_base(d)
    if s is None:
        s = estimate_s(base, test_len)
    params = params_for_pf_base(base, s)
    if signed:
        return SignedBlockAdder(base, params)
    return BlockAdder(base, params)
