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

Decomposition is computed on demand.  A block over B costs nothing more.
Any other block u has as S, C and L the digits at [0, 2s), [2s, 2s + k)
and [2s + k, 2k) of g, the admissible word of 2k digits over B worth
u * beta^(2s).  An admissible word is the greedy expansion of its value
(W. Parry, Acta Math. Acad. Sci. Hungar. 1960), so g is unique, it is what
a greedy fit check finds, and the parts lie over B and sum to the value by
construction; with no such g, :class:`InsufficientParamsError` is raised.
A subset walk of Parry's automaton reads 2l zeros, u and 2s zeros, most
significant first, on sets of pairs (P, q): P in Z[beta] the value of
u - g so far, P' = beta * P + e - c on digits e of u and c of g, and q the
automaton state after g.  With j positions left the rest of u - g is worth
in (-beta^j, max(A + A) beta^j / (beta - 1)), so only -X < P < 1 can end
at 0, X the least integer above max(A + A) / (beta - 1); one memoised exact
floor per P drops the rest.  u decomposes iff the last set holds P = 0, and
g is read back along predecessor links.  The adder builds the sets lazily,
interning each with one ``dict.setdefault`` and publishing each transition
in one assignment; threads that race build equal values and need no lock.

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
import operator
from typing import NamedTuple

from .conversion import ChainAdder, _frame
from .digits import Alphabet, DigitString
from .numeration import (
    F,
    PF,
    AdmissibilityAutomaton,
    admissible_greedy_depth,
    canonical_alphabet,
    greedy_fractional_depth,
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
    digits (memory and anticipation 1) from A + A to A.  Its frames hold
    one digit of A + A per byte, so construction checks that 4 max(B) < 256.
    """

    memory = anticipation = 1
    p = 3  # an output block reads its own input block and both neighbours

    def __init__(self, base, params):
        self.base = base
        self.params = params
        if 4 * params.B.max_digit >= 256:
            raise ValueError("digit sums up to %d overflow a byte lane of the block frame"
                             % (4 * params.B.max_digit))
        self.k = params.k
        self.alphabet = self.output_alphabet = params.A
        self.input_alphabet = params.A.plus(params.A)
        self.name = "block:%d,%d,%d" % (params.k, params.ell, params.s)
        self._walk = None  # the tables of decompose, built on the first block outside B
        self._walk_error = None  # why they cannot be built, once that is known

    # -- block-level operations ------------------------------------------------

    def decompose(self, u):
        """The (L, C, S) triple of a block u over A + A; u and the parts run LSD first.

        A block over B is returned as C = u, L = S = 0; any other block is
        read by the walk of the module docstring.  InsufficientParamsError
        is raised when u * beta^(2s) has no admissible word of 2k digits, and
        ValueError, naming the base, when the base has no known d_beta(1);
        the adder keeps that failure, so later blocks raise it at once.
        Repeated calls return equal triples, as the block map requires.
        """
        k, ell, s, B, A = self.params
        u = tuple(u)
        if len(u) != k:
            raise ValueError("block must have exactly k=%d digits" % k)
        lo, hi = min(u), max(u)
        inA2 = self.input_alphabet
        if lo < inA2.min_digit or hi > inA2.max_digit:
            raise ValueError("block digits %d..%d outside %s" % (lo, hi, inA2))
        if hi <= B.max_digit:  # B and A + A both start at 0
            return BlockDecomposition((0,) * (2 * ell), u, (0,) * (2 * s))
        walk = self._walk
        if walk is None:
            if self._walk_error is not None:
                raise ValueError(self._walk_error)
            try:
                walk = self._walk = _BlockWalk(self.base, self.params)  # one assignment
            except ValueError as exc:
                self._walk_error = str(exc)
                raise
        node, path = walk.read(walk.head, u[::-1])
        j, S = node[-2] or walk.finish(node)
        if j is None:
            raise InsufficientParamsError(
                "parameters (ell=%d, s=%d) insufficient for block %r" % (ell, s, u))
        C, j = _read_back(path, j)
        return BlockDecomposition(walk.head_digits[j], C, S)

    def phi(self, f, g, h):
        """Output block: digit i is C(g)_i + L(h)_i below 2l, C(g)_i + S(f)_{i-2l} above."""
        if not len(f) == len(g) == len(h) == self.k:
            raise ValueError("block must have exactly k=%d digits" % self.k)
        return tuple(self.outputs((*h, *g, *f)[::-1])[::-1])

    def outputs(self, padded):
        """The output blocks of every 3-block window of padded, most significant
        first, as bytes, one per digit.

        padded is any sequence of ints over A + A, a list or bytes, of whole
        blocks.  Each block is decomposed once, its digits reversed into the
        LSD-first order of decompose; f, the first block of a window, is the
        more significant neighbour.  Digit i of the output block is C(g)_i
        plus digit i of L(h) S(f).  Every part lies over B by construction
        (see decompose), so each digit lies in A and fits its byte with no
        carry, as construction checks: the C parts and the L S parts are
        each joined least significant block first, and the two joins are
        added as ints.
        """
        k = self.k
        decs = [self.decompose(padded[i:i + k][::-1]) for i in range(0, len(padded), k)][::-1]
        C = b"".join([bytes(g.C) for g in decs[1:-1]])
        LS = b"".join([bytes(h.L + f.S) for h, f in zip(decs, decs[2:])])
        return (int.from_bytes(C, "little") + int.from_bytes(LS, "little")).to_bytes(len(C), "big")

    # -- string-level addition ---------------------------------------------------

    def add(self, x, y):
        """Parallel addition of two digit strings over A: apply_local of x + y.

        x and y are laid on one packed frame, one byte per digit, and added
        as ints, on the frame of apply_local; a digit of A + A fits its byte
        with no carry.  The frame's bytes go to outputs, and the sum is
        built from the bytes it returns.
        """
        A = self.params.A
        for t in (x, y):
            if not t.alphabet_ok(A):
                raise ValueError("digit out of alphabet %s in %s" % (A, t))
        operands = [t for t in (x, y) if t.digits]
        if not operands:
            return DigitString()
        top, bottom = _frame(self, operands)
        k = self.k
        frame = sum(int.from_bytes(bytes(t.digits), "big") << 8 * (t.lsd_exponent - bottom + k)
                    for t in operands)
        return DigitString._from_bytes(
            self.outputs(frame.to_bytes(top - bottom + 2 * k, "big")), top - 1)


def _read_back(path, j):
    """g's digits along path, least significant first, back from pair j of
    its last set, and the pair of its first set that they lead back to."""
    g = []
    for preds, digits in reversed(path):
        g.append(digits[j])
        j = preds[j]
    return tuple(g), j


class _BlockWalk:
    """The lazily built tables of :meth:`BlockAdder.decompose`.

    A set is a list: its transitions by digit of u, its tail, its sorted
    pairs.  Transition ``node[e]`` is (set, (preds, digits)): pair j of the
    set reached comes from pair preds[j] of node, with g's digit digits[j].
    ``head`` is the set after the leading zeros, ``head_digits[j]`` the
    digits of L that reach its pair j, and :meth:`finish` gives the tail.
    """

    def __init__(self, base, params):
        self.base, self.moves = base, AdmissibilityAutomaton.of_base(base).moves
        top = 2 * params.A.max_digit
        self.letters = top + 1
        X = 1  # the least integer above max(A + A) / (beta - 1), by exact signs
        while base.sign_of_vector((-X - top, X) + (0,) * (base.degree - 2)) <= 0:
            X += 1
        self.X, self.minus_X = X, (-X,) + (0,) * (base.degree - 1)
        self.floors, self.sets, self.links = {}, {}, {}
        self.trailing = (0,) * (2 * params.s)
        start = [None] * self.letters + [None, (((0,) * base.degree, 0),)]
        self.head, path = self.read(start, (0,) * (2 * params.ell))
        self.head_digits = [_read_back(path, j)[0] for j in range(len(self.head[-1]))]

    def read(self, node, word):
        """The set that word, most significant digit first, takes node to, and
        the links of each step."""
        path = []
        for e in word:
            node, links = node[e] or self.transition(node, e)
            path.append(links)
        return node, path

    def finish(self, node):
        """Publish and return node's tail (j, S): its pair j that the trailing
        zeros take to P = 0, and g's digits S there; (None, ()) if none does."""
        end, path = self.read(node, self.trailing)
        zero = [j for j, (P, _) in enumerate(end[-1]) if not any(P)]
        S, j = _read_back(path, zero[0]) if zero else ((), None)
        tail = node[-2] = (j, S)
        return tail

    def transition(self, node, e):
        """Build, publish and return node[e]."""
        base, floors = self.base, self.floors
        found = {}
        for i, (P, q) in enumerate(node[-1]):
            shifted = base.shift_vector(P)
            for c, nq in self.moves[q]:
                nP = (shifted[0] + e - c,) + shifted[1:]
                if nP not in floors:
                    floors[nP] = (nP, base.floor_of_vector(nP))  # each P held once
                nP, f = floors[nP]
                if -self.X <= f <= 0 and nP != self.minus_X:
                    found.setdefault((nP, nq), (i, c))
        pairs = tuple(sorted(found))
        target = self.sets.setdefault(pairs, [None] * self.letters + [None, pairs])
        links = tuple(zip(*[found[pair] for pair in pairs])) or ((), ())
        step = node[e] = (target, self.links.setdefault(links, links))
        return step


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

    A breadth-first search of the kind of the decomposition walk (module
    docstring) reads x, y and g, most significant first, g to be the greedy
    integer part of x + y: a state is (P, q_x, q_y, q_g), P' = beta * P +
    a + b - c.  After m more digits the final value is beta^m * P + R, R in
    (-beta^m, 2 * beta^m) as admissible words of m digits are worth less
    than beta^m, so a value in [0, 1) needs -2 < P < 1 + beta^-m: P is kept
    when -2 <= floor(P) <= 1 and P != -2, one memoised exact floor per P.
    For a Pisot base, which the (F)/(PF) check ensures, the reachable P,
    sums e_i beta^i with |e_i| <= 2 floor(beta), have bounded conjugates, so
    the search is finite.  A state ends a sum when floor(P) = 0 and
    g . greedy(P) is admissible, so that it is the greedy expansion of
    x + y; s is the largest greedy depth over those states.
    """
    if not _pf_certified(base):
        raise ValueError("certify_s needs a base certified (F)/(PF)")
    aut = AdmissibilityAutomaton.of_base(base)
    minus_two = (-2,) + (0,) * (base.degree - 1)
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
        for a, nx in aut.moves[qx]:
            for b, ny in aut.moves[qy]:
                for c, ng in aut.moves[qg]:
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
    bytes of the fold's frame, conjugated by the plateau letter c = floor(beta).
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
    from .algebraic import dbonacci_base

    base = dbonacci_base(d)
    if s is None:
        s = certify_s(base).s
    params = params_for_pf_base(base, s)
    if signed:
        return SignedBlockAdder(base, params)
    return BlockAdder(base, params)
