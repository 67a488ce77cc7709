import itertools
import random
import re
import sys
import threading
import time

import pytest

from betapar import blocks, numeration
from betapar.algebraic import (
    BetaBase,
    base_from_spec,
    dbonacci_base,
    eval_digit_string,
    qv_add,
    quadratic_minus_base,
    values_equal,
)
from betapar.blocks import (
    BlockAdder,
    InsufficientParamsError,
    SignedBlockAdder,
    certify_s,
    dbonacci_block_adder,
    estimate_s,
    estimate_s_report,
    make_block_params,
    params_for_pf_base,
)
from betapar.conversion import ChainAdder, apply_local, check_sum, fixed_letters
from betapar.digits import Alphabet, DigitString, parse_digits
from betapar.numeration import (
    AdmissibilityAutomaton,
    admissible_greedy_depth,
    greedy_fractional_depth,
    greedy_vector_digits,
    iter_beta_integer_words,
)


class TestParams:
    def test_tribonacci_headline(self, tri):
        p = params_for_pf_base(tri, s=5)
        assert (p.k, p.ell, p.s) == (14, 2, 5)
        assert p.B == Alphabet(0, 1) and p.A == Alphabet(0, 2)

    def test_fibonacci_ell_is_three(self, fib):
        # 2*1/(beta-1) ~ 3.236 sits between beta^2 ~ 2.618 and beta^3 ~ 4.236
        p = params_for_pf_base(fib, s=2)
        assert (p.k, p.ell, p.s) == (10, 3, 2)

    def test_s_zero_gives_k_2ell(self, tri):
        p = params_for_pf_base(tri, s=0)
        assert p.k == 2 * p.ell

    def test_k_consistency(self, tri):
        p = make_block_params(tri, 2, 5)
        assert p.k == 2 * (p.ell + p.s)

    def test_non_pf_guard(self):
        base = base_from_spec("1,-1,0,-1")  # d_beta(1) = 101: inconclusive
        with pytest.raises(ValueError):
            params_for_pf_base(base, s=1)
        p = make_block_params(base, 2, 1)  # the unchecked route
        assert (p.k, p.ell, p.s) == (6, 2, 1)


class TestDecompose:
    def test_zero_block(self, tribonacci_adder):
        k = tribonacci_adder.params.k
        dec = tribonacci_adder.decompose((0,) * k)
        assert not any(dec.L) and not any(dec.C) and not any(dec.S)

    def test_plain_blocks_pass_through(self, tribonacci_adder):
        rng = random.Random(1)
        k = tribonacci_adder.params.k
        for _ in range(20):
            u = tuple(rng.randint(0, 1) for _ in range(k))
            dec = tribonacci_adder.decompose(u)
            assert dec.C == u and not any(dec.L) and not any(dec.S)

    def test_fibonacci_small_scale(self, fib):
        # value 2 = 10.01 in the Fibonacci base drives the greedy path
        adder = BlockAdder(fib, make_block_params(fib, 3, 1))
        dec = adder.decompose((2,) + (0,) * 7)
        assert dec.S == (1, 0)
        assert dec.C == (0, 1, 0, 0, 0, 0, 0, 0)
        assert not any(dec.L)

    def test_deterministic(self, tribonacci_adder):
        k = tribonacci_adder.params.k
        u = tuple([3] + [0] * (k - 1))
        assert tribonacci_adder.decompose(u) == tribonacci_adder.decompose(u)

    def test_identity_on_random_blocks(self, tribonacci_adder):
        # decompose checks none of these at run time: the parts lie over B,
        # have lengths 2l, k and 2s, and sum to the block's value
        rng = random.Random(17)
        base = tribonacci_adder.base
        k, ell, s, B, A = tribonacci_adder.params
        for i in range(300):
            u = tuple(rng.randint(0, 1 if i % 4 == 0 else 4) for _ in range(k))
            L, C, S = tribonacci_adder.decompose(u)
            assert (len(L), len(C), len(S)) == (2 * ell, k, 2 * s)
            assert all(dig in B for dig in L + C + S), u
            val = lambda digs, shift: eval_digit_string(
                DigitString(tuple(reversed(digs)), len(digs) - 1 + shift), base)
            lhs = eval_digit_string(DigitString(tuple(reversed(u)), k - 1), base)
            rhs = qv_add(qv_add(val(L, k), val(C, 0)), val(S, -2 * s))
            assert values_equal(lhs, rhs)

    def test_warm_block_asks_no_oracle(self, monkeypatch):
        # a cold decomposition builds the walk's tables with exact floors,
        # and never evaluates a block or expands it greedily; once the tables
        # are warm a block is table steps only, and a block over B is never
        # read at all
        base = dbonacci_base(3)
        adder = BlockAdder(base, make_block_params(base, 2, 5))
        calls = []

        def counted(name):
            method = getattr(BetaBase, name)

            def wrapper(self, *args):
                calls.append(name)
                return method(self, *args)
            return wrapper

        def refuse(*args):
            raise AssertionError("greedy expansion on the block path")

        rng = random.Random(23)
        blocks_ = [tuple(rng.randint(0, 4) for _ in range(14)) for _ in range(50)]
        blocks_ += [(4,) * 14, (3,) + (0,) * 13, (0,) * 13 + (4,)]
        b_blocks = [tuple(rng.randint(0, 1) for _ in range(14)) for _ in range(10)]
        b_blocks += [(1,) * 14, (0,) * 14]
        for name in ("floor_of_vector", "sign_of_vector", "shift_vector", "digits_vector"):
            monkeypatch.setattr(BetaBase, name, counted(name))
        monkeypatch.setattr(numeration, "greedy_vector_digits", refuse)
        cold = [adder.decompose(u) for u in blocks_]
        assert "digits_vector" not in calls and "floor_of_vector" in calls
        for u, dec in zip(blocks_, cold):
            assert any(dig > 2 for dig in u)
            calls.clear()
            assert adder.decompose(u) == dec
            assert calls == [], u
        fresh = BlockAdder(base, make_block_params(base, 2, 5))
        for u in b_blocks:
            calls.clear()
            assert fresh.decompose(u).C == u
            assert calls == [], u
        assert fresh._walk is None

    def test_insufficient_params_error_names_block(self, fib):
        adder = BlockAdder(fib, make_block_params(fib, 3, 0))
        with pytest.raises(InsufficientParamsError) as exc:
            adder.decompose((2,) + (0,) * 5)
        assert "(2, 0, 0, 0, 0, 0)" in str(exc.value)

    def test_bad_block_rejected(self, tribonacci_adder):
        k = tribonacci_adder.params.k
        for u in ((9,) * k, (0,) * (k - 1), (1,) * (k - 1) + (-1,)):
            with pytest.raises(ValueError):
                tribonacci_adder.decompose(u)


def _greedy_decompose(adder, u):
    """Reference decomposition: u * beta^(2s) evaluated and expanded greedily,
    None when the expansion is inexact or longer than 2k digits."""
    k, ell, s, B, A = adder.params
    if max(u) <= B.max_digit:
        return (0,) * (2 * ell), tuple(u), (0,) * (2 * s)
    base = adder.base
    int_digits, _, exact = greedy_vector_digits(base, base.digits_vector(u, 2 * s), 0)
    if not exact or len(int_digits) > 2 * k:
        return None
    pos = tuple(int_digits) + (0,) * (2 * k - len(int_digits))
    return pos[2 * s + k:], pos[2 * s:2 * s + k], pos[:2 * s]


def _walk_decompose(adder, u):
    try:
        return tuple(adder.decompose(u))
    except InsufficientParamsError:
        return None


class TestWalkMatchesGreedy:
    """The automaton walk against the greedy expansion it replaces."""

    def test_seeded_tribonacci_blocks(self, tri):
        adder = BlockAdder(tri, make_block_params(tri, 2, 5))
        rng = random.Random(2024)
        for _ in range(10000):
            u = tuple(rng.randint(0, 4) for _ in range(14))
            assert _walk_decompose(adder, u) == _greedy_decompose(adder, u), u

    @pytest.mark.parametrize("spec,k,ell,s,raises", [
        ("quadratic-minus:3,1", 4, 1, 1, 0), ("quadratic-minus:3,1", 4, 0, 2, 5875),
        ("fibonacci", 6, 3, 0, 8373), ("fibonacci", 6, 2, 1, 829),
    ])
    def test_every_block(self, spec, k, ell, s, raises):
        base = base_from_spec(spec)
        adder = BlockAdder(base, make_block_params(base, ell, s))
        assert adder.params.k == k
        failed = 0
        for u in itertools.product(range(adder.input_alphabet.max_digit + 1), repeat=k):
            want = _greedy_decompose(adder, u)
            assert _walk_decompose(adder, u) == want, u
            failed += want is None
        assert failed == raises

    def test_base_without_dbeta(self, monkeypatch):
        # X^2 - X - 3 is not Pisot: no d_beta(1) is found, so there is no
        # automaton, and a block outside B names the base instead of being
        # expanded some other way; blocks over B still pass through.  The
        # adder keeps the failed search: a second block raises the same
        # error without running it again
        base = base_from_spec("1,-1,-3")
        adder = BlockAdder(base, make_block_params(base, 1, 1))
        calls = []
        dbeta = numeration.renyi_dbeta
        monkeypatch.setattr(numeration, "renyi_dbeta", lambda b: calls.append(b) or dbeta(b))
        assert adder.decompose((2, 1, 0, 2)).C == (2, 1, 0, 2)
        for u in ((3, 0, 0, 0), (0, 4, 1, 0)):
            with pytest.raises(ValueError, match=re.escape(repr(base))) as exc:
                adder.decompose(u)
            assert not isinstance(exc.value, InsufficientParamsError)
        assert calls == [base]


class TestPhi:
    def test_zero_triple(self, tribonacci_adder):
        k = tribonacci_adder.params.k
        z = (0,) * k
        assert tribonacci_adder.phi(z, z, z) == z

    def test_fixed_blocks(self, tribonacci_adder):
        # constant triples over B-blocks are fixed points of the block map
        rng = random.Random(23)
        k = tribonacci_adder.params.k
        for _ in range(50):
            u = tuple(rng.randint(0, 1) for _ in range(k))
            assert tribonacci_adder.phi(u, u, u) == u

    def test_output_in_doubled_alphabet(self, tribonacci_adder):
        rng = random.Random(29)
        k = tribonacci_adder.params.k
        A = tribonacci_adder.params.A
        for _ in range(60):
            f, g, h = (tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(3))
            out = tribonacci_adder.phi(f, g, h)
            assert all(d in A for d in out)


class TestBlockAdd:
    def test_zero(self, tribonacci_adder):
        assert tribonacci_adder.add(DigitString(), DigitString()).is_zero()

    def test_one_plus_one(self, tribonacci_adder):
        x = parse_digits("1")
        out = tribonacci_adder.add(x, x)
        assert check_sum(tribonacci_adder, x, x, out)
        assert out == parse_digits("1,0.0,0,1")  # 2 = beta + beta^-3

    def test_random_strings(self, tribonacci_adder):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(0, 40)
            x = DigitString(tuple(rng.randint(0, 2) for _ in range(n)), n - 1)
            m = rng.randint(0, 40)
            y = DigitString(tuple(rng.randint(0, 2) for _ in range(m)), m - 1)
            assert check_sum(tribonacci_adder, x, y, tribonacci_adder.add(x, y))

    def test_fractional_inputs(self, tribonacci_adder):
        x = parse_digits("2,1.2,0,1")
        y = parse_digits("0.2,2,2")
        assert check_sum(tribonacci_adder, x, y, tribonacci_adder.add(x, y))

    def test_alphabet_enforced(self, tribonacci_adder):
        with pytest.raises(ValueError):
            tribonacci_adder.add(parse_digits("3"), parse_digits("1"))

    def test_each_block_read_is_decomposed_once(self, tri, monkeypatch):
        # a string spanning m blocks is read from two blocks below its
        # support to two above: m + 4 decompositions, not 3 per output block;
        # a plateau c != 0 adds the 3 blocks of the check that c is fixed
        adder = BlockAdder(tri, make_block_params(tri, 2, 5))
        k = adder.params.k
        decompose = BlockAdder.decompose
        calls = []

        def counted(self, u):
            calls.append(u)
            return decompose(self, u)

        monkeypatch.setattr(BlockAdder, "decompose", counted)
        rng = random.Random(11)
        for c, extra in ((0, 4), (1, 7)):
            for m in (1, 2, 5):
                calls.clear()
                u = DigitString(tuple(rng.randint(1, 4 - c) for _ in range(m * k)), 2 * k - 1)
                out = apply_local(adder, u, c)
                assert len(calls) == m + extra
                assert values_equal(eval_digit_string(u, tri), eval_digit_string(out, tri))

    def test_cache_changes_no_later_result(self, tri):
        # a twin built from the same arguments stands for the adder as
        # construction left it; the base is shared and keeps its own caches.
        # The used adder differs from it only in the walk's tables, and those
        # change no sum
        params = make_block_params(tri, 2, 5)
        adder, twin = BlockAdder(tri, params), BlockAdder(tri, params)
        rng = random.Random(13)

        def pairs(n_pairs):
            out = []
            for _ in range(n_pairs):
                n, m = rng.randint(0, 40), rng.randint(0, 40)
                out.append((DigitString(tuple(rng.randint(0, 2) for _ in range(n)),
                                        rng.randint(-5, n)),
                            DigitString(tuple(rng.randint(0, 2) for _ in range(m)),
                                        rng.randint(-5, m))))
            return out

        for x, y in pairs(100):
            adder.add(x, y)
        used, fresh = vars(adder), vars(twin)
        assert [name for name in used if used[name] != fresh[name]] == ["_walk"]
        second = pairs(50)
        assert [adder.add(x, y) for x, y in second] == [twin.add(x, y) for x, y in second]

    def test_sums_agree_across_threads(self, tri, monkeypatch):
        # eight threads add seeded pairs on one fresh unsigned and one fresh
        # signed adder; every table miss pauses, so threads build and publish
        # sets and transitions between each other's reads.  Each sum must
        # equal the serial sum of a fresh twin
        params = make_block_params(tri, 2, 5)
        build = blocks._BlockWalk.transition

        def pausing(self, node, e):
            time.sleep(1e-4)
            return build(self, node, e)

        def batch(seed):
            rng = random.Random(seed)
            out = []
            for alphabet in ((0, 2), (-1, 1)):
                for _ in range(6):
                    n, m = rng.randint(0, 3 * 14), rng.randint(0, 3 * 14)
                    out.append((DigitString(tuple(rng.randint(*alphabet) for _ in range(n)), n - 1),
                                DigitString(tuple(rng.randint(*alphabet) for _ in range(m)), m - 1)))
            return out

        def run(unsigned, signed, seed):
            work = batch(seed)
            return [unsigned.add(x, y) for x, y in work[:6]] + [signed.add(x, y) for x, y in work[6:]]

        want = [run(BlockAdder(tri, params), SignedBlockAdder(tri, params), i) for i in range(8)]
        monkeypatch.setattr(blocks._BlockWalk, "transition", pausing)
        unsigned, signed = BlockAdder(tri, params), SignedBlockAdder(tri, params)
        barrier = threading.Barrier(8)
        got = [None] * 8

        def work(i):
            barrier.wait(timeout=60)
            got[i] = run(unsigned, signed, i)

        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == want


def _lsd_first_convert(adder, u, c):
    """Reference block conversion: u + c laid out least significant digit
    first, from two blocks below the support to two above it, each block
    decomposed once and every output block built from its neighbours."""
    if u.is_zero():
        return DigitString()
    k = adder.params.k
    msd, lsd = u.support()
    lo = (lsd // k - 2) * k  # exponent of padded[0]
    padded = [c] * ((msd // k + 3) * k - lo)
    padded[lsd - lo:msd - lo + 1] = [dig + c for dig in reversed(u.digits)]
    decs = [adder.decompose(padded[i:i + k]) for i in range(0, len(padded), k)]
    assert adder._block_map(decs[0], decs[0], decs[0]) == [c] * k  # decs[0] is c^k
    out = []
    for j in range(1, len(decs) - 1):
        out.extend(adder._block_map(decs[j + 1], decs[j], decs[j - 1]))
    return DigitString([dig - c for dig in reversed(out)], lo + k + len(out) - 1)


class TestBlockLayer:
    """The block adder as a layer of apply_local, which reads padded strings
    most significant digit first."""

    def test_fixed_letters(self, tribonacci_adder):
        assert fixed_letters(tribonacci_adder) == {0, 1}

    @pytest.mark.parametrize("c", [0, 1])
    def test_matches_lsd_first_reference(self, tribonacci_adder, c):
        k = tribonacci_adder.params.k
        rng = random.Random(31 + c)
        for i in range(300):
            n = 0 if i % 50 == 0 else rng.randint(1, 3 * k)  # every 50th string is zero
            u = DigitString(tuple(rng.randint(-c, 4 - c) for _ in range(n)),
                            rng.randint(-2 * k, 2 * k))
            assert apply_local(tribonacci_adder, u, c) == _lsd_first_convert(
                tribonacci_adder, u, c), (u, c)


class TestEstimateS:
    def test_tribonacci_short_lengths(self, tri):
        assert estimate_s(tri, 1) == 3  # 1+1 = 10.001
        assert estimate_s(tri, 4) == 3

    def test_fibonacci(self, fib):
        rep = estimate_s_report(fib, 8)
        assert rep.s == 2 == certify_s(fib).s

    def test_fibonacci_single_digit(self, fib):
        assert estimate_s(fib, 1) == 2  # 1+1 = 10.01

    def test_fractional_digits_take_no_exact_sign(self, monkeypatch):
        # every fractional greedy digit is a floor at scale 0 that the
        # 64-bit enclosure pins, so the sweep decides no sign exactly
        base = dbonacci_base(3)
        sign = BetaBase.sign_of_vector
        calls = []

        def counted(self, v):
            calls.append(v)
            return sign(self, v)

        monkeypatch.setattr(BetaBase, "sign_of_vector", counted)
        rep = estimate_s_report(base, 6)
        monkeypatch.undo()
        assert rep.s == 3
        assert calls == []

    @pytest.mark.parametrize("spec,test_len", [
        ("fibonacci", 8), ("tribonacci", 6), ("quadratic-plus:2,2", 3), ("quadratic-minus:3,1", 4),
    ])
    def test_matches_per_pair_sweep(self, spec, test_len):
        # the reference expands the sum of every pair on its own
        base = base_from_spec(spec)
        values = [eval_digit_string(DigitString(w, len(w) - 1), base)
                  for w in iter_beta_integer_words(base, test_len)]
        depths = [greedy_fractional_depth(base, qv_add(x, y).coeffs)
                  for i, x in enumerate(values) for y in values[i:]]
        assert estimate_s_report(base, test_len) == (max(depths), len(depths))

    def test_covers_every_pair(self, tri):
        # 927 words of at most 11 digits, all 927 * 928 / 2 pairs
        assert estimate_s_report(tri, 11).pairs_checked == 430128

    def test_non_pf_rejected(self):
        base = base_from_spec("1,-1,0,-1")
        with pytest.raises(ValueError):
            estimate_s(base, 3)


class TestCertifyS:
    # (ell, s, k) of the d-bonacci block adders, d = 2..5, and the witness
    # pair and state count of the search that certifies s
    GOLDEN = {
        2: (3, 2, 10, "1", "1", 45),
        3: (2, 5, 14, "1,0,0,1,0,1,1,0,1,0", "1,0,0,1,0,1,1,0,1,1", 389),
        4: (2, 8, 20, "1,0,0,1,0,0,0,1", "1,1,0,0,1,1,0,0,1", 2687),
        5: (2, 15, 34, "1,0,0,1,1,0,0,1,1,0,0,0,1,0,0,0,1,1,0,0,0,1,1,0,0,1,1,0,0,0,1,1,0,0,1",
            "1,1,0,0,1,1,0,0,1,1,1,0,0,1,1,0,0,1,1,0,0,0,1,1,0,0,1,1,0,0,1,1,1,0,0,1", 14858),
    }

    @pytest.mark.parametrize("d", sorted(GOLDEN))
    def test_dbonacci_golden_table(self, d):
        base = dbonacci_base(d)
        cert = certify_s(base)
        p = params_for_pf_base(base, cert.s)
        assert (p.ell, p.s, p.k) == self.GOLDEN[d][:3]
        assert (str(cert.witness_x), str(cert.witness_y), cert.states) == self.GOLDEN[d][3:]
        # the witness pair attains s exactly
        total = qv_add(eval_digit_string(cert.witness_x, base),
                       eval_digit_string(cert.witness_y, base))
        assert total.scale == 0
        assert greedy_fractional_depth(base, total.coeffs) == cert.s

    # the witness pair and state count of each quadratic base's search
    QUADRATIC = {"quadratic-plus:4,2": ("1", "4", 75), "quadratic-plus:2,2": ("1,0,2", "2,0,2", 98),
                 "quadratic-minus:3,1": ("1", "2", 43)}

    @pytest.mark.parametrize("spec,s", [("quadratic-plus:4,2", 2), ("quadratic-plus:2,2", 4),
                                        ("quadratic-minus:3,1", 1)])
    def test_quadratic_witnesses(self, spec, s):
        base = base_from_spec(spec)
        cert = certify_s(base)
        assert cert.s == s
        assert (str(cert.witness_x), str(cert.witness_y), cert.states) == self.QUADRATIC[spec]
        total = qv_add(eval_digit_string(cert.witness_x, base),
                       eval_digit_string(cert.witness_y, base))
        assert greedy_fractional_depth(base, total.coeffs) == s

    @pytest.mark.parametrize("spec,test_len,exhaustive_s", [
        ("fibonacci", 1, 2), ("fibonacci", 8, 2),
        # exhaustive through length 4 and still below the certified 5
        ("tribonacci", 4, 3), ("tribonacci", 6, 3),
        ("dbonacci:4", 5, 4), ("quadratic-plus:2,2", 3, 4),
    ])
    def test_never_below_the_estimate(self, spec, test_len, exhaustive_s):
        base = base_from_spec(spec)
        rep = estimate_s_report(base, test_len)
        assert rep.s == exhaustive_s
        assert certify_s(base).s >= rep.s

    def test_reached_values_are_read_by_floor_alone(self, monkeypatch):
        # each reached value is kept, dropped or ended by one exact floor;
        # on Tribonacci every such floor is pinned by its enclosure, so the
        # search asks no sign at all
        base = dbonacci_base(3)
        calls = {"sign_of_vector": 0, "floor_of_vector": 0}

        def counted(name):
            method = getattr(BetaBase, name)

            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(BetaBase, name, counted(name))
        assert certify_s(base).states == 389
        monkeypatch.undo()
        assert calls["sign_of_vector"] == 0
        assert 0 < calls["floor_of_vector"] <= 200

    def test_dbonacci_adder_never_sweeps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("estimate_s_report called")

        monkeypatch.setattr(blocks, "estimate_s_report", refuse)
        adder = dbonacci_block_adder(3)
        assert (adder.params.k, adder.params.ell, adder.params.s) == (14, 2, 5)

    def test_non_pf_rejected(self):
        with pytest.raises(ValueError):
            certify_s(base_from_spec("1,-1,0,-1"))

    def test_infinite_greedy_tail_is_decided(self):
        # beta^2 = 3 beta - 1: z = beta - 2 has greedy expansion .1^omega.
        # After a g ending in 2 the tail makes 2 1^omega = d*, never rejected
        # in any finite prefix; the repeated remainder decides it.
        base = quadratic_minus_base(3, 1)
        aut = AdmissibilityAutomaton.of_base(base)
        z = (-2, 1)
        assert admissible_greedy_depth(base, aut, z, aut.step(0, 2)) is None
        # read from the start state the same tail is admissible and infinite,
        # which a (PF) sum can never produce
        with pytest.raises(RuntimeError, match="not \\(PF\\)"):
            admissible_greedy_depth(base, aut, z, 0)


class TestQuadraticBlockBases:
    """The block construction is not d-bonacci specific: any (PF) base works."""

    def test_quadratic_plus_block_adder(self, qp42):
        s = estimate_s(qp42, 4)
        assert s == certify_s(qp42).s
        params = params_for_pf_base(qp42, s)
        assert (params.k, params.ell, params.s) == (6, 1, 2)
        assert params.A == Alphabet(0, 8)
        adder = BlockAdder(qp42, params)
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(0, 20)
            x = DigitString(tuple(rng.randint(0, 8) for _ in range(n)), n - 1)
            m = rng.randint(0, 20)
            y = DigitString(tuple(rng.randint(0, 8) for _ in range(m)), m - 1)
            assert check_sum(adder, x, y, adder.add(x, y))

    def test_equal_coefficients_base_covered(self):
        # no 1-block elimination table ships for beta^2 = a*beta + a; the
        # block construction handles those bases instead
        from betapar.algebraic import quadratic_plus_base

        qp22 = quadratic_plus_base(2, 2)
        s = estimate_s(qp22, 5)
        assert s == certify_s(qp22).s
        params = params_for_pf_base(qp22, s)
        adder = BlockAdder(qp22, params)
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(0, 15)
            x = DigitString(tuple(rng.randint(0, 4) for _ in range(n)), n - 1)
            m = rng.randint(0, 15)
            y = DigitString(tuple(rng.randint(0, 4) for _ in range(m)), m - 1)
            assert check_sum(adder, x, y, adder.add(x, y))

    def test_quadratic_minus_block_adder(self, qm31):
        s = estimate_s(qm31, 6)
        assert s == certify_s(qm31).s
        params = params_for_pf_base(qm31, s)
        assert (params.k, params.ell, params.s) == (4, 1, 1)
        adder = BlockAdder(qm31, params)
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(0, 20)
            x = DigitString(tuple(rng.randint(0, 4) for _ in range(n)), n - 1)
            m = rng.randint(0, 20)
            y = DigitString(tuple(rng.randint(0, 4) for _ in range(m)), m - 1)
            assert check_sum(adder, x, y, adder.add(x, y))


class TestDbonacci:
    def test_tribonacci_is_14_block(self):
        adder = dbonacci_block_adder(3, s=5)
        assert (adder.params.k, adder.params.ell, adder.params.s) == (14, 2, 5)

    def test_fibonacci_block_adder(self):
        adder = dbonacci_block_adder(2, s=2)
        assert adder.params.k == 10
        x = parse_digits("1")
        out = adder.add(x, x)
        assert check_sum(adder, x, x, out)
        assert out == parse_digits("1,0.0,1")  # 2 = beta + beta^-2

    def test_signed_tribonacci(self):
        adder = dbonacci_block_adder(3, signed=True, s=5)
        assert adder.alphabet == Alphabet(-1, 1)
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(0, 30)
            x = DigitString(tuple(rng.randint(-1, 1) for _ in range(n)), n - 1)
            m = rng.randint(0, 30)
            y = DigitString(tuple(rng.randint(-1, 1) for _ in range(m)), m - 1)
            assert check_sum(adder, x, y, adder.add(x, y))

    def test_signed_effective_window(self):
        # L = 2 layers on 14-digit blocks: an output block reads 2L + 1 input blocks
        adder = dbonacci_block_adder(3, signed=True, s=5)
        assert adder.effective_window == 70

    def test_unsigned_chain_effective_window(self, tri):
        # {0,1,2}: two positive layers of the 14-block 3-local map, (1 + 2 * 2) * 14
        adder = ChainAdder(BlockAdder(tri, make_block_params(tri, 2, 5)), Alphabet(0, 2))
        assert adder.effective_window == 70

    def test_signed_locality(self):
        adder = dbonacci_block_adder(3, signed=True, s=5)
        k = adder.params.k
        radius = (adder.effective_window // k - 1) // 2  # in blocks
        rng = random.Random(11)
        for _ in range(20):
            x = DigitString(tuple(rng.randint(-1, 1) for _ in range(6 * k)), 3 * k - 1)
            y = DigitString(tuple(rng.randint(-1, 1) for _ in range(6 * k)), 3 * k - 1)
            i = rng.randrange(len(y.digits))
            digits = list(y.digits)
            digits[i] = rng.choice([d for d in (-1, 0, 1) if d != digits[i]])
            m = (y.msd_exponent - i) // k  # block of the changed digit
            out = adder.add(x, y)
            changed = adder.add(x, DigitString(tuple(digits), y.msd_exponent)) - out
            msd = changed.msd_exponent
            for j, dig in enumerate(changed.digits):
                if dig:
                    assert m - radius <= (msd - j) // k <= m + radius

    def test_unfixed_plateau_rejected_by_apply_local(self):
        # the block map fixes only 0^k and 1^k, so 2^k plateaus do not cancel far out
        adder = dbonacci_block_adder(3, s=5)
        for u in (parse_digits("1"), DigitString()):
            with pytest.raises(ValueError, match="plateau 2 is not a fixed letter of block:14,2,5"):
                apply_local(adder, u, 2)

    def test_signed_fibonacci_constructs(self):
        adder = dbonacci_block_adder(2, signed=True, s=2)
        assert isinstance(adder, SignedBlockAdder)
        k = adder.params.k
        rng = random.Random(2357)
        for _ in range(200):
            x, y = (DigitString(tuple(rng.randint(-1, 1) for _ in range(n)), n - 1)
                    for n in (rng.randint(0, 3 * k), rng.randint(0, 3 * k)))
            assert check_sum(adder, x, y, adder.add(x, y)), (x, y)

    def test_d_too_small(self):
        with pytest.raises(ValueError):
            dbonacci_block_adder(1)
