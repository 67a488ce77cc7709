import random

import pytest

from betapar import blocks
from betapar.algebraic import (
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
from betapar.conversion import check_sum
from betapar.digits import Alphabet, DigitString, parse_digits
from betapar.numeration import (
    AdmissibilityAutomaton,
    admissible_greedy_depth,
    greedy_fractional_depth,
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
        p = params_for_pf_base(base, s=1, allow_non_pf=True)
        assert p.k == 2 * (p.ell + 1)


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
        rng = random.Random(17)
        base = tribonacci_adder.base
        k, ell, s, B, A = tribonacci_adder.params
        for _ in range(300):
            u = tuple(rng.randint(0, 4) for _ in range(k))
            L, C, S = tribonacci_adder.decompose(u)
            # identity checked internally; re-check evaluation here
            val = lambda digs, shift: eval_digit_string(
                DigitString(tuple(reversed(digs)), len(digs) - 1 + shift), base)
            lhs = eval_digit_string(DigitString(tuple(reversed(u)), k - 1), base)
            from betapar.algebraic import qv_add

            rhs = qv_add(qv_add(val(L, k), val(C, 0)), val(S, -2 * s))
            assert values_equal(lhs, rhs)

    def test_insufficient_params_error_names_block(self, fib):
        adder = BlockAdder(fib, make_block_params(fib, 3, 0))
        with pytest.raises(InsufficientParamsError) as exc:
            adder.decompose((2,) + (0,) * 5)
        assert "(2, 0, 0, 0, 0, 0)" in str(exc.value)

    def test_bad_block_rejected(self, tribonacci_adder):
        k = tribonacci_adder.params.k
        with pytest.raises(ValueError):
            tribonacci_adder.decompose((9,) * k)
        with pytest.raises(ValueError):
            tribonacci_adder.decompose((0,) * (k - 1))


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
        # support to two above: m + 4 decompositions, not 3 per output block
        adder = BlockAdder(tri, make_block_params(tri, 2, 5))
        k = adder.params.k
        decompose = BlockAdder.decompose
        calls = []

        def counted(self, u):
            calls.append(u)
            return decompose(self, u)

        monkeypatch.setattr(BlockAdder, "decompose", counted)
        rng = random.Random(11)
        for m in (1, 2, 5):
            calls.clear()
            u = DigitString(tuple(rng.randint(1, 4) for _ in range(m * k)), 2 * k - 1)
            out = adder.convert(u)
            assert len(calls) == m + 4
            assert values_equal(eval_digit_string(u, tri), eval_digit_string(out, tri))

    def test_adder_holds_no_state(self, tri):
        # a twin built from the same arguments stands for the adder as
        # construction left it; the base is shared and keeps its own caches
        params = make_block_params(tri, 2, 5)
        adder = BlockAdder(tri, params)
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(0, 40)
            x = DigitString(tuple(rng.randint(0, 2) for _ in range(n)), rng.randint(-5, n))
            m = rng.randint(0, 40)
            y = DigitString(tuple(rng.randint(0, 2) for _ in range(m)), rng.randint(-5, m))
            adder.add(x, y)
        assert vars(adder) == vars(BlockAdder(tri, params))


class TestEstimateS:
    def test_tribonacci_short_lengths(self, tri):
        assert estimate_s(tri, 1) == 3  # 1+1 = 10.001
        assert estimate_s(tri, 4) == 3

    def test_fibonacci(self, fib):
        rep = estimate_s_report(fib, 8)
        assert rep.s == 2 == certify_s(fib).s
        assert not rep.is_estimate

    def test_fibonacci_single_digit(self, fib):
        assert estimate_s(fib, 1) == 2  # 1+1 = 10.01

    def test_budget_marks_estimate(self, tri):
        rep = estimate_s_report(tri, 6, pair_budget=10, sample_pairs=50)
        assert rep.is_estimate
        assert rep.exhaustive_len < 6

    def test_non_pf_rejected(self):
        base = base_from_spec("1,-1,0,-1")
        with pytest.raises(ValueError):
            estimate_s(base, 3)


class TestCertifyS:
    # (ell, s, k) of the d-bonacci block adders, d = 2..5
    GOLDEN = {2: (3, 2, 10), 3: (2, 5, 14), 4: (2, 8, 20), 5: (2, 15, 34)}

    @pytest.mark.parametrize("d", sorted(GOLDEN))
    def test_dbonacci_golden_table(self, d):
        base = dbonacci_base(d)
        cert = certify_s(base)
        p = params_for_pf_base(base, cert.s)
        assert (p.ell, p.s, p.k) == self.GOLDEN[d]
        # the witness pair attains s exactly
        total = qv_add(eval_digit_string(cert.witness_x, base),
                       eval_digit_string(cert.witness_y, base))
        assert total.scale == 0
        assert greedy_fractional_depth(base, total.coeffs) == cert.s

    @pytest.mark.parametrize("spec,s", [("quadratic-plus:4,2", 2), ("quadratic-plus:2,2", 4),
                                        ("quadratic-minus:3,1", 1)])
    def test_quadratic_witnesses(self, spec, s):
        base = base_from_spec(spec)
        cert = certify_s(base)
        assert cert.s == s
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
        assert not rep.is_estimate and rep.s == exhaustive_s
        assert certify_s(base).s >= rep.s

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

    def test_signed_fibonacci_constructs(self):
        # construction self-verifies on 200 seeded pairs
        adder = dbonacci_block_adder(2, signed=True, s=2)
        assert isinstance(adder, SignedBlockAdder)

    def test_d_too_small(self):
        with pytest.raises(ValueError):
            dbonacci_block_adder(1)
