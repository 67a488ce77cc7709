import pytest

from betapar import (
    BlockAdder,
    LocalRule,
    fibonacci_base,
    gde_minus,
    gde_plus,
    gde_plus_special,
    make_block_params,
    quadratic_minus_base,
    quadratic_plus_base,
    tribonacci_base,
)


@pytest.fixture(scope="session")
def fib():
    return fibonacci_base()


@pytest.fixture(scope="session")
def tri():
    return tribonacci_base()


@pytest.fixture(scope="session")
def qp42():
    return quadratic_plus_base(4, 2)


@pytest.fixture(scope="session")
def qm31():
    return quadratic_minus_base(3, 1)


@pytest.fixture(scope="session")
def rule_plus42():
    return gde_plus(4, 2)


@pytest.fixture(scope="session")
def rule_special3():
    return gde_plus_special(3)


@pytest.fixture(scope="session")
def rule_minus41():
    return gde_minus(4, 1)


@pytest.fixture(scope="session")
def tribonacci_adder(tri):
    return BlockAdder(tri, make_block_params(tri, 2, 5))


@pytest.fixture(scope="session")
def corrupt():
    """The function that breaks a rule on purpose: every window whose centre
    digit is 1 has its output raised by 1, and the rule is left untabulated.

    On a string that holds a 1 the output then exceeds the rule's by the sum
    of beta^j over the positions j of its 1s, which is positive, or a window
    leaves the output alphabet and raises; either way a sweep reports a
    counterexample.  Every exhaustive sweep of length 1 or more meets the
    string 1, and a random string misses the digit 1 only rarely.
    ``tests/test_cli.py`` sweeps it through ``betapar verify``.
    """
    def corrupt(rule):
        fn, t = rule.window_fn, rule.anticipation
        return LocalRule(rule.base, rule.memory, t, rule.input_alphabet,
                         rule.output_alphabet, lambda w: fn(w) + (w[t] == 1),
                         name=rule.name + "-corrupt", tabulate_threshold=0)
    return corrupt
