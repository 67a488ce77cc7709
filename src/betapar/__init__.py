"""Parallel and k-block parallel addition in non-standard numeration systems.

The package implements, over real algebraic-integer bases beta > 1:

* exact arithmetic in Z[beta] and the value oracle every conversion is
  verified against (:mod:`betapar.algebraic`);
* greedy expansions, d_beta(1), Parry classification and admissibility
  (:mod:`betapar.numeration`);
* p-local digit maps, digit set conversions, verification sweeps and
  elimination-chain adders (:mod:`betapar.conversion`);
* the explicit greatest-digit-elimination rules for quadratic Pisot bases
  plus their full and shifted adders (:mod:`betapar.quadratic`);
* k-block 3-local parallel addition for (PF) bases, with the block
  parameter s certified exactly and the Tribonacci 14-block adder on
  {0,1,2} as the flagship instance (:mod:`betapar.blocks`);
* alphabet-cardinality bounds and the exact unit-circle impossibility
  decision (:mod:`betapar.bounds`).

A small CLI wraps the lot: ``betapar dbeta|add|verify|block-add|bounds``.
"""

from .algebraic import (
    BetaBase,
    MinimalPolynomial,
    QuotientValue,
    base_from_spec,
    certified_floor,
    dbonacci_base,
    eval_digit_string,
    fibonacci_base,
    qv_add,
    qv_mul_beta_pow,
    qv_mul_int,
    qv_neg,
    qv_sub,
    quadratic_minus_base,
    quadratic_plus_base,
    self_reciprocal,
    tribonacci_base,
    values_equal,
)
from .blocks import (
    BlockAdder,
    BlockParams,
    InsufficientParamsError,
    SCertificate,
    SignedBlockAdder,
    certify_s,
    dbonacci_block_adder,
    estimate_s,
    estimate_s_report,
    make_block_params,
    params_for_pf_base,
)
from .bounds import (
    IMPOSSIBLE_EVIDENCE,
    NO_EVIDENCE,
    block_impossible_unit_conjugate,
    block_lower_bound_nonsimple,
    block_lower_bound_simple,
    lower_bound_1block,
    upper_bound_corollaries,
)
from .conversion import (
    ChainAdder,
    ConversionReport,
    LocalRule,
    apply_local,
    check_sum,
    exhaustive,
    fixed_letters,
    random_strings,
    verify_conversion,
)
from .digits import Alphabet, DigitString, format_digits, parse_digits
from .numeration import (
    AdmissibilityAutomaton,
    EventuallyPeriodicString,
    GreedyExpansion,
    canonical_alphabet,
    classify_parry,
    greedy_expand,
    greedy_expand_ge1,
    greedy_tail,
    is_admissible,
    iter_beta_integer_words,
    lex_compare,
    parse_eventually_periodic,
    pf_sufficient,
    quasi_greedy,
    renyi_dbeta,
)
from .quadratic import (
    gde_minus,
    gde_plus,
    gde_plus_special,
    quadratic_adder,
    shifted_adder,
)

__version__ = "0.1.0"
