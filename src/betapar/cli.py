"""Command-line front end: expansions, adders, verification sweeps, bounds.

Digit strings on the command line use the comma/radix-point format
(``1,2,2.2``; negative digits as ``-1``).  Exit codes: 0 success, 1
validation error, 2 verification counterexample or oracle mismatch (the
latter is a bug trap and should never fire).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import numeration
from .algebraic import base_from_spec
from .blocks import (
    BlockAdder,
    certify_s,
    make_block_params,
    params_for_pf_base,
)
from .bounds import (
    block_impossible_unit_conjugate,
    block_lower_bound_nonsimple,
    block_lower_bound_simple,
    lower_bound_1block,
    upper_bound_corollaries,
)
from .conversion import LocalRule, check_sum, exhaustive, random_strings, verify_conversion
from .digits import format_digits, parse_digits
from .numeration import classify_parry, pf_sufficient
from .quadratic import gde_rule, quadratic_family, shifted_adder


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_dbeta(args):
    base = base_from_spec(args.base)
    kind, d = classify_parry(base)
    if d is None:
        _emit(args, {"base": args.base, "classification": "unknown"},
              ["d_beta(1): unknown after %d steps" % numeration._MAX_STEPS])
        return 0
    pf = pf_sufficient(d)
    payload = {"base": args.base, "dbeta1": str(d), "classification": kind, "pf_class": pf}
    _emit(args, payload, ["d_beta(1) = %s" % d, "classification: %s Parry" % kind,
                          "(F)/(PF) sufficient check: %s" % pf])
    return 0


def _corrupt_rule(rule):
    """A deliberately broken rule (testing hook): every window whose centre digit is 1
    has its output raised by 1.

    On a string that holds a 1 the output then exceeds the rule's by the sum
    of beta^j over the positions j of its 1s, which is positive, or a window
    leaves the output alphabet and raises; either way the sweep reports a
    counterexample.  Every exhaustive sweep of length 1 or more meets the
    string 1, and a random string misses the digit 1 only rarely.  The rule
    is left untabulated: a sweep reads only the windows it meets.
    """
    fn = rule.window_fn
    t = rule.anticipation
    return LocalRule(rule.base, rule.memory, t, rule.input_alphabet,
                     rule.output_alphabet, lambda w: fn(w) + (w[t] == 1),
                     name=rule.name + "-corrupt", tabulate_threshold=0)


def _for_family(build, base, *args):
    """build(kind, a, b, *args) for the quadratic family of base.

    A ValueError of build, such as a base outside the elimination's
    hypotheses, is reported with the base's equation, family and (a, b).
    """
    kind, a, b = quadratic_family(base)
    try:
        return build(kind, a, b, *args)
    except ValueError as exc:
        raise ValueError("beta^2 = %d beta %s %d (%s family, a = %d, b = %d): %s"
                         % (a, "-" if kind == "minus" else "+", b, kind, a, b, exc)) from None


def cmd_verify(args):
    rule = _for_family(gde_rule, base_from_spec(args.base))
    if args.corrupt:
        rule = _corrupt_rule(rule)
    if args.exhaustive is not None:
        strategy = exhaustive(args.exhaustive)
    elif args.random is not None:
        strategy = random_strings(args.random, args.seed)
    else:
        raise ValueError("choose --exhaustive L or --random N")
    report = verify_conversion(rule, strategy)
    _emit(args, report.to_dict(),
          ["%s over %s: %s (%d strings checked)"
           % (report.rule_name, report.strategy, report.verdict, report.checked_count)]
          + ["  counterexample: %s -> %s (%s)" % f for f in report.failures])
    return 0 if report.verdict == "pass" else 2


def _add_checked(args, adder, payload, line):
    """Parse x and y, add them, check the sum exactly and emit it after line.

    payload lists the command's JSON fields in order; x, y, result and
    value_ok are filled in where it places them.
    """
    x = parse_digits(args.x)
    y = parse_digits(args.y)
    out = adder.add(x, y)
    ok = check_sum(adder, x, y, out)
    payload.update(x=format_digits(x), y=format_digits(y), result=format_digits(out), value_ok=ok)
    _emit(args, payload, [format_digits(out), line, "value-ok" if ok else "VALUE MISMATCH (bug)"])
    return 0 if ok else 2


def cmd_add(args):
    adder = _for_family(shifted_adder, base_from_spec(args.base), args.shift)
    payload = {"base": args.base, "x": None, "y": None, "result": None,
               "alphabet": str(adder.alphabet), "value_ok": None}
    return _add_checked(args, adder, payload, "alphabet: %s" % adder.alphabet)


def cmd_block_add(args):
    base = base_from_spec(args.base)
    witness = None
    if args.ell is not None and args.s is not None:
        params = make_block_params(base, args.ell, args.s)
    elif args.ell is None and args.s is None:
        cert = certify_s(base)
        witness = [format_digits(cert.witness_x), format_digits(cert.witness_y)]
        if not args.json:
            print("certified s = %d, attained by %s + %s (%d search states)"
                  % (cert.s, witness[0], witness[1], cert.states))
        params = params_for_pf_base(base, cert.s)
    else:
        raise ValueError("give both --ell and --s, or neither to certify s")
    payload = {"base": args.base, "k": params.k, "ell": params.ell, "s": params.s,
               "x": None, "y": None, "result": None, "value_ok": None}
    if witness is not None:
        payload["s_witness"] = witness
    return _add_checked(args, BlockAdder(base, params), payload, "k=%d ell=%d s=%d alphabet %s"
                        % (params.k, params.ell, params.s, params.A))


def cmd_bounds(args):
    base = base_from_spec(args.base)
    kind, d = classify_parry(base)
    one_block = lower_bound_1block(base.poly)
    impossibility = block_impossible_unit_conjugate(base.poly)
    payload = {
        "base": args.base,
        "minimal_polynomial": str(base.poly),
        "classification": kind,
        "dbeta1": None if d is None else str(d),
        "one_block_cardinality_lower_bound": one_block,
        "unit_circle_conjugate": impossibility,
    }
    lines = ["minimal polynomial: %s" % base.poly,
             "d_beta(1) = %s (%s Parry)" % (d, kind) if d is not None
             else "d_beta(1) unknown after %d steps" % numeration._MAX_STEPS,
             "1-block alphabet cardinality >= %d" % one_block,
             "unit-circle conjugate: %s" % impossibility]
    if d is not None:
        payload["pf_class"] = pf_sufficient(d)
        lines.append("(F)/(PF) sufficient check: %s" % payload["pf_class"])
        simple = block_lower_bound_simple(d)
        nonsimple = block_lower_bound_nonsimple(d)
        interval = upper_bound_corollaries(d)
        payload["block_cardinality_lower_bound_simple"] = simple
        payload["block_cardinality_lower_bound_nonsimple"] = nonsimple
        payload["block_minimal_M_interval"] = interval
        lines.append("block bound (simple case): %s"
                     % ("cardinality >= %d" % simple if simple else "not-applicable"))
        lines.append("block bound (non-simple case): %s"
                     % ("cardinality >= %d" % nonsimple if nonsimple else "not-applicable"))
        lines.append("minimal M bracketing: %s"
                     % ("%d <= M <= %d" % interval if interval else "not-applicable"))
    _emit(args, payload, lines)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="betapar",
        description="Parallel and k-block parallel addition in algebraic bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dbeta", help="Renyi expansion of 1 and Parry classification")
    p.add_argument("--base", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dbeta)

    p = sub.add_parser("add", help="add two digit strings with a GDE-chain adder")
    p.add_argument("--base", required=True, help="a quadratic base")
    p.add_argument("--shift", type=int, default=0, help="alphabet shift d")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_add)

    p = sub.add_parser("verify", help="verify a base's GDE rule against the exact oracle")
    p.add_argument("--base", required=True, help="a quadratic base")
    p.add_argument("--exhaustive", type=int, metavar="MAXLEN")
    p.add_argument("--random", type=int, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="raise every window output centred on a 1 by 1 (forces a counterexample)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("block-add", help="k-block parallel addition")
    p.add_argument("--base", required=True)
    p.add_argument("--ell", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_block_add)

    p = sub.add_parser("bounds", help="bound report for a base")
    p.add_argument("--base", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
