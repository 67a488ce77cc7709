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

from .algebraic import base_from_spec
from .blocks import (
    BlockAdder,
    certify_s,
    estimate_s_report,
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
from .digits import Alphabet, format_digits, parse_digits
from .numeration import classify_parry, pf_sufficient
from .quadratic import (
    gde_minus,
    gde_plus,
    gde_plus_special,
    quadratic_adder,
    quadratic_family,
    shifted_adder,
)


class CliError(Exception):
    pass


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_dbeta(args):
    base = base_from_spec(args.base)
    kind, d = classify_parry(base, args.max_steps)
    if d is None:
        _emit(args, {"base": args.base, "classification": "unknown"},
              ["d_beta(1): unknown after %d steps" % args.max_steps])
        return 0
    pf = pf_sufficient(d)
    payload = {"base": args.base, "dbeta1": str(d), "classification": kind, "pf_class": pf}
    _emit(args, payload, ["d_beta(1) = %s" % d, "classification: %s Parry" % kind,
                          "(F)/(PF) sufficient check: %s" % pf])
    return 0


def _rule_from_spec(spec):
    spec = spec.strip().lower()
    try:
        if spec.startswith("gde-plus-special:"):
            return gde_plus_special(int(spec.split(":", 1)[1]))
        if spec.startswith("gde-plus:"):
            a, b = (int(t) for t in spec.split(":", 1)[1].split(","))
            return gde_plus(a, b)
        if spec.startswith("gde-minus:"):
            a, b = (int(t) for t in spec.split(":", 1)[1].split(","))
            return gde_minus(a, b)
    except ValueError as exc:
        raise CliError("bad rule spec %r: %s" % (spec, exc)) from None
    raise CliError("unknown rule spec %r (try gde-plus:a,b, gde-plus-special:a, gde-minus:a,b)"
                   % spec)


def _corrupt_rule(rule):
    """Perturb one window output by +1: a deliberately broken rule (testing hook).

    The victim is the isolated-1 window (a single 1 surrounded by zeros),
    which almost every input string contains somewhere, so both exhaustive
    and random sweeps find the forced value mismatch quickly.
    """
    fn = rule.window_fn
    victim = tuple(1 if i == rule.anticipation else 0 for i in range(rule.p))

    def broken(w, _fn=fn, _victim=victim):
        out = _fn(w)
        return out + 1 if w == _victim else out

    wider = Alphabet(rule.output_alphabet.min_digit, rule.output_alphabet.max_digit + 1)
    return LocalRule(rule.base, rule.memory, rule.anticipation, rule.input_alphabet,
                     wider, broken, name=rule.name + "-corrupt")


def cmd_verify(args):
    rule = _rule_from_spec(args.rule)
    if args.corrupt:
        rule = _corrupt_rule(rule)
    if args.exhaustive is not None:
        strategy = exhaustive(args.exhaustive)
    elif args.random is not None:
        strategy = random_strings(args.random, args.seed)
    else:
        raise CliError("choose --exhaustive L or --random N")
    report = verify_conversion(rule, strategy)
    if args.json:
        print(report.to_json(indent=2))
    else:
        print("%s over %s: %s (%d strings checked)"
              % (report.rule_name, report.strategy, report.verdict, report.checked_count))
        for f in report.failures:
            print("  counterexample: %s -> %s (%s)" % f)
    return 0 if report.verdict == "pass" else 2


def cmd_add(args):
    base = base_from_spec(args.base)
    x = parse_digits(args.x)
    y = parse_digits(args.y)
    kind, a, b = quadratic_family(base)
    if args.shift:
        adder = shifted_adder(kind, a, b, args.shift)
    else:
        adder = quadratic_adder(kind, a, b)
    try:
        out = adder.add(x, y)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    ok = check_sum(adder, x, y, out)
    payload = {"base": args.base, "x": format_digits(x),
               "y": format_digits(y), "result": format_digits(out),
               "alphabet": str(adder.alphabet), "value_ok": ok}
    _emit(args, payload, ["%s" % format_digits(out),
                          "alphabet: %s" % adder.alphabet,
                          "value-ok" if ok else "VALUE MISMATCH (bug)"])
    return 0 if ok else 2


def cmd_block_add(args):
    base = base_from_spec(args.base)
    witness = None
    if args.estimate_s:
        rep = estimate_s_report(base, args.test_len)
        print("estimated s = %d (exhaustive through length %d, %d pairs)"
              % (rep.s, rep.exhaustive_len, rep.pairs_checked))
        params = params_for_pf_base(base, rep.s)
    elif args.ell is not None and args.s is not None:
        params = make_block_params(base, args.ell, args.s)
    elif args.ell is None and args.s is None:
        cert = certify_s(base)
        witness = [format_digits(cert.witness_x), format_digits(cert.witness_y)]
        if not args.json:
            print("certified s = %d, attained by %s + %s (%d search states)"
                  % (cert.s, witness[0], witness[1], cert.states))
        params = params_for_pf_base(base, cert.s)
    else:
        raise CliError("give both --ell and --s, or neither to certify s, or --estimate-s")
    if args.k is not None and args.k != params.k:
        raise CliError("inconsistent --k: expected %d = 2*(ell+s)" % params.k)
    adder = BlockAdder(base, params)
    x = parse_digits(args.x)
    y = parse_digits(args.y)
    try:
        out = adder.add(x, y)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    ok = check_sum(adder, x, y, out)
    payload = {"base": args.base, "k": params.k, "ell": params.ell, "s": params.s,
               "x": format_digits(x), "y": format_digits(y),
               "result": format_digits(out), "value_ok": ok}
    if witness is not None:
        payload["s_witness"] = witness
    _emit(args, payload, ["%s" % format_digits(out),
                          "k=%d ell=%d s=%d alphabet %s" % (params.k, params.ell,
                                                            params.s, params.A),
                          "value-ok" if ok else "VALUE MISMATCH (bug)"])
    return 0 if ok else 2


def cmd_bounds(args):
    base = base_from_spec(args.base)
    kind, d = classify_parry(base, args.max_steps)
    one_block = lower_bound_1block(base.poly, is_real_gt1=True)
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
             else "d_beta(1) unknown after %d steps" % args.max_steps,
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
    p.add_argument("--max-steps", type=int, default=10000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dbeta)

    p = sub.add_parser("add", help="add two digit strings with a GDE-chain adder")
    p.add_argument("--base", required=True, help="a quadratic base")
    p.add_argument("--shift", type=int, default=0, help="alphabet shift d")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_add)

    p = sub.add_parser("verify", help="verify a conversion rule against the exact oracle")
    p.add_argument("--rule", required=True,
                   help="gde-plus:a,b | gde-plus-special:a | gde-minus:a,b")
    p.add_argument("--exhaustive", type=int, metavar="MAXLEN")
    p.add_argument("--random", type=int, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one window output by +1 (forces a counterexample)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("block-add", help="k-block parallel addition")
    p.add_argument("--base", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--estimate-s", action="store_true",
                   help="estimate s from sums of beta-integers instead of certifying it")
    p.add_argument("--test-len", type=int, default=12)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_block_add)

    p = sub.add_parser("bounds", help="bound report for a base")
    p.add_argument("--base", required=True)
    p.add_argument("--max-steps", type=int, default=10000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
