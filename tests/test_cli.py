import json
import os
import subprocess
import sys

import pytest

import betapar
from betapar import numeration
from betapar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDbeta:
    def test_tribonacci(self, capsys):
        code, out, _ = run(capsys, "dbeta", "--base", "tribonacci")
        assert code == 0
        assert "111" in out and "simple" in out and "F" in out

    def test_minus_json(self, capsys):
        code, out, _ = run(capsys, "dbeta", "--base", "quadratic-minus:4,2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["dbeta1"] == "3(1)"
        assert data["classification"] == "non-simple"
        assert data["pf_class"] == "PF"

    def test_plus(self, capsys):
        code, out, _ = run(capsys, "dbeta", "--base", "quadratic-plus:4,2")
        assert code == 0 and "42" in out

    def test_bad_base(self, capsys):
        code, _, err = run(capsys, "dbeta", "--base", "gibberish")
        assert code == 1 and "error" in err

    def test_unknown_after_the_step_bound(self, capsys, monkeypatch):
        # d_beta(1) = 2(1) for beta^2 = 3 beta - 1: one step leaves it undecided
        monkeypatch.setattr(numeration, "_MAX_STEPS", 1)
        code, out, _ = run(capsys, "dbeta", "--base", "quadratic-minus:3,1")
        assert code == 0 and "unknown after 1 steps" in out

    @pytest.mark.parametrize("command", ["dbeta", "bounds"])
    def test_max_steps_option_removed(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--base", "tribonacci", "--max-steps", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-steps 5" in capsys.readouterr().err


class TestAdd:
    def test_gde_chain(self, capsys):
        code, out, _ = run(capsys, "add", "--base", "quadratic-plus:4,2",
                           "--x", "6", "--y", "6")
        assert code == 0 and "value-ok" in out

    def test_block(self, capsys):
        code, out, _ = run(capsys, "block-add", "--base", "tribonacci",
                           "--ell", "2", "--s", "5", "--x", "1", "--y", "1")
        assert code == 0 and "value-ok" in out

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "add", "--base", "quadratic-plus:4,2",
                           "--x", "0", "--y", "0", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["result"] == "0" and data["value_ok"]

    def test_shifted(self, capsys):
        code, out, _ = run(capsys, "add", "--base", "quadratic-plus:4,2",
                           "--shift", "3", "--x=-3,1", "--y=2")
        assert code == 0 and "value-ok" in out

    def test_gde_chain_raw_coefficients(self, capsys):
        # 1,-4,-2 is beta^2 = 4 beta + 2, the same base as quadratic-plus:4,2
        code, out, _ = run(capsys, "add", "--base", "1,-4,-2",
                           "--x", "6", "--y", "6")
        assert code == 0
        assert out.splitlines()[0] == "2,3.0,2" and "value-ok" in out

    def test_gde_chain_raw_minus_coefficients(self, capsys):
        code, out, _ = run(capsys, "add", "--base", "1,-4,2", "--x", "3,3", "--y", "3,3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["alphabet"] == "{0..4}" and data["value_ok"]

    def test_gde_chain_needs_quadratic_base(self, capsys):
        code, _, err = run(capsys, "add", "--base", "tribonacci",
                           "--x", "1", "--y", "1")
        assert code == 1 and "quadratic" in err

    def test_special_family_dispatch(self, capsys):
        code, out, _ = run(capsys, "add", "--base", "quadratic-plus:4,3",
                           "--x", "7", "--y", "7")
        assert code == 0 and "value-ok" in out

    def test_digit_out_of_alphabet(self, capsys):
        code, _, err = run(capsys, "add", "--base", "quadratic-plus:4,2",
                           "--x", "9", "--y", "0")
        assert code == 1 and "error" in err


class TestVerify:
    def test_exhaustive_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--base", "quadratic-plus:4,2", "--exhaustive", "3")
        assert code == 0 and "pass" in out

    def test_random_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--base", "quadratic-minus:4,1",
                           "--random", "300", "--seed", "7")
        assert code == 0 and "pass" in out

    def test_corrupt_fails_exit2(self, capsys):
        code, out, _ = run(capsys, "verify", "--base", "quadratic-plus:4,2",
                           "--exhaustive", "2", "--corrupt")
        assert code == 2 and "counterexample" in out

    def test_corrupt_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--base", "quadratic-minus:3,1",
                           "--random", "100", "--seed", "3", "--corrupt", "--json")
        assert code == 2
        data = json.loads(out)
        assert data["verdict"] == "fail" and data["failures"]

    @pytest.mark.parametrize("base", ["quadratic-plus:4,2", "quadratic-plus:5,3",
                                      "quadratic-plus:3,2", "quadratic-plus:4,3",
                                      "quadratic-minus:3,1", "quadratic-minus:4,2"])
    def test_corrupt_fails_every_preset(self, capsys, base):
        code, out, _ = run(capsys, "verify", "--base", base,
                           "--random", "100", "--seed", "7", "--corrupt")
        assert code == 2 and "counterexample" in out

    def test_needs_strategy(self, capsys):
        code, _, err = run(capsys, "verify", "--base", "quadratic-plus:4,2")
        assert code == 1

    def test_bad_rule(self, capsys):
        code, _, err = run(capsys, "verify", "--base", "tribonacci", "--exhaustive", "2")
        assert code == 1 and "quadratic" in err
        # beta^2 = beta + 1 is a plus-family base outside gde_plus's hypotheses
        code, _, err = run(capsys, "verify", "--base", "fibonacci", "--exhaustive", "2")
        assert code == 1 and "gde_plus needs a >= b+2 and b >= 2" in err
        # the error names the base's equation, family and (a, b), on both commands
        family = "beta^2 = 1 beta + 1 (plus family, a = 1, b = 1): gde_plus needs"
        assert family in err
        code, _, err = run(capsys, "add", "--base", "fibonacci", "--x", "1", "--y", "1")
        assert code == 1 and family in err

    def test_rule_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--base", "quadratic-plus:4,2", "--rule", "gde-plus:4,2",
                  "--exhaustive", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_special_family_from_base(self, capsys):
        # beta^2 = 3 beta + 2 has b = a - 1, so its rule is gde-plus-special:3
        code, out, _ = run(capsys, "verify", "--base", "quadratic-plus:3,2", "--exhaustive", "3")
        assert code == 0
        assert out.startswith("gde-plus-special:3 over exhaustive(3): pass")

    def test_negative_exhaustive_length_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--base", "quadratic-plus:4,2", "--exhaustive", "-1")
        assert code == 1 and "pass" not in out
        assert "error:" in err and "maxlen" in err

    def test_nonpositive_random_count_rejected(self, capsys):
        for n in ("-3", "0"):
            code, out, err = run(capsys, "verify", "--base", "quadratic-plus:4,2", "--random", n)
            assert code == 1 and "pass" not in out
            assert "error:" in err and "n must be" in err


class TestBlockAdd:
    def test_explicit_params(self, capsys):
        code, out, _ = run(capsys, "block-add", "--base", "tribonacci",
                           "--ell", "2", "--s", "5", "--x", "2,1,2", "--y", "1,0,2")
        assert code == 0 and "value-ok" in out

    def test_zero_block_length_rejected(self, capsys):
        code, _, err = run(capsys, "block-add", "--base", "tribonacci",
                           "--ell", "0", "--s", "0", "--x", "1", "--y", "1")
        assert code == 1
        assert "error:" in err and "k = 2(ell + s)" in err

    def test_missing_params(self, capsys):
        # one of --ell and --s without the other
        code, _, err = run(capsys, "block-add", "--base", "tribonacci",
                           "--ell", "2", "--x", "1", "--y", "1")
        assert code == 1
        assert "error:" in err and "--ell and --s" in err

    def test_certified_params_by_default(self, capsys):
        code, out, _ = run(capsys, "block-add", "--base", "tribonacci",
                           "--x", "1", "--y", "1")
        assert code == 0
        assert "certified s = 5" in out
        assert "k=14 ell=2 s=5" in out and "value-ok" in out

    def test_certified_witness_in_json(self, capsys):
        code, out, _ = run(capsys, "block-add", "--base", "fibonacci",
                           "--x", "1", "--y", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["k"], payload["ell"], payload["s"]) == (10, 3, 2)
        assert payload["s_witness"] == ["1", "1"]  # 1 + 1 = 10.01

    @pytest.mark.parametrize("flags", [("--estimate-s",), ("--test-len", "6"), ("--k", "14")])
    def test_removed_options_rejected(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["block-add", "--base", "tribonacci", *flags, "--x", "1", "--y", "1"])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert "unrecognized arguments: %s" % " ".join(flags) in err

    def test_help_lists_no_removed_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["block-add", "--help"])
        out, _ = capsys.readouterr()
        assert "--ell" in out
        for flag in ("--estimate-s", "--test-len", "--k"):
            assert flag not in out


class TestBounds:
    def test_dbonacci3(self, capsys):
        code, out, _ = run(capsys, "bounds", "--base", "dbonacci:3")
        assert code == 0
        assert "cardinality >= 4" in out
        assert "cardinality >= 3" in out
        assert "2 <= M <= 2" in out

    def test_quadratic_plus_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "--base", "quadratic-plus:4,2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["one_block_cardinality_lower_bound"] == 7
        assert data["block_cardinality_lower_bound_simple"] == 7
        assert data["block_minimal_M_interval"] == [6, 8]

    def test_quadratic_minus(self, capsys):
        code, out, _ = run(capsys, "bounds", "--base", "quadratic-minus:4,2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["block_cardinality_lower_bound_nonsimple"] == 5

    def test_salem_reporter(self, capsys):
        code, out, _ = run(capsys, "bounds", "--base", "1,-1,-1,-1,1")
        assert code == 0 and "impossible-evidence" in out

    def test_bounds_never_imports_mpmath(self):
        # -X importtime lists every module the process imports on stderr
        src = os.path.dirname(os.path.dirname(os.path.abspath(betapar.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "betapar.cli", "bounds",
                               "--base", "1,-1,-1,-1,1"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0 and "impossible-evidence" in proc.stdout
        assert "import time:" in proc.stderr and "mpmath" not in proc.stderr

    def test_digit_string_roundtrip_in_json(self, capsys):
        from betapar.digits import parse_digits

        code, out, _ = run(capsys, "block-add", "--base", "tribonacci", "--ell", "2",
                           "--s", "5", "--x", "2,0.1", "--y", "1,1", "--json")
        assert code == 0
        data = json.loads(out)
        parsed = parse_digits(data["result"])
        assert str(parsed) == data["result"]


class TestDeterminism:
    def test_seeded_verify_is_reproducible(self, capsys):
        argv = ["verify", "--base", "quadratic-minus:4,1", "--random", "150",
                "--seed", "12", "--json"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
