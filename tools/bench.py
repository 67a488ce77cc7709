"""Run the three perfbench workloads, tier-1 and the README CLI commands, and record the results.

Usage, from anywhere:

    python3 tools/bench.py LABEL [--against OTHER]

Each workload run is one ``python3 perfbench/run.py --workload W --seed 1
--trace T`` in a fresh interpreter, from the root of the checkout that holds
this script.  Every workload runs three times with ``--trace 0``, which
reports the end-to-end metrics, and then three times with ``--trace 1``,
which reports the per-layer metrics (call counts, per-call times) of a
traced pass.  Runs of the workloads alternate, so a slow spell of the
machine spreads over all of them.  Then tier-1 runs once with
``--durations=20``, and every ``betapar`` command of the README's CLI quick
start runs once as ``python3 -m betapar.cli ...`` in a fresh process, timed
from outside.  Last, two searches are timed in process, each the median of
three runs on a fresh base: ``certify_s`` of the d-bonacci bases for d = 3,
4 and 5, and ``BlockAdder.decompose`` of the Tribonacci (14, 2, 5) adder,
in µs per block over the blocks outside B among 2,000 seeded ones, read
cold (a fresh adder) and then warm (the same adder again).  Beside them,
one sum of two seeded 100,000-digit operands is timed in process on the
minus:4,2 and plus:4,2 GDE adders and the unsigned and signed Tribonacci
block adders, in µs per operand digit, the median of three runs, each on a
fresh adder; a GDE rule's window loop is timed on long strings, cold and then warm, the
median of three, with the windows its memo keeps: one ``apply_local`` of a
seeded 100,000-digit string on a fresh minus:4,2 and plus:4,2 rule, and
one sum of two seeded 2,000-digit operands on a fresh plus:40,23 adder,
whose fold steps through the window loop; and the first ``packed_step``
call of each GDE preset and of plus:40,22 is timed on a freshly built rule,
in ms, the median of three: it compiles the rule's carry tables, the one
cost of the packed fold that no later fold pays.

The script writes ``BENCH_<LABEL>.json`` at that root: the git commit, with
``"dirty": true`` beside it when tracked files differ from that commit, the
Python version, the line count of each ``src/betapar/*.py`` by module name
as ``src_lines_by_module`` and their total as ``src_lines``, the same lines
split into code, docstring, comment and blank lines as
``src_lines_by_kind``, and for every run the command and its result: the
JSON line the benchmark printed, tier-1's wall time, summary line and
slowest tests, or a CLI command's wall time and exit code, the two searches
as ``searches``, the long sums as ``chain_add_us_per_digit``, the long
applications as ``apply_local_us_per_digit`` and the compiles as
``packed_compile_ms``, each the median of its three runs, and under
``in_process_range`` the min and max of those runs, keyed the same way.  With
``--against OTHER``, it also holds each module's line count less its count
in ``BENCH_<OTHER>.json`` as ``src_lines_net_by_module``, and their total as
``src_lines_net``, and, when that file has a split by kind, each module's
net by kind as ``src_lines_net_by_kind``.  Its ``spread`` entry gives, for
every workload, the min, median and max of every end-to-end metric of
``BENCHMARK.json`` over the ``--trace 0`` runs and of every per-layer metric
over the ``--trace 1`` runs, so the run-to-run noise of each metric is in
the file beside its runs.  Its ``per_layer`` entry records each per-layer
metric as that median: one traced pass spreads up to 2.5x.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("gde-add", "block-add", "sweep")
RUNS = 3
SEED = 1


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


KINDS = ("code", "docstring", "comment", "blank")


def src_lines_by_kind():
    """Each src/betapar/*.py's lines by kind, keyed by module name, then by KINDS.

    A docstring line is a line of a module's, class's or function's
    docstring, found with ast; of the other lines, a blank line holds only
    whitespace and a comment line only a comment.  Every other line is code.
    """
    pkg = os.path.join(ROOT, "src", "betapar")
    table = {}
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            text = fh.read()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node) is not None):
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        counts = dict.fromkeys(KINDS, 0)
        for number, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            counts["docstring" if number in docstrings else "blank" if not stripped
                   else "comment" if stripped.startswith("#") else "code"] += 1
        table[name[:-3]] = counts
    return table


def run_workload(workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("bench: %s failed with exit code %d:\n%s"
                         % (" ".join(cmd), proc.returncode, proc.stderr))
    return {"workload": workload, "trace": trace, "command": " ".join(cmd),
            "result": json.loads(proc.stdout.strip().splitlines()[-1])}


def spread(runs, group):
    """{workload: {metric: {min, median, max}}} of BENCHMARK.json's metrics in group.

    The end_to_end group is read from the untraced runs, per_layer from the
    traced ones.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [metric["name"] for metric in json.load(fh)[group]]
    trace = int(group == "per_layer")
    table = {}
    for workload in WORKLOADS:
        metrics = [run["result"]["metrics"] for run in runs
                   if run["workload"] == workload and run["trace"] == trace]
        table[workload] = {}
        for name in names:
            values = [m[name]["value"] for m in metrics if name in m]
            if values:
                table[workload][name] = {"min": min(values), "median": statistics.median(values),
                                         "max": max(values)}
    return table


def timed(cmd):
    """Run cmd from the root with src/ on the path; the process and its wall time in s."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    return proc, time.perf_counter() - start


def run_tier1():
    cmd = ["python3", "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=20"]
    proc, wall = timed(cmd)
    lines = proc.stdout.strip().splitlines()
    durations = []
    for line in lines:
        m = re.match(r"([0-9.]+)s (setup|call|teardown) +(.+)$", line)
        if m:
            durations.append({"seconds": float(m.group(1)), "phase": m.group(2),
                              "test": m.group(3)})
    return {"command": "PYTHONPATH=src " + " ".join(cmd), "returncode": proc.returncode,
            "wall_s": round(wall, 2), "summary": lines[-1] if lines else "",
            "durations": durations}


def readme_cli_commands():
    """The betapar command lines of the README's CLI quick start, in order."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    _, heading, rest = text.partition("## Quick start (CLI)")
    parts = rest.split("```")
    block = parts[1] if heading and len(parts) >= 3 else ""
    commands = [line.strip() for line in block.splitlines() if line.strip().startswith("betapar ")]
    if not commands:
        raise SystemExit("bench: README.md has no code block of betapar commands "
                         "under '## Quick start (CLI)'")
    return commands


def run_cli(line):
    cmd = ["python3", "-m", "betapar.cli"] + shlex.split(line)[1:]
    proc, wall = timed(cmd)
    return {"command": line, "run_as": "PYTHONPATH=src " + " ".join(cmd),
            "returncode": proc.returncode, "wall_s": round(wall, 3)}


def runs_of(measure):
    """RUNS calls of measure, in order."""
    return [measure() for _ in range(RUNS)]


def reduce_runs(tree, fn):
    """tree, dicts nested around lists of run values, with fn of each list in its place."""
    return {key: reduce_runs(value, fn) if isinstance(value, dict) else fn(value)
            for key, value in tree.items()}


def run_searches():
    """Three in-process timings each of certify_s (s) and of decompose (µs per block)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import random

    from betapar.algebraic import dbonacci_base
    from betapar.blocks import BlockAdder, certify_s, make_block_params

    def certify(d):
        base = dbonacci_base(d)
        start = time.perf_counter()
        certify_s(base)
        return time.perf_counter() - start

    rng = random.Random(SEED)
    blocks = [tuple(rng.randint(0, 4) for _ in range(14)) for _ in range(2000)]
    blocks = [u for u in blocks if max(u) > 1]

    def decompose(passes):
        def measure():
            base = dbonacci_base(3)
            adder = BlockAdder(base, make_block_params(base, 2, 5))
            for _ in range(passes):
                start = time.perf_counter()
                for u in blocks:
                    adder.decompose(u)
            return (time.perf_counter() - start) / len(blocks) * 1e6
        return measure

    return {"certify_s_s": {str(d): runs_of(lambda: certify(d)) for d in (3, 4, 5)},
            "decompose_us_per_block": {"cold": runs_of(decompose(1)),
                                       "warm": runs_of(decompose(2))}}


LONG_DIGITS = 100_000


def run_long_additions():
    """Three in-process timings of one long sum on a fresh adder, in µs per digit.

    Each sum adds two seeded operands of LONG_DIGITS digits over the
    adder's alphabet; the time counts the addition only, cold: the adder is
    built anew before each run, outside the timing, so every run pays what a
    first addition pays.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import random

    from betapar.blocks import dbonacci_block_adder
    from betapar.digits import DigitString
    from betapar.quadratic import quadratic_adder

    adders = {"minus:4,2": lambda: quadratic_adder("minus", 4, 2),
              "plus:4,2": lambda: quadratic_adder("plus", 4, 2),
              "unsigned-tribonacci": lambda: dbonacci_block_adder(3, s=5),
              "signed-tribonacci": lambda: dbonacci_block_adder(3, signed=True, s=5)}
    rng = random.Random(SEED)

    def us_per_digit(make):
        alphabet = make().alphabet
        lo, hi = alphabet.min_digit, alphabet.max_digit
        x, y = (DigitString([rng.randint(lo, hi) for _ in range(LONG_DIGITS)], LONG_DIGITS - 1)
                for _ in range(2))

        def measure():
            adder = make()
            start = time.perf_counter()
            adder.add(x, y)
            return (time.perf_counter() - start) / (len(x.digits) + len(y.digits)) * 1e6
        return runs_of(measure)

    return {name: us_per_digit(make) for name, make in adders.items()}


WINDOW_FOLD_DIGITS = 2_000


def run_long_applications():
    """Three in-process timings of a GDE rule's window loop on long strings.

    "minus:4,2" and "plus:4,2" apply a fresh rule by ``apply_local`` to one
    seeded string of LONG_DIGITS digits over its input alphabet, in µs per
    digit.  "plus:40,23 fold" adds two seeded operands of WINDOW_FOLD_DIGITS
    digits on a fresh plus:40,23 adder, whose sums do not fit a byte, so
    that its 63 layers step through the window loop, in µs per operand
    digit.  Each run builds the rule or adder anew, outside the
    timing, and times two calls on it, cold and then warm; ``windows_kept``
    is the size of the rule's window memo after them.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import random

    from betapar.conversion import apply_local
    from betapar.digits import DigitString
    from betapar.quadratic import gde_rule, quadratic_adder

    rng = random.Random(SEED)

    def seeded(alphabet, n):
        return DigitString([rng.randint(alphabet.min_digit, alphabet.max_digit)
                            for _ in range(n)], n - 1)

    def measure(make, operands):
        digits = sum(len(s.digits) for s in operands)
        runs = []
        for _ in range(RUNS):
            rule, call = make()
            times = []
            for _ in ("cold", "warm"):
                start = time.perf_counter()
                call(*operands)
                times.append((time.perf_counter() - start) / digits * 1e6)
            runs.append((*times, len(rule._windows)))
        return {key: [run[i] for run in runs]
                for i, key in enumerate(("cold", "warm", "windows_kept"))}

    def applying(spec):
        rule = gde_rule(*spec)
        return rule, lambda u: apply_local(rule, u)

    def folding():
        adder = quadratic_adder("plus", 40, 23)
        return adder.layer, adder.add

    results = {"%s:%d,%d" % spec: measure(lambda: applying(spec),
                                          [seeded(gde_rule(*spec).input_alphabet, LONG_DIGITS)])
               for spec in (("minus", 4, 2), ("plus", 4, 2))}
    alphabet = quadratic_adder("plus", 40, 23).alphabet
    results["plus:40,23 fold"] = measure(folding, [seeded(alphabet, WINDOW_FOLD_DIGITS)
                                                   for _ in range(2)])
    return results


COMPILE_PRESETS = (("plus", 4, 2), ("plus", 5, 3), ("plus_special", 3, None),
                   ("plus_special", 4, None), ("minus", 3, 1), ("minus", 4, 2), ("plus", 40, 22))


def run_compiles():
    """Three timings, in ms, of the first packed_step call on a fresh GDE rule.

    Building the rule is not timed; the call compiles the rule's carry
    tables, as the first packed fold of an adder does.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from betapar.quadratic import gde_rule

    def measure(spec):
        rule = gde_rule(*spec)
        start = time.perf_counter()
        rule.packed_step(rule.p)
        return (time.perf_counter() - start) * 1e3

    return {"%s:%s" % (kind, a if b is None else "%d,%d" % (a, b)):
            runs_of(lambda: measure((kind, a, b))) for kind, a, b in COMPILE_PRESETS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the file written is BENCH_<label>.json")
    parser.add_argument("--against", metavar="OTHER",
                        help="record src/ lines net of those in BENCH_<OTHER>.json")
    args = parser.parse_args(argv)
    if args.against:  # before the runs, so a missing file fails fast
        with open(os.path.join(ROOT, "BENCH_%s.json" % args.against)) as fh:
            other = json.load(fh)
    commands = readme_cli_commands()  # before the runs, so a missing section fails fast
    runs = []
    for trace in [0] * RUNS + [1] * RUNS:
        for workload in WORKLOADS:
            runs.append(run_workload(workload, trace))
            result = runs[-1]["result"]
            print("%-9s correct=%s failed=%d %s" % (
                workload, result["correct"], result["failed"],
                " ".join("%s=%.4g" % (name, m["value"]) for name, m in result["metrics"].items())),
                file=sys.stderr)
    tier1 = run_tier1()
    print("tier-1    %s in %.1f s" % (tier1["summary"], tier1["wall_s"]), file=sys.stderr)
    cli = []
    for line in commands:
        cli.append(run_cli(line))
        print("cli       exit=%d %.3f s  %s" % (cli[-1]["returncode"], cli[-1]["wall_s"], line),
              file=sys.stderr)
    in_process = {}
    for key, title, run in (("searches", "searches ", run_searches),
                            ("chain_add_us_per_digit", "long adds", run_long_additions),
                            ("apply_local_us_per_digit", "long apps", run_long_applications),
                            ("packed_compile_ms", "compiles ", run_compiles)):
        in_process[key] = run()
        print("%s %s" % (title, json.dumps(reduce_runs(in_process[key], statistics.median))),
              file=sys.stderr)
    kinds = src_lines_by_kind()
    lines = {name: sum(counts.values()) for name, counts in kinds.items()}
    per_layer = spread(runs, "per_layer")
    table = spread(runs, "end_to_end")
    for workload in WORKLOADS:
        table[workload].update(per_layer[workload])
    record = {"label": args.label, "commit": git("rev-parse", "HEAD"),
              "python": platform.python_version(), "machine": platform.processor() or
              platform.machine(), "cpus": os.cpu_count(), "src_lines": sum(lines.values()),
              "src_lines_by_module": lines, "src_lines_by_kind": kinds, "runs": runs,
              "spread": table,
              "per_layer": {workload: {name: stats["median"] for name, stats in metrics.items()}
                            for workload, metrics in per_layer.items()},
              "tier1": tier1, "cli": cli, **reduce_runs(in_process, statistics.median),
              "in_process_range": reduce_runs(in_process, lambda v: {"min": min(v),
                                                                      "max": max(v)})}
    if git("status", "--porcelain", "--untracked-files=no"):
        record["dirty"] = True  # the files measured are not the commit's
    if args.against:
        other_lines = other["src_lines_by_module"]
        net = {name: lines.get(name, 0) - other_lines.get(name, 0)
               for name in sorted(set(lines) | set(other_lines))}
        record.update(src_lines_net=sum(net.values()), src_lines_net_by_module=net)
        print("src lines %+d against %s: %s" % (sum(net.values()), args.against, json.dumps(net)),
              file=sys.stderr)
        if "src_lines_by_kind" in other:  # files written before it have no split by kind
            zero = dict.fromkeys(KINDS, 0)
            net_kinds = {name: {kind: kinds.get(name, zero)[kind]
                                - other["src_lines_by_kind"].get(name, zero)[kind]
                                for kind in KINDS} for name in net}
            record["src_lines_net_by_kind"] = net_kinds
            print("src lines by kind against %s: %s" % (args.against, json.dumps(
                {kind: sum(m[kind] for m in net_kinds.values()) for kind in KINDS})),
                file=sys.stderr)
    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main()
