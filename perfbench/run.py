"""Fixed-work benchmark of betapar: GDE-chain addition, Tribonacci block addition
and exhaustive verification.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload gde-add --seed 1 --seconds 5 --trace 0

One invocation runs one workload in this fresh interpreter and prints one
JSON object as its last line of output.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` the per-layer metrics from a traced
pass (see README.md).  Results and traces also go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 100


def import_betapar():
    """Import betapar from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import betapar
    except ImportError as exc:
        raise SystemExit("perfbench: cannot import betapar from %s: %s" % (SRC, exc))
    if not os.path.abspath(betapar.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit("perfbench: betapar came from %s, not %s" % (betapar.__file__, SRC))


# On a shared host the speed of one process can drift by 2x within a minute
# (measured on a 2-vCPU virtual machine).  Every timed operation is therefore
# paired with a fixed calibration loop that does not use betapar, and
# operation times are reported scaled to a machine on which that loop takes
# CALIBRATION_MS.  Set-up times are not scaled: set-up fills hundreds of MB
# of fresh memory, which the calibration loop does not track (see README.md).
CALIBRATION_MS = 1.0
CHUNK = 20  # operations that share one calibration figure, the median of theirs


def calibration_loop():
    """Fixed pure-Python work of the kinds betapar does: tuples, dicts, integers."""
    table = {}
    acc = 0
    big = 3 ** 200
    for i in range(1500):
        key = (i & 7, (i >> 3) & 7, i % 5)
        table[key] = table.get(key, 0) + i
        acc += (big * (i + 1)) >> 300
    return acc + len(table)


def calibrate():
    """Seconds of one calibration loop, timed just now."""
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def speed_factor(calibrations):
    """Scale that turns a time measured during these calibrations into reference time."""
    return CALIBRATION_MS / 1e3 / statistics.median(calibrations)


class Tally:
    """Operations attempted and failed, and the time and work of those that ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.raw = []  # (seconds of the call, seconds of the calibration before it)
        self.work = 0

    def times(self):
        """Call times in reference seconds, each chunk scaled by its median calibration."""
        out = []
        for i in range(0, len(self.raw), CHUNK):
            chunk = self.raw[i:i + CHUNK]
            factor = speed_factor([c for _, c in chunk])
            out.extend(t * factor for t, _ in chunk)
        return out

    def work_per_s(self):
        return self.work / sum(self.times()) if self.raw else 0.0


def run_ops(wl, state, rng, count, tally, tracer=None):
    """Run `count` operations; time each call, check each output outside the timing."""
    clock = time.perf_counter
    for i in range(count):
        inputs = wl.inputs(state, rng)
        tally.attempted += 1
        if tracer is not None:
            tracer.op = tally.attempted
        calibration = calibrate()
        try:
            t0 = clock()
            outputs = wl.run(state, inputs)
            t1 = clock()
        except Exception as exc:  # a failed operation is counted, not fatal
            print("perfbench: %s operation %d raised %r" % (wl.name, i, exc), file=sys.stderr)
            tally.failed += 1
            continue
        if tracer is not None:
            tracer.op = "check"
        if not wl.check(state, inputs, outputs):
            print("perfbench: %s operation %d gave a wrong output" % (wl.name, i), file=sys.stderr)
            tally.failed += 1
            tally.wrong += 1
            continue
        tally.raw.append((t1 - t0, calibration))
        tally.work += wl.work(inputs)


def timed_setup(wl):
    """Build the workload's state; returns it and the build time in seconds."""
    gc.collect()
    t0 = time.perf_counter()
    state = wl.setup()
    return state, time.perf_counter() - t0


def end_to_end(wl, seed, seconds):
    """Untraced run: set up `setup_repeats` times, then the fixed-work operations."""
    setup_times = []
    for _ in range(wl.setup_repeats):
        state = None  # free the previous build before timing the next
        state, elapsed = timed_setup(wl)
        setup_times.append(elapsed)
    problems = wl.setup_problems(state)
    tally = Tally()
    run_ops(wl, state, random.Random(seed), max(MIN_OPS, math.ceil(wl.ops_per_second * seconds)),
            tally)
    times_ms = [t * 1e3 for t in tally.times()]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (tally.work_per_s(), "1/s"),
        "op_ms_p50": (statistics.median(times_ms) if times_ms else 0.0, "ms"),
        "op_ms_p90": (statistics.quantiles(times_ms, n=10, method="inclusive")[8]
                      if len(times_ms) > 1 else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return problems, tally, metrics


def per_layer(wl, seed, seconds):
    """Traced run: one traced set-up, then `trace_ops` operations untraced and as many traced."""
    from spans import CONSTRUCTION_TARGETS, LAYER_TARGETS, Tracer

    tracer = Tracer()
    with tracer.installed(CONSTRUCTION_TARGETS):
        state, _ = timed_setup(wl)
    problems = wl.setup_problems(state)
    rng = random.Random(seed)
    plain = Tally()
    run_ops(wl, state, rng, wl.trace_ops, plain)
    traced = Tally()
    with tracer.installed(CONSTRUCTION_TARGETS + LAYER_TARGETS):
        run_ops(wl, state, rng, wl.trace_ops, traced, tracer)

    everything = tracer.layer_table(lambda op: op != "check")
    table = tracer.layer_table(lambda op: isinstance(op, int))

    def row(name, key, rows=table):
        return rows.get(name, {}).get(key, 0)

    def per(name, key):
        """Microseconds of traced-pass time per unit of `key`."""
        div = row(name, key)
        return row(name, "total_s") * 1e6 / div if div else 0.0

    decomposes = row("blocks.decompose", "calls")
    verified = row("conversion.verify_conversion", "total_s", everything)
    estimated = row("blocks.estimate_s_report", "total_s", everything)
    metrics = {
        "quadratic.build_s": (tracer.outermost("quadratic."), "s"),
        "conversion.rules_built": (row("conversion.LocalRule", "calls", everything), "count"),
        "conversion.table_windows": (row("conversion.LocalRule", "work", everything), "count"),
        "conversion.apply_local.calls": (row("conversion.apply_local", "calls"), "count"),
        "conversion.apply_local.us_per_digit": (per("conversion.apply_local", "work"), "us"),
        "conversion.verify_conversion.strings_per_s": (
            row("conversion.verify_conversion", "work", everything) / verified if verified else 0.0,
            "1/s"),
        "conversion.ChainAdder.add.us_per_digit": (per("conversion.ChainAdder.add", "work"), "us"),
        "digits.add.calls": (row("digits.add", "calls"), "count"),
        "digits.add.self_us": (row("digits.add", "self_s") * 1e6, "us"),
        "digits.from_pairs.calls": (row("digits.from_pairs", "calls"), "count"),
        "digits.from_pairs.self_us": (row("digits.from_pairs", "self_s") * 1e6, "us"),
        "algebraic.eval_digit_string.us_per_digit": (
            per("algebraic.eval_digit_string", "work"), "us"),
        "algebraic.values_equal.us_per_call": (per("algebraic.values_equal", "calls"), "us"),
        "algebraic.sign.calls": (row("algebraic.sign", "calls"), "count"),
        "algebraic.sign.us_per_call": (per("algebraic.sign", "calls"), "us"),
        "algebraic.floor.calls": (row("algebraic.floor", "calls"), "count"),
        "algebraic.floor.us_per_call": (per("algebraic.floor", "calls"), "us"),
        "numeration.greedy_vector_digits.calls": (
            row("numeration.greedy_vector_digits", "calls"), "count"),
        "numeration.greedy_vector_digits.us_per_call": (
            per("numeration.greedy_vector_digits", "calls"), "us"),
        "blocks.decompose.calls": (decomposes, "count"),
        "blocks.memo_hit_ratio": (
            1.0 - row("blocks.decompose", "distinct") / decomposes if decomposes else 0.0, "ratio"),
        "blocks.memo_entries": (wl.memo_entries(state), "count"),
        "blocks.phi.calls": (row("blocks.phi", "calls"), "count"),
        "blocks.phi.self_us": (row("blocks.phi", "self_s") * 1e6, "us"),
        "blocks.estimate_s.pairs_per_s": (
            row("blocks.estimate_s_report", "work", everything) / estimated if estimated else 0.0,
            "1/s"),
        "blocks.signed_self_check_s": (row("blocks.SignedBlockAdder", "total_s", everything), "s"),
        "trace.overhead_ratio": (
            traced.work_per_s() / plain.work_per_s() if plain.work_per_s() else 0.0, "ratio"),
    }
    tracer.write(os.path.join(OUT, "spans-%s.jsonl" % wl.name),
                 os.path.join(OUT, "layers-%s.txt" % wl.name))
    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    tally.wrong = plain.wrong + traced.wrong
    return problems, tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15,
                        help="run length at this commit's speed; sets the operation count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_betapar()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, sorted(WORKLOADS)))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    problems, tally, metrics = measure(wl, args.seed, args.seconds)
    for problem in problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    result = {
        "correct": not problems and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, "result-%s-%s.json" % (wl.name, "trace" if args.trace else "e2e")),
              "w") as fh:
        fh.write(line + "\n")
    print(line)


if __name__ == "__main__":
    main()
