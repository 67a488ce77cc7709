"""Run the three perfbench workloads end to end and record the results.

Usage, from anywhere:

    python3 tools/bench.py LABEL

Each run is one ``python3 perfbench/run.py --workload W --seed 1 --trace 0``
in a fresh interpreter, from the root of the checkout that holds this
script; every workload runs three times.  The script writes
``BENCH_<LABEL>.json`` at that root: the git commit, the Python version,
and for every run the command and the JSON line the benchmark printed.
Runs of the workloads alternate, so a slow spell of the machine spreads
over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("gde-add", "block-add", "sweep")
RUNS = 3
SEED = 1


def git_commit():
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def run_workload(workload, seed):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("bench: %s failed with exit code %d:\n%s"
                         % (" ".join(cmd), proc.returncode, proc.stderr))
    return {"workload": workload, "command": " ".join(cmd),
            "result": json.loads(proc.stdout.strip().splitlines()[-1])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the file written is BENCH_<label>.json")
    args = parser.parse_args(argv)
    runs = []
    for _ in range(RUNS):
        for workload in WORKLOADS:
            runs.append(run_workload(workload, SEED))
            result = runs[-1]["result"]
            print("%-9s correct=%s failed=%d %s" % (
                workload, result["correct"], result["failed"],
                " ".join("%s=%.4g" % (name, m["value"]) for name, m in result["metrics"].items())),
                file=sys.stderr)
    record = {"label": args.label, "commit": git_commit(),
              "python": platform.python_version(), "machine": platform.processor() or
              platform.machine(), "cpus": os.cpu_count(), "runs": runs}
    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main()
