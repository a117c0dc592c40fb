#!/usr/bin/env python3
"""Steadiness check of the benchmark: runs one workload once per seed
and reports, for every end-to-end metric, the median over the runs and
the distance between the quartiles as a share of it, beside the
metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload fuzz-cold --seeds 1-10

A spread at or above a third of its bound is flagged (setup_s is
reported but never flagged, since only its median is bounded).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = str(bench["run_seconds"])
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = proc.returncode == 0 and result["correct"]
        print("seed %d: exit %d correct %s" % (seed, proc.returncode, ok),
              flush=True)
        if not ok:
            sys.exit(1)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    if args.trace:
        for name, vs in sorted(values.items()):
            print("%-34s %s" % (name, "exact" if len(set(vs)) == 1
                                else "varies"))
        return
    steady = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vs = values[name]
        spread = stats.spread(vs)
        flag = ""
        if name != "setup_s" and spread >= bound / 3:
            flag = "  <-- not steady"
            steady = False
        print("%-20s median %14.6g  spread %6.2f%%  bound %5.1f%%%s"
              % (name, statistics.median(vs), 100 * spread, 100 * bound,
                 flag))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
