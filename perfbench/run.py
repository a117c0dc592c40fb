#!/usr/bin/env python3
"""Offline compile benchmark of gpsched, end to end and per layer.

    python3 perfbench/run.py --workload specfp|fuzz-cold|fuzz-warm \\
        --seed N --seconds S --trace 0|1 [--report FILE]

Run from the repository root. Builds the library and the benchmark
program (perfbench/CMakeLists.txt, Release) under .bench_build/, runs
one workload for S seconds of timed passes, checks every schedule of
every pass with both oracles, and prints every metric with its unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1, its per-layer metrics, taken from one
extra traced pass. The full report (stamp, counters, every metric)
goes to --report, by default .bench_build/perfbench/reports/. The exit
code is 0 only when every output was correct and every work counter
repeated exactly.

--seed draws the job submission order; the loops themselves are
pinned (the synthetic SPECfp95 suite, or the fuzz corpus at its
pinned seed), so work counters repeat exactly across runs.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "perfbench")
WORKLOADS = ("specfp", "fuzz-cold", "fuzz-warm")


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode


def build():
    """Configures (once) and builds the program; quiet unless it fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no gpsched sources under src/; run from a full checkout")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree copied along with its checkout still points at
        # the sources it was configured from.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target",
                  "perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            die("build failed: " + " ".join(cmd))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    problems = stats.check_benchmark(doc)
    if problems:
        die("BENCHMARK.json: " + "; ".join(problems))
    return doc


def end_to_end(raw):
    """The end-to-end metrics of one run, from the raw report."""
    jobs = raw["stamp"]["jobs"]
    passes = raw["passes"]
    per_job = stats.per_job_medians(raw["job_ms"])
    tail = stats.tail_percentile(len(per_job))
    if tail != "99":
        die("%d jobs make p%s, not p99, the highest percentile with %d "
            "samples beyond it" % (len(per_job), tail, stats.MIN_BEYOND))
    return {
        "jobs_per_s": statistics.median(
            [jobs / p["wall_s"] for p in passes]),
        "job_ms_p50": stats.percentile(per_job, "50"),
        "job_ms_p99": stats.percentile(per_job, "99"),
        "cpu_ms_per_job": statistics.median(
            [p["cpu_s"] * 1e3 / jobs for p in passes]),
        "verify_us_per_job": statistics.median(
            [us for p in passes for us in p["verify_us_per_job"]]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ipc_mean": raw["ipc_mean"],
        "sim_cycles_total": raw["counters"]["sim.cycles_total"],
    }


def per_layer(raw):
    """The per-layer metrics of one traced run."""
    metrics = dict(raw["layers"])
    metrics.update(raw["counters"])
    compiled = metrics.pop("core.compiled")
    del metrics["sim.cycles_total"]
    metrics["core.fallback_share"] = (
        metrics["core.fallbacks"] / compiled if compiled else 0.0)
    # Base: compile time of the jobs this run compiled (kind 1 is a
    # modulo schedule, kind 2 the list-scheduling fallback).
    per_job = stats.per_job_medians(raw["job_ms"])
    kinds = raw["job_kind"]
    compile_ms = sum(ms for ms, k in zip(per_job, kinds) if k)
    fallback_ms = sum(ms for ms, k in zip(per_job, kinds) if k == 2)
    metrics["core.fallback_ms_share"] = (
        fallback_ms / compile_ms if compile_ms else 0.0)
    metrics["workload.fuzz_gen_ms"] = statistics.median(
        raw["fuzz_gen_ms"])
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int,
                        choices=(0, 1))
    parser.add_argument("--report", help="full JSON report path")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    bench = load_benchmark()
    build()

    # The large raw and trace files are kept for the last run of each
    # workload only; the summary report is kept per seed.
    tag = "%s-trace%d" % (args.workload, args.trace)
    reports = os.path.join(BUILD, "reports")
    os.makedirs(reports, exist_ok=True)
    raw_path = os.path.join(reports, tag + ".raw.json")
    work = os.path.join(BUILD, "work", "%s-%d" % (tag, os.getpid()))
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--machines-dir", os.path.join(ROOT, "examples", "machines"),
           "--work-dir", work, "--out", raw_path,
           "--trace-out", os.path.join(reports, args.workload +
                                       ".trace.json")]
    status = subprocess.run(cmd, cwd=ROOT).returncode
    shutil.rmtree(work, ignore_errors=True)
    if status != 0:
        die("benchmark program failed: " + " ".join(cmd))
    with open(raw_path) as f:
        raw = json.load(f)

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    values = per_layer(raw) if args.trace else end_to_end(raw)
    values["failed_ratio"] = raw["failed"] / raw["attempted"]
    units = {m["name"]: m["unit"] for s in ("end_to_end", "per_layer")
             for m in bench[s]}
    missing = sorted(set(declared) - set(values))
    undeclared = sorted(set(values) - set(units))
    if missing or undeclared:
        die("metrics missing: %s; undeclared: %s" % (missing, undeclared))

    stamp = raw["stamp"]
    print("workload %s  seed %d  jobs %d  workers %d  passes %d  "
          "nproc %d  %s %s  corpus %s x %d loops"
          % (stamp["workload"], stamp["seed"], stamp["jobs"],
             stamp["workers"], len(raw["passes"]), stamp["nproc"],
             stamp["compiler"], stamp["build_type"],
             stamp["corpus_seed"], stamp["loops"]))
    n = stamp["jobs"]
    for name in sorted(values):
        note = ""
        if name in ("job_ms_p50", "job_ms_p99"):
            pct = name[len("job_ms_p"):]
            note = "  (n=%d jobs, %d beyond)" % (n, stats.beyond(n, pct))
        print("  %-34s %16.6g %s%s" % (name, values[name],
                                       units[name], note))
    digest = hashlib.sha256(json.dumps(
        raw["counters"], sort_keys=True).encode()).hexdigest()[:16]
    print("  work counters digest %s" % digest)
    for failure in raw["failures"][:10]:
        print("  FAILED " + failure)
    for violation in raw["violations"]:
        print("  VIOLATION " + violation)

    correct = raw["failed"] == 0 and not raw["violations"]
    report = {"stamp": stamp, "metrics": values,
              "counters": raw["counters"], "counters_digest": digest,
              "passes": len(raw["passes"]), "correct": correct}
    report_path = args.report or os.path.join(
        reports, "%s-seed%d-trace%d.json"
        % (args.workload, args.seed, args.trace))
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")

    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
