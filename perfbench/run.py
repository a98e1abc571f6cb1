#!/usr/bin/env python3
"""bfpsim's benchmark: build from source, run one workload, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deit-forward --seed 1 --seconds 20 --trace 0

builds the simulator libraries and the benchmark program (perfbench/
CMakeLists.txt) into .bench_build/perfbench, runs the named workload for
--seconds seconds, and passes the program's output through. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, and a Chrome
trace plus a per-layer self-time rollup land in .bench_build/perfbench-traces.

On the pinned seed (perfbench/digests.json) the program also checks the
digest of the workload's simulated outputs; a mismatch fails the run.

BENCHMARK.json is the metric catalog: the program reports what it
measured, and this script fits that to the catalog. Every end-to-end metric
must be reported, a per-layer metric of a layer the workload does not run
reads 0, and a name the catalog lacks or a unit it contradicts fails the
run.

Steadiness self-check:

    python3 perfbench/run.py --steadiness [--runs 10]

runs every workload --runs times on seeds 1, 2, ... and prints each
end-to-end metric's median and quartiles against its bound, then checks
that seed 1 repeats its simulated metrics and digest exactly, across runs
and across online-serve pool sizes. It exits nonzero when a spread exceeds
its bound or a repeat differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["deit-forward", "online-serve", "fleet-day", "decode-paged"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def binary_path():
    return os.path.join(build_dir(), "perfbench")


def build():
    """Configure (once) and build the program; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no simulator sources under src/\n")
        return False
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def pinned_digest(workload, seed):
    pins = load_json("digests.json")
    if seed != pins["seed"]:
        return None
    return pins["digests"].get(workload)


def parse_output(text):
    """(result, info) from the program's stdout; either may be None."""
    result = None
    info = None
    lines = [line for line in text.splitlines() if line.strip()]
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines:
        if line.startswith("perfbench-info "):
            info = json.loads(line[len("perfbench-info "):])
    if result is not None:
        keys = {"correct", "attempted", "failed", "metrics"}
        if not isinstance(result, dict) or set(result) != keys:
            result = None
    return result, info


def conform(result, catalog, per_layer):
    """Fit the program's result to the catalog's metrics, in catalog order.

    Returns (result, problems). A missing per-layer metric is a layer the
    workload does not run and reads 0; a missing end-to-end metric, a name
    the catalog lacks, or a unit the catalog contradicts is a problem and
    fails the result.
    """
    have = result["metrics"]
    names = {m["name"] for m in catalog}
    problems = ["unknown metric %s" % n for n in sorted(set(have) - names)]
    metrics = {}
    for m in catalog:
        got = have.get(m["name"])
        if got is None:
            if not per_layer:
                problems.append("missing metric %s" % m["name"])
            got = {"value": 0.0, "unit": ""}
        if got["unit"] and got["unit"] != m["unit"]:
            problems.append("%s: unit %s, the catalog says %s" %
                            (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    failed = result["failed"] + (1 if problems else 0)
    out = {"correct": result["correct"] and not problems,
           "attempted": max(result["attempted"], failed),
           "failed": failed,
           "metrics": metrics}
    return out, problems


def run_program(workload, seed, seconds, trace, workers=None, echo=False):
    """Run the built program once; returns (returncode, result, info).

    The result is fitted to BENCHMARK.json (see conform); with echo the
    program's output is passed through with that result as its last line.
    """
    cmd = [binary_path(), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-dir", os.path.join(os.path.dirname(build_dir()),
                                       "perfbench-traces")]
    digest = pinned_digest(workload, seed)
    if digest:
        cmd += ["--expect-digest", digest]
    if workers:
        cmd += ["--workers", str(workers)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 124, None, None
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").splitlines()
    result, info = parse_output(done.stdout)
    code = done.returncode
    if result is not None:
        catalog = load_benchmark()["per_layer" if trace else "end_to_end"]
        result, problems = conform(result, catalog, trace)
        for p in problems:
            sys.stderr.write("perfbench: %s\n" % p)
        if problems and code == 0:
            code = 1
        lines = lines[:-1] + [json.dumps(result)]
    if echo and lines:
        sys.stdout.write("\n".join(lines) + "\n")
    return code, result, info


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance rule takes it."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, rel


def steadiness(args):
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for w in WORKLOADS:
        samples = {}
        for seed in range(1, args.runs + 1):
            code, result, _ = run_program(w, seed, seconds, False)
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (w, seed, code))
                ok = False
                continue
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        print("\n%s: %d runs of %g s" % (w, args.runs, seconds))
        print("  %-22s %14s %14s %14s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "status"))
        for name, values in samples.items():
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name, 0.0)
            if rel > bound:
                status = "FAIL"
                ok = False
            elif rel > bound / 3:
                status = "within bound"
            else:
                status = "steady"
            print("  %-22s %14.6g %14.6g %14.6g %8.4f %6.3f  %s" %
                  (name, med, q1, q3, rel, bound, status))
        if "host_ms_p50" in samples:
            print("  host_ms_p50 by seed: " +
                  " ".join("%.4g" % v for v in samples["host_ms_p50"]))
    ok = repeatability(1, min(seconds, 4.0)) and ok
    print("\nsteadiness: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def repeatability(seed, seconds):
    """One seed repeats its simulated metrics and digest exactly."""
    ok = True
    for w in WORKLOADS:
        variants = [("run 1", None), ("run 2", None)]
        if w == "online-serve":
            variants += [("1 worker", 1), ("2 workers", 2)]
        seen = []
        for label, workers in variants:
            code, result, info = run_program(w, seed, seconds, False, workers)
            if code != 0 or result is None or info is None:
                print("%s %s: run failed (exit %d)" % (w, label, code))
                ok = False
                continue
            sim = {k: result["metrics"][k]["value"] for k in info["sim_metrics"]}
            seen.append((label, info["digest"], sim))
        same = all(s[1:] == seen[0][1:] for s in seen)
        ok = ok and same and len(seen) == len(variants)
        print("%s seed %d: digest %s, simulated metrics %s across %s" %
              (w, seed, seen[0][1] if seen else "-",
               "identical" if same else "DIFFER",
               ", ".join(s[0] for s in seen)))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()

    if not build():
        return 1
    if args.steadiness:
        return steadiness(args)
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    code, result, _ = run_program(args.workload, args.seed, args.seconds,
                                 args.trace == 1, echo=True)
    if result is None:
        sys.stderr.write("perfbench: the program printed no result\n")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
