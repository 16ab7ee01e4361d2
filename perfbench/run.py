#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run (the benchmark contract):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds perfbench/bench.exe from source with dune, runs one workload in one
process and passes its output through.  The last stdout line is the result
object {correct, attempted, failed, metrics}; the line before it stamps the
run with the host's cores, the OCaml version, jobs, the commit and whether
warm-up ran.

A suite of runs, written to one stamped results file for compare.py:

    python3 perfbench/run.py suite --runs 10 --traced 3 --out results.json \
        [--workloads analyze-sat,serve] [--seconds S]

Run both from the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build the benchmark; dune's output goes to stderr."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: no dune-project or lib/ here")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def host_stamp():
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "commit": commit}


def run_once(workload, seed, seconds, trace):
    """Run one workload; returns (stamp, result) or raises RuntimeError."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # keep any temporary file (proof spills) inside the checkout
    tmp = os.path.abspath(os.path.join(".perfbench-run", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        raise RuntimeError("%s seed %d timed out" % (workload, seed))
    sys.stderr.write(r.stderr)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, r.returncode))
    stamp = json.loads(lines[-2])["stamp"]
    stamp.update(host_stamp())
    return stamp, json.loads(lines[-1])


def single(args):
    build()
    try:
        stamp, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as e:
        fail(str(e))
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
    }


def suite(args):
    with open(SPEC) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    build()
    out = {"stamp": None, "seconds": seconds, "workloads": {}}
    for w in workloads:
        rec = {"runs": 0, "failed": 0, "end_to_end": {}, "per_layer": {}}
        for kind, trace, n in (("end_to_end", 0, args.runs), ("per_layer", 1, args.traced)):
            values = {}
            for i in range(n):
                seed = args.first_seed + i
                t0 = time.time()
                stamp, result = run_once(w, seed, seconds, trace)
                out["stamp"] = out["stamp"] or stamp
                rec["runs"] += 1
                rec["failed"] += result["failed"]
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print("%-15s trace %d seed %3d  %5.1fs  correct=%s"
                      % (w, trace, seed, time.time() - t0, result["correct"]), file=sys.stderr)
            rec[kind] = {name: summary(v) for name, v in values.items()}
        out["workloads"][w] = rec
        for name, s in list(rec["end_to_end"].items()) + [
                (k, v) for k, v in rec["per_layer"].items() if k == "obs.span_overhead_pct"]:
            print("%-15s %-22s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.2f%%"
                  % (w, name, s["median"], s["q1"], s["q3"], 100 * s["spread"]))
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    print("wrote " + args.out)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "suite":
        p = argparse.ArgumentParser(prog="run.py suite")
        p.add_argument("--workloads", default="")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--traced", type=int, default=3)
        p.add_argument("--seconds", type=int, default=0)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--out", default="perfbench-results.json")
        suite(p.parse_args(sys.argv[2:]))
    else:
        p = argparse.ArgumentParser(prog="run.py")
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=int, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), required=True)
        single(p.parse_args())


if __name__ == "__main__":
    main()
