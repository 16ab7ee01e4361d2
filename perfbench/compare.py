#!/usr/bin/env python3
"""Compare two results files written by `run.py suite`.

    python3 perfbench/compare.py OLD.json NEW.json

Prints, per workload, the median of every end-to-end and per-layer metric
in both files and the change.  A change is flagged only when the two
medians differ by more than the recorded spread: the larger of the two
files' interquartile ranges for that metric.  The flag says whether the
change is better or worse, by the metric's direction in BENCHMARK.json.
"""

import json
import os
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def directions():
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(name, old, new, better):
    delta = new["median"] - old["median"]
    spread = max(old["q3"] - old["q1"], new["q3"] - new["q1"])
    if abs(delta) <= spread:
        return ""
    improved = delta < 0 if better.get(name, "lower") == "lower" else delta > 0
    return "better" if improved else "WORSE"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    old, new = (json.load(open(p)) for p in sys.argv[1:])
    better = directions()
    for label, res in (("old", old), ("new", new)):
        s = res.get("stamp") or {}
        print("%s: commit %s, nproc %s, domains %s, ocaml %s, jobs %s, warmup %s"
              % (label, s.get("commit"), s.get("nproc"), s.get("recommended_domains"),
                 s.get("ocaml"), s.get("jobs"), s.get("warmup")))
    flagged = 0
    for w in sorted(set(old["workloads"]) & set(new["workloads"])):
        print("\n%s" % w)
        print("  %-28s %14s %14s %9s  %s" % ("metric", "old median", "new median", "change", ""))
        for kind in ("end_to_end", "per_layer"):
            o, n = old["workloads"][w][kind], new["workloads"][w][kind]
            for name in sorted(set(o) & set(n)):
                om, nm = o[name]["median"], n[name]["median"]
                change = "%+8.2f%%" % (100 * (nm - om) / abs(om)) if om else "       -"
                v = verdict(name, o[name], n[name], better)
                flagged += v != ""
                print("  %-28s %14.6g %14.6g %9s  %s" % (name, om, nm, change, v))
    print("\n%d change(s) larger than the recorded spread" % flagged)


if __name__ == "__main__":
    main()
