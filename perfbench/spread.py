#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 --save first.json
    python3 perfbench/spread.py --seeds 1-10 --against first.json

Runs perfbench/run.py once per (workload, seed) and reports, for every
end-to-end metric, the median of the runs and the distance between their
first and third quartiles as a share of the median (statistics.quantiles
with n=4), next to the metric's bound in BENCHMARK.json. A spread above a
third of its bound is flagged (setup_s is exempt from that check).
--save writes every run's digest and metrics to a file; --against reads
such a file from an earlier set of runs and checks that every seed's
digest (all sim metrics and counts) is identical and that no median got
worse by more than its bound. Exit code 1 when any run fails, a spread is
flagged, a digest differs or a median got worse beyond its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out += range(int(lo), int(hi) + 1)
        else:
            out.append(int(part))
    return out


def run(workload, seed, seconds):
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().split("\n")
    digest = next((m.group(1) for m in map(re.compile(r"digest ([0-9a-f]{16})$").search, lines) if m), None)
    if res.returncode != 0 or not lines[-1].startswith("{"):
        return None, digest
    return json.loads(lines[-1]), digest


def worse(better, old, new):
    """Share by which new is worse than old (negative when better)."""
    if old == 0:
        return 0.0
    return (old - new) / old if better == "higher" else (new - old) / old


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="tpcc-replay,cluster-outage,gateway-http")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--save", help="write every run's digest and metrics here")
    ap.add_argument("--against", help="compare with a file written by --save")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    before = {}
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
    saved = {}
    ok = True
    for w in args.workloads.split(","):
        vals, saved[w] = {}, {}
        for s in seeds(args.seeds):
            out, digest = run(w, s, seconds)
            if out is None or not out["correct"]:
                print("%s seed %d: run failed" % (w, s))
                ok = False
                continue
            saved[w][str(s)] = {"digest": digest, "metrics": {k: v["value"] for k, v in out["metrics"].items()}}
            old = before.get(w, {}).get(str(s))
            if old and old["digest"] != digest:
                print("%s seed %d: digest %s differs from the earlier run's %s" % (w, s, digest, old["digest"]))
                ok = False
            for k, v in out["metrics"].items():
                vals.setdefault(k, []).append(v["value"])
            print("%s seed %d digest %s: %s" % (w, s, digest, json.dumps(saved[w][str(s)]["metrics"])), flush=True)
        for k in sorted(vals):
            vs = vals[k]
            if len(vs) < 2:
                continue
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q[2] - q[0]) / med if med else 0.0
            note = ""
            if k != "setup_s" and spread > spec[k]["bound"] / 3:
                note = "  <-- above a third of the bound"
                ok = False
            if before.get(w):
                olds = [r["metrics"][k] for r in before[w].values()]
                d = worse(spec[k]["better"], statistics.median(olds), med)
                note += "  vs earlier median %.6g: %+.4f worse" % (statistics.median(olds), d)
                if d > spec[k]["bound"]:
                    note += " <-- beyond the bound"
                    ok = False
            print("%-14s %-14s median %-14.6g spread %.4f bound %.2f%s" % (w, k, med, spread, spec[k]["bound"], note))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
