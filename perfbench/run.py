#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload tpcc-replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root. The Go program in this directory is built
from source into the build directory (CARGO_TARGET_DIR if set, else
.bench_build), with every Go cache kept there too, then run once per
workload, each in its own process. The last line of standard output is
the workload's JSON result; with --workload all it is one object whose
metric names are prefixed with the workload name. The exit code is
non-zero when a build fails or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tpcc-replay", "cluster-outage", "gateway-http"]
# Per-process limit: a run must finish well inside the 180 s the harness allows.
RUN_TIMEOUT = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds the benchmark binary, keeping every Go cache in the build dir."""
    out = build_dir()
    home = os.path.join(out, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench.bin")
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def run_one(binary, workload, args):
    """Runs one workload; returns (exit code, JSON result or None, other lines)."""
    cmd = [binary, "-workload", workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["-spans", os.path.join(build_dir(), "spans",
                                       "%s-seed%d.jsonl" % (workload, args.seed))]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None, []
    lines = res.stdout.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    return res.returncode, result, lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        rc, result, lines = run_one(binary, name, args)
        for line in lines:
            print(line)
        if rc != 0 or result is None:
            code = rc or 1
        if result is None:
            combined["correct"] = False
            continue
        if len(names) == 1:
            print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, k)] = v
    if len(names) > 1:
        print(json.dumps(combined))
    sys.exit(code)


if __name__ == "__main__":
    main()
