#!/usr/bin/env python3
"""Build and run the gangcomm benchmark.

    python3 perfbench/run.py --workload stream|gang_switch|lossy|all
                             [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/gcbench from the checkout's sources (CMake, Release) into
.bench_build/ at the checkout root, then runs one workload for --seconds of
wall time.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  --workload all runs every
workload in both modes and ends with one JSON object whose metric names are
prefixed by the workload.  See perfbench/README.md for what each metric
means and which layer change should move it.

Exits non-zero without a result line if the build or a run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gcbench")
WORKLOADS = ["stream", "gang_switch", "lossy"]
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the harness; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def run_workload(workload, args, extra):
    """Runs one workload; returns (stdout lines, parsed result) or None."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: {workload} exited {proc.returncode}", file=sys.stderr)
        return None
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run.py: {workload} printed no result line", file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test settings, forwarded to gcbench (see selftest.py).
    parser.add_argument("--queue", choices=["heap", "ladder"])
    parser.add_argument("--host-per-packet-ns", type=int)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    extra = []
    if args.queue:
        extra += ["--queue", args.queue]
    if args.host_per_packet_ns is not None:
        extra += ["--host-per-packet-ns", str(args.host_per_packet_ns)]

    if args.workload != "all":
        out = run_workload(args.workload, args, extra)
        if out is None:
            return 1
        lines, result = out
        print("\n".join(lines))
        print(json.dumps(result))
        return 0

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.trace = trace
            out = run_workload(workload, args, extra)
            if out is None:
                return 1
            lines, result = out
            print("\n".join(lines))
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
