#!/usr/bin/env python3
"""Self-test of the benchmark's output check.

    python3 perfbench/selftest.py [--workload NAME ...]

For every workload, at the pinned default seed unless noted:
  * the unmodified model passes, untraced and traced;
  * the heap event queue passes too: it fires in the ladder queue's order,
    so the simulated digest must not move;
  * another seed passes (conservation checks and run-to-run determinism);
  * one perturbed model constant (FM host cost per packet, 1500 -> 1600 ns)
    fails: the check must notice a change to the simulated cluster.
Exits non-zero if any expectation does not hold.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["stream", "gang_switch", "lossy"]
CASES = [
    ("unmodified", [], True),
    ("traced", ["--trace", "1"], True),
    ("heap queue", ["--queue", "heap"], True),
    ("seed 7", ["--seed", "7"], True),
    ("host_per_packet_ns=1600", ["--host-per-packet-ns", "1600"], False),
]


def run(workload, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seconds", "0.2"] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS,
                        default=WORKLOADS)
    args = parser.parse_args()
    bad = 0
    for workload in args.workload:
        for name, extra, want in CASES:
            result = run(workload, extra)
            got = None if result is None else result["correct"]
            ok = got is want
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:12} {name:24} "
                  f"correct={got} (want {want})", flush=True)
    print("selftest:", "passed" if bad == 0 else f"{bad} case(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
