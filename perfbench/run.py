#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the gfi library and campaign_bench from this checkout (into
$CARGO_TARGET_DIR, default .bench_build) and runs one workload:

    python3 perfbench/run.py --workload dut_seu_event --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics,
--trace 1 the per-layer ledger. --workload all runs every workload in turn
and prints a table of their end-to-end metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dut_seu_event", "pll_fig8_fork", "netlist_batch"]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds campaign_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no program sources under " + os.path.join(ROOT, "src"))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "campaign_bench")


def run_workload(binary, workload, args):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join("perfbench", "reference.json")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    if args.workload != "all":
        code, lines = run_workload(binary, args.workload, args)
        for line in lines:
            print(line)
        return code

    results = {}
    for workload in WORKLOADS:
        code, lines = run_workload(binary, workload, args)
        for line in lines[:-1]:
            print(line)
        if code != 0 or not lines:
            log("%s exited with %d" % (workload, code))
            return code or 1
        results[workload] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print("%-16s" % "workload" + "".join("%18s" % n for n in names + ["failed_share"]))
    for workload, res in results.items():
        cells = ["%18.6g" % res["metrics"][n]["value"] for n in names]
        cells.append("%18.6g" % (res["failed"] / res["attempted"]))
        print("%-16s" % workload + "".join(cells))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
