#!/usr/bin/env python3
"""Records perfbench/reference.json: for every workload and input variant,
the SHA-256 of the campaign's deterministic report (reportToJson with timing
recording off), one outcome letter per fault and the exact work counts.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter verdicts or work counts, and say
so in the change: the benchmark counts every difference as a failed fault.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

VARIANTS = 8  # kVariants in campaign_bench.cpp


def main():
    binary = run.build()
    doc = {
        "note": "Verdict references of the program at the commit that recorded them. "
                "The models are unvalidated against silicon: these pin the program's "
                "own behaviour, not physical truth.",
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        entries = []
        for variant in range(VARIANTS):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(variant), "--record"],
                cwd=run.ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
            entries.append(json.loads(out.splitlines()[-1]))
            run.log("recorded %s variant %d" % (workload, variant))
        doc["workloads"][workload] = entries
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
