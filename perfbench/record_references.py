"""Record the reference values the benchmark checks every run against.

    python3 perfbench/record_references.py

Runs each workload at full size once per input set (every seed-table pair
of the decay workloads, the fixed sweep of ``converge_fbdf2``) and writes
``references.json``.  Run it only when a change is meant to alter the
program's numbers, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

# Relative tolerance of the reference comparison: wide enough for a changed
# summation order, narrow enough that an approximation error of 1e-10 in the
# quadrature shows.
RTOL = 1e-11


def main() -> int:
    refs: dict = {"rtol": RTOL}
    with run.work_dir("record") as work:
        for name in workloads.WORKLOADS:
            refs[name] = {}
            seeds = range(len(workloads.PAIRS)) if workloads.is_decay(name) else (0,)
            for seed in seeds:
                key = workloads.input_key(name, seed)
                sample = run.run_sample(name, seed, work / f"{name}_{key}", False, None, RTOL)
                if sample["problems"]:
                    print(f"{name} {key}: {sample['problems']}", file=sys.stderr)
                    return 1
                refs[name][key] = sample["values"]
                print(f"{name} {key}: {sample['values']}", file=sys.stderr)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
