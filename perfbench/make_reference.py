#!/usr/bin/env python3
"""Regenerate `reference.json`: per-trial values for every workload.

    python3 perfbench/make_reference.py

For each workload and each seed in SEEDS it makes one invocation and stores
the CSV rows and the config's hash. `run.py` then checks every run at one of
these seeds against them. Regenerate only when a change to the program or to
a pinned config is meant to move these values, and say so in the change.
"""

import json
import shutil
import sys

from run import REFERENCE, Bench
from workloads import WORKLOADS

SEEDS = range(10)


def main() -> int:
    reference: dict = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            bench = Bench(workload, seed)
            inv = bench.invoke("reference")
            shutil.rmtree(bench.dir, ignore_errors=True)
            if inv.problems:
                print("\n".join(inv.problems), file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = {
                "config_sha256": bench.config_sha256(),
                "rows": [[*cell, *values] for cell, values in inv.rows().items()],
            }
            print(name, seed, flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
