#!/usr/bin/env python3
"""Writes perfbench/expected.json: the simulated fingerprint of every job in
each workload's held-out job set.

    python3 perfbench/record_expected.py      # from the repository root

run.py fails any job of a held-out set whose fingerprint differs from the
recorded one. Re-record only after a change that is meant to alter simulated
results; a change meant only to speed up the simulator must leave the file
as it is.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    run.build()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    recorded = {}
    for name, spec in sorted(run.WORKLOADS.items()):
        args = argparse.Namespace(workload=name, seed=spec["held_out"],
                                  smoke=False, trace=0)
        r = run.Run(args)
        r.run_pass(traced=False)
        if r.failures:
            sys.exit(f"record_expected.py: {name}: {r.failures}")
        recorded[f"{name}/{args.seed}"] = [
            list(r.fingerprints[k]) for k in range(len(r.jobs))]
    with open(run.EXPECTED, "w") as f:
        json.dump(recorded, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
