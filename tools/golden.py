#!/usr/bin/env python3
"""Whole-system fingerprint of the shipped scenarios, pinned in GOLDEN.json.

For every scenarios/*.xml this runs vcmr_run twice from the repository root
(trace_churn.xml names its trace file relative to it): once plain, hashing
stdout, and once with --metrics-json, keeping the makespan, the executed
event count and every registry counter and gauge. The result is compared
with the committed GOLDEN.json; any difference is printed and the exit
status is 1. A refactor proves its outputs unchanged by leaving the file
alone; a change that moves outputs on purpose rewrites it with --update and
explains the diff.

    tools/golden.py --vcmr-run build/tools/vcmr_run            # check
    tools/golden.py --vcmr-run build/tools/vcmr_run --update   # rewrite
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300


def series_key(entry):
    labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
    key = f"{entry['component']}/{entry['name']}"
    return f"{key}{{{labels}}}" if labels else key


def fingerprint(vcmr_run, scenario, tmp):
    """One scenario's entry: exit status, stdout hash, makespan, events and
    registry counters/gauges."""
    plain = subprocess.run([vcmr_run, scenario], cwd=ROOT,
                           capture_output=True, timeout=RUN_TIMEOUT_S)
    metrics_path = os.path.join(tmp, "metrics.json")
    with_json = subprocess.run(
        [vcmr_run, scenario, "--metrics-json", metrics_path], cwd=ROOT,
        capture_output=True, timeout=RUN_TIMEOUT_S)
    if with_json.returncode != plain.returncode:
        raise RuntimeError(f"{scenario}: exit {plain.returncode} plain but "
                           f"{with_json.returncode} with --metrics-json")
    if plain.returncode not in (0, 2):
        raise RuntimeError(f"{scenario}: vcmr_run exited "
                           f"{plain.returncode}: {plain.stderr.decode()}")
    with open(metrics_path) as f:
        m = json.load(f)
    summary = m["workflow"] if "workflow" in m else m["outcome"]
    reg = m["registry"]
    return {
        "exit": plain.returncode,
        "stdout_sha256": hashlib.sha256(plain.stdout).hexdigest(),
        "makespan_s": summary["total_seconds"],
        "events_executed": m["events_executed"],
        "counters": {series_key(c): c["value"] for c in reg["counters"]},
        "gauges": {series_key(g): g["value"] for g in reg["gauges"]},
    }


def diff(want, got, path=""):
    """Every leaf where the two documents differ, as printable lines."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for k in sorted(set(want) | set(got)):
            sub = f"{path}/{k}" if path else k
            if k not in got:
                out.append(f"{sub}: missing (golden {want[k]!r})")
            elif k not in want:
                out.append(f"{sub}: not in golden (now {got[k]!r})")
            else:
                out.extend(diff(want[k], got[k], sub))
        return out
    return [] if want == got else [f"{path}: golden {want!r}, now {got!r}"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--vcmr-run", required=True, help="vcmr_run binary")
    ap.add_argument("--golden", default=os.path.join(ROOT, "GOLDEN.json"))
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file instead of checking it")
    args = ap.parse_args()
    vcmr_run = os.path.abspath(args.vcmr_run)

    scenarios = sorted(f for f in os.listdir(os.path.join(ROOT, "scenarios"))
                       if f.endswith(".xml"))
    got = {"scenarios": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in scenarios:
            got["scenarios"][name] = fingerprint(
                vcmr_run, os.path.join("scenarios", name), tmp)
    text = json.dumps(got, indent=1, sort_keys=True) + "\n"

    if args.update:
        with open(args.golden, "w") as f:
            f.write(text)
        print(f"wrote {args.golden} ({len(scenarios)} scenarios)")
        return 0

    with open(args.golden) as f:
        want = json.load(f)
    problems = diff(want, got)
    if problems:
        print(f"{len(problems)} difference(s) from {args.golden}:")
        for line in problems:
            print("  " + line)
        print("rerun with --update if the change is intended, and explain "
              "the diff")
        return 1
    print(f"{len(scenarios)} scenarios match {args.golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
