#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread, the check a benchmark must pass to be steady.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload sandwich --seeds 1-10 [--out FILE]

For every metric it prints the median of the runs and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json`` and a
third of it.  ``--out`` writes the runs and the medians as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in seed_list(args.seeds):
        command = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    medians = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        medians[name] = median
        if len(values) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"bound {bound} third {bound / 3:.4f} "
            + ("steady" if spread < bound / 3 else "NOT STEADY"))
        print(f"{name}: median {median:.6g} spread {spread:.4f} {verdict}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "medians": medians, "runs": runs}, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
