#!/usr/bin/env python3
"""End-to-end benchmark of clsibound.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {estimate-small,sandwich,verify} \\
        --seed N --seconds S --trace {0,1}

The benchmark imports the package from the checkout's ``src`` directory,
builds the workload's inputs from ``--seed``, repeats the workload's pass for
about ``--seconds`` seconds and checks every output through the correctness
gate (see ``workloads.py``).  It prints the metrics by name with their units
and sample counts, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its spans to ``.perfbench-out/`` in the checkout.

BLAS and OpenMP are pinned to one thread here, before numpy loads: the
largest matrix the workloads multiply is 64 x 64, where more threads only
add scheduling noise.  The run happens in this one process; only the import
probes behind ``setup_s`` start (and wait for) short-lived interpreters.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("estimate-small", "sandwich", "verify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clsibound" / "__init__.py").is_file():
        print(f"perfbench: no clsibound source under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import harness

    try:
        summary, lines = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            src=SRC, trace_dir=OUT)
    except harness.SourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line, file=sys.stderr if line.startswith("FAILED") else sys.stdout)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
