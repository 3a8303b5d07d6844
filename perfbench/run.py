"""End-to-end and per-layer benchmark of the ``spinwire`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload transport_long --seed 1 --seconds 20 --trace 0

One Python process drives the CLI in-process as a closed loop: a single
client issues each command only after the previous one returns, with
``--out`` into a scratch directory so tables and manifests are written
as in real use. After one warm pass, passes over the workload's command
list repeat until ``--seconds`` have elapsed. Every table is checked
against an independent reference outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``spans.py``). The last line of standard output is the result object;
the line before it holds machine metadata and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("transport_long", "oracle_dense")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get(BLAS_ENV[0], "")
    threads = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    for name in BLAS_ENV:
        os.environ[name] = str(threads)
    return threads


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinwire" / "cli.py").is_file():
        print(f"error: no spinwire sources under {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import harness

    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    detail = result.pop("detail")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
