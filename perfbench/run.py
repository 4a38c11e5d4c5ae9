"""Benchmark of the hotspot-detection program, one workload per run.

    python3 perfbench/run.py --workload {al_detect,scan_chip,serve_remote}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Builds nothing but the bytecode of
``src/``; every input is made from ``--seed``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

import harness

WORKLOADS = ("al_detect", "scan_chip", "serve_remote")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != harness.HASH_ENV["PYTHONHASHSEED"]:
        # the string-hash seed is read only at start-up; serve_remote's
        # load generator runs in this process, so restart with it fixed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **harness.HASH_ENV})
    harness.pin_blas_threads()
    # a SIGTERM unwinds through RunDir.__exit__, which stops the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        harness.require_source()
        harness.compile_source()
        module = __import__(args.workload)
        with harness.RunDir() as rd:
            correct, attempted, failed, metrics = module.run(
                args.seed, args.seconds, bool(args.trace), rd)
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(harness.result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
