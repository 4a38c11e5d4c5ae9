"""Run the program's ``repro`` entry point under the span wrappers.

    python perfbench/launch.py --trace-out T.json --run-id ID -- detect ...
    python perfbench/launch.py --trace-out T.json --run-id ID -- serve ...

The wrappers (:mod:`spans`) are installed first; then ``repro.cli.main``
runs exactly as the console script would.  The spans are written when
it returns, which for ``serve --listen`` is at the end of its SIGTERM
drain.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import harness
import spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    harness.require_source()
    tracer = spans.Tracer(args.run_id)
    spans.install(tracer)
    from repro.cli import main as repro_main

    code = repro_main(argv)
    tracer.write(Path(args.trace_out))
    return code


if __name__ == "__main__":
    sys.exit(main())
