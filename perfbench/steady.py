"""Steadiness of the benchmark: run one workload N times, one seed per
run, and print each metric's median, quartiles and spread; or compare
two saved sets of runs against the bounds in ``BENCHMARK.json``.

    python3 perfbench/steady.py --workload scan_chip --runs 10 --out a.json
    python3 perfbench/steady.py --compare a.json b.json

Spread is ``(Q3 - Q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``; a steady metric's spread stays
well inside its bound (a third of it is the target).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spec() -> dict:
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in data["end_to_end"] + data["per_layer"]}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def describe(runs: list[dict]) -> dict:
    table = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        table[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"),
            "unit": runs[0]["metrics"][name]["unit"],
        }
    return table


def failed_share(runs: list[dict]) -> float:
    return (sum(run["failed"] for run in runs)
            / sum(run["attempted"] for run in runs))


def report(runs: list[dict]) -> None:
    bounds = spec()
    print(f"{'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, row in describe(runs).items():
        bound = bounds.get(name, {}).get("bound")
        print(f"{name:26s} {row['median']:12.5g} {row['q1']:12.5g} "
              f"{row['q3']:12.5g} {row['spread']:8.4f} "
              f"{'-' if bound is None else f'{bound:6.3f}'}  {row['unit']}")
    print(f"runs {len(runs)}, all correct: "
          f"{all(run['correct'] for run in runs)}, failed share "
          f"{failed_share(runs):.6f}")


def compare(path_a: Path, path_b: Path) -> int:
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    bounds = spec()
    da, db = describe(a["runs"]), describe(b["runs"])
    worst = 0
    print(f"{'metric':26s} {'median A':>12s} {'median B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for name, row in da.items():
        m = bounds.get(name)
        if m is None or "bound" not in m:
            continue
        ma, mb = row["median"], db[name]["median"]
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        flag = "" if worse <= m["bound"] else "  OUT OF BOUND"
        worst += bool(flag)
        print(f"{name:26s} {ma:12.5g} {mb:12.5g} {worse:9.4f} "
              f"{m['bound']:6.3f}{flag}")
    fa, fb = failed_share(a["runs"]), failed_share(b["runs"])
    print(f"failed share A {fa:.6f}, B {fb:.6f}"
          f"{'' if fa == fb else '  DIFFERENT'}")
    return 1 if worst or fa != fb else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, default=None)
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        runs.append(one_run(args.workload, seed, seconds))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
            flush=True)
    report(runs)
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload,
                                        "seconds": seconds, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
