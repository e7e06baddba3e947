"""Steadiness check: run every workload several times and compare each
end-to-end metric's spread with its bound in ``BENCHMARK.json``.

    python3 perfbench/steady.py --runs 10 [--seed-base 1]

Run ``i`` uses seed ``seed-base + i`` on every workload, and the workload
order alternates between runs.  For each workload and metric the command
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread — the interquartile
distance as a share of the median — and the metric's bound.  It names
every pairing whose spread exceeds its bound and exits 1 if there is one.
Raw results go to ``perfbench/records/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            begin = time.monotonic()
            outcome = run_once(workload, args.seed_base + i, seconds)
            results[workload].append(outcome)
            print(
                f"run {i} {workload}: {outcome['attempted']} attempted, "
                f"{outcome['failed']} failed, {time.monotonic() - begin:.1f} s",
                flush=True,
            )

    over = []
    print(f"\n{'workload':<16} {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, outcomes in results.items():
        shares = {o["failed"] / o["attempted"] for o in outcomes}
        if len(shares) > 1 or any(not o["correct"] for o in outcomes):
            over.append(f"{workload}: failed share {sorted(shares)} or incorrect output")
        for metric, bound in bounds.items():
            values = [o["metrics"][metric]["value"] for o in outcomes]
            q1, _, q3 = statistics.quantiles(values, n=4)
            mid = statistics.median(values)
            spread = (q3 - q1) / mid if mid else float("inf")
            flag = ""
            if spread > bound:
                flag = "  OVER"
                over.append(f"{workload} {metric}: spread {spread:.3f} > bound {bound}")
            elif spread > bound / 3:
                flag = "  >1/3"
            print(
                f"{workload:<16} {metric:<20} {mid:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                f"{spread:>8.3f} {bound:>6.2f}{flag}"
            )

    records = os.path.join(HERE, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump({"seconds": seconds, "seed_base": args.seed_base, "results": results}, fh)
    print(f"\nraw results: {os.path.relpath(path, ROOT)}")
    for line in over:
        print(f"OVER BOUND: {line}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
