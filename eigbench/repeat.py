"""Run the benchmark several times, one run at a time, and summarise.

    python3 eigbench/repeat.py --workload space --seeds 1-10 [--trace 1]

Each run's JSON line is appended to eigbench/results/<workload>[-trace].jsonl
(raw output, not kept in git).  The summary gives, per metric, the median,
the first and third quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, and the smallest and largest value and
their distance as a share of the median.  Runs take run.py's default
--seconds, BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"{args.workload}{'-trace' if args.trace else ''}.jsonl"
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        with log.open("a") as f:
            f.write(json.dumps(result) + "\n")
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}", flush=True)

    print(f"\n{args.workload}, {len(runs)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}")
    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}"
          f" {'min':>12} {'max':>12} {'range/med':>9}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        lo, hi = min(values), max(values)
        iqr, rng = ((q3 - q1) / med, (hi - lo) / med) if med else (0.0, 0.0)
        print(f"{name:<44} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {iqr:>8.3f}"
              f" {lo:>12.5g} {hi:>12.5g} {rng:>9.3f}  {first['unit']}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")


if __name__ == "__main__":
    main()
