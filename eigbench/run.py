"""End-to-end and per-layer benchmark of the eigenpoints package.

    python3 eigbench/run.py --workload plane|space|reconstruct --seed N \
        [--seconds S] --trace 0|1

Run from the repository root.  The run builds its workload's inputs from
the seed, repeats whole passes over them until S seconds (by default
BENCHMARK.json's run_seconds) have gone by, checks every output
(eigbench/checks.py) and prints one JSON line: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of one more pass
run with spans.  Everything runs in this one process and thread, except
the set-up samples: fresh interpreters started one at a time before any
timing.
"""

import os

# numpy runs in np.roots and the numeric kernel; keep its BLAS on one thread.
# This must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

# fresh-interpreter set-ups per run; import time alone spreads by a factor 1.7
SETUP_SAMPLES = 5
# the run length when --seconds is not given, as BENCHMARK.json states it
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def import_program():
    """Import the package from this checkout's src/, and no other copy."""
    import eigenpoints

    if SRC.resolve() not in Path(eigenpoints.__file__).resolve().parents:
        raise ImportError(f"eigenpoints imported from {eigenpoints.__file__}, not {SRC}")


def build_ops(workload, seed):
    import_program()
    import workloads

    return workloads.build(workload, seed)


def setup_sample(workload, seed) -> float:
    """Seconds from starting a fresh interpreter to its inputs being built.

    The child prints time.monotonic() when done; on Linux that clock is
    shared between processes, so the child's start-up counts too.
    """
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"set-up probe exited with {out.returncode}")
    return float(out.stdout.split()[-1]) - start


class Failures:
    def __init__(self):
        self.count = 0
        self.unexpected = 0
        self._reported = set()

    def record(self, op, reason, known=False):
        self.count += 1
        if not known:
            self.unexpected += 1
        if op.name not in self._reported:
            self._reported.add(op.name)
            tag = "known fault" if known else "FAILED"
            print(f"{tag}: {op.name}: {reason}", file=sys.stderr)


def run_pass(ops, failures):
    """Time each call, then check every output outside the timed region."""
    gc.collect()
    outputs = []
    times = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:
            out = traceback.format_exc(limit=3)
            times.append(time.perf_counter() - t0)
            outputs.append((False, out))
            continue
        times.append(time.perf_counter() - t0)
        outputs.append((True, out))
    pass_s = time.perf_counter() - start
    for op, (ok, out) in zip(ops, outputs):
        if not ok:
            failures.record(op, f"raised {out.strip().splitlines()[-1]}")
            continue
        try:
            op.check(out)
        except checks.CheckFailed as exc:
            failures.record(op, str(exc), op.shows_known_fault(out))
    return pass_s, times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("plane", "space", "reconstruct"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        build_ops(args.workload, args.seed)
        print(time.monotonic())
        return 0

    if not args.trace:
        setup_s = statistics.median(
            setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES)
        )
    ops = build_ops(args.workload, args.seed)

    failures = Failures()
    attempted = 0
    pass_times = []
    op_times = [[] for _ in ops]
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < args.seconds:
        pass_s, times = run_pass(ops, failures)
        attempted += len(ops)
        pass_times.append(pass_s)
        for acc, t in zip(op_times, times):
            acc.append(t)
    untraced_pass_s = statistics.median(pass_times)

    if args.trace:
        import spans

        tracer = spans.Tracer()
        with tracer.installed():
            traced_pass_s, _ = run_pass(ops, failures)
        attempted += len(ops)
        metrics = tracer.metrics(traced_pass_s, untraced_pass_s)
    else:
        op_medians = [statistics.median(t) for t in op_times]
        metrics = {
            "pass_s": (untraced_pass_s, "s"),
            "op_gmean_s": (math.exp(statistics.fmean(math.log(t) for t in op_medians)), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(
        f"{args.workload} seed {args.seed}: {len(pass_times)} passes of {len(ops)} operations",
        file=sys.stderr,
    )
    result = {
        "correct": failures.unexpected == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
