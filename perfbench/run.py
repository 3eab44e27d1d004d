"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload lattice-dense --seed 1 --seconds 50 --trace 0

Runs from the root of a checkout.  Pins the BLAS and OpenMP thread counts to
1, times the set-up (a fresh interpreter that imports the package and writes
the seeded inputs) several times and keeps the median, then starts the
measured run in a process of its own (`worker.py`), so peak memory is the
workload's alone.  The last line of standard output is the result JSON:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.

    python3 perfbench/run.py --selfcheck

runs one traced job of each lattice workload and fails unless the tracer
counts exactly the LP solves the current enumeration makes per job.
Inputs, per-run records and span dumps are kept under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 170
# LP solves per job at this enumeration: the 3^p / 2 walk, one LP per
# pre-extremal sign, and the walk again inside `signs hasse`.
SELFCHECK_LP_CALLS = {"lattice-dense": 365 + 12 + 365,
                      "lattice-sparse": 9842 + 28 + 9842}


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _worker(workload: str, seed: int, seconds: float, trace: int,
            out: Path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(trace), "--out", str(out)]


def setup_seconds(workload: str, seed: int, out: Path) -> float:
    """Median wall time of fresh set-ups, after one untimed warm-up."""
    times = []
    for k in range(SETUP_RUNS + 1):
        probe_dir = out / f"setup{k}"
        t0 = time.perf_counter()
        proc = subprocess.Popen(_worker(workload, seed, 0.0, 0, probe_dir)
                                + ["--setup-only"], env=_env())
        # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantise the time.  The timer only stops a hung set-up.
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        finally:
            timer.cancel()
        if rc != 0:
            raise RuntimeError(f"set-up exited with code {rc}")
        if k:
            times.append(time.perf_counter() - t0)
        shutil.rmtree(probe_dir)
    return statistics.median(times)


def measured_run(cmd: list[str]) -> dict:
    """Run the worker; relay its output and return its result line."""
    proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def selfcheck() -> int:
    failed = False
    for workload, expected in SELFCHECK_LP_CALLS.items():
        out = ROOT / "perfbench" / "out" / "selfcheck" / workload
        result = measured_run(_worker(workload, 0, 0.0, 1, out))
        calls = result["metrics"]["lp.calls"]["value"]
        ok = calls == expected and result["correct"]
        failed |= not ok
        print(f"selfcheck {workload}: lp.calls per job {calls:g}, "
              f"expected {expected}: {'ok' if ok else 'MISMATCH'}")
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="check the tracer's LP count on the lattice workloads")
    args = ap.parse_args()
    if not (ROOT / "src" / "l1geo" / "__init__.py").is_file():
        print(f"no l1geo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        ap.error("--workload is required")
    out = ROOT / "perfbench" / "out" / args.workload / f"seed{args.seed}"
    cmd = _worker(args.workload, args.seed, args.seconds, args.trace, out)
    if args.trace:
        result = measured_run(cmd)
    else:
        setup_s = setup_seconds(args.workload, args.seed, out)
        result = measured_run(cmd)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
