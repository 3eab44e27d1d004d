"""One benchmark run of one workload, in a process of its own.

Started by `run.py` with the BLAS and OpenMP thread counts pinned to 1.  The
run generates its inputs from the seed, then drives `l1geo.cli.main(argv)`
in-process as a closed loop (one client, one thread, jobs back to back) until
`--seconds` have passed, checks every job against the workload's oracle
outside the timed region, and prints one JSON object as its last line.
End-to-end times are reported in units of a calibration loop timed every
half second (see `Calibrator`); the raw seconds are printed and recorded.

With `--trace 1` the loop runs untraced for half the time, then the same jobs
again with every layer function wrapped by `tracer.Tracer`; the untraced half
is the base of the reported tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from l1geo import cli  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@dataclass
class Record:
    """One timed job: per-case outputs and errors, and its wall time."""

    job: workloads.Job
    traced: bool
    seconds: float = 0.0
    outputs: list[list[str]] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)


def run_case(case: workloads.Case, log_buf: io.StringIO
             ) -> tuple[list[str], str | None]:
    """Run a case's CLI steps until one fails; the error names that step."""
    outputs: list[str] = []
    log_buf.seek(0)
    log_buf.truncate()
    for argv in case.steps:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed case, never a shortened run
            outputs.append(buf.getvalue())
            return outputs, traceback.format_exc(limit=-3).strip()
        outputs.append(buf.getvalue())
        if rc != 0:
            return outputs, (f"{argv[0]} exit code {rc}: "
                             f"{log_buf.getvalue().strip()}")
    return outputs, None


# The shared host's speed swings by up to 1.6x for minutes at a time, which
# moves a job's time and this loop's time alike.  So the loop runs every
# CAL_PERIOD_S seconds through the timed loop, and end-to-end times are
# reported in its units ("ref"); raw seconds go to stdout and the run record.
CAL_PERIOD_S = 0.5
_CAL_MATRIX = (np.random.default_rng(0).standard_normal((12, 12))
               + 4.0 * np.eye(12))


def calibration_s() -> float:
    """Wall time of a fixed loop outside l1geo: interpreted arithmetic, dict
    stores and small numpy calls, roughly the mix of an l1geo job."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(120_000):
        acc += i * i % 7
        table[i & 255] = acc
    for _ in range(450):
        np.linalg.solve(_CAL_MATRIX, _CAL_MATRIX[0])
        (_CAL_MATRIX @ _CAL_MATRIX).sum()
    return time.perf_counter() - t0


class Calibrator:
    """While active, times the calibration loop every CAL_PERIOD_S seconds
    from a SIGALRM handler, so samples spread evenly over the run however
    long a job is.  `stolen` is the time spent in the loop, which job times
    leave out."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives while the loop still runs
            return
        self._busy = True
        t = calibration_s()
        self.samples.append(t)
        self.stolen += t
        self._busy = False

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


CALIBRATOR = Calibrator()


def run_job(rec: Record, log_buf: io.StringIO) -> Record:
    """Run every case of the job, timing the whole job less calibration."""
    stolen = CALIBRATOR.stolen
    t0 = time.perf_counter()
    for case in rec.job.cases:
        outputs, error = run_case(case, log_buf)
        rec.outputs.append(outputs)
        rec.errors.append(error)
    rec.seconds = time.perf_counter() - t0 - (CALIBRATOR.stolen - stolen)
    return rec


def timed_loop(jobs, seconds: float, log_buf) -> tuple[list[Record], float]:
    """Closed loop over the job list, cycling, until `seconds` have passed."""
    records: list[Record] = []
    start = time.perf_counter()
    with CALIBRATOR:
        while not records or time.perf_counter() - start < seconds:
            job = jobs[len(records) % len(jobs)]
            records.append(run_job(Record(job, traced=False), log_buf))
    return records, time.perf_counter() - start


def check_all(workload: str, records: list[Record]) -> int:
    """Apply the oracle to every case that ran; returns the wrong-answer count."""
    wrong = 0
    for rec in records:
        for k, case in enumerate(rec.job.cases):
            if rec.errors[k] is not None:
                continue
            try:
                verdict = workloads.check(workload, case, rec.outputs[k])
            except Exception:  # malformed output is a wrong answer
                verdict = traceback.format_exc(limit=-2).strip()
            if verdict is not None:
                rec.errors[k] = f"wrong answer: {verdict}"
                wrong += 1
    return wrong


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: v for k, v in os.environ.items()
               if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))}
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": threads}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for inputs and records")
    ap.add_argument("--setup-only", action="store_true",
                    help="generate the inputs and exit (timed by run.py)")
    args = ap.parse_args()
    out = Path(args.out)
    jobs = workloads.generate(args.workload, args.seed, out / "inputs")
    if args.setup_only:
        return 0

    # cli.main calls logging.basicConfig, which keeps this handler: the
    # program's diagnostics land in a buffer that failure records quote.
    log_buf = io.StringIO()
    logging.basicConfig(stream=log_buf, level=logging.INFO,
                        format="%(levelname)s %(message)s")

    budget = args.seconds / 2 if args.trace else args.seconds
    records, elapsed = timed_loop(jobs, budget, log_buf)
    cal = CALIBRATOR.samples
    # taken before the oracles run, so their imports do not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced: list[Record] = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            for k, rec in enumerate(records):
                tracer.current_job = k
                traced.append(run_job(Record(rec.job, traced=True), log_buf))
        finally:
            tracer.uninstall()

    everything = records + traced
    wrong = check_all(args.workload, everything)
    failures = [{"seed": args.seed, "job": r.job.index, "case": case.index,
                 "label": case.label, "traced": r.traced, "error": error}
                for r in everything
                for case, error in zip(r.job.cases, r.errors)
                if error is not None]
    for f in failures:
        print(f"FAILED seed={f['seed']} job={f['job']} case={f['case']} "
              f"({f['label']}): {f['error'].splitlines()[-1]}",
              file=sys.stderr)

    # Job times include failed cases: a failure is counted by `failed`, not
    # hidden from the clock.
    times = [r.seconds for r in records]
    raw = None
    if args.trace:
        base = statistics.median(times)
        with_trace = statistics.median(r.seconds for r in traced)
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.job_s_p50_untraced"] = (base, "s")
        metrics["trace.job_s_p50_traced"] = (with_trace, "s")
        metrics["trace.overhead_ratio"] = (with_trace / base, "ratio")
        tracer.write(out / "spans.jsonl.gz")
    else:
        ref = statistics.median(cal)
        raw = {"jobs_per_s": len(records) / sum(times),
               "job_s.p50": statistics.median(times), "ref_s": ref}
        metrics = {
            "jobs_per_kref": (1e3 * ref * len(records) / sum(times), "1/kref"),
            "job_ref.p50": (statistics.median(times) / ref, "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    attempted = sum(len(r.errors) for r in everything)
    result = {"correct": wrong == 0, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "elapsed_s": elapsed,
              "calibration_s": cal, "raw_seconds": raw,
              "jobs": [{"job": r.job.index, "traced": r.traced,
                        "seconds": r.seconds,
                        "cases": [c.label for c in r.job.cases],
                        "failed": sum(e is not None for e in r.errors)}
                       for r in everything],
              "failures": failures, "result": result}
    (out / f"record-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(record["environment"]))
    if raw is not None:
        print("raw seconds: " + json.dumps(raw))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
