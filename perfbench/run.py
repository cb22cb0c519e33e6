"""galmin benchmark: closed-loop workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload vt-certify --seed 1 --seconds 20 --trace 0

One client runs the workload's jobs one after another in this process
(a closed loop), repeating the whole job list while another pass still fits
in ``--seconds``; at least two passes always run. Every job's output is
checked. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced passes:
  wall_s       time of one pass over the job list, each job taken at its
               fastest over the run's passes
  setup_s      median, over fresh interpreters, of import galmin +
               build_sieve(10^6) + solve_beta
  peak_rss_mb  peak resident set of this process

``--trace 1`` runs one untraced pass, then the set-up calls and one pass
again under the tracer (see tracer.py), and reports the per-layer metrics,
the result-quality counters and trace.overhead_s (traced minus untraced
pass time). ``--smoke`` shrinks every workload to tiny sizes for the
benchmark's own test.

``attempted``/``failed`` count jobs, or for verify-fast its assertions; a
job that raises or fails a check is failed. The exit code is 0 whenever a
result is printed, and 2 when the checkout has no galmin sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("vt-certify", "witness-chain", "energy-moments", "verify-fast")
SETUP_PROBES = 5
MIN_PASSES = 2
WARMUP_S = 1.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Timed in a fresh interpreter: what every galmin experiment pays first.
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import galmin
from galmin.arith import build_sieve
from galmin.constants import solve_beta
build_sieve(1_000_000)
solve_beta()
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one pass, one set-up probe, no warm-up")
    return ap.parse_args(argv)


def limit_blas_threads() -> None:
    """Cap BLAS threads at the usable CPUs; must run before numpy loads."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cpus):
            os.environ[var] = str(cpus)


def setup_seconds(probes: int) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(probes):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def warm_up(seconds: float) -> None:
    """Spin up the BLAS threads before timing: the first second of dense
    matvecs in a fresh process runs up to twice as slow."""
    import numpy as np

    a = np.ones((1024, 1024))
    v = np.ones(1024)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        a @ v


class Loop:
    """Runs passes over a job list and tallies checked outcomes."""

    def __init__(self, jobs, pause):
        self.jobs = jobs
        self.pause = pause  # context manager factory: untraced check region
        self.attempted = 0
        self.failed = 0
        self.quality = None
        self.job_seconds = {job.name: [] for job in jobs}
        # The region (job or its check) in which ru_maxrss last grew.
        self.peak_region = "start-up and input building"
        self._rss = _max_rss_mb()

    def one_pass(self) -> float:
        from workloads import Quality

        quality = Quality()
        busy = 0.0
        for job in self.jobs:
            t0 = time.perf_counter()
            try:
                out, error = job.run(), None
            except Exception:
                out, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - t0
            busy += elapsed
            self.job_seconds[job.name].append(elapsed)
            self._note_peak(f"job {job.name}")
            if error:
                self._record(job.name, 1, ["raised:\n" + error])
                continue
            with self.pause():
                try:
                    verdicts = job.check(out, quality)
                except Exception:
                    self._record(job.name, 1, ["check raised:\n" + traceback.format_exc()])
                    continue
                finally:
                    self._note_peak(f"check of {job.name}")
            bad = [name for name, ok in verdicts if not ok]
            ops = len(verdicts) if job.per_assertion else 1
            self._record(job.name, ops, bad, per_assertion=job.per_assertion)
        self.quality = quality
        return busy

    def _note_peak(self, region: str) -> None:
        rss = _max_rss_mb()
        if rss > self._rss:
            self._rss, self.peak_region = rss, region

    def _record(self, job, ops, bad, per_assertion=False):
        self.attempted += ops
        failed = len(bad) if per_assertion else int(bool(bad))
        self.failed += failed
        for msg in bad:
            print(f"FAILED {job}: {msg}", file=sys.stderr)

    def fastest_pass(self) -> float:
        """Every job at its fastest over the passes: the machine's noise
        only ever adds time, so the minimum is the steadiest estimate."""
        return sum(min(ts) for ts in self.job_seconds.values())

    def job_summary(self) -> str:
        return ", ".join(f"{name} {min(ts):.3f}/{statistics.median(ts):.3f} s"
                         for name, ts in self.job_seconds.items() if ts)

    def run_for(self, seconds: float, min_passes: int) -> list[float]:
        """Pass times: ``min_passes``, then another while it still fits."""
        passes = []
        t_start = time.perf_counter()
        while True:
            passes.append(self.one_pass())
            if (len(passes) >= min_passes and
                    time.perf_counter() - t_start + statistics.median(passes) > seconds):
                return passes


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(seed: int, workload: str) -> dict:
    import platform

    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model() or platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        # limit_blas_threads capped every variable before numpy loaded.
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
QUALITY_UNITS = {
    "fw_uncertified": "count",
    "fw_gap_rel_max": "ratio",
    "e_scaled_sum": "value",
    "trace.overhead_s": "s",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "galmin" / "__init__.py").is_file():
        print(f"no galmin sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))

    # Probes first: the warm-up below must directly precede the timing.
    setup = [] if args.trace else setup_seconds(1 if args.smoke else SETUP_PROBES)

    from galmin import arith, constants

    import workloads
    from tracer import Tracer, metric_units

    sieve = arith.build_sieve(workloads.SIEVE_LIMIT)
    beta = constants.solve_beta().beta
    inputs = workloads.Inputs(seed=args.seed, sieve=sieve, beta=beta, smoke=args.smoke)
    jobs = workloads.WORKLOADS[args.workload](inputs)
    print("provenance " + json.dumps(provenance(args.seed, args.workload)), flush=True)

    if not args.smoke:
        warm_up(WARMUP_S)
    if args.trace:
        tracer = Tracer()
        loop = Loop(jobs, tracer.pause)
        untraced = loop.one_pass()
        with tracer:
            # Module attributes, so the set-up calls are traced too.
            arith.build_sieve(workloads.SIEVE_LIMIT)
            constants.solve_beta()
            traced = loop.one_pass()
        if tracer.absent:
            print("absent layers: " + ", ".join(tracer.absent), flush=True)
        units = {**metric_units(), **QUALITY_UNITS}
        values = tracer.metrics()
        values["trace.overhead_s"] = traced - untraced
        print(f"passes: untraced {untraced:.3f} s, traced {traced:.3f} s", flush=True)
    else:
        from contextlib import nullcontext

        loop = Loop(jobs, nullcontext)
        passes = (loop.run_for(0.0, 1) if args.smoke
                  else loop.run_for(args.seconds, MIN_PASSES))
        print("passes: " + ", ".join(f"{p:.3f} s" for p in passes), flush=True)
        print("set-up probes: " + ", ".join(f"{t:.3f} s" for t in setup), flush=True)
        values = {
            "wall_s": loop.fastest_pass(),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": _max_rss_mb(),
        }
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f}, last raised in "
              f"{loop.peak_region}", flush=True)
        units = END_TO_END_UNITS
    q = loop.quality
    if args.trace:
        values.update(fw_uncertified=q.fw_uncertified, fw_gap_rel_max=q.fw_gap_rel_max,
                      e_scaled_sum=q.e_scaled_sum)
    print("job min/median: " + loop.job_summary(), flush=True)
    print(f"quality: fw_uncertified={q.fw_uncertified} "
          f"fw_gap_rel_max={q.fw_gap_rel_max:.6g} "
          f"e_scaled_sum={q.e_scaled_sum:.10g}", flush=True)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
