"""sebits benchmark: one workload per process, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload awgn --seed 0 --seconds 22 --trace 0

The workload's inputs are generated from --seed into a work directory under
the current directory, one untimed warm-up job runs, and then whole passes of
the workload's job list run back to back, one job at a time, until they have
taken --seconds in total.  Each job is one in-process
`sebits.cli.main([...])` call writing to a file.  Job times are scaled by a
reference load timed between jobs (see reference.py).  Every output is
checked, and one job is rerun afterwards and must reproduce its output byte
for byte.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
untraced and half with spans around the traced public functions, and
reports per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

from reference import REFERENCE_S, SpeedProbe
from tracing import Tracer, per_layer_metrics
from workloads import WORKLOADS, Job

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120.0
WORK_ROOT = ".perfbench_work"


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """Import sebits from ./src of the checkout, never from an installed copy."""
    src = Path.cwd() / "src"
    if not (src / "sebits" / "__init__.py").is_file() or not Path("fixtures").is_dir():
        _die("src/sebits and fixtures/ not found; run from the repository root")
    sys.path.insert(0, str(src))
    import sebits.cli

    if Path(sebits.cli.__file__).resolve().parent.parent != src.resolve():
        _die(f"imported sebits from {sebits.cli.__file__}, not from {src}")
    return sebits.cli


@dataclass
class Pass:
    latencies: list[float]
    mid_s: list[float]  # job time of the run at each job's midpoint
    problems: list[str | None]


def run_job(cli, job: Job) -> str | None:
    """One CLI call; returns why it failed, or None."""
    try:
        code = cli.main(job.cli_argv())
    except (Exception, SystemExit):
        return "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return None if code == 0 else f"exit code {code}"


def check_output(job: Job) -> str | None:
    try:
        return job.check(job.out.read_text())
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return f"unreadable output: {e!r}"


def run_pass(cli, jobs: list[Job], tracer: Tracer | None, first_job_id: int,
             busy_s: float, probe: SpeedProbe | None) -> Pass:
    latencies, mid_s, errors = [], [], []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_job_id + i
        t0 = time.perf_counter()
        errors.append(run_job(cli, job))
        latencies.append(time.perf_counter() - t0)
        mid_s.append(busy_s + latencies[-1] / 2)
        busy_s += latencies[-1]
        if probe is not None:
            probe.after_job(busy_s)
    problems = [err or check_output(job) for job, err in zip(jobs, errors)]
    return Pass(latencies, mid_s, problems)


def run_passes(cli, jobs: list[Job], budget_s: float, tracer: Tracer | None = None,
               first_job_id: int = 0, probe: SpeedProbe | None = None,
               between=lambda busy_s: None) -> list[Pass]:
    """Whole passes back to back until their summed job time reaches the budget.

    `probe` times the reference load between jobs and `between(busy_s)` runs
    after each pass; neither counts against the budget.
    """
    passes: list[Pass] = []
    busy = 0.0
    while busy < budget_s:
        passes.append(run_pass(cli, jobs, tracer, first_job_id + len(passes) * len(jobs), busy, probe))
        busy += sum(passes[-1].latencies)
        between(busy)
    return passes


class SetupProbe:
    """Process start to ready-for-first-job, timed in fresh interpreters.

    The samples are spread over the run, because a shared host's speed drifts
    over seconds and samples taken back to back would share one phase of it.
    Each is scaled by the reference load timed around it.
    """

    def __init__(self, args, budget_s: float, speed: SpeedProbe):
        self.cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"]
        self.budget_s = budget_s
        self.speed = speed
        self.samples: list[float] = []

    def when_due(self, busy_s: float) -> None:
        while (len(self.samples) < SETUP_SAMPLES
               and busy_s >= len(self.samples) * self.budget_s / SETUP_SAMPLES):
            self.samples.append(self.once() * self.speed.scale(busy_s))

    def finish(self) -> list[float]:
        self.when_due(math.inf)
        return self.samples

    def once(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        return elapsed


def job_latencies(passes: list[Pass], speed: SpeedProbe | None = None) -> list[float]:
    """Each job's median latency over the passes, each latency scaled by `speed` around it.

    On a shared 2-core host the CPU speed swings by up to 2x within seconds.
    Scaling each latency by the reference load timed next to it removes most
    of that; the median over the passes removes what is left of a burst.
    """
    scale = speed.scale if speed is not None else (lambda busy_s: 1.0)
    return [statistics.median(t * scale(m) for t, m in zip(ts, ms))
            for ts, ms in zip(zip(*(q.latencies for q in passes)), zip(*(q.mid_s for q in passes)))]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, so a fixed job mix always lands in the same job class."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def blas_threads() -> int | None:
    import ctypes

    import numpy as np

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def replay(cli, job: Job) -> str | None:
    """Rerun one job outside the timed section; its output must not change."""
    before = job.out.read_bytes()
    problem = run_job(cli, job)
    if problem is None and job.out.read_bytes() != before:
        problem = "output differs from the timed run's output for identical inputs"
    return problem


def rng_floor_s(tracer: Tracer, jobs_per_pass: int, first_job_id: int) -> float:
    """simulate_awgn on a one-codeword n = 7 codebook for one traced pass's configs: mostly RNG time."""
    chancode = sys.modules["sebits.chancode"]
    one_word = chancode.build_grouped_codebook(["0000000"], [[0]])
    pass_jobs = range(first_job_id, first_job_id + jobs_per_pass)
    start = time.perf_counter()
    for span in tracer.of("chancode.simulate_awgn", pass_jobs):
        chancode.simulate_awgn(one_word, span.work["cfg"])
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    work = Path.cwd() / WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True)
    try:
        jobs = workload.build(work, args.seed)
        warmup_problem = run_job(cli, jobs[0])
        if args.setup_only:
            print("ready" if warmup_problem is None else warmup_problem, flush=True)
            return 0 if warmup_problem is None else 1
        return measure(cli, args, jobs, workload, warmup_problem)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never empty


def measure(cli, args, jobs: list[Job], workload, warmup_problem: str | None) -> int:
    print(json.dumps({"env": environment(args)}), flush=True)
    problems = [warmup_problem]
    if args.trace:
        speeds = SpeedProbe(), SpeedProbe()
        untraced = run_passes(cli, jobs, args.seconds / 2, probe=speeds[0])
        tracer = Tracer()
        first = len(untraced) * len(jobs)
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                traced = run_passes(cli, jobs, args.seconds / 2, tracer, first, probe=speeds[1])
        finally:
            tracer.restore()
        metrics = per_layer_metrics(tracer, len(traced))
        floor = rng_floor_s(tracer, len(jobs), first) if tracer.of("chancode.simulate_awgn") else 0.0
        metrics["chancode.rng_floor_s"] = floor
        metrics["chancode.decode_s"] = metrics["chancode.simulate_awgn.busy_s"] - floor if floor else 0.0
        typicality_file = os.path.join("sebits", "typicality.py")
        metrics["typicality.runtime_warnings"] = sum(
            issubclass(w.category, RuntimeWarning) and w.filename.endswith(typicality_file)
            for w in caught) / len(traced)
        metrics["trace.overhead_s"] = (sum(job_latencies(traced, speeds[1]))
                                       - sum(job_latencies(untraced, speeds[0])))
        passes = untraced + traced
        notes = {"passes": f"{len(untraced)} untraced, {len(traced)} traced"}
    else:
        speed = SpeedProbe()
        setup_probe = SetupProbe(args, args.seconds, speed)
        setup_probe.when_due(0.0)
        passes = run_passes(cli, jobs, args.seconds, probe=speed, between=setup_probe.when_due)
        setup = setup_probe.finish()
        per_job = job_latencies(passes, speed)
        raw = job_latencies(passes)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_job),
            "job_p50_s": statistics.median(per_job),
            "job_p90_s": percentile(per_job, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        jobs_note = f"over {len(jobs)} jobs, each the median of {len(passes)} passes"
        notes = {
            "setup_s": f"median of {len(setup)} fresh processes",
            "wall_s": f"sum {jobs_note}; unscaled {sum(raw):.6g} s",
            "job_p50_s": f"{jobs_note}; unscaled {statistics.median(raw):.6g} s",
            "job_p90_s": f"{jobs_note}; unscaled {percentile(raw, 0.9):.6g} s",
        }
        print(f"reference load: median {statistics.median(speed.took):.6g} s over {len(speed.took)} timings;"
              f" times are scaled to {REFERENCE_S} s")

    problems += [x for q in passes for x in q.problems]
    problems.append(replay(cli, jobs[workload.replay]))
    failed = [x for x in problems if x is not None]
    for reason in sorted(set(failed)):
        print(f"failed: {reason}", file=sys.stderr)

    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit_of(name)}{note}")
    print(f"failed_ratio = {len(failed) / len(problems):.6g} ({len(failed)} of {len(problems)} jobs)")
    if "passes" in notes:
        print(f"passes: {notes['passes']}")
    result = {
        "correct": not failed,
        "attempted": len(problems),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
