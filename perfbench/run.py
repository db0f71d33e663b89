"""Benchmark of the momentphase command, run in-process through its entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

One thread of load drives `momentphase.cli.main` as a closed loop: the next
job starts when the previous one has returned.  A run makes one untimed
warm-up pass, then times whole passes of fresh jobs until `--seconds` of job
time is spent.  Between passes it times set-up: fresh interpreters that
import the program and make the workload's warm-up call.  Every job's
outputs are kept and checked after the last pass, once the memory
high-water mark is read, so the checker's own arrays do not count in it.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 the metrics
are the per-layer figures of `tracer.py` instead of the end-to-end ones.

`--quick` runs one job per workload with its check, and shows that each
check rejects deliberately corrupted outputs.

Job files go to a temporary directory under `.bench_work/` in the checkout
and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_LAUNCHES = 9  # timed fresh launches per run, after one untimed launch
WARMUP_ENTROPY = 0x5EED  # warm-up jobs are the same in every run

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_job, corrupted_copy  # noqa: E402


def import_program():
    """Import the program from this checkout's sources, or exit with code 1."""
    if not (SRC / "momentphase" / "cli.py").is_file():
        sys.exit(f"error: no momentphase sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import momentphase.cli

    return momentphase.cli


def run_job(cli, job, jobdir: Path) -> tuple[int | None, float, str]:
    """Write a job's inputs, call the CLI, return (exit code, seconds, stderr).

    An exception escaping the CLI is a failed job (exit code None), reported
    with its traceback; the run goes on.
    """
    argv = job.write(jobdir)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
    return code, elapsed, err.getvalue()


def warmup_pass(workload):
    return workload.make_pass(np.random.default_rng(WARMUP_ENTROPY))


def probe(spec: str) -> None:
    """Body of one set-up launch: import the program, make the warm-up call."""
    call = json.loads(spec)
    cli = import_program()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(call["argv"])
    if code != call["expect"]:
        sys.exit(f"warm-up call exited {code}, expected {call['expect']}: {err.getvalue()}")


def setup_launch(spec: str) -> float:
    """Wall time of one fresh launch that imports and makes the warm-up call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", spec]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"error: set-up launch failed: {done.stderr.strip()}")
    return elapsed


class Run:
    """Timed passes of one workload, with their checks."""

    def __init__(self, cli, workload, seed: int, workdir: Path) -> None:
        self.cli, self.workload, self.seed, self.workdir = cli, workload, seed, workdir
        self.job_seconds: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []  # wrong outputs of jobs that did not fail
        self.failures: list[str] = []  # timed jobs that exited with the wrong code
        self.report_bytes = 0
        # pass index -> (exit code, stderr) of each job; the jobs themselves
        # are drawn again for the check, so the run's memory does not grow
        self.unchecked: dict[int, list] = {}

    def jobs_for(self, index: int):
        """Pass `index` of this run; pass -1 is the warm-up pass."""
        if index < 0:
            return warmup_pass(self.workload)
        return self.workload.make_pass(np.random.default_rng([self.seed, index]))

    def run_pass(self, index: int) -> float:
        """Run one pass; return its job time (0 for the warm-up pass)."""
        passdir = self.workdir / f"pass{index}"
        jobs = self.jobs_for(index)
        exits = []
        for j, job in enumerate(jobs):
            code, elapsed, err = run_job(self.cli, job, passdir / f"job{j}")
            self.report_bytes += sum(p.stat().st_size for p in (passdir / f"job{j}" / "out").glob("*.json"))
            exits.append((code, err))
            if index >= 0:
                self.job_seconds.append(elapsed)
        self.unchecked[index] = exits
        if index < 0:
            return 0.0
        self.attempted += len(jobs)
        return sum(self.job_seconds[-len(jobs):])

    def check(self) -> None:
        """Check the outputs of every pass run so far."""
        for index, exits in self.unchecked.items():
            for j, (job, (code, err)) in enumerate(zip(self.jobs_for(index), exits)):
                if code != job.expect:
                    message = f"{job.kind} {job.params}: exit {code}, expected {job.expect}: {err.strip()}"
                    if index >= 0:
                        self.failed += 1
                        self.failures.append(message)
                    else:  # a warm-up job is the same in every run
                        self.problems.append(message)
                    continue
                out = self.workdir / f"pass{index}" / f"job{j}" / "out"
                for problem in check_job(self.workload, job, out):
                    self.problems.append(f"{job.kind} {job.params}: {problem}")
        self.unchecked.clear()


def measure(cli, workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Timed passes, with the set-up launches spread evenly between them.

    The host's speed drifts during a run; launches spread over the run meet
    the same drift as the jobs, where a block of launches would meet one
    moment of it.
    """
    run = Run(cli, workload, seed, workdir)
    run.run_pass(-1)
    # the launches repeat the warm-up pass's first job on inputs written once
    # here, so they time no input generation
    job = warmup_pass(workload)[0]
    spec = json.dumps({"argv": job.write(workdir / "probe"), "expect": job.expect})
    setup_launch(spec)  # untimed: fills the file cache and bytecode
    setup: list[float] = []
    spent, index = 0.0, 0
    while spent < seconds or len(setup) < SETUP_LAUNCHES:
        if spent < seconds:
            spent += run.run_pass(index)
            index += 1
        if len(setup) < SETUP_LAUNCHES * min(1.0, spent / seconds):
            setup.append(setup_launch(spec))
    # read before any check runs, so the checker's own arrays do not count
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.check()
    return {
        "run": run,
        "metrics": {
            "jobs_per_s": (len(run.job_seconds) / spent, "1/s"),
            "job_s.p50": (statistics.median(run.job_seconds), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        },
    }


def measure_traced(cli, workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Alternate untraced and traced passes (ABBA order) until `seconds` is spent."""
    run = Run(cli, workload, seed, workdir)
    run.run_pass(-1)
    tracer = Tracer()
    spent = {False: 0.0, True: 0.0}
    jobs = {False: 0, True: 0}
    traced_bytes = 0
    index = 0
    while index < 2 or sum(spent.values()) < seconds or index % 2:
        traced = index % 4 in (1, 2)
        bytes_before, jobs_before = run.report_bytes, run.attempted
        if traced:
            with tracer:
                spent[traced] += run.run_pass(index)
            traced_bytes += run.report_bytes - bytes_before
        else:
            spent[traced] += run.run_pass(index)
        jobs[traced] += run.attempted - jobs_before
        index += 1
    run.check()
    metrics = {
        name: (value, unit_of(name))
        for name, value in layer_metrics(tracer, jobs[True], traced_bytes).items()
    }
    per_job = {t: spent[t] / jobs[t] for t in (False, True)}
    metrics["trace.overhead_pct"] = (100.0 * (per_job[True] / per_job[False] - 1.0), "%")
    return {"run": run, "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s/job"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_bytes"):
        return "B/job"
    return "count/job"


def quick(seed: int) -> int:
    """One checked job per workload, and each check shown rejecting corruption."""
    cli = import_program()
    ok = True
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name, workload in WORKLOADS.items():
            job = workload.make_pass(np.random.default_rng([seed, 0]))[0]
            jobdir = Path(tmp) / name
            code, elapsed, err = run_job(cli, job, jobdir)
            problems = check_job(workload, job, jobdir / "out") if code == job.expect else [f"exit {code}: {err.strip()}"]
            ok &= not problems
            print(f"{name:11s} {job.kind:16s} exit {code}  {elapsed:6.3f} s  check: {'pass' if not problems else problems}")
            for label, corrupt in workload.corruptions(job):
                rejected = check_job(workload, job, corrupted_copy(jobdir / "out", corrupt))
                ok &= bool(rejected)
                verdict = f"rejected ({rejected[0]})" if rejected else "NOT REJECTED"
                print(f"{'':11s} self-test, {label}: {verdict}")
    print("quick:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--probe", metavar="CALL", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.probe:
        probe(args.probe)
        return 0
    if args.quick:
        return quick(args.seed)
    cli = import_program()
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        measured = (measure_traced if args.trace else measure)(cli, workload, args.seed, args.seconds, Path(tmp))
    run = measured["run"]
    metrics = measured["metrics"]
    for line in run.failures[:10] + run.problems[:10]:
        print("problem:", line, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
