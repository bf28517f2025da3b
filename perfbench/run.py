"""sectorkit benchmark: end-to-end and per-layer metrics of one workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload operator --seed 1 --seconds 20 --trace 0

``--workload all`` runs reproduce, operator and census in turn. Every job
is one ``python -m sectorkit ...`` invocation in its own fresh child,
run serially, under a resident-memory guard and a timeout, and every
output is checked by the independent oracles in ``oracles.py``.

With ``--trace 0`` (timed, tracing off) a run measures:

* ``setup_s``: median wall time of a fresh ``tableaux --N 1`` process;
* ``wall_s``: median wall time of one pass over the core jobs, passes
  repeated until ``--seconds`` have elapsed;
* ``peak_rss_mb``: median over passes of the largest peak RSS of any core
  job, from the child's own rusage;
* ``jobs_solved``: distinct core and stretch jobs that exited 0 and passed
  their oracles every time they ran. Stretch jobs run once and count only
  here, so solving one raises this count without charging its time.

With ``--trace 1`` a run makes one untraced pass over the core jobs and
then one traced pass over all jobs (see ``tracing.py``), and reports the
per-layer metrics with the tracing overhead.

The last line of stdout is the result: ``correct``, ``attempted`` and
``failed`` count the core and set-up executions. Stretch jobs are frontier
probes, expected to fail until the program grows past them, so they are
left out of those counts; a line before the result gives ``fail_share``
(unsolved over all distinct jobs) and ``frontier_solved`` (solved stretch
jobs) with every failure's outcome class, followed by the environment
block. The full record, with every job's outcome, is written under
``perfbench/_work``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import oracles
import tracing
from child import OUTCOMES, run_child
from jobs import SETUP_JOB, WORKLOADS, Job

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"

# Kill a job whose resident set passes 3 GiB: core jobs peak at 1.8 GB
# (cover q=6, N=2) and the machine must keep room for the parent.
RSS_LIMIT_BYTES = 3 << 30
CORE_TIMEOUT_S = 120.0
STRETCH_TIMEOUT_S = 30.0
SETUP_RUNS = 7
# BLAS threads for every job, on every commit: at most 2 and at most nproc.
BLAS_THREADS_MAX = 2


@dataclass
class JobRecord:
    job: str
    stretch: bool
    traced: bool
    outcome: str
    returncode: int
    wall_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def environment(env: dict[str, str], threads: int, seed: int) -> dict:
    """Environment block; exits non-zero if sectorkit is not importable here."""
    probe = run_child(
        [sys.executable, str(ROOT / "perfbench" / "envprobe.py")],
        env=env,
        cwd=str(ROOT),
        tmp_dir=str(WORK),
        timeout_s=CORE_TIMEOUT_S,
        rss_limit_bytes=RSS_LIMIT_BYTES,
    )
    if probe.outcome() != "ok":
        sys.exit(f"environment probe failed ({probe.outcome()}):\n{probe.stderr.decode()}")
    info = json.loads(probe.stdout)
    if not Path(info["sectorkit_file"]).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"sectorkit imported from {info['sectorkit_file']}, not from {ROOT / 'src'}")
    with open("/proc/meminfo") as fh:
        mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    return {
        **info,
        "blas_threads_set": threads,
        "nproc": nproc(),
        "mem_total_mb": round(mem_kb / 1024),
        "seed": seed,
        "rss_limit_mb": RSS_LIMIT_BYTES >> 20,
        "core_timeout_s": CORE_TIMEOUT_S,
        "stretch_timeout_s": STRETCH_TIMEOUT_S,
    }


class Runner:
    """Runs the jobs of one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, env: dict[str, str]):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.out_dir = WORK / "out" / workload
        self.spans_dir = WORK / "trace" / workload
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def run(self, job: Job, traced: bool = False) -> JobRecord:
        args = job.cli_args(self.seed, str(self.out_dir))
        out_file = job.out_file(self.seed, str(self.out_dir))
        if out_file is not None:
            Path(out_file).unlink(missing_ok=True)
        if traced:
            spans = self.spans_dir / f"{job.name}.json"
            cmd = [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans),
                   f"{self.workload}/{job.name}", *args]
        else:
            cmd = [sys.executable, "-m", "sectorkit", *args]
        child = run_child(
            cmd,
            env=self.env,
            cwd=str(ROOT),
            tmp_dir=str(WORK),
            timeout_s=STRETCH_TIMEOUT_S if job.stretch else CORE_TIMEOUT_S,
            rss_limit_bytes=RSS_LIMIT_BYTES,
        )
        record = JobRecord(job.name, job.stretch, traced, child.outcome(), child.returncode,
                           child.wall_s, child.peak_rss_mb)
        if record.outcome == "ok":
            try:
                output = Path(out_file).read_bytes() if out_file else child.stdout
            except FileNotFoundError:
                record.problems = [f"--out file {out_file} was not written"]
            else:
                record.problems = oracles.check(args, output)
            if record.problems:
                record.outcome = "wrong_output"
        elif child.stderr:
            record.problems = [child.stderr.decode(errors="replace").strip().splitlines()[-1]]
        return record


def solved_jobs(records: list[JobRecord]) -> set[str]:
    """Jobs that exited 0 and passed their oracles every time they ran."""
    by_job: dict[str, bool] = {}
    for r in records:
        by_job[r.job] = by_job.get(r.job, True) and r.outcome == "ok"
    return {job for job, ok in by_job.items() if ok}


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[JobRecord], list[JobRecord]]:
    jobs = WORKLOADS[runner.workload]
    setup = [runner.run(SETUP_JOB) for _ in range(SETUP_RUNS)]
    passes: list[list[JobRecord]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append([runner.run(job) for job in jobs if not job.stretch])
    stretch = [runner.run(job) for job in jobs if job.stretch]
    core = [r for p in passes for r in p]
    metrics = {
        "wall_s": (statistics.median(sum(r.wall_s for r in p) for p in passes), "s"),
        "peak_rss_mb": (statistics.median(max(r.peak_rss_mb for r in p) for p in passes), "MB"),
        "setup_s": (statistics.median(r.wall_s for r in setup), "s"),
        "jobs_solved": (len(solved_jobs(core + stretch)), "count"),
    }
    return metrics, setup + core, stretch


def traced_run(runner: Runner) -> tuple[dict, list[JobRecord], list[JobRecord]]:
    jobs = WORKLOADS[runner.workload]
    shutil.rmtree(runner.spans_dir, ignore_errors=True)
    runner.spans_dir.mkdir(parents=True)
    untraced = [runner.run(job) for job in jobs if not job.stretch]
    traced = [runner.run(job, traced=True) for job in jobs]
    jobs_spans = []
    for path in sorted(runner.spans_dir.glob("*.json")):
        with open(path) as fh:
            jobs_spans.append(json.load(fh)["spans"])
    values = tracing.layer_metrics(jobs_spans)
    for outcome in OUTCOMES:
        values[f"cli.jobs_by_outcome.{outcome}"] = sum(r.outcome == outcome for r in traced)
    traced_core = [r for r in traced if not r.stretch]
    values["trace.overhead_s"] = sum(r.wall_s for r in traced_core) - sum(
        r.wall_s for r in untraced
    )
    units = tracing.metric_units(OUTCOMES)
    metrics = {name: (values.get(name, 0), unit) for name, unit in units.items()}
    return metrics, untraced + traced_core, [r for r in traced if r.stretch]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict, env_block: dict):
    runner = Runner(workload, seed, env)
    if trace:
        metrics, checked, stretch = traced_run(runner)
    else:
        metrics, checked, stretch = timed_run(runner, seconds)
    failed = sum(r.outcome != "ok" for r in checked)
    correct = failed == 0 and not any(r.outcome == "wrong_output" for r in stretch)
    everything = checked + stretch
    jobs = WORKLOADS[workload]
    solved = solved_jobs([r for r in everything if r.job != SETUP_JOB.name])
    fail_share = 1 - len(solved) / len(jobs)
    frontier = sum(job.stretch and job.name in solved for job in jobs)
    shown = "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items() if not trace)
    print(f"[{workload}] {shown}  fail_share={fail_share:.4g} ratio  "
          f"frontier_solved={frontier} count")
    for r in everything:
        if r.outcome != "ok":
            print(f"[{workload}] {'stretch' if r.stretch else 'core'} {r.job}: {r.outcome} "
                  f"after {r.wall_s:.2f} s, peak {r.peak_rss_mb:.0f} MB {r.problems[:2]}")
    record = {
        "workload": workload,
        "trace": trace,
        "environment": env_block,
        "metrics": metrics,
        "fail_share": fail_share,
        "frontier_solved": frontier,
        "jobs": [asdict(r) for r in everything],
    }
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    (WORK / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": env_block}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so run_child kills the job it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    WORK.mkdir(parents=True, exist_ok=True)
    threads = min(BLAS_THREADS_MAX, nproc())
    env = child_env(threads)
    env_block = environment(env, threads, args.seed)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        run_workload(workload, args.seed, args.seconds, bool(args.trace), env, env_block)
    return 0


if __name__ == "__main__":
    sys.exit(main())
