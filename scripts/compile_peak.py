"""Bound the share of a numpy run's peak RSS that compiling sectorkit sets.

Copies SRC (default: the repository's src) to a temporary directory
without __pycache__ and runs three jobs that load numpy there under
PYTHONDONTWRITEBYTECODE=1, so that every sectorkit module is compiled
from source. Then byte-compiles the copy with compileall and runs them
again. Fails if any job's peak RSS (ru_maxrss, the median of RUNS
processes) differs by more than COMPILE_MARGIN_MB between the two.

Usage: python scripts/compile_peak.py [SRC]
"""

import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Compiling a module allocates 0.6-1.9 MiB of short-lived AST and symbol
# tables; imported before numpy (README Conventions), that costs a run's
# peak 0.1-0.25 MB, and 0.65-1.1 MB when imported after it. A run without
# numpy has no later heap to reuse that memory: its whole compile share,
# about 0.6 MB for tableaux and sectors, stays on its peak, so it is not
# one of the jobs.
COMPILE_MARGIN_MB = 0.5
RUNS = 3
JOBS = (
    "equiv --m 2 --N 2",
    "cover --q-size 3 --N 2",
    "circle --theta 0 --grid 128",
)


def peak_mb(src: Path, job: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    peaks = []
    for _ in range(RUNS):
        child = subprocess.Popen(
            [sys.executable, "-m", "sectorkit", *job.split(), "--out", os.devnull], env=env
        )
        _, status, usage = os.wait4(child.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            sys.exit(f"{job} exited {os.waitstatus_to_exitcode(status)}")
        peaks.append(usage.ru_maxrss / 1024)  # KiB on Linux
    return statistics.median(peaks)


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(root, src, ignore=shutil.ignore_patterns("__pycache__"))
        source = {job: peak_mb(src, job) for job in JOBS}
        if not compileall.compile_dir(src, quiet=1):
            sys.exit("compileall failed")
        cached = {job: peak_mb(src, job) for job in JOBS}
    worst = 0.0
    for job in JOBS:
        gap = source[job] - cached[job]
        worst = max(worst, abs(gap))
        print(f"{job:30s} from source {source[job]:.2f} MB, cached {cached[job]:.2f} MB, {gap:+.2f}")
    print(f"largest difference {worst:.2f} MB, margin {COMPILE_MARGIN_MB} MB")
    return 1 if worst > COMPILE_MARGIN_MB else 0


if __name__ == "__main__":
    sys.exit(main())
