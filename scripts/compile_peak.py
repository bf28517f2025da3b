"""Bound the share of a numpy run's peak RSS that compiling sectorkit sets.

Copies SRC (default: the repository's src) to a temporary directory
without __pycache__ and runs the two jobs that load numpy there under
PYTHONDONTWRITEBYTECODE=1, so that every sectorkit module is compiled
from source: circle and cover --cover-json on a small cyclic cover
document written to the same directory. Then byte-compiles the
copy with compileall and runs them again. Fails if any job's peak RSS
(ru_maxrss, the median of RUNS processes) differs by more than
COMPILE_MARGIN_MB between the two.

Each job is spawned by a small ``python -S`` launcher (LAUNCHER), as the
Tier-1 RSS tests do: a child's ru_maxrss starts at the resident set of
the process that spawned it, and this script's own grows with compileall.

Usage: python scripts/compile_peak.py [SRC]
"""

import compileall
import json
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
# about 0.6 MB for tableaux and sectors and more for cover --q-size/--N and
# equiv, stays on its peak, so none of them is one of the jobs.
COMPILE_MARGIN_MB = 0.5
RUNS = 3
JOBS = (
    "circle --theta 0 --grid 128",
    "cover --cover-json {document}",
)
CYCLIC_ORDER = 12
LAUNCHER = (
    "import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:]); "
    "_, status, usage = os.wait4(child.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def peak_mb(src: Path, job: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "sectorkit", *job.split(), "--out", os.devnull]
    peaks = []
    for _ in range(RUNS):
        done = subprocess.run(
            [sys.executable, "-S", "-c", LAUNCHER, *command],
            env=env, capture_output=True, text=True, check=True,
        )
        code, kib = map(int, done.stdout.split())
        if code != 0:
            sys.exit(f"{job} exited {code}")
        peaks.append(kib / 1024)  # KiB on Linux
    return statistics.median(peaks)


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(root, src, ignore=shutil.ignore_patterns("__pycache__"))
        document = Path(tmp) / f"z{CYCLIC_ORDER}.json"
        n = CYCLIC_ORDER
        document.write_text(json.dumps({
            "points": [f"p{x}" for x in range(n)],
            "group": [[(x + k) % n for x in range(n)] for k in range(n)],
        }))
        jobs = [job.format(document=document) for job in JOBS]
        source = {job: peak_mb(src, job) for job in jobs}
        if not compileall.compile_dir(src, quiet=1):
            sys.exit("compileall failed")
        cached = {job: peak_mb(src, job) for job in jobs}
    worst = 0.0
    for job, name in zip(jobs, JOBS):
        gap = source[job] - cached[job]
        worst = max(worst, abs(gap))
        print(f"{name:30s} from source {source[job]:.2f} MB, cached {cached[job]:.2f} MB, {gap:+.2f}")
    print(f"largest difference {worst:.2f} MB, margin {COMPILE_MARGIN_MB} MB")
    return 1 if worst > COMPILE_MARGIN_MB else 0


if __name__ == "__main__":
    sys.exit(main())
