"""Run one job in a fresh child process under an RSS guard and a timeout.

The guard polls the child's resident set from ``/proc/<pid>/statm`` and
kills the child once it exceeds the limit, well before the machine runs
out of memory. It bounds resident memory, not address space: the dense
commutant materialisation reserves gigabytes of lazily zeroed pages that
are never touched, so an ``RLIMIT_AS`` cap would fail jobs that succeed.

A waiter thread blocks in ``os.wait4`` so that the end time and the
child's own rusage (peak RSS) are taken the moment it exits, independent
of the polling interval.
"""

from __future__ import annotations

import os
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
POLL_S = 0.005

# Outcome classes of one job, in the order they are reported.
OUTCOMES = (
    "ok",
    "wrong_output",
    "exit2",
    "exit3",
    "exit4",
    "exit1_traceback",
    "exit_other",
    "signal",
    "timeout",
    "guard",
)


@dataclass
class ChildRun:
    """What one child did: exit status, timing, memory and its output."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    killed_by: str | None  # "timeout", "guard" or None

    def outcome(self) -> str:
        """Outcome class from the exit status alone (oracles come later)."""
        if self.killed_by is not None:
            return self.killed_by
        if self.returncode < 0:
            return "signal"
        if self.returncode == 0:
            return "ok"
        if self.returncode in (2, 3, 4):
            return f"exit{self.returncode}"
        if self.returncode == 1 and b"Traceback (most recent call last)" in self.stderr:
            return "exit1_traceback"
        return "exit_other"


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            return int(fh.read().split()[1]) * PAGE_BYTES
    except (OSError, IndexError, ValueError):
        return 0


def run_child(
    cmd: list[str],
    *,
    env: dict[str, str],
    cwd: str,
    tmp_dir: str,
    timeout_s: float,
    rss_limit_bytes: int,
) -> ChildRun:
    """Run `cmd` to completion, killing it on timeout or RSS overrun."""
    with tempfile.TemporaryFile(dir=tmp_dir) as out, tempfile.TemporaryFile(dir=tmp_dir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        reaped: list = []

        def reap() -> None:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.append((time.perf_counter(), status, usage))

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        killed_by = None
        try:
            while waiter.is_alive():
                waiter.join(POLL_S)
                if not waiter.is_alive() or killed_by is not None:
                    continue
                if time.perf_counter() - start > timeout_s:
                    killed_by = "timeout"
                elif _rss_bytes(proc.pid) > rss_limit_bytes:
                    killed_by = "guard"
                if killed_by is not None:
                    os.kill(proc.pid, signal.SIGKILL)
        finally:
            if waiter.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
                waiter.join()
        end, status, usage = reaped[0]
        # The child is reaped by wait4 above; tell Popen so it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(
            returncode=proc.returncode,
            wall_s=end - start,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read(),
            stderr=err.read(),
            killed_by=killed_by,
        )
