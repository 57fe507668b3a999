"""Child processes with per-child resource usage.

Every child is started with posix_spawn and reaped with os.wait4, so its
peak resident memory comes from its own rusage. RUSAGE_CHILDREN would be a
running maximum over all children and hide a regression behind an earlier,
larger child. On Linux a child's ru_maxrss also starts at the launching
process's high-water mark (it is carried across exec), so launchers keep
their own memory small.
"""
from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


@dataclass(frozen=True)
class ChildResult:
    code: int
    seconds: float
    maxrss_mb: float


def spawn(argv, env, stdout_path, stderr_path, new_group=False) -> int:
    """Start argv with stdout and stderr sent to files; return its pid."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, _WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, _WRITE, 0o644),
    ]
    group = {"setpgroup": 0} if new_group else {}
    return os.posix_spawn(argv[0], list(argv), env, file_actions=actions, **group)


def _result(status, rusage, seconds) -> ChildResult:
    return ChildResult(os.waitstatus_to_exitcode(status), seconds, rusage.ru_maxrss / 1024.0)


def run(argv, env, stdout_path, stderr_path) -> ChildResult:
    """Run a short child to completion, timing it from spawn to reap."""
    t0 = time.perf_counter()
    pid = spawn(argv, env, stdout_path, stderr_path)
    _, status, rusage = os.wait4(pid, 0)
    return _result(status, rusage, time.perf_counter() - t0)


def run_with_deadline(argv, env, stdout_path, stderr_path, timeout_s: float) -> ChildResult:
    """Run a child in its own process group; kill the whole group at the deadline."""
    t0 = time.perf_counter()
    pid = spawn(argv, env, stdout_path, stderr_path, new_group=True)
    while True:
        done, status, rusage = os.wait4(pid, os.WNOHANG)
        if done:
            return _result(status, rusage, time.perf_counter() - t0)
        if time.perf_counter() - t0 > timeout_s:
            os.killpg(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise TimeoutError(f"{argv[1:3]} did not finish within {timeout_s:.0f} s")
        time.sleep(0.02)
