"""Small child launcher: runs one command at a time and reports its rusage.

The benchmark starts this process once, before it builds or loads any
corpus, and sends it one JSON request per line on stdin:

    {"argv": [...], "env": {...}, "stdout": PATH, "stderr": PATH, "timeout_s": N}

For each request it spawns the command, waits for that one pid with
os.wait4 and answers with one JSON line on stdout:

    {"status": EXIT_CODE, "wall_ns": N, "maxrss_kb": N, "timed_out": BOOL}

Why a separate process: on Linux a child's ru_maxrss starts from the
high-water mark of the address space it was spawned from, so a command
spawned directly by a process that holds a 300 MB corpus reports at least
300 MB. This launcher stays a few MB, so the peak it reports is the
child's own. RUSAGE_CHILDREN is not used either: it is the maximum over
all children ever waited for, not the peak of one.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path


def run_one(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    argv = request["argv"]
    timed_out = False
    start = time.perf_counter_ns()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)

    def kill_child(signum, frame):
        nonlocal timed_out
        timed_out = True
        os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill_child)
    signal.setitimer(signal.ITIMER_REAL, float(request["timeout_s"]))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {
        "status": os.waitstatus_to_exitcode(status),
        "wall_ns": time.perf_counter_ns() - start,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": timed_out,
    }


class Launcher:
    """Benchmark-side handle on one launcher process; use as a context manager."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], env: dict, stdout: Path, stderr: Path, timeout_s: float = 60.0) -> dict:
        request = {"argv": argv, "env": env, "stdout": str(stdout), "stderr": str(stderr), "timeout_s": timeout_s}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited unexpectedly")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        if self._proc.poll() is None:
            try:
                self.close()
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_one(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
