"""Run one command in a fresh process group and measure it from outside.

Each command gets its own session, so a timeout can kill the whole
process group and a hung command leaves nothing behind.  Wall time,
CPU time and peak resident set come from ``os.wait4`` on the command's
process; a command that hits its timeout is recorded at the full
timeout.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

#: seconds a timed-out command gets between SIGTERM and SIGKILL
KILL_GRACE_S = 2.0


@dataclass(frozen=True)
class Outcome:
    pid: int  # also the process group id
    returncode: Optional[int]  # None when the command hit its timeout
    wall_s: float  # the full timeout for a command that hit it
    cpu_s: float  # user + sys of the command process
    maxrss_kb: int
    stdout: bytes
    stderr: bytes

    @property
    def timed_out(self) -> bool:
        return self.returncode is None


def _read_all(stream, sink: list) -> None:
    with stream:
        sink.append(stream.read())


def _kill_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def run_command(
    argv: Sequence[str], env: dict, cwd: str, timeout_s: float
) -> Outcome:
    """Run ``argv`` to completion or until ``timeout_s``; never leaves it running."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        list(argv),
        cwd=cwd,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    out: list = []
    err: list = []
    readers = [
        threading.Thread(target=_read_all, args=(proc.stdout, out), daemon=True),
        threading.Thread(target=_read_all, args=(proc.stderr, err), daemon=True),
    ]
    reaped: list = []
    lock = threading.Lock()

    def reap() -> None:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        end = time.perf_counter()
        with lock:
            # the unreaped leader still holds the group id, so this kill
            # reaches only what the command left in its own group
            _kill_group(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.append((end, status, usage))

    def signal_group(sig: int) -> None:
        with lock:
            if not reaped:
                _kill_group(proc.pid, sig)

    waiter = threading.Thread(target=reap, daemon=True)
    for t in readers + [waiter]:
        t.start()

    try:
        waiter.join(timeout_s)
    except BaseException:  # interrupted: the command must not outlive us
        signal_group(signal.SIGKILL)
        waiter.join()
        raise
    timed_out = waiter.is_alive()
    if timed_out:
        # SIGTERM first, so a traced command can still write its spans
        signal_group(signal.SIGTERM)
        waiter.join(KILL_GRACE_S)
        signal_group(signal.SIGKILL)
        waiter.join()
    for t in readers:
        t.join()

    end, status, usage = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above, not by Popen
    return Outcome(
        pid=proc.pid,
        returncode=None if timed_out else proc.returncode,
        wall_s=timeout_s if timed_out else end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        stdout=b"".join(out),
        stderr=b"".join(err),
    )
