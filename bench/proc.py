"""Run one command in a fresh process and measure it from outside.

Wall time runs from just before the spawn to the reap.  CPU time and peak
RSS come from ``wait4``, so they include the command's reaped children
(the ``--jobs`` pool workers).  Set-up time runs from the spawn to the
moment the launcher has imported ``skewbench.cli``.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Run:
    status: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    setup_s: float | None
    stdout: bytes
    stderr: bytes
    timed_out: bool


def _end_session(pgid: int) -> None:
    """Kill whatever is left in the command's session (pool workers of a
    killed command) and wait, up to 10 s, until it is gone."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run(
    launcher: str,
    argv: list[str],
    *,
    root: Path,
    workdir: Path,
    cap_bytes: int,
    timeout_s: float,
    extra_args: tuple[str, ...] = (),
) -> Run:
    """Spawn ``python3 bench/<launcher> [extra_args] argv`` and wait for it."""
    out_path = workdir / "stdout"
    err_path = workdir / "stderr"
    ready_r, ready_w = os.pipe()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["BENCH_CAP_BYTES"] = str(cap_bytes)
    env["BENCH_READY_FD"] = str(ready_w)
    cmd = [sys.executable, str(BENCH_DIR / launcher), *extra_args, *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=env,
            cwd=workdir,
            pass_fds=(ready_w,),
            start_new_session=True,
        )
        os.close(ready_w)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], timeout_s)[0]
            if timed_out:
                os.killpg(proc.pid, signal.SIGKILL)
            _, wstatus, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    _end_session(proc.pid)
    with os.fdopen(ready_r, "rb") as fh:
        ready = fh.read()
    return Run(
        status=proc.returncode,
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        setup_s=float(ready) - t0 if ready else None,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        timed_out=timed_out,
    )
