"""Console-script stand-in used for every timed command.

Run as ``python3 bench/launch.py ARGS``, it does what the installed
``skewbench`` entry point does: import ``skewbench.cli`` and exit with
``main()``.  Before that it applies the address-space cap named in
``BENCH_CAP_BYTES``; once the import is done it writes a CLOCK_MONOTONIC
timestamp to the pipe ``BENCH_READY_FD``, which the harness turns into
``setup_s``.
"""

import os
import resource
import sys
import time


def prepare() -> int:
    """Apply the address-space cap; returns the readiness pipe."""
    cap = int(os.environ.pop("BENCH_CAP_BYTES"))
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    return int(os.environ.pop("BENCH_READY_FD"))


def ready(fd: int) -> None:
    os.write(fd, repr(time.monotonic()).encode())
    os.close(fd)


if __name__ == "__main__":
    fd = prepare()
    from skewbench.cli import main

    ready(fd)
    sys.exit(main())
