"""Fixed reference work that measures how fast the machine is right now.

Run as ``python3 bench/reference.py`` under the same launch protocol as
``launch.py``.  It starts an interpreter, imports numpy and does a fixed mix
of small-matrix numpy work and pure-Python integer loops, the same kinds of
work the ``skewbench`` commands do, without touching ``skewbench``.  The
harness runs it next to every timed command and scales the command's times
by it, so that a slower or faster state of a shared machine cancels out.
"""

import sys

import launch


def work() -> int:
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.integers(0, 64, (64, 64))
    total = 0
    for k in range(2000):
        total += int((a[k % 64][:, None] & a).sum())
    for i in range(200_000):
        total += i * i % 7
    return total


if __name__ == "__main__":
    fd = launch.prepare()
    launch.ready(fd)
    sys.exit(0 if work() > 0 else 1)
