"""The candidate-loop Heyting arrow, kept as the reference oracle.

This is the scalar construction the workbench started from: for every pair
(y, z) it lists the candidates {x : x∧y ≤ z} and keeps those with no
candidate strictly above them.  It is slow and obviously right, so the
tests cross-check the library's matrix-count kernel against it.
"""

import numpy as np

from skewbench.core import Algebra, leq_matrix
from skewbench.heyting import ArrowResult


def arrow_by_candidates(L: Algebra) -> ArrowResult:
    n = L.n
    M = L.meet
    leq = leq_matrix(L)
    lt = leq & ~np.eye(n, dtype=bool)
    table = np.zeros((n, n), dtype=np.int16)
    for y in range(n):
        cand_by_z = leq[M[:, y], :]  # [x, z] iff x∧y ≤ z
        for z in range(n):
            cand = np.flatnonzero(cand_by_z[:, z])
            maximal = [int(c) for c in cand if not lt[c, cand].any()]
            if len(maximal) != 1:
                return ArrowResult(None, (y, z), tuple(maximal))
            table[y, z] = maximal[0]
    table.setflags(write=False)
    return ArrowResult(table)
