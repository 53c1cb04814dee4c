"""The per-element profile loop and the all-pairs enum dedup, kept as the
reference oracles.

These are the scalar invariant and the quadratic dedup that ``search
--family enum`` started from: every element's profile is read one row and
one column at a time, and each new instance is compared with every kept
instance of its size.  The tests check the library's vectorized profiles
and its bucketed dedup against them.
"""

import numpy as np

from skewbench.core import Algebra, find_isomorphism
from skewbench.models import _enum_pool


def profiles_by_loop(A: Algebra, shared_arrow: bool) -> list[tuple]:
    idx = np.arange(A.n)
    tables = [A.meet, A.join] + ([A.arrow] if shared_arrow else [])
    out = []
    for i in range(A.n):
        sig = []
        for T in tables:
            sig.append(
                (
                    int((T[i, :] == i).sum()),
                    int((T[:, i] == i).sum()),
                    int((T[i, :] == idx).sum()),
                    int((T[:, i] == idx).sum()),
                    int(T[i, i] == i),
                )
            )
        out.append(tuple(sig))
    return out


def enum_labels_all_pairs(max_size: int) -> list[str]:
    """The labels of ``search_family("enum", max_size)``, deduplicated by
    comparing each instance of at most 12 elements with every kept one."""
    pool = _enum_pool(max_size)
    pool.sort(key=lambda item: item[:2])
    kept: list[Algebra] = []
    labels = []
    for size, label, build in pool:
        alg = build().drop_arrow()
        if size <= 12:
            if any(B.n == size and find_isomorphism(alg, B) is not None for B in kept):
                continue
            kept.append(alg)
        labels.append(label)
    return labels
