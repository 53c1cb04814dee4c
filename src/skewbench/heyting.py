"""Heyting and generalized Heyting structure on finite commutative lattices.

Each arrow construction returns its read-only int16 table or raises
:class:`~skewbench.errors.NoArrow` at the first pair without a value.
:func:`generalized_heyting_arrow` takes y→z as the maximum of the candidate
set {x : x∧y ≤ z}: its kernel takes, for all z at once, the candidate with
the most elements below it, as ``derive_arrow`` does in an upset, and a
failed pair comes with counterexample data (the pair and its maximal
candidates).  The scalar candidate loop stays in the tests as the reference
oracle, and the kernel must agree with it on tables and failure data.
``verify`` calls it once, on S/D, for the lifting check.

:func:`adjunction_failure` verifies a table on a sublattice such as an upset
through c∧a ≤ b ⇔ c ≤ a→b, which in a lattice admits one arrow only, and
:func:`coherence_failure` verifies it on every upset at once.
"""

from __future__ import annotations

import numpy as np

from .core import Algebra, first_true, leq_matrix, minimal_elements
from .errors import AmbiguousDiff, InconsistencyDetected, NoArrow, NoTop


def _arrow_by_candidates(L: Algebra) -> np.ndarray:
    """The arrow kernel, O(n²) cells per y.

    For fixed y, ``cand[z, x]`` says x∧y ≤ z.  A maximum candidate has the
    most elements below it (the rule of ``derive_arrow``), so a pair fails
    iff it has no candidate or some candidate is not below the one with the
    most.  The first failing pair raises NoArrow with witness
    (y, z, *its maximal candidates).
    """
    n = L.n
    leq = leq_matrix(L)
    below = leq.sum(axis=0)  # |↓x| at x
    table = np.zeros((n, n), dtype=np.int16)
    for y in range(n):
        cand = leq[L.meet[:, y], :].T  # [z, x] iff x∧y ≤ z
        best = np.where(cand, below, -1).argmax(axis=1)
        bad = ~cand.any(axis=1) | (cand & ~leq[:, best].T).any(axis=1)
        if bad.any():
            z = int(bad.argmax())
            c = np.flatnonzero(cand[z])
            lt = leq[np.ix_(c, c)] & (c[:, None] != c)  # [a, b] iff a < b
            maximal = [int(x) for x in c[~lt.any(axis=1)]]
            raise NoArrow(
                f"{L.names[y]}→{L.names[z]} has no value: maximal candidates {L.name_tuple(maximal)}",
                witness=(y, z, *maximal),
            )
        table[y] = best
    table.setflags(write=False)
    return table


def adjunction_failure(L: Algebra, members, arrow) -> tuple[int, int] | None:
    """The first pair (a, b) of ``members`` (ascending indices of L), in
    row-major order, at which c∧a ≤ b ⇔ c ≤ a→b fails for some member c, or
    None.  Both sides are gathered as rows of ≤, in steps of at most 2^16
    cells (a, b, c), or of one a and one b."""
    leq = leq_matrix(L)
    U = np.asarray(members)
    m = len(U)
    width = min(m, max(1, (1 << 16) // m))  # b per step
    step = max(1, (1 << 16) // (m * width))  # a per step
    under_of = np.ascontiguousarray(leq[U].T)  # [x, c]: c ≤ x
    blocks = [(U[j : j + width], np.ascontiguousarray(leq[:, U[j : j + width]])) for j in range(0, m, width)]
    for start in range(0, m, step):
        a = U[start : start + step]
        meets = L.meet[np.ix_(U, a)].T  # [a, c] = c∧a
        for b, below_of in blocks:  # below_of[x, b]: x ≤ b
            below = below_of[meets].transpose(0, 2, 1)  # [a, b, c]: c∧a ≤ b
            under = under_of[arrow[np.ix_(a, b)]]  # [a, b, c]: c ≤ a→b
            bad = first_true((below != under).any(axis=2))
            if bad is not None:
                return int(a[bad[0]]), int(b[bad[1]])
    return None


def coherence_failure(L: Algebra, table) -> tuple[int, int, int] | None:
    """The first u, then the first pair (a, b) of u↑, the ≤ row of u, at
    which ``table`` fails the adjunction on u↑, or None.  v ≤ u gives
    u↑ ⊆ v↑, so only the upsets of ≤-minimal elements are checked until one
    of them fails."""
    leq = leq_matrix(L)
    if all(adjunction_failure(L, np.flatnonzero(leq[u]), table) is None for u in minimal_elements(L)):
        return None
    for u, row in enumerate(leq):
        bad = adjunction_failure(L, np.flatnonzero(row), table)
        if bad is not None:
            return (u, *bad)
    return None


def generalized_heyting_arrow(L: Algebra) -> np.ndarray:
    """The relative pseudocomplement table y→z, the maximum of
    {x : x∧y ≤ z}, on a lattice with top but possibly no bottom.

    Where some candidate set has no maximum, which pinpoints where
    distributivity fails, the kernel raises NoArrow.  Otherwise this
    verifies, through :func:`coherence_failure`, that every upset u↑ forms a
    Heyting algebra under the table, which is the structural reason the
    arrow exists; on a lattice that cannot fail, so a failure raises
    InconsistencyDetected.
    """
    table = _arrow_by_candidates(L)
    bad = coherence_failure(L, table)
    if bad is not None:
        raise InconsistencyDetected(
            f"global arrow exists but upset at {L.names[bad[0]]} is not a Heyting algebra", witness=bad
        )
    return table


def dual_gb_diff(L: Algebra) -> np.ndarray:
    """Solve the dual difference entrywise from its defining identities:
    (y∨x∨y)∨(y∖∖x) = 1 = (y∖∖x)∨(y∨x∨y) and (y∨x∨y)∧(y∖∖x) = y = the
    reverse.  On commutative carriers the sandwich collapses to y∨x.

    Exactly one candidate per pair gives the table; none raises NoArrow at
    the first unsolvable pair (y, x); two or more raise AmbiguousDiff, which
    signals non-distributivity.  Without a declared top it raises NoTop.
    """
    n = L.n
    M, J, top = L.meet, L.join, L.top
    if top is None:
        raise NoTop("the dual difference needs a declared top")
    table = np.zeros((n, n), dtype=np.int16)
    for y in range(n):
        s = J[J[y], y]  # y∨x∨y for every x
        cond = (J[s] == top) & (J[:, s].T == top) & (M[s] == y) & (M[:, s].T == y)  # [x, c]
        counts = cond.sum(axis=1)
        if (counts != 1).any():
            x = int(np.argmax(counts != 1))
            if counts[x] == 0:
                raise NoArrow(f"no dual-difference candidate for ({L.names[y]} ∖∖ {L.names[x]})", witness=(y, x))
            cands = np.flatnonzero(cond[x])
            raise AmbiguousDiff(
                f"two dual-difference candidates for ({L.names[y]} ∖∖ {L.names[x]}): "
                f"{[L.names[int(c)] for c in cands]}",
                witness=(y, x) + tuple(int(c) for c in cands),
            )
        table[y] = cond.argmax(axis=1)
    table.setflags(write=False)
    return table
