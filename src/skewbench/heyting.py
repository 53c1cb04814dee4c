"""Heyting and generalized Heyting structure on finite commutative lattices.

:func:`heyting_arrow` takes y→z as the maximum of the candidate set
{x : x∧y ≤ z}: its kernel takes, for all z at once, the candidate with the
most elements below it, as ``derive_arrow`` does in an upset, and a failed
pair comes with counterexample data (the pair and its maximal candidates).
The scalar candidate loop stays in the tests as the reference oracle, and
the kernel must agree with it on tables and failure data.  ``verify`` calls
it once, on S/D, for the lifting check.

:func:`adjunction_failure` verifies a table on a sublattice such as an upset
through c∧a ≤ b ⇔ c ≤ a→b, which in a lattice admits one arrow only, and
:func:`coherence_failure` verifies it on every upset at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .core import Algebra, Record, first_true, leq_matrix, minimal_elements, skipped_result
from .errors import AmbiguousDiff, InconsistencyDetected, NoTop

if TYPE_CHECKING:
    from .properties import PropertyReport


class ArrowResult(Record):
    """Arrow or dual difference table, or absence with the offending pair
    and, for an arrow, its maximal candidates (two or more incomparable
    maxima witness non-distributivity)."""

    __slots__ = ("table", "offending", "maximal")

    def __init__(
        self,
        table: np.ndarray | None,
        offending: tuple[int, int] | None = None,
        maximal: tuple[int, ...] = (),
    ):
        self._init(table, offending, maximal)

    def __bool__(self) -> bool:
        return self.table is not None


def _arrow_by_candidates(L: Algebra) -> ArrowResult:
    """The arrow kernel, O(n²) cells per y.

    For fixed y, ``cand[z, x]`` says x∧y ≤ z.  A maximum candidate has the
    most elements below it (the rule of ``derive_arrow``), so a pair fails
    iff it has no candidate or some candidate is not below the one with the
    most.  Only the first failing pair has its maximal candidates listed.
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
            return ArrowResult(None, (y, z), tuple(int(x) for x in c[~lt.any(axis=1)]))
        table[y] = best
    table.setflags(write=False)
    return ArrowResult(table)


def heyting_arrow(L: Algebra) -> ArrowResult:
    """Relative pseudocomplement table: y→z is the maximum of {x : x∧y ≤ z}.

    Absence (some candidate set has no maximum) is a value, not an error,
    and pinpoints where distributivity fails.
    """
    return _arrow_by_candidates(L)


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


def generalized_heyting_arrow(L: Algebra) -> ArrowResult:
    """Arrow on a distributive lattice with top but possibly no bottom.

    Beyond the candidate-set construction this verifies, through
    :func:`coherence_failure`, that every upset u↑ forms a Heyting algebra
    under the table, which is the structural reason the arrow exists.
    """
    res = _arrow_by_candidates(L)
    if not res:
        return res
    bad = coherence_failure(L, res.table)
    if bad is not None:
        raise InconsistencyDetected(
            f"global arrow exists but upset at {L.names[bad[0]]} is not a Heyting algebra", witness=bad
        )
    return res


def check_heyting_axioms(L: Algebra) -> PropertyReport:
    """Verdicts for the Heyting axioms, the adjunction and the reduction
    x→y = (x∨y)→y on ``L``'s arrow, each quantified exhaustively."""
    # imported here: `model upsets` loads this module for the adjunction alone
    from .identities import run_identity
    from .properties import PropertyReport

    h1 = run_identity("H1", L) if L.top is not None else skipped_result("H1", "no top declared")
    rest = ("H2", "H3", "H4", "HA", "arrow-join-reduction")
    return PropertyReport((h1, *(run_identity(name, L) for name in rest)))


def dual_gb_diff(L: Algebra) -> ArrowResult:
    """Solve the dual difference entrywise from its defining identities:
    (y∨x∨y)∨(y∖∖x) = 1 = (y∖∖x)∨(y∨x∨y) and (y∨x∨y)∧(y∖∖x) = y = the
    reverse.  On commutative carriers the sandwich collapses to y∨x.

    Exactly one candidate per pair gives the table; none gives absence, with
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
                return ArrowResult(None, (y, x))
            cands = np.flatnonzero(cond[x])
            raise AmbiguousDiff(
                f"two dual-difference candidates for ({L.names[y]} ∖∖ {L.names[x]}): "
                f"{[L.names[int(c)] for c in cands]}",
                witness=(y, x) + tuple(int(c) for c in cands),
            )
        table[y] = cond.argmax(axis=1)
    table.setflags(write=False)
    return ArrowResult(table)
