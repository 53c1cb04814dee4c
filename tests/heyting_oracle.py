"""Scalar reference constructions, kept as oracles for the array code.

``arrow_by_candidates`` is the construction the workbench started from: for
every pair (y, z) it lists the candidates {x : x∧y ≤ z} and keeps those with
no candidate strictly above them.  The per-upset route below builds every
upset u↑ as an algebra of its own, runs that loop on it, assembles the
derived table pair by pair and compares it with every upset arrow, and it
checks lifting and the dual difference cell by cell.  All of it is slow and
obviously right, so the tests cross-check the library against it.
"""

import numpy as np

from skewbench.core import Algebra, greens, leq_matrix, quotient, subalgebra
from skewbench.errors import AmbiguousDiff, CoherenceFailure, InconsistencyDetected, NoArrow, NoTop
from skewbench import models
from skewbench.models import Poset, SurjectionModel, partial_function_algebra, poset_sections_algebra


def arrow_by_candidates(L: Algebra) -> np.ndarray:
    """The arrow table, or NoArrow at the first pair (y, z) whose candidates
    have no maximum, with its maximal candidates."""
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
                raise NoArrow(
                    f"{L.names[y]}→{L.names[z]} has no value: maximal candidates {L.name_tuple(maximal)}",
                    witness=(y, z, *maximal),
                )
            table[y, z] = maximal[0]
    table.setflags(write=False)
    return table


def upset_arrows(A: Algebra) -> list[tuple[list[int], np.ndarray | None]]:
    """For every u: the members of u↑ and its Heyting arrow in A's indices,
    from the subalgebra u↑ with u as bottom (None when it has no arrow)."""
    leq = leq_matrix(A)
    out = []
    for u in range(A.n):
        members = [int(x) for x in np.flatnonzero(leq[u])]
        sub = subalgebra(A.drop_arrow(), members, bottom=members.index(u))
        try:
            out.append((members, np.array(members)[arrow_by_candidates(sub)]))
        except NoArrow:
            out.append((members, None))
    return out


def derive_by_upsets(A: Algebra) -> np.ndarray | None:
    """x→y = (y∨x∨y)→y inside y↑, then the coherence loop over every upset:
    the table, None when some upset has no arrow, or CoherenceFailure."""
    A = A.drop_arrow()
    n, J = A.n, A.join
    upsets = upset_arrows(A)
    if any(arrow is None for _, arrow in upsets):
        return None
    table = np.zeros((n, n), dtype=np.int16)
    for y in range(n):
        members, arrow = upsets[y]
        for x in range(n):
            t = int(J[J[y, x], y])
            table[x, y] = arrow[members.index(t), members.index(y)]
    for u, (members, arrow) in enumerate(upsets):
        for i, gi in enumerate(members):
            for j, gj in enumerate(members):
                if int(table[gi, gj]) != int(arrow[i, j]):
                    raise CoherenceFailure(
                        f"global arrow and arrow of upset at {A.names[u]} disagree on "
                        f"({A.names[gi]}, {A.names[gj]})",
                        witness=(u, gi, gj),
                    )
    return table


def generalized_arrow(L: Algebra) -> np.ndarray | None:
    """The candidate arrow of L, after every upset's own arrow is found to
    exist and to agree with it; None when L has no arrow."""
    try:
        table = arrow_by_candidates(L)
    except NoArrow:
        return None
    for u, (members, arrow) in enumerate(upset_arrows(L)):
        sel = np.ix_(members, members)
        if arrow is None or not np.array_equal(arrow, table[sel]):
            raise InconsistencyDetected(f"upset at {L.names[u]} is not a Heyting algebra")
    return table


def lifting(A: Algebra, q_table: np.ndarray) -> tuple[bool, tuple, str]:
    """The lifting loop of ``check_lifting`` against the arrow ``q_table``
    of S/D: (ok, witness, detail)."""
    upsets = upset_arrows(A)
    D, _, _ = greens(A)
    Q, project = quotient(A.drop_arrow(), D)
    proj = project.tolist()
    leq_q = leq_matrix(Q)
    for u, (members, arrow) in enumerate(upsets):
        q_members = [int(v) for v in np.flatnonzero(leq_q[proj[u]])]
        image = [proj[g] for g in members]
        if sorted(image) != q_members or len(set(image)) != len(image):
            detail = f"projection does not restrict to a bijection u↑ ≅ (D_u)↑ at {A.names[u]}"
            return False, (u,), detail
        for i, gi in enumerate(members):
            for j, gj in enumerate(members):
                if proj[int(arrow[i, j])] != int(q_table[proj[gi], proj[gj]]):
                    return False, (u, gi, gj), "projection does not preserve the upset arrow"
    return True, (), ""


def first_difference(members, arrow: np.ndarray, oracle: np.ndarray) -> tuple[int, int] | None:
    """The first pair of ``members`` in row-major order where the tables differ."""
    for a in members:
        for b in members:
            if int(arrow[a, b]) != int(oracle[a, b]):
                return int(a), int(b)
    return None


def dual_gb_diff(L: Algebra) -> np.ndarray:
    """The dual difference, one candidate scan per pair (y, x); NoArrow at
    the first pair without a candidate."""
    n = L.n
    M, J, top = L.meet, L.join, L.top
    if top is None:
        raise NoTop("the dual difference needs a declared top")
    table = np.zeros((n, n), dtype=np.int16)
    for y in range(n):
        for x in range(n):
            s = int(J[J[y, x], y])
            cond = (J[s, :] == top) & (J[:, s] == top) & (M[s, :] == y) & (M[:, s] == y)
            cands = np.flatnonzero(cond)
            if len(cands) == 0:
                raise NoArrow(f"no dual-difference candidate for ({L.names[y]} ∖∖ {L.names[x]})", witness=(y, x))
            if len(cands) > 1:
                raise AmbiguousDiff(
                    f"two dual-difference candidates for ({L.names[y]} ∖∖ {L.names[x]}): "
                    f"{[L.names[int(c)] for c in cands]}",
                    witness=(y, x) + tuple(int(c) for c in cands),
                )
            table[y, x] = int(cands[0])
    table.setflags(write=False)
    return table


def section_arrow_candidates(model: SurjectionModel, derived: np.ndarray) -> dict:
    """Four candidate closed forms of the section implication r→s, each
    named, with the first pair (r, s) where it differs from the ``derived``
    arrow of the poset sections of ``model``, or None where it matches.

    The candidates restrict the first argument r (as printed in the duality
    literature) or the second argument s to the up-closure of
    dom s ∖ dom r, or to that gap without the up-closure.  The up-closure of
    every gap is read from a table of ``Poset.up`` over all subsets of the
    base.  A candidate that leaves the section carrier differs there."""
    P = model.base
    S = models._Sections(models._fiber_labels(model), P.upset_masks)
    mask = S.inside @ (1 << np.arange(P.n))
    gap = mask[None, :] & ~mask[:, None]  # dom s ∖ dom r at [r, s]
    upclosed = np.array([P.up(m) for m in range(1 << P.n)])[gap]
    first, second = S.weight[:, None, :], S.weight[None, :, :]
    candidates = {
        "printed-first-arg-upclosed": (first, upclosed),
        "second-arg-upclosed": (second, upclosed),
        "first-arg-plain": (first, gap),
        "second-arg-plain": (second, gap),
    }
    verdicts = {}
    for name, (arg, keep) in candidates.items():
        value = S.find(sum((keep >> p & 1) * arg[..., p] for p in range(P.n)))
        wrong = np.argwhere(value != derived)
        verdicts[name] = tuple(int(v) for v in wrong[0]) if len(wrong) else None
    return verdicts


# ---------------------------------------------------------------------------
# Larger instances the library is compared with the oracles on


def _chain_plus_point_sections():
    # p < r < s, and q incomparable to all of them
    leq = np.eye(4, dtype=bool)
    for a, b in ((0, 2), (0, 3), (2, 3)):
        leq[a, b] = True
    model = SurjectionModel.from_fiber_sizes(Poset(("p", "q", "r", "s"), leq), (2, 2, 2, 2))
    return poset_sections_algebra(model)


DEEP_INSTANCES = {
    "pfn(6,1)": lambda: partial_function_algebra(6, 1),
    "pfn(4,2)": lambda: partial_function_algebra(4, 2),
    "pfn(3,3)": lambda: partial_function_algebra(3, 3),
    "sections(p<r<s,q;2,2,2,2)": _chain_plus_point_sections,
}
