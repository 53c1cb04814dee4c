"""Derivation of the implication on co-strongly distributive skew lattices
with top, and instance-level verification of everything the implication is
supposed to satisfy.

The arrow is computed through the commutative upset at the second argument:
x→y = (y∨x∨y)→y inside y↑, the pseudocomplement of y∨x∨y there, one array
step per column over the upset's member indices.  Upsets are then checked
against the table through the adjunction c∧a ≤ b ⇔ c ≤ a→b, which pins a
lattice's arrow down, so failures come with a concrete upset and pair.

The derivation reads only the meet, join and top of its algebra, and its
result is cached on the algebra: ``verify`` asks for the arrow of one
algebra from several suites, and only the first request builds the upsets.
A/L and A/R are derived the same way, on the cached S/D where they equal it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Algebra,
    CheckResult,
    first_true,
    greens,
    is_congruence,
    lattice_image,
    leq_matrix,
    preceq_matrix,
    quotient,
    skipped_result,
)
from .errors import (
    BadConstant,
    CoherenceFailure,
    InconsistencyDetected,
    MalformedTable,
    NoTop,
    NotCoStronglyDistributive,
    PreconditionFailed,
)
from .heyting import coherence_failure, dual_gb_diff, generalized_heyting_arrow
from .identities import bind, run_identity
from .properties import PropertyReport, failing_skew_axiom, property_result


def upset_at(A: Algebra, u: int) -> np.ndarray:
    """The members of u↑ = {u∨x∨u : x} = {x : u ≤ x}, ascending.

    Both descriptions of the member set are computed and must agree; the
    members must be closed under meet and join, and the induced operations
    commutative.  These hold on every conormal skew lattice, so a violation
    is raised as an inconsistency rather than reported.
    """
    leq = leq_matrix(A)
    J = A.join
    via_join = np.zeros(A.n, dtype=bool)
    via_join[J[J[u], u]] = True
    if not np.array_equal(via_join, leq[u]):
        raise InconsistencyDetected(
            f"upset at {A.names[u]} differs between its two descriptions",
            witness=(u,),
        )
    members = np.flatnonzero(leq[u])
    grid = np.ix_(members, members)
    meet, join = A.meet[grid], A.join[grid]
    for label, cells in (("m", meet), ("j", join)):
        outside = cells[~leq[u, cells]]
        if outside.size:
            raise MalformedTable(f"subset not closed under {label}: reaches {A.names[int(outside.min())]}")
    if not (np.array_equal(meet, meet.T) and np.array_equal(join, join.T)):
        raise InconsistencyDetected(f"upset at {A.names[u]} is not commutative", witness=(u,))
    return members


@dataclass(frozen=True)
class DeriveResult:
    """Derived arrow table, with the members of every upset for reuse."""

    table: np.ndarray
    upsets: tuple[np.ndarray, ...]


def _require_costrong_with_top(A: Algebra) -> None:
    if A.top is None:
        raise NoTop("arrow derivation requires a declared top")
    axiom = failing_skew_axiom(A)
    if axiom is not None:
        raise PreconditionFailed(f"not a skew lattice ({axiom.detail})", witness=axiom.witness)
    if not ((A.join[:, A.top] == A.top) & (A.join[A.top] == A.top)).all():  # x∧top = x by absorption
        raise BadConstant(f"top {A.names[A.top]!r} fails x∨top = top = top∨x")
    res = property_result(A, "co-strongly-distributive")
    if not res.holds:
        raise NotCoStronglyDistributive(
            f"co-strong distributivity fails ({res.detail})", witness=res.witness or ()
        )


def derive_arrow(A: Algebra) -> DeriveResult:
    """Derive x→y = (y∨x∨y)→y inside the upset at y, for every pair.

    After the table is assembled, coherence is verified: for every u and all
    a, b in u↑, c∧a ≤ b ⇔ c ≤ a→b over c in u↑, so the global arrow agrees
    with the arrow of the Heyting algebra u↑.  A disagreement would
    contradict the well-definedness lemma and is raised as CoherenceFailure.

    The preconditions (a co-strongly distributive skew lattice with top)
    are read from the cached properties of ``A``.  The result is cached on
    ``A`` and on its copies that differ only in the declared arrow; an
    exception is raised afresh on every call.
    """
    _require_costrong_with_top(A)
    return A.cached("derive_arrow", lambda: _derive_arrow(A))


def _derive_arrow(A: Algebra) -> DeriveResult:
    n, J = A.n, A.join
    leq = leq_matrix(A)
    upsets = tuple(upset_at(A, u) for u in range(n))
    table = np.zeros((n, n), dtype=np.int16)
    for y, U in enumerate(upsets):
        # t→y in y↑ is the largest c with c∧t = y; it has the most members below it
        below = leq[np.ix_(U, U)].sum(axis=0)
        best = np.where(A.meet[np.ix_(U, U)] == y, below, -1).argmax(axis=1)
        table[:, y] = U[best[np.searchsorted(U, J[J[y], y])]]
    table.setflags(write=False)

    bad = coherence_failure(A, upsets, table)
    if bad is not None:
        u, a, b = A.name_tuple(bad)
        raise CoherenceFailure(f"global arrow and arrow of upset at {u} disagree on ({a}, {b})", witness=bad)
    return DeriveResult(table, upsets)


def check_sh_axioms(A: Algebra, arrow) -> PropertyReport:
    """Exhaustive verdicts for the skew Heyting axioms.

    The quadruple axiom is checked in full, without exploiting its
    sandwiched reduction; the reduction is then checked separately, making
    the equivalence of the two an executable assertion.
    """
    if A.top is None:
        raise NoTop("skew Heyting axioms need a top")
    tables = bind(A, r=arrow)
    names = ("SH0", "SH1", "SH2", "SH3", "SH4", "SH4-prime")
    entries = [run_identity(name, tables) for name in names]
    return PropertyReport(tuple(entries))


def check_sha(A: Algebra, arrow) -> CheckResult:
    """The preorder adjunction: x ⪯ y→z iff x∧y ⪯ z, plus x→y = 1 iff x ⪯ y.

    When the reduct is a co-strongly distributive skew lattice with top and
    y ≤ x→y holds throughout, the adjunction is known to pin the arrow down;
    in that case agreement with the derived arrow is verified as well.
    """
    R = np.asarray(arrow)
    tables = bind(A, r=R, pre=preceq_matrix(A))
    adj = run_identity("SHA", tables)
    if not adj.holds:
        return CheckResult("SHA", False, adj.witness, 0, detail="adjunction fails")
    if A.top is None:
        return CheckResult("SHA", False, None, 0, detail="no top: x→y=1 clause unverifiable")
    unit = run_identity("x→y=1 ⇔ x⪯y", tables)
    if not unit.holds:
        return CheckResult("SHA", False, unit.witness, 0, detail="x→y=1 iff x⪯y fails")

    try:
        _require_costrong_with_top(A)
    except (NoTop, NotCoStronglyDistributive, PreconditionFailed):
        detail = "adjunction holds; sufficiency direction not applicable"
        return CheckResult("SHA", True, None, 0, detail=detail)
    if not leq_matrix(A)[np.arange(A.n), R].all():  # y ≤ x→y at [x, y]
        detail = "adjunction holds; y ≤ x→y fails so sufficiency not applicable"
        return CheckResult("SHA", True, None, 0, detail=detail)
    witness = first_true(derive_arrow(A).table != R)
    if witness is not None:
        detail = "sufficiency conditions hold but arrow differs from derived"
        return CheckResult("SHA", False, witness, 0, detail=detail)
    return CheckResult("SHA", True, None, 0)


def check_imp_or(A: Algebra, arrow) -> CheckResult:
    """(x∨y∨x)→z = (x→z)∧(y→z)∧(x→z), quantified over all triples."""
    res = run_identity("imp-or", bind(A, r=arrow))
    return CheckResult("imp-or", res.holds, res.witness, 0)


def check_lifting(A: Algebra) -> CheckResult:
    """Arrow exists on A iff the generalized Heyting arrow exists on A/D;
    additionally the projection must restrict to a Heyting-algebra
    isomorphism u↑ ≅ (D_u)↑ for every u.

    Both arrows are verified upset by upset when built, so the isomorphism
    is compared as arrays.  A failed biconditional contradicts the lifting
    theorem and raises InconsistencyDetected.
    """
    derived = derive_arrow(A)
    Q, project = lattice_image(A)
    lifted = generalized_heyting_arrow(Q)
    if not lifted:
        raise InconsistencyDetected("lifting biconditional fails: derived=True, quotient arrow=False")

    leq_q = leq_matrix(Q)
    for u, U in enumerate(derived.upsets):
        image = project[U]
        if not np.array_equal(np.sort(image), np.flatnonzero(leq_q[project[u]])):
            detail = f"projection does not restrict to a bijection u↑ ≅ (D_u)↑ at {A.names[u]}"
            return CheckResult("lifting", False, (u,), 0, detail=detail)
        # meet/join are preserved because the projection is a homomorphism;
        # the Heyting structure must transfer along it too.
        bad = first_true(project[derived.table[np.ix_(U, U)]] != lifted.table[np.ix_(image, image)])
        if bad is not None:
            witness = (u, int(U[bad[0]]), int(U[bad[1]]))
            detail = "projection does not preserve the upset arrow"
            return CheckResult("lifting", False, witness, 0, detail=detail)
    return CheckResult("lifting", True, None, 0)


def check_arrow_congruences(A: Algebra, arrow) -> CheckResult:
    """D, L and R must be congruences for every operation including the
    arrow, and the arrows of A, A/L and A/R must derive (each derivation
    verifies itself and raises when it fails)."""
    enriched = A.with_arrow(arrow)
    D, L, R = greens(A)
    for label, part in (("D", D), ("L", L), ("R", R)):
        cong = is_congruence(enriched, part)
        if not cong:
            return CheckResult("arrow-congruences", False, cong.witness, 0, detail=f"{label} fails")
    derive_arrow(A)
    for part in (L, R):
        # A/Δ has the tables of A itself, and A/D is the cached S/D
        if part.num_blocks != A.n:
            derive_arrow(lattice_image(A)[0] if part == D else quotient(A.drop_arrow(), part)[0])
    return CheckResult("arrow-congruences", True, None, 0)


def special_case_arrows(A: Algebra, arrow=None) -> PropertyReport:
    """Closed forms for special classes, checked against the derived arrow.

    Skew chains (S/D a chain) must satisfy x→y = 1 if x⪯y else y; when the
    dual difference is solvable, x→y = y∖∖x must hold.  Cases that do not
    apply are reported as skipped.
    """
    if A.top is None:
        raise NoTop("special case comparison needs a top")
    if arrow is None:
        arrow = derive_arrow(A).table
    R = np.asarray(arrow)
    entries: list[CheckResult] = []

    def compare(name: str, expected: np.ndarray) -> CheckResult:
        """R against ``expected``: the first differing (x, y), R's value, the expected one."""
        at = first_true(R != expected)
        if at is None:
            return CheckResult(name, True, None, A.n * A.n)
        return CheckResult(name, False, at, A.n * A.n, int(R[at]), int(expected[at]))

    leq_q = leq_matrix(lattice_image(A)[0])
    if (leq_q | leq_q.T).all():
        expected = np.where(preceq_matrix(A), np.int16(A.top), np.arange(A.n, dtype=np.int16)[None, :])
        entries.append(compare("case2-skew-chain", expected))
    else:
        entries.append(skipped_result("case2-skew-chain", "maximal lattice image is not a chain"))

    diff = dual_gb_diff(A)
    if diff:
        # x→y = y∖∖x; the solver works over the y∨x∨y sandwich, so the
        # stated reduction to y∖∖(y∨x∨y) is built in.
        entries.append(compare("case3-dual-boolean-diff", diff.table.T))
    else:
        entries.append(
            skipped_result(
                "case3-dual-boolean-diff",
                f"dual difference unsolvable at pair {diff.offending}",
            )
        )
    return PropertyReport(tuple(entries))
