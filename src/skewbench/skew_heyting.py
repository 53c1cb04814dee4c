"""Derivation of the implication on co-strongly distributive skew lattices
with top, and instance-level verification of everything the implication is
supposed to satisfy.

The arrow is computed through the upset at the second argument: x→y =
(y∨x∨y)→y inside ↑y, the pseudocomplement of y∨x∨y there, one array step
per column over the upset's member indices.  ↑y is the ≤ row of y, and a
lattice for every y iff the algebra is conormal, which co-strong
distributivity implies and the derivation asks for once.  Upsets are then
checked against the table through the adjunction c∧a ≤ b ⇔ c ≤ a→b, which
pins a lattice's arrow down, so failures come with a concrete upset and pair.

The derivation reads only the meet, join and top of its algebra, and its
table is cached on the algebra: ``verify`` asks for the arrow of one
algebra from several suites, and only the first request derives it.
A/L and A/R are derived the same way, on the cached S/D where they equal it.
"""

from __future__ import annotations

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
    NoTop,
    NotCoStronglyDistributive,
    PreconditionFailed,
)
from .heyting import coherence_failure, dual_gb_diff, generalized_heyting_arrow
from .identities import run_identity
from .properties import PropertyReport, failing_skew_axiom, property_result


def upset_at(A: Algebra, u: int) -> np.ndarray:
    """The members of ↑u = {x : u ≤ x}, ascending: the ≤ row of u.

    On a skew lattice this is u∨S∨u, closed under ∧ and ∨; on a conormal
    one it is a lattice.  Nothing is checked here: :func:`derive_arrow`
    asks for both verdicts once per algebra.
    """
    return np.flatnonzero(leq_matrix(A)[u])


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
    res = property_result(A, "conormal")  # every upset commutes
    if not res.holds:
        raise InconsistencyDetected(
            f"co-strongly distributive but not conormal ({res.detail})", witness=res.witness or ()
        )


def derive_arrow(A: Algebra) -> np.ndarray:
    """Derive x→y = (y∨x∨y)→y inside the upset at y, for every pair, as a
    read-only table.

    After the table is assembled, coherence is verified: for every u and all
    a, b in u↑, c∧a ≤ b ⇔ c ≤ a→b over c in u↑, so the global arrow agrees
    with the arrow of the Heyting algebra u↑.  A disagreement would
    contradict the well-definedness lemma and is raised as CoherenceFailure.

    The preconditions (a co-strongly distributive skew lattice with top)
    are read from the cached properties of ``A``, and so is conormal, which
    makes every upset a lattice: co-strong distributivity implies it, so
    its failure raises InconsistencyDetected.  The table is cached on
    ``A`` and on its copies that differ only in the declared arrow; an
    exception is raised afresh on every call.
    """
    _require_costrong_with_top(A)
    return A.cached("derive_arrow", lambda: _derive_arrow(A))


def _derive_arrow(A: Algebra) -> np.ndarray:
    n, J = A.n, A.join
    leq = leq_matrix(A)
    table = np.zeros((n, n), dtype=np.int16)
    for y in range(n):
        U = upset_at(A, y)
        # t→y in y↑ is the largest c with c∧t = y; it has the most members below it
        below = leq[np.ix_(U, U)].sum(axis=0)
        best = np.where(A.meet[np.ix_(U, U)] == y, below, -1).argmax(axis=1)
        table[:, y] = U[best[np.searchsorted(U, J[J[y], y])]]
    table.setflags(write=False)

    bad = coherence_failure(A, table)
    if bad is not None:
        u, a, b = A.name_tuple(bad)
        raise CoherenceFailure(f"global arrow and arrow of upset at {u} disagree on ({a}, {b})", witness=bad)
    return table


def check_sh_axioms(A: Algebra) -> PropertyReport:
    """Exhaustive verdicts for the skew Heyting axioms on ``A``'s arrow.

    The quadruple axiom SH4 is scanned in full, without exploiting its
    sandwiched reduction; the reduction SH4-prime is then checked
    separately, making the equivalence of the two an executable assertion.
    Where ``A`` is a co-strongly distributive skew lattice, SH4-prime is
    decided on the upsets of the ≤-minimal elements
    (``identities.DECIDERS``); where the decider cannot prove it, it is
    scanned, so a failure carries the scan's witness.
    """
    if A.top is None:
        raise NoTop("skew Heyting axioms need a top")
    names = ("SH0", "SH1", "SH2", "SH3", "SH4", "SH4-prime")
    return PropertyReport(tuple(run_identity(name, A) for name in names))


def check_sha(A: Algebra) -> CheckResult:
    """The preorder adjunction of ``A``'s arrow: x ⪯ y→z iff x∧y ⪯ z, plus x→y = 1 iff x ⪯ y.

    When the reduct is a co-strongly distributive skew lattice with top and
    y ≤ x→y holds throughout, the adjunction is known to pin the arrow down;
    in that case agreement with the derived arrow is verified as well.
    """
    adj = run_identity("SHA", A)
    if not adj.holds:
        return CheckResult("SHA", False, adj.witness, 0, detail="adjunction fails")
    if A.top is None:
        return CheckResult("SHA", False, None, 0, detail="no top: x→y=1 clause unverifiable")
    unit = run_identity("x→y=1 ⇔ x⪯y", A)
    if not unit.holds:
        return CheckResult("SHA", False, unit.witness, 0, detail="x→y=1 iff x⪯y fails")

    try:
        _require_costrong_with_top(A)
    except PreconditionFailed:
        detail = "adjunction holds; sufficiency direction not applicable"
        return CheckResult("SHA", True, None, 0, detail=detail)
    if not leq_matrix(A)[np.arange(A.n), A.arrow].all():  # y ≤ x→y at [x, y]
        detail = "adjunction holds; y ≤ x→y fails so sufficiency not applicable"
        return CheckResult("SHA", True, None, 0, detail=detail)
    witness = first_true(derive_arrow(A) != A.arrow)
    if witness is not None:
        detail = "sufficiency conditions hold but arrow differs from derived"
        return CheckResult("SHA", False, witness, 0, detail=detail)
    return CheckResult("SHA", True, None, 0)


def check_imp_or(A: Algebra) -> CheckResult:
    """(x∨y∨x)→z = (x→z)∧(y→z)∧(x→z) on ``A``'s arrow, quantified over all triples."""
    res = run_identity("imp-or", A)
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
    for u in range(A.n):
        U = upset_at(A, u)
        image = project[U]
        if not np.array_equal(np.sort(image), np.flatnonzero(leq_q[project[u]])):
            detail = f"projection does not restrict to a bijection u↑ ≅ (D_u)↑ at {A.names[u]}"
            return CheckResult("lifting", False, (u,), 0, detail=detail)
        # meet/join are preserved because the projection is a homomorphism;
        # the Heyting structure must transfer along it too.
        bad = first_true(project[derived[np.ix_(U, U)]] != lifted.table[np.ix_(image, image)])
        if bad is not None:
            witness = (u, int(U[bad[0]]), int(U[bad[1]]))
            detail = "projection does not preserve the upset arrow"
            return CheckResult("lifting", False, witness, 0, detail=detail)
    return CheckResult("lifting", True, None, 0)


def check_arrow_congruences(A: Algebra) -> CheckResult:
    """D, L and R must be congruences for every operation including the
    arrow ``A`` carries, and the arrows of A, A/L and A/R must derive (each
    derivation verifies itself and raises when it fails)."""
    if A.arrow is None:
        raise PreconditionFailed("arrow congruences need an arrow")
    D, L, R = greens(A)
    for label, part in (("D", D), ("L", L), ("R", R)):
        cong = is_congruence(A, part)
        if not cong:
            return CheckResult("arrow-congruences", False, cong.witness, 0, detail=f"{label} fails")
    derive_arrow(A)
    for part in (L, R):
        # A/Δ has the tables of A itself, and A/D is the cached S/D
        if part.max() < A.n - 1:
            derive_arrow(lattice_image(A)[0] if np.array_equal(part, D) else quotient(A.drop_arrow(), part)[0])
    return CheckResult("arrow-congruences", True, None, 0)


def special_case_arrows(A: Algebra) -> PropertyReport:
    """Closed forms for special classes, checked against ``A``'s arrow.

    Skew chains (S/D a chain) must satisfy x→y = 1 if x⪯y else y; when the
    dual difference is solvable, x→y = y∖∖x must hold.  Cases that do not
    apply are reported as skipped.
    """
    if A.top is None:
        raise NoTop("special case comparison needs a top")
    if A.arrow is None:
        raise PreconditionFailed("special case comparison needs an arrow")
    R = A.arrow
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
