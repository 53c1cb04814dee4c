"""Derivation of the implication on co-strongly distributive skew lattices
with top, and instance-level verification of everything the implication is
supposed to satisfy.

The arrow is computed pairwise through the commutative upset at the second
argument: x→y = (y∨x∨y)→y evaluated inside y↑.  Upsets are memoized per
base element since each one is reused across many pairs.  The existence
check is structural (every upset must be a Heyting algebra) rather than an
appeal to finiteness, so failures on artificial inputs come with a concrete
offending upset.

The derivation reads only the meet, join and top of its algebra, and its
result is cached on the algebra: ``verify`` asks for the arrow of one
algebra from several suites, and only the first request builds the upsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Algebra,
    CheckOutcome,
    greens,
    is_congruence,
    leq_matrix,
    preceq_matrix,
    quotient,
    subalgebra,
)
from .errors import (
    CoherenceFailure,
    InconsistencyDetected,
    NoTop,
    NotCoStronglyDistributive,
    PreconditionFailed,
)
from .heyting import _arrow_by_candidates, dual_gb_diff, generalized_heyting_arrow
from .identities import CheckResult, bind, run_identity, skipped_result
from .properties import PropertyReport, check_skew_lattice, property_result


@dataclass(frozen=True)
class Upset:
    """The commutative lattice u↑ = {u∨x∨u : x} = {x : u ≤ x} induced
    inside a conormal skew lattice, with u as bottom."""

    base: Algebra
    u: int
    members: tuple[int, ...]
    algebra: Algebra
    arrow: np.ndarray | None

    def local(self, g: int) -> int:
        return self.members.index(g)

    def to_global(self, i: int) -> int:
        return self.members[i]


def upset_at(A: Algebra, u: int, leq: np.ndarray | None = None) -> Upset:
    """Construct u↑ with its induced operations and Heyting arrow (if any).

    Both descriptions of the member set are computed and must agree; the
    induced operations must be commutative with u as bottom.  These hold on
    every conormal skew lattice, so a violation is raised as an
    inconsistency rather than reported.
    """
    if leq is None:
        leq = leq_matrix(A)
    J = A.join
    via_order = [int(x) for x in np.flatnonzero(leq[u])]
    via_join = sorted({int(J[J[u, x], u]) for x in range(A.n)})
    if via_order != via_join:
        raise InconsistencyDetected(
            f"upset at {A.names[u]} differs between its two descriptions",
            witness=(u,),
        )
    sub, _ = subalgebra(A, via_order, bottom=via_order.index(u))
    if not (np.array_equal(sub.meet, sub.meet.T) and np.array_equal(sub.join, sub.join.T)):
        raise InconsistencyDetected(f"upset at {A.names[u]} is not commutative", witness=(u,))
    arrow = _arrow_by_candidates(sub)
    return Upset(A, u, tuple(via_order), sub, arrow.table if arrow else None)


@dataclass(frozen=True)
class DeriveResult:
    """Derived arrow table, or absence with the first element whose upset
    fails to be a Heyting algebra.  Carries the memoized upsets for reuse."""

    table: np.ndarray | None
    offending_upset: int | None = None
    offending_pair: tuple[int, int] | None = None
    upsets: tuple[Upset, ...] = ()

    def __bool__(self) -> bool:
        return self.table is not None


def _require_costrong_with_top(A: Algebra) -> None:
    if A.top is None:
        raise NoTop("arrow derivation requires a declared top")
    skew = check_skew_lattice(A)
    if not skew:
        raise PreconditionFailed(f"not a skew lattice ({skew.detail})", witness=skew.witness)
    res = property_result(A, "co-strongly-distributive")
    if not res.holds:
        raise NotCoStronglyDistributive(
            f"co-strong distributivity fails ({res.detail})", witness=res.witness or ()
        )


def derive_arrow(A: Algebra) -> DeriveResult:
    """Derive x→y = (y∨x∨y)→y inside the upset at y, for every pair.

    After the table is assembled, coherence is verified: for every u and all
    x, y in u↑ the global arrow agrees with the arrow of the Heyting algebra
    u↑.  A disagreement would contradict the well-definedness lemma and is
    raised as CoherenceFailure.

    The preconditions (a co-strongly distributive skew lattice with top)
    are read from the cached properties of ``A``.  The result is cached on
    ``A`` and on its copies that differ only in the declared arrow; an
    exception is raised afresh on every call.
    """
    _require_costrong_with_top(A)
    return A.cached("derive_arrow", lambda: _derive_arrow(A))


def _derive_arrow(A: Algebra) -> DeriveResult:
    # The upsets keep the algebra they were cut from.  A copy without the
    # declared arrow and with a cache of its own keeps the result free of
    # the declared arrow and out of a reference cycle with A's cache.
    A = Algebra(A.names, A.meet, A.join, None, A.top, A.bottom)
    n = A.n
    leq = leq_matrix(A)
    upsets = tuple(upset_at(A, u, leq) for u in range(n))
    for up in upsets:
        if up.arrow is None:
            return DeriveResult(None, offending_upset=up.u, upsets=upsets)
    J = A.join
    table = np.zeros((n, n), dtype=np.int16)
    for y in range(n):
        up = upsets[y]
        loc_y = up.local(y)
        for x in range(n):
            t = int(J[J[y, x], y])
            table[x, y] = up.to_global(int(up.arrow[up.local(t), loc_y]))
    table.setflags(write=False)

    for up in upsets:
        for li, gi in enumerate(up.members):
            for lj, gj in enumerate(up.members):
                local = up.to_global(int(up.arrow[li, lj]))
                if int(table[gi, gj]) != local:
                    raise CoherenceFailure(
                        f"global arrow and arrow of upset at {A.names[up.u]} disagree on "
                        f"({A.names[gi]}, {A.names[gj]})",
                        witness=(up.u, gi, gj),
                    )
    return DeriveResult(table, upsets=upsets)


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
    return PropertyReport(tuple(entries), A.names)


def check_sha(A: Algebra, arrow) -> CheckOutcome:
    """The preorder adjunction: x ⪯ y→z iff x∧y ⪯ z, plus x→y = 1 iff x ⪯ y.

    When the reduct is a co-strongly distributive skew lattice with top and
    y ≤ x→y holds throughout, the adjunction is known to pin the arrow down;
    in that case agreement with the derived arrow is verified as well.
    """
    R = np.asarray(arrow)
    tables = bind(A, r=R)
    rels = {"pre": preceq_matrix(A)}
    adj = run_identity("SHA", tables, rels)
    if not adj.holds:
        return CheckOutcome(False, witness=adj.witness, detail="adjunction fails")
    if A.top is None:
        return CheckOutcome(False, detail="no top: x→y=1 clause unverifiable")
    unit = run_identity("x→y=1 ⇔ x⪯y", tables, rels)
    if not unit.holds:
        return CheckOutcome(False, witness=unit.witness, detail="x→y=1 iff x⪯y fails")

    try:
        _require_costrong_with_top(A)
    except (NoTop, NotCoStronglyDistributive, PreconditionFailed):
        return CheckOutcome(True, detail="adjunction holds; sufficiency direction not applicable")
    leq = leq_matrix(A)
    above = all(leq[y, R[x, y]] for x in range(A.n) for y in range(A.n))
    if not above:
        return CheckOutcome(True, detail="adjunction holds; y ≤ x→y fails so sufficiency not applicable")
    derived = derive_arrow(A)
    if not derived or not np.array_equal(derived.table, R):
        bad = np.argwhere(derived.table != R) if derived else ()
        witness = tuple(int(v) for v in bad[0]) if len(bad) else ()
        return CheckOutcome(
            False, witness=witness, detail="sufficiency conditions hold but arrow differs from derived"
        )
    return CheckOutcome(True)


def check_imp_or(A: Algebra, arrow) -> CheckOutcome:
    """(x∨y∨x)→z = (x→z)∧(y→z)∧(x→z), quantified over all triples."""
    res = run_identity("imp-or", bind(A, r=arrow))
    if res.holds:
        return CheckOutcome(True)
    return CheckOutcome(False, witness=res.witness)


def check_lifting(A: Algebra) -> CheckOutcome:
    """Arrow exists on A iff the generalized Heyting arrow exists on A/D;
    additionally the projection must restrict to a Heyting-algebra
    isomorphism u↑ ≅ (D_u)↑ for every u.

    A failed biconditional contradicts the lifting theorem and raises
    InconsistencyDetected.
    """
    _require_costrong_with_top(A)
    derived = derive_arrow(A)
    D, _, _ = greens(A)
    Q, hom = quotient(A.drop_arrow(), D)
    lifted = generalized_heyting_arrow(Q)
    if bool(derived) != bool(lifted):
        raise InconsistencyDetected(
            f"lifting biconditional fails: derived={bool(derived)}, quotient arrow={bool(lifted)}"
        )
    if not derived:
        return CheckOutcome(True, detail="neither side admits an arrow")

    leq_q = leq_matrix(Q)
    for up in derived.upsets:
        u = up.u
        qu = hom(u)
        q_members = [int(v) for v in np.flatnonzero(leq_q[qu])]
        image = [hom(g) for g in up.members]
        if sorted(image) != q_members or len(set(image)) != len(image):
            return CheckOutcome(
                False,
                witness=(u,),
                detail=f"projection does not restrict to a bijection u↑ ≅ (D_u)↑ at {A.names[u]}",
            )
        # meet/join are preserved because the projection is a homomorphism;
        # the Heyting structure must transfer along it too.
        qsub, qlocal = subalgebra(Q, q_members, bottom=q_members.index(qu))
        q_arrow = _arrow_by_candidates(qsub)
        if not q_arrow:
            raise InconsistencyDetected(
                f"upset of D-class of {A.names[u]} in S/D is not a Heyting algebra", witness=(u,)
            )
        for li, gi in enumerate(up.members):
            for lj, gj in enumerate(up.members):
                lhs = hom(up.to_global(int(up.arrow[li, lj])))
                rhs = q_members[int(q_arrow.table[qlocal[hom(gi)], qlocal[hom(gj)]])]
                if lhs != rhs:
                    return CheckOutcome(
                        False,
                        witness=(u, gi, gj),
                        detail="projection does not preserve the upset arrow",
                    )
    return CheckOutcome(True)


def check_arrow_congruences(A: Algebra, arrow) -> CheckOutcome:
    """D, L and R must be congruences for every operation including the
    arrow, and A, A/L, A/R must be simultaneously arrow-derivable."""
    enriched = A.with_arrow(arrow)
    D, L, R = greens(A)
    for label, part in (("D", D), ("L", L), ("R", R)):
        cong = is_congruence(enriched, part)
        if not cong:
            return CheckOutcome(False, witness=cong.witness, detail=f"{label} fails")
    exists = [bool(derive_arrow(A))]
    for part in (L, R):
        # A/Δ has the tables of A itself, whose arrow is derived already
        Qd = A if part.num_blocks == A.n else quotient(A.drop_arrow(), part)[0]
        exists.append(bool(derive_arrow(Qd)))
    if len(set(exists)) != 1:
        raise InconsistencyDetected(
            f"A, A/L, A/R are not simultaneously arrow-derivable: {exists}"
        )
    return CheckOutcome(True)


def special_case_arrows(A: Algebra, arrow=None) -> PropertyReport:
    """Closed forms for special classes, checked against the derived arrow.

    Skew chains (S/D a chain) must satisfy x→y = 1 if x⪯y else y; when the
    dual difference is solvable, x→y = y∖∖x must hold.  Cases that do not
    apply are reported as skipped.
    """
    if A.top is None:
        raise NoTop("special case comparison needs a top")
    if arrow is None:
        derived = derive_arrow(A)
        if not derived:
            raise PreconditionFailed("arrow does not exist on this algebra")
        arrow = derived.table
    R = np.asarray(arrow)
    entries: list[CheckResult] = []

    D, _, _ = greens(A)
    Q, _ = quotient(A.drop_arrow(), D)
    leq_q = leq_matrix(Q)
    is_chain = bool((leq_q | leq_q.T).all())
    if is_chain:
        pre = preceq_matrix(A)
        expected = np.where(pre, np.int16(A.top), np.arange(A.n, dtype=np.int16)[None, :])
        if np.array_equal(R, expected):
            entries.append(CheckResult("case2-skew-chain", True, None, A.n * A.n))
        else:
            x, y = np.unravel_index(int(np.argmax(R != expected)), R.shape)
            entries.append(
                CheckResult(
                    "case2-skew-chain",
                    False,
                    (int(x), int(y)),
                    A.n * A.n,
                    int(R[x, y]),
                    int(expected[x, y]),
                )
            )
    else:
        entries.append(skipped_result("case2-skew-chain", "maximal lattice image is not a chain"))

    diff = dual_gb_diff(A)
    if diff:
        # x→y = y∖∖x; the solver works over the y∨x∨y sandwich, so the
        # stated reduction to y∖∖(y∨x∨y) is built in.
        mismatch = R != diff.table.T
        if not mismatch.any():
            entries.append(CheckResult("case3-dual-boolean-diff", True, None, A.n * A.n))
        else:
            x, y = np.unravel_index(int(np.argmax(mismatch)), mismatch.shape)
            entries.append(
                CheckResult(
                    "case3-dual-boolean-diff",
                    False,
                    (int(x), int(y)),
                    A.n * A.n,
                    int(R[x, y]),
                    int(diff.table[y, x]),
                )
            )
    else:
        entries.append(
            skipped_result(
                "case3-dual-boolean-diff",
                f"dual difference unsolvable at pair {diff.offending}",
            )
        )
    return PropertyReport(tuple(entries), A.names)
