"""Classification of finite algebras against the named identities and
structural conditions of skew lattice theory, with witnesses for failures.

Every verdict is exact; nothing is sampled or randomized.  An identity is
scanned over all element tuples, except that on a skew lattice normal,
conormal and the halves of regular go first to their deciders
(:data:`identities.DECIDERS`), which prove a holding law on one maximal
local lattice, ↓M or ↑m, in at most n² cells; a law they cannot prove is
scanned, so every witness is the scan's first failing tuple.  Each formula
of ∧ and ∨ alone is computed at most once per algebra: the one cache of
verdicts is :func:`identities.run_identity`'s, which classification, the
co-strong equivalence, the preconditions of the arrow derivation and those
of the deciders share, on an algebra and on its S/D alike.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Algebra,
    CheckResult,
    Record,
    direct_product,
    find_isomorphism,
    greens,
    is_commutative,
    lattice_image,
    leq_matrix,
    preceq_matrix,
    quotient,
    subalgebra,
)
from .errors import (
    FactorizationNotFound,
    InconsistencyDetected,
    NotACongruence,
    NotUnique,
    PreconditionFailed,
    SkewbenchError,
)
from .identities import GROUPS, run_identity
from .property_names import PROPERTY_NAMES, SKEW_AXIOMS


class PropertyReport(Record):
    """Per-property verdicts for one algebra.

    Each entry records the property name, a holds/fails/skipped verdict, a
    witness tuple for failures (re-evaluating the identity at the witness
    reproduces the violation) and the number of tuples scanned.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[CheckResult, ...]):
        self._init(entries)

    def __getitem__(self, name: str) -> CheckResult:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def holds(self, name: str) -> bool:
        return self[name].holds

    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries if e.verdict != "skipped")


def property_result(A: Algebra, name: str) -> CheckResult:
    """The verdict of property ``name`` of :data:`PROPERTY_NAMES` on ``A``.

    Properties read only meet and join, so each formula behind them is
    computed once per algebra (:func:`identities.run_identity`) and shared
    by every caller and every copy that keeps the two tables.
    """
    if name not in PROPERTY_NAMES:
        raise KeyError(name)
    if name == "quasi-distributive":
        return _quasi_distributive(A)
    if name != "skew-lattice":
        return run_identity(name, A)
    axioms = [property_result(A, axiom) for axiom in SKEW_AXIOMS]
    checked = sum(e.checked for e in axioms)
    fail = next((e for e in axioms if not e.holds), None)
    if fail is None:
        return CheckResult(name, True, None, checked)
    return CheckResult(
        name, False, fail.witness, checked, fail.lhs_value, fail.rhs_value, detail=fail.name
    )


def failing_skew_axiom(A: Algebra) -> CheckResult | None:
    """None on a skew lattice; otherwise the verdict of the first failing
    skew lattice axiom, detailed as ``<axiom>: <formula>``."""
    skew = property_result(A, "skew-lattice")
    if skew:
        return None
    axiom = property_result(A, skew.detail)
    return axiom.replace(detail=f"{axiom.name}: {axiom.detail}")


def _quasi_distributive(A: Algebra) -> CheckResult:
    name = "quasi-distributive"
    try:
        Q, project = lattice_image(A)
    except NotACongruence as exc:
        return CheckResult(name, False, exc.witness[1:], 0, detail="D is not a congruence")
    except SkewbenchError as exc:
        return CheckResult(name, False, exc.witness, 0, detail=str(exc))
    # a skew lattice's S/D is a lattice; elsewhere S/D is shown to be one first
    axiom = None if property_result(A, "skew-lattice") else failing_skew_axiom(Q)
    if axiom is not None:
        res, detail = property_result(Q, "skew-lattice"), f"S/D is not a lattice ({axiom.detail})"
    else:  # both distributive laws of the lattice S/D, in their lattice form
        res = run_identity("lattice-distributive", Q)
        detail = "evaluated in S/D on class representatives"
    if res.holds:
        return CheckResult(name, True, None, res.checked)
    reps = tuple(int(np.argmax(project == b)) for b in res.witness)
    return CheckResult(name, False, reps, res.checked, detail=detail)


def classify(A: Algebra) -> PropertyReport:
    """Full classification of an algebra against every named identity.

    Witnesses report the lexicographically first failing tuple.  Verdicts
    are stable under element relabeling.
    """
    return PropertyReport(tuple(property_result(A, name) for name in PROPERTY_NAMES))


def check_costrong_equivalence(A: Algebra) -> bool:
    """Both directions of: co-strongly distributive iff jointly
    quasi-distributive, symmetric and conormal.

    The caller guarantees a skew lattice.  A counterexample would contradict
    a theorem, so it is raised as a fatal inconsistency rather than returned.
    """
    lhs, sym, con, quasi = (
        property_result(A, name)
        for name in ("co-strongly-distributive", "symmetric", "conormal", "quasi-distributive")
    )
    rhs_holds = sym.holds and con.holds and quasi.holds
    if lhs.holds != rhs_holds:
        failing = next(e for e in (sym, con, quasi) if not e.holds) if lhs.holds else lhs
        raise InconsistencyDetected(
            "co-strong distributivity equivalence broke: "
            f"identity side {lhs.holds}, decomposition side {rhs_holds} ({failing.name})",
            witness=failing.witness or (),
        )
    return True


def cover_in_class(A: Algebra, b: int, class_block) -> int:
    """The unique element of a D-class lying above ``b``, via b∨x∨b.

    Requires a conormal algebra whose D-class ``class_block`` sits above the
    class of ``b``; uniqueness is re-verified by scan and a violation signals
    a non-conormal input.
    """
    block = tuple(sorted(int(x) for x in class_block))
    pre = preceq_matrix(A)
    if not all(pre[b, x] for x in block):
        raise PreconditionFailed(
            f"class of {A.names[block[0]]} is not above {A.names[b]} in S/D", witness=(b,) + block
        )
    x0 = block[0]
    a = int(A.join[A.join[b, x0], b])
    leq = leq_matrix(A)
    above = [x for x in block if leq[b, x]]
    if above != [a]:
        raise NotUnique(
            f"cover of {A.names[b]} in class is not unique: {[A.names[x] for x in above]}",
            witness=tuple(above),
        )
    return a


def binormal_factorization(A: Algebra) -> tuple[Algebra, Algebra, np.ndarray] | None:
    """Split a jointly strongly and co-strongly distributive algebra as
    (maximal lattice image) x (one D-class), with the isomorphism onto the
    product as an index array; ``None`` when not binormal.

    A cheap necessary condition, equipotent D-classes, is tested before any
    isomorphism search.
    """
    strong, costrong = (
        property_result(A, name) for name in ("strongly-distributive", "co-strongly-distributive")
    )
    if not (strong.holds and costrong.holds):
        return None
    D, _, _ = greens(A)
    if np.ptp(np.bincount(D)) > 0:
        raise FactorizationNotFound("binormal by classification but D-classes are not equipotent")
    L, _ = quotient(A, D)
    B, _ = subalgebra(A, np.flatnonzero(D == 0))
    iso = find_isomorphism(A, direct_product(L, B), bound=A.n)
    if iso is None:
        raise FactorizationNotFound("binormal by classification but no product isomorphism found")
    return L, B, iso


def _complemented_distributive(sub: Algebra) -> CheckResult:
    """Commutative, distributive and complemented, i.e. a Boolean algebra."""
    name = "boolean-algebra"
    if not is_commutative(sub):
        return CheckResult(name, False, None, 0, detail="not commutative")
    res = run_identity(GROUPS["strongly-distributive"][0], sub)
    if not res.holds:
        return CheckResult(name, False, res.witness, 0, detail="not distributive")
    if sub.top is None or sub.bottom is None:
        return CheckResult(name, False, None, 0, detail="not bounded")
    for v in range(sub.n):
        has = any(
            sub.join[v, w] == sub.top and sub.meet[v, w] == sub.bottom for w in range(sub.n)
        )
        if not has:
            return CheckResult(name, False, (v,), 0, detail="element has no complement")
    return CheckResult(name, True, None, 0)


def check_skew_boolean(A: Algebra, diff_table) -> CheckResult:
    """Strongly distributive skew lattice with bottom whose difference
    satisfies the four defining identities; every principal downset must be
    a Boolean algebra with the class sandwich x∧y∧x complemented by x∖y.
    A cell of ``diff_table`` that is no element raises MalformedTable."""
    name = "skew-boolean"
    if A.bottom is None:
        return CheckResult(name, False, None, 0, detail="no bottom")
    axiom = failing_skew_axiom(A)
    if axiom is not None:
        return CheckResult(name, False, axiom.witness, 0, detail=axiom.detail)
    strong = property_result(A, "strongly-distributive")
    if not strong:
        return CheckResult(name, False, strong.witness, 0, detail="not strongly distributive")
    res = run_identity("skew-boolean-identities", A, d=diff_table)
    if not res.holds:
        return CheckResult(name, False, res.witness, 0, detail=res.detail)
    leq = leq_matrix(A)
    for u in range(A.n):
        members = [x for x in range(A.n) if leq[x, u]]
        try:
            sub, _ = subalgebra(A, members, top=members.index(u), bottom=members.index(A.bottom))
        except SkewbenchError as exc:
            return CheckResult(name, False, (u,), 0, detail=f"u↓ at {A.names[u]}: {exc}")
        boolean = _complemented_distributive(sub)
        if not boolean:
            witness = (u, *(boolean.witness or ()))
            return CheckResult(name, False, witness, 0, detail=f"u↓ at {A.names[u]}: {boolean.detail}")
    return CheckResult(name, True, None, 0)


def check_dual_skew_boolean(A: Algebra, ddiff_table) -> CheckResult:
    """Co-strongly distributive skew lattice with top whose dual difference
    satisfies the four sandwich identities; a bad cell raises MalformedTable."""
    name = "dual-skew-boolean"
    if A.top is None:
        return CheckResult(name, False, None, 0, detail="no top")
    axiom = failing_skew_axiom(A)
    if axiom is not None:
        return CheckResult(name, False, axiom.witness, 0, detail=axiom.detail)
    costrong = property_result(A, "co-strongly-distributive")
    if not costrong:
        return CheckResult(name, False, costrong.witness, 0, detail="not co-strongly distributive")
    res = run_identity("dual-skew-boolean-identities", A, dd=ddiff_table)
    return CheckResult(name, res.holds, res.witness, 0, detail=res.detail)
