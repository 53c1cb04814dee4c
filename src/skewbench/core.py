"""Finite double-band algebras as operation tables.

Elements are dense integer indices; display names ride along as a sidecar
tuple.  Operation tables are the single source of truth.  Maps and
partitions are read-only int16 index arrays; a partition labels each
element with its block, blocks numbered 0…k−1 by least member
(:func:`partition_of`), so a quotient's projection is its partition.
Facts derived from the tables are built on first use and cached on the
algebra: ≤ and ⪯ (:func:`leq_matrix`, :func:`preceq_matrix`), Green's
relations (:func:`greens`), the partition ⪯ ∩ ⪰ (:func:`d_partition`) and
S/D with its projection (:func:`lattice_image`) where S/D is not the
algebra itself.  Algebras are immutable and every function here is pure,
so values may be shared freely between threads.  :class:`CheckResult` is
the verdict of every check, and :class:`Record` the base of every record.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    BadConstant,
    CostaMismatch,
    MalformedTable,
    NotACongruence,
    NotComposable,
    TooLarge,
)

_DTYPE = np.int16
ISOMORPHISM_BOUND = 12  # the largest carriers find_isomorphism compares by default


def _freeze(arr: np.ndarray, dtype=_DTYPE) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


class Record:
    """The base of the workbench's immutable records.

    A record lists its fields in ``__slots__``, in constructor order (a
    ``__weakref__`` or ``__dict__`` slot may follow them), and its
    ``__init__`` stores them with :meth:`_init`.  Assigning or deleting an
    attribute raises ``AttributeError``; two records are equal, and hash
    alike, when they have the same class and the same :meth:`_key`, by
    default every field.  Pickling and :meth:`replace` go through the
    fields.  Defining a subclass runs no generated code, unlike a dataclass,
    which ``exec``s each of its methods in every process.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("__"))

    def _init(self, *values) -> None:
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setstate__(self, state: tuple) -> None:
        self._init(*state)

    def _key(self) -> tuple:
        return self.__getstate__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields if not f.startswith("_"))
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` to some fields, built by the constructor."""
        return type(self)(**{**dict(zip(self._fields, self.__getstate__())), **changes})


class CheckResult(Record):
    """The verdict of one universally quantified check: whether it holds,
    the first failing witness (element indices, after an operation name for
    a congruence) or None, the tuples covered, and for an identity both
    sides' values at the witness.  True iff the check holds.

    ``evaluated`` counts the work behind the verdict: the tuples the
    identity engine computed, or the table cells a decider compared.  It is
    left out of equality and of reports."""

    __slots__ = (
        "name", "holds", "witness", "checked", "lhs_value", "rhs_value", "detail", "skipped", "evaluated"
    )

    def __init__(
        self,
        name: str,
        holds: bool,
        witness: tuple | None,
        checked: int,
        lhs_value: object = None,
        rhs_value: object = None,
        detail: str = "",
        skipped: bool = False,
        evaluated: int = 0,
    ):
        self._init(name, holds, witness, checked, lhs_value, rhs_value, detail, skipped, evaluated)

    def _key(self) -> tuple:
        return self.__getstate__()[:-1]  # all but evaluated

    @property
    def verdict(self) -> str:
        if self.skipped:
            return "skipped"
        return "holds" if self.holds else "fails"

    def __bool__(self) -> bool:
        return self.holds


def skipped_result(name: str, detail: str = "") -> CheckResult:
    """Placeholder entry for a check that does not apply to the instance."""
    return CheckResult(name, True, None, 0, detail=detail, skipped=True)


def first_true(mask) -> tuple[int, ...] | None:
    """The index of the first True entry of ``mask`` in row-major order, or
    None when there is none."""
    mask = np.asarray(mask)
    if not mask.any():
        return None
    return tuple(int(v) for v in np.unravel_index(int(mask.argmax()), mask.shape))


class Algebra(Record):
    """A finite algebra with total meet and join tables, an optional arrow
    table, and optional distinguished top and bottom elements.

    Tables are read-only numpy arrays indexed ``table[x, y] == x op y``.
    Construct through :func:`make_algebra`, which validates shape, closure
    and the constant laws (algebraic laws such as associativity are opt-in
    classifications, so that non-examples can be held and dissected).

    ``_facts`` caches facts derived from the meet and join tables: ≤, ⪯,
    Green's relations, ⪯ ∩ ⪰, S/D where it is a quotient, the derived
    arrow, the verdicts of the formulas of ∧ and ∨ alone and the
    isomorphism key.  It takes no part in equality, the repr or pickling:
    an unpickled copy starts with no facts.  :meth:`with_arrow`,
    :meth:`drop_arrow` and a :meth:`replace` of the arrow alone share it; a
    copy with other names, tables or constants starts its own.
    """

    __slots__ = ("names", "meet", "join", "arrow", "top", "bottom", "_facts", "__weakref__")

    def __init__(
        self,
        names: tuple[str, ...],
        meet: np.ndarray,
        join: np.ndarray,
        arrow: np.ndarray | None = None,
        top: int | None = None,
        bottom: int | None = None,
        *,
        _facts: dict | None = None,
    ):
        self._init(names, meet, join, arrow, top, bottom, {} if _facts is None else _facts)

    @property
    def n(self) -> int:
        return len(self.names)

    def __getstate__(self) -> tuple:
        return super().__getstate__()[:-1]  # all but _facts

    def __setstate__(self, state: tuple) -> None:
        self._init(*state, {})

    def index(self, name: str) -> int:
        return self.names.index(name)

    def name_tuple(self, indices) -> tuple[str, ...]:
        return tuple(self.names[int(i)] for i in indices)

    def tables(self) -> dict[str, np.ndarray]:
        ops = {"m": self.meet, "j": self.join}
        if self.arrow is not None:
            ops["r"] = self.arrow
        return ops

    def with_arrow(self, arrow) -> "Algebra":
        """A copy with ``arrow``, or with none when it is None, that shares
        the validated tables and ``_facts``; only the arrow is coerced, and
        refused, as :func:`make_algebra` does."""
        if arrow is not None:
            arrow = coerce_table(arrow, self.names, "arrow")
        return Algebra(self.names, self.meet, self.join, arrow, self.top, self.bottom, _facts=self._facts)

    def cached(self, key: str, compute):
        """The derived fact ``key``, computed by ``compute()`` on first use.

        Nothing is stored when ``compute`` raises.  Threads that race on a
        first use may each compute; all of them get the value stored first.
        """
        if key not in self._facts:
            self._facts.setdefault(key, compute())
        return self._facts[key]

    def drop_arrow(self) -> "Algebra":
        return self if self.arrow is None else self.with_arrow(None)

    def replace(self, **changes) -> "Algebra":
        """A copy built and refused by :func:`make_algebra`, with facts of its
        own; a change of the arrow alone is :meth:`with_arrow`'s, and shares
        them."""
        if changes.keys() == {"arrow"}:
            return self.with_arrow(changes["arrow"])
        return make_algebra(**{**dict(zip(self._fields[:-1], self.__getstate__())), **changes})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        if self.names != other.names or self.top != other.top or self.bottom != other.bottom:
            return False
        if (self.arrow is None) != (other.arrow is None):
            return False
        same = np.array_equal(self.meet, other.meet) and np.array_equal(self.join, other.join)
        if same and self.arrow is not None:
            same = np.array_equal(self.arrow, other.arrow)
        return same

    def __repr__(self) -> str:
        consts = []
        if self.top is not None:
            consts.append(f"top={self.names[self.top]}")
        if self.bottom is not None:
            consts.append(f"bottom={self.names[self.bottom]}")
        arrow = ", arrow" if self.arrow is not None else ""
        extra = (", " + ", ".join(consts)) if consts else ""
        return f"Algebra(n={self.n}{arrow}{extra})"


def coerce_table(table, names: tuple[str, ...], label: str) -> np.ndarray:
    """The index table of ``table``, whose entries are element names or
    indices; a bad entry is reported at the first one in row-major order."""
    n = len(names)
    rows = table if isinstance(table, np.ndarray) else [list(row) for row in table]
    if len(rows) != n:
        raise MalformedTable(f"{label} table has {len(rows)} rows, expected {n}")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MalformedTable(f"{label} table row {i} has {len(row)} entries, expected {n}")
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
        cells = rows
    else:  # by the type of each cell: numpy reads [True, 0] as integers and [0, 1.9] as floats
        flat = list(itertools.chain.from_iterable(rows.tolist() if isinstance(rows, np.ndarray) else rows))
        if not set(map(type, flat)) <= {int}:
            for j, c in enumerate(flat):
                if not isinstance(c, (str, int, np.integer)) or isinstance(c, bool):
                    raise MalformedTable(f"{label}[{j // n}][{j % n}]: {c} is not an element name or index")
            lookup = {name: i for i, name in enumerate(names)}
            flat = [lookup.get(c, -1) if isinstance(c, str) else int(c) for c in flat]
        cells = np.array(flat, dtype=np.int64).reshape(n, n)
    bad = first_true((cells < 0) | (cells >= n))
    if bad is not None:
        i, k = bad
        cell = rows[i][k]
        if isinstance(cell, str):
            raise MalformedTable(f"{label}[{i}][{k}]: unknown element {cell!r}")
        raise MalformedTable(f"{label}[{i}][{k}]: index {int(cell)} out of range")
    return _freeze(cells.astype(_DTYPE))  # a copy: the caller's array stays its own


def _coerce_element(value, names: tuple[str, ...], label: str) -> int:
    """The index of ``value``, an element name or index, by the cell rule
    of :func:`coerce_table`."""
    if isinstance(value, str):
        if value not in names:
            raise MalformedTable(f"{label}: unknown element {value!r}")
        return names.index(value)
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise MalformedTable(f"{label}: {value} is not an element name or index")
    v = int(value)
    if not 0 <= v < len(names):
        raise MalformedTable(f"{label}: index {v} out of range")
    return v


def make_algebra(names, meet, join, top=None, bottom=None, arrow=None) -> Algebra:
    """Build a validated :class:`Algebra` from element names and tables.

    Table entries may be element names or indices.  Validation covers shape,
    closure and the top/bottom absorption laws only.
    """
    names = tuple(str(x) for x in names)
    if not names:
        raise MalformedTable("carrier is empty")
    if len(set(names)) != len(names):
        raise MalformedTable("element names are not unique")
    for name in names:
        if not name or any(ch.isspace() for ch in name) or name.startswith("#"):
            raise MalformedTable(f"invalid element name {name!r}")
    meet_t = coerce_table(meet, names, "meet")
    join_t = coerce_table(join, names, "join")
    arrow_t = coerce_table(arrow, names, "arrow") if arrow is not None else None
    top_i = _coerce_element(top, names, "top") if top is not None else None
    bottom_i = _coerce_element(bottom, names, "bottom") if bottom is not None else None

    n = len(names)
    idx = np.arange(n)
    if top_i is not None:
        t = top_i
        if not ((join_t[:, t] == t).all() and (join_t[t, :] == t).all()):
            raise BadConstant(f"top {names[t]!r} fails x∨top = top = top∨x")
        if not ((meet_t[:, t] == idx).all() and (meet_t[t, :] == idx).all()):
            raise BadConstant(f"top {names[t]!r} fails x∧top = x = top∧x")
    if bottom_i is not None:
        b = bottom_i
        if not ((meet_t[:, b] == b).all() and (meet_t[b, :] == b).all()):
            raise BadConstant(f"bottom {names[b]!r} fails x∧bot = bot = bot∧x")
        if not ((join_t[:, b] == idx).all() and (join_t[b, :] == idx).all()):
            raise BadConstant(f"bottom {names[b]!r} fails x∨bot = x = bot∨x")
    return Algebra(names, meet_t, join_t, arrow_t, top_i, bottom_i)


def subalgebra(A: Algebra, elements, top=None, bottom=None) -> tuple[Algebra, dict[int, int]]:
    """Restrict ``A`` to a subset closed under its operations.

    Returns the sub-algebra together with the global-to-local index map.
    Declared constants are inherited when they fall inside the subset unless
    overridden explicitly.
    """
    members = sorted(int(e) for e in elements)
    local = {g: i for i, g in enumerate(members)}
    sel = np.array(members)
    for label, table in A.tables().items():
        sub = table[np.ix_(sel, sel)]
        outside = [v for v in np.unique(sub) if int(v) not in local]
        if outside:
            raise MalformedTable(f"subset not closed under {label}: reaches {A.names[int(outside[0])]}")
    names = A.name_tuple(members)
    remap = np.full(A.n, -1, dtype=_DTYPE)
    remap[sel] = np.arange(len(members), dtype=_DTYPE)
    meet = remap[A.meet[np.ix_(sel, sel)]]
    join = remap[A.join[np.ix_(sel, sel)]]
    arrow = remap[A.arrow[np.ix_(sel, sel)]] if A.arrow is not None else None
    if top is None and A.top is not None and A.top in local:
        top = local[A.top]
    if bottom is None and A.bottom is not None and A.bottom in local:
        bottom = local[A.bottom]
    return make_algebra(names, meet, join, top=top, bottom=bottom, arrow=arrow), local


# ---------------------------------------------------------------------------
# Derived orders


def leq_matrix(A: Algebra) -> np.ndarray:
    """Natural partial order: x ≤ y iff x∨y = y = y∨x.  Cached, read-only."""
    J, col = A.join, np.arange(A.n)[None, :]
    return A.cached("leq", lambda: _freeze((J == col) & (J.T == col), bool))


def minimal_elements(A: Algebra) -> np.ndarray:
    """The ≤-minimal elements, ascending: every u↑ lies in the upset of one."""
    return np.flatnonzero(leq_matrix(A).sum(axis=0) == 1)


def maximal_elements(A: Algebra) -> np.ndarray:
    """The ≤-maximal elements, ascending: every u↓ lies in the downset of one."""
    return np.flatnonzero(leq_matrix(A).sum(axis=1) == 1)


def preceq_matrix(A: Algebra) -> np.ndarray:
    """Natural preorder: x ⪯ y iff y∨x∨y = y.  Cached, read-only."""
    J, col = A.join, np.arange(A.n)[None, :]
    return A.cached("preceq", lambda: _freeze(J[J.T, np.broadcast_to(col, J.shape)] == col, bool))


def natural_orders(A: Algebra) -> tuple[np.ndarray, np.ndarray]:
    """Return (≤, ⪯) as boolean matrices, cross-checking the three
    equivalent characterizations of ≤ (join form, x∨y∨x = y, y∧x∧y = x).
    """
    n = A.n
    row = np.arange(n)[:, None]
    col = np.arange(n)[None, :]
    leq = leq_matrix(A)
    form2 = A.join[A.join, np.broadcast_to(row, (n, n))] == col
    form3 = A.meet[A.meet.T, np.broadcast_to(col, (n, n))] == row
    bad = first_true((leq != form2) | (leq != form3))
    if bad is not None:
        x, y = bad
        raise CostaMismatch(
            f"order characterizations disagree at ({A.names[x]}, {A.names[y]}); "
            "input is not a skew lattice",
            witness=bad,
        )
    return leq, preceq_matrix(A)


# ---------------------------------------------------------------------------
# Green's relations, partitions and quotients


def partition_of(rel: np.ndarray) -> np.ndarray:
    """The partition of the bool matrix ``rel``, numbered by least member;
    raises ValueError when ``rel`` is not an equivalence."""
    if not rel.diagonal().all():
        x = int(np.argmin(rel.diagonal()))
        raise ValueError(f"relation not reflexive at {x}")
    if not np.array_equal(rel, rel.T):
        raise ValueError("relation not symmetric")
    bad = first_true((rel @ rel) & ~rel)
    if bad is not None:
        raise ValueError(f"relation not transitive at ({bad[0]}, {bad[1]})")
    # np.unique numbers each element's least block-mate in ascending order
    return _freeze(np.unique(rel.argmax(axis=0), return_inverse=True)[1])


def _representatives(A: Algebra, part) -> tuple[np.ndarray, np.ndarray]:
    """``part`` as an index array and its blocks' least members, in label
    order; raises ValueError unless ``part`` is a partition of ``A``."""
    part = np.asarray(part)
    if part.shape != (A.n,) or part.dtype.kind not in "iu":
        raise ValueError(f"a partition is {A.n} integer labels, not {part.dtype} {part.shape}")
    part = part.astype(np.intp)
    new = np.r_[0, np.maximum.accumulate(part)[:-1] + 1]  # the label of a block first met there
    bad = first_true((part < 0) | (part > new))
    if bad is not None:
        raise ValueError(f"partition labels are not 0…k−1 by least member: element {bad[0]} has label {part[bad]}")
    return part, np.flatnonzero(part == new)


def _equivalence(rel: np.ndarray, what: str) -> np.ndarray:
    try:
        return partition_of(rel)
    except ValueError as exc:
        raise NotComposable(f"{what} is not an equivalence: {exc}") from exc


def d_partition(A: Algebra) -> np.ndarray:
    """The partition ⪯ ∩ ⪰, Green's D on a skew lattice, as an index array.
    Cached; raises NotComposable when the relation is not an equivalence."""
    return A.cached("D", lambda: _equivalence(preceq_matrix(A) & preceq_matrix(A).T, "D"))


def greens(A: Algebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Green's relations (D, L, R) as partitions, index arrays, cached.

    Verifies on the instance that the meet and join characterizations of L
    and R agree, that all three are equivalences and that L∘R = R∘L = D; a
    failure signals that the input is not a skew lattice.
    """
    return A.cached("greens", lambda: _greens(A))


def _greens(A: Algebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    M, J = A.meet, A.join
    row, col = np.arange(A.n)[:, None], np.arange(A.n)[None, :]
    # x L y by x∧y = x and y∧x = y, or by x∨y = y and y∨x = x; R dually
    Lrel, Lor = (M == row) & (M == row).T, (J == col) & (J == col).T
    Rrel, Ror = (M == col) & (M == col).T, (J == row) & (J == row).T
    for label, a, b in (("L", Lrel, Lor), ("R", Rrel, Ror)):
        bad = first_true(a != b)
        if bad is not None:
            x, y = bad
            raise NotComposable(
                f"meet and join forms of {label} disagree at ({A.names[x]}, {A.names[y]})",
                witness=bad,
            )

    D = d_partition(A)
    L, R = (_equivalence(rel, "Green's relation") for rel in (Lrel, Rrel))
    Drel = D[:, None] == D[None, :]
    bad = first_true((Lrel @ Rrel != Drel) | (Rrel @ Lrel != Drel))
    if bad is not None:
        x, y = bad
        raise NotComposable(f"L∘R = R∘L = D fails at ({A.names[x]}, {A.names[y]})", witness=bad)
    return D, L, R


def is_congruence(A: Algebra, part) -> CheckResult:
    """Check that the partition ``part``, an index array, respects every
    operation table present; raises ValueError if ``part`` is no partition.

    A failing result carries a witness ``(op, a, b, c, d)`` with a ≈ c and
    b ≈ d but op(a,b) not ≈ op(c,d); the pair (a, b) is the lexicographically
    first violation against block representatives, the least members.
    """
    part, reps = _representatives(A, part)
    for label, table in A.tables().items():
        classes = part[table]
        bad = first_true(classes != classes[np.ix_(reps, reps)][np.ix_(part, part)])
        if bad is not None:
            a, b = bad
            name = {"m": "meet", "j": "join", "r": "arrow"}[label]
            return CheckResult("congruence", False, (name, a, b, int(reps[part[a]]), int(reps[part[b]])), 0)
    return CheckResult("congruence", True, None, 0)


def quotient(A: Algebra, part) -> tuple[Algebra, np.ndarray]:
    """Quotient by the congruence ``part``, an index array; returns the
    block algebra, whose element i is block i named by its members, and
    the projection, a read-only copy of ``part``.  When ``part`` is Green's
    D the result is verified commutative; failure signals a non-skew-lattice
    input."""
    cong = is_congruence(A, part)
    if not cong:
        op, a, b, c, d = cong.witness
        raise NotACongruence(
            f"not a congruence: {op}({A.names[a]},{A.names[b]}) and "
            f"{op}({A.names[c]},{A.names[d]}) land in different blocks",
            witness=cong.witness,
        )
    part, reps = _representatives(A, part)
    blocks = np.split(np.argsort(part, kind="stable"), np.cumsum(np.bincount(part))[:-1])
    qnames = tuple("{" + ",".join(A.name_tuple(blk)) + "}" for blk in blocks)
    qmeet = part[A.meet[np.ix_(reps, reps)]]
    qjoin = part[A.join[np.ix_(reps, reps)]]
    qarrow = part[A.arrow[np.ix_(reps, reps)]] if A.arrow is not None else None
    qtop = int(part[A.top]) if A.top is not None else None
    qbottom = int(part[A.bottom]) if A.bottom is not None else None
    Q = make_algebra(qnames, qmeet, qjoin, top=qtop, bottom=qbottom, arrow=qarrow)

    try:
        is_d = np.array_equal(d_partition(A), part)
    except NotComposable:
        is_d = False
    if is_d and not is_commutative(Q):
        raise NotComposable("quotient by D is not commutative; input is not a skew lattice")
    return Q, _freeze(part)


def is_commutative(A: Algebra) -> bool:
    """Whether both meet and join of ``A`` commute."""
    return np.array_equal(A.meet, A.meet.T) and np.array_equal(A.join, A.join.T)


def lattice_image(A: Algebra) -> tuple[Algebra, np.ndarray]:
    """The maximal lattice image S/D of the arrowless reduct of ``A``, the
    quotient by :func:`d_partition`, with its projection, as :func:`quotient`
    returns them.  Where ``A`` is commutative and D trivial, as on a lattice,
    S/D is ``A``'s own arrowless reduct, which shares its facts, with the
    identity projection, and is not stored: it would hold the facts that
    hold it.  Otherwise cached; raises as :func:`d_partition` and
    :func:`quotient` do."""
    if is_commutative(A) and d_partition(A).max() == A.n - 1:
        return A.drop_arrow(), _freeze(np.arange(A.n))
    return A.cached("S/D", lambda: quotient(A.drop_arrow(), d_partition(A)))


def pullback_check(A: Algebra) -> CheckResult:
    """Check that A is the pullback of A/R and A/L over A/D.

    The canonical map a ↦ (R-class, L-class) is a homomorphism by
    construction, so only bijectivity onto the fibered product is tested.
    """
    D, L, R = greens(A)
    image = {}
    for a, key in enumerate(zip(R.tolist(), L.tolist())):
        if key in image:
            return CheckResult("pullback", False, (image[key], a), 0, detail="canonical map not injective")
        image[key] = a
    # R and L lie inside D: each class's D-class, read at its least member
    d_of_r, d_of_l = (D[np.unique(part, return_index=True)[1]] for part in (R, L))
    hit = np.zeros((d_of_r.size, d_of_l.size), dtype=bool)
    hit[R, L] = True
    miss = first_true((d_of_r[:, None] == d_of_l[None, :]) & ~hit)
    if miss is not None:
        return CheckResult("pullback", False, miss, 0, detail="fiber element not hit")
    return CheckResult("pullback", True, None, 0)


def vertical_dual(A: Algebra) -> Algebra:
    """Interchange meet and join (and top with bottom); drops any arrow."""
    return Algebra(A.names, A.join, A.meet, None, top=A.bottom, bottom=A.top)


def direct_product(A: Algebra, B: Algebra) -> Algebra:
    """Componentwise product; constants are present iff both factors have them."""
    names = tuple(f"({a},{b})" for a in A.names for b in B.names)
    m = B.n

    def combine(ta, tb):
        big = ta.astype(np.int64)[:, None, :, None] * m + tb.astype(np.int64)[None, :, None, :]
        return big.reshape(A.n * m, A.n * m)

    meet = combine(A.meet, B.meet)
    join = combine(A.join, B.join)
    arrow = combine(A.arrow, B.arrow) if A.arrow is not None and B.arrow is not None else None
    top = A.top * m + B.top if A.top is not None and B.top is not None else None
    bottom = A.bottom * m + B.bottom if A.bottom is not None and B.bottom is not None else None
    return make_algebra(names, meet, join, top=top, bottom=bottom, arrow=arrow)


def _table_profiles(T: np.ndarray) -> list[tuple[int, ...]]:
    """Per element i of one table: how often i appears in its row and in its
    column, how many cells of its row and of its column equal their own
    column and row index, and whether i is idempotent."""
    idx = np.arange(T.shape[0])
    own_row = T == idx[:, None]  # T[i, j] == i
    own_col = T == idx[None, :]  # T[i, j] == j
    counts = np.stack(
        [own_row.sum(1), own_col.sum(0), own_col.sum(1), own_row.sum(0), T.diagonal() == idx], axis=1
    )
    return [tuple(row) for row in counts.tolist()]


def _profiles(A: Algebra, shared_arrow: bool) -> tuple[tuple, ...]:
    """Each element's profiles in meet and join, and in the arrow when
    ``shared_arrow``.  Only the arrowless profiles are cached: the facts of
    an algebra are shared by copies that differ in the arrow."""
    base = A.cached(
        "profiles", lambda: tuple(zip(_table_profiles(A.meet), _table_profiles(A.join)))
    )
    if not shared_arrow:
        return base
    return tuple(p + (q,) for p, q in zip(base, _table_profiles(A.arrow)))


def isomorphism_key(A: Algebra) -> tuple:
    """``(n, sorted arrowless profiles)``, cached per algebra: algebras with
    different keys are not isomorphic, whatever their arrows."""
    return A.cached("isomorphism_key", lambda: (A.n, tuple(sorted(_profiles(A, False)))))


def find_isomorphism(A: Algebra, B: Algebra, bound: int = ISOMORPHISM_BOUND) -> np.ndarray | None:
    """Backtracking search for an isomorphism respecting all shared operation
    tables and shared constants.  Intended for desk-scale carriers; raises
    TooLarge beyond ``bound``.

    Algebras whose :func:`isomorphism_key` differ are rejected without a
    search; when both carry an arrow, so are those whose arrow profiles
    differ as multisets.  Elements are then matched only to elements of
    equal profile, so equal keys are a necessary condition.  The map is
    returned as a read-only index array, and its certificate is the check
    that ends :func:`_extend`: every cell of every shared table is
    preserved, with shared constants seeded.
    """
    if A.n > bound or B.n > bound:
        raise TooLarge(f"isomorphism search bound {bound} exceeded ({A.n} vs {B.n} elements)")
    if isomorphism_key(A) != isomorphism_key(B):
        return None
    shared_arrow = A.arrow is not None and B.arrow is not None
    tables = [(A.meet, B.meet), (A.join, B.join)]
    if shared_arrow:
        tables.append((A.arrow, B.arrow))

    prof_a = _profiles(A, shared_arrow)
    prof_b = _profiles(B, shared_arrow)
    if shared_arrow and sorted(prof_a) != sorted(prof_b):
        return None

    fwd: dict[int, int] = {}
    rev: dict[int, int] = {}
    if A.top is not None and B.top is not None:
        fwd[A.top], rev[B.top] = B.top, A.top
    if A.bottom is not None and B.bottom is not None:
        if A.bottom in fwd and fwd[A.bottom] != B.bottom:
            return None
        fwd[A.bottom], rev[B.bottom] = B.bottom, A.bottom
    order = sorted(set(range(A.n)) - set(fwd), key=lambda i: (prof_a[i], i))
    candidates = [[b for b in range(B.n) if prof_b[b] == prof_a[a]] for a in order]
    # plain lists: the search reads single cells, which numpy would box
    pairs = [(ta.tolist(), tb.tolist()) for ta, tb in tables]
    if not _extend(0, order, candidates, pairs, fwd, rev):
        return None
    return _freeze([fwd[i] for i in range(A.n)])


def _consistent(a: int, pairs, fwd: dict[int, int], rev: dict[int, int]) -> bool:
    """Whether each cell of ``a`` and a mapped x, in either order, lands
    where ``fwd`` allows: on the image of the cell's value where that value
    is mapped, else on an element nothing maps to yet."""
    fa = fwd[a]
    for x, fx in fwd.items():
        for ta, tb in pairs:
            for r, img in ((ta[a][x], tb[fa][fx]), (ta[x][a], tb[fx][fa])):
                if r in fwd:
                    if fwd[r] != img:
                        return False
                elif img in rev:
                    return False
    return True


def _extend(k: int, order, candidates, pairs, fwd: dict[int, int], rev: dict[int, int]) -> bool:
    """Map ``order[k:]`` by backtracking over their candidates, in order;
    on success ``fwd`` is an isomorphism."""
    if k == len(order):
        return all(fwd[ta[p][q]] == tb[fwd[p]][fwd[q]] for ta, tb in pairs for p in fwd for q in fwd)
    a = order[k]
    for b in candidates[k]:
        if b in rev:
            continue
        fwd[a], rev[b] = b, a
        if _consistent(a, pairs, fwd, rev) and _extend(k + 1, order, candidates, pairs, fwd, rev):
            return True
        del fwd[a], rev[b]
    return False
