"""Concrete algebra families used as oracles and counterexample fodder:
partial-function algebras, section algebras over plain sets and over finite
posets, upset lattices with the complement-of-downset implication, algebras
induced by skew Boolean structure, and brute-force enumeration of tiny skew
lattices up to isomorphism.

Partial functions and sections, over a set or a poset, share one table
builder.  A section is an int row over the base points: the index of its
value in the fiber over each point, or -1 off its domain.  Rows run by
domain mask ascending, then by values lexicographically, so the empty
section comes first; it is the top.  Meet overrides (f, then g off the
domain of f), join restricts g to the common domain, and f→g restricts g
to ↑(dom g ∖ dom f), the residue g off dom f on a set base.  A row's code
is linear in its entries, so the codes of all three results come from one
integer product per block of rows, and each result is found by its code;
working memory beyond the output tables stays small.  The constructors
refuse, before they build a row, a carrier larger than their bound or than
an int16 table can index (:func:`errors.check_size`) and 64-bit codes.

An upset lattice's arrow is the complement-of-downset formula, verified
by the Heyting adjunction; no arrow is searched for.

``search_family`` streams (label, build) pairs: each ``build`` is a
picklable recipe that returns the instance without its arrow, so an
instance is built by whoever evaluates it.

The verifying layers (``heyting``, ``properties``, ``skew_heyting``) are
imported by the functions that call them, so no section builder loads them;
``derive_arrow`` is the oracle of the section implication.
"""

from __future__ import annotations

import itertools
from functools import cached_property, partial

import numpy as np

from .core import (
    ISOMORPHISM_BOUND,
    Algebra,
    Record,
    direct_product,
    find_isomorphism,
    isomorphism_key,
    make_algebra,
    vertical_dual,
)
from .errors import (
    MAX_CARRIER,
    BadPoset,
    EsakiaFormulaMismatch,
    InconsistencyDetected,
    PreconditionFailed,
    TooLarge,
    check_size,
)

_POINT_NAMES = "pqrstuvwxyz"


def default_point_names(k: int) -> tuple[str, ...]:
    if k <= len(_POINT_NAMES):
        return tuple(_POINT_NAMES[:k])
    return tuple(f"x{i}" for i in range(k))


def _bits(mask: int):
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(masks, mask: int) -> int:
    """The union of ``masks[i]`` over the set bits i of ``mask``."""
    out = 0
    for i in _bits(mask):
        out |= masks[i]
    return out


def _row_masks(rel) -> tuple[int, ...]:
    """Each row of a boolean matrix as a Python int, bit j for column j."""
    rows = np.packbits(rel, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)


# ---------------------------------------------------------------------------
# Domain types


class Poset(Record):
    """Finite poset; the relation matrix is validated at construction."""

    __slots__ = ("points", "leq", "__dict__")  # the dict holds the cached masks

    def __init__(self, points: tuple[str, ...], leq: np.ndarray):
        n = len(points)
        rel = np.array(leq, dtype=bool, order="C")  # a copy: the caller's array stays its own
        rel.setflags(write=False)
        self._init(points, rel)
        if rel.shape != (n, n):
            raise BadPoset(f"relation shape {rel.shape} does not match {n} points")
        if not rel.diagonal().all():
            raise BadPoset("relation is not reflexive")
        if (rel & rel.T & ~np.eye(n, dtype=bool)).any():
            raise BadPoset("relation is not antisymmetric")
        # transitive iff the up-set of each point holds the up-sets of its points
        up = self._up_of_point
        if any(_union(up, mask) != mask for mask in up):
            raise BadPoset("relation is not transitive")

    @property
    def n(self) -> int:
        return len(self.points)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.points == other.points
            and np.array_equal(self.leq, other.leq)
        )

    # masks are Python ints: a shift by a numpy int64 loses bits 63 and up
    @cached_property
    def _up_of_point(self) -> tuple[int, ...]:
        return _row_masks(self.leq)

    @cached_property
    def _down_of_point(self) -> tuple[int, ...]:
        return _row_masks(self.leq.T)

    def up(self, mask: int) -> int:
        return _union(self._up_of_point, mask)

    def down(self, mask: int) -> int:
        return _union(self._down_of_point, mask)

    def _upsets(self):
        """The upsets in ascending mask order, by backtracking on a stack from
        the last point down, out before in: a point is in if one below it is,
        out if one above it is, and every branch ends in an upset."""
        up, down = self._up_of_point, self._down_of_point
        stack = [(self.n - 1, 0, 0)]
        while stack:
            p, inside, outside = stack.pop()
            if p < 0:
                yield inside
                continue
            if not up[p] & outside:
                stack.append((p - 1, inside | 1 << p, outside))
            if not down[p] & inside:
                stack.append((p - 1, inside, outside | 1 << p))

    @cached_property
    def upset_masks(self) -> tuple[int, ...]:
        return tuple(self._upsets())

    @cached_property
    def downset_masks(self) -> tuple[int, ...]:
        # the complements of the upsets, in reverse to keep the order ascending
        full = (1 << self.n) - 1
        return tuple(full ^ m for m in reversed(self.upset_masks))

    def subset_name(self, mask: int) -> str:
        return "{" + ",".join(self.points[i] for i in _bits(mask)) + "}"

    @classmethod
    def chain(cls, n: int, names=None) -> "Poset":
        names = tuple(names) if names else default_point_names(n)
        leq = np.fromfunction(lambda i, j: i <= j, (n, n))
        return cls(names, leq)

    @classmethod
    def antichain(cls, n: int, names=None) -> "Poset":
        names = tuple(names) if names else default_point_names(n)
        return cls(names, np.eye(n, dtype=bool))

    def canonical_key(self) -> tuple:
        n = self.n
        best = None
        for perm in itertools.permutations(range(n)):
            flat = tuple(bool(self.leq[perm[i], perm[j]]) for i in range(n) for j in range(n))
            if best is None or flat < best:
                best = flat
        return best


def all_posets(n: int) -> list[Poset]:
    """All posets with exactly n points, one per isomorphism class, in a
    deterministic order.  Built by repeatedly adjoining a maximal point
    above a downset; practical through n = 6 or so."""
    if n < 1:
        raise ValueError("need at least one point")
    if n == 1:
        return [Poset.antichain(1)]
    seen: dict[tuple, Poset] = {}
    for P in all_posets(n - 1):
        for ideal in P.downset_masks:
            leq = np.eye(n, dtype=bool)
            leq[: n - 1, : n - 1] = P.leq
            leq[list(_bits(ideal)), n - 1] = True
            Q = Poset(default_point_names(n), leq)
            key = Q.canonical_key()
            if key not in seen:
                seen[key] = Q
    return [seen[k] for k in sorted(seen)]


class SurjectionModel(Record):
    """A surjection from a finite total space onto a plain set or a poset;
    sections of it form the algebras below."""

    __slots__ = ("total", "base", "proj")

    def __init__(self, total: tuple[str, ...], base: tuple[str, ...] | Poset, proj: tuple[int, ...]):
        self._init(total, base, proj)
        if len(proj) != len(total):
            raise PreconditionFailed("projection length does not match total space")
        hit = set(proj)
        if hit != set(range(self.base_size)):
            raise PreconditionFailed("projection is not surjective")

    @property
    def base_size(self) -> int:
        return self.base.n if isinstance(self.base, Poset) else len(self.base)

    @property
    def base_names(self) -> tuple[str, ...]:
        return self.base.points if isinstance(self.base, Poset) else self.base

    def fiber(self, b: int) -> tuple[int, ...]:
        return tuple(e for e, p in enumerate(self.proj) if p == b)

    @classmethod
    def from_fiber_sizes(cls, base, sizes) -> "SurjectionModel":
        names = base.points if isinstance(base, Poset) else tuple(base)
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) != len(names):
            raise PreconditionFailed("one fiber size per base point required")
        if any(s < 1 for s in sizes):
            raise PreconditionFailed("fibers must be nonempty")
        # every section algebra over the model has the empty section and at
        # least f sections over ↑p (or {p}) per fiber f: 1 + Σf, counted
        # before a point is named
        check_size("section algebra", [(), *([s] for s in sizes)], MAX_CARRIER)
        total, proj = [], []
        for b, (name, size) in enumerate(zip(names, sizes)):
            for i in range(size):
                total.append(f"{name}{i}")
                proj.append(b)
        return cls(tuple(total), base if isinstance(base, Poset) else names, tuple(proj))

    @classmethod
    def coordinate_projection(cls, xnames, ynames) -> "SurjectionModel":
        xnames, ynames = tuple(xnames), tuple(ynames)
        total = tuple(f"{x}.{y}" for x in xnames for y in ynames)
        proj = tuple(i for i in range(len(xnames)) for _ in ynames)
        return cls(total, xnames, proj)


# ---------------------------------------------------------------------------
# Partial maps and sections

# table cells computed per block of rows
_BLOCK_CELLS = 1 << 18


class _Sections:
    """The sections over ``domains`` (masks over the base points, the empty
    one first), where point p takes the values named by ``labels[p]`` and
    ``below[p]`` masks the points strictly below p (none on a set base).

    A row's code is the sum over its domain of (value + 1) * radix[p]; its
    ``weight`` holds those terms, so the code of its restriction to a set of
    points is the sum of its weights over that set.  Codes and masks are
    int64, so labels with Π(len + 1) ≥ 2^63 are refused."""

    def __init__(self, labels, domains, below=()):
        k = len(labels)
        radix = list(itertools.accumulate((len(v) + 1 for v in labels), lambda a, b: a * b, initial=1))
        if radix[k] >> 63:
            raise TooLarge(f"sections over {k} base points need codes of 64 bits or more")
        rows, names = [], []
        for mask in domains:
            points = list(_bits(mask))
            for values in itertools.product(*(range(len(labels[p])) for p in points)):
                row = [-1] * k
                for p, v in zip(points, values):
                    row[p] = v
                rows.append(row)
                names.append("{" + ",".join(labels[p][v] for p, v in zip(points, values)) + "}")
        rows = np.array(rows, dtype=np.int64).reshape(len(rows), k)
        self.names = tuple(names)
        self.lifted = [(p, mask) for p, mask in enumerate(below) if mask]
        self.inside = (rows >= 0).astype(np.int64)
        self.mask = self.inside @ (1 << np.arange(k, dtype=np.int64))
        self.weight = (rows + 1) * np.array(radix[:k], dtype=np.int64)
        self.code = self.weight.sum(axis=1)
        self._order = np.argsort(self.code)
        self._sorted = self.code[self._order]

    def find(self, codes: np.ndarray) -> np.ndarray:
        """The index of the section with each code, -1 where there is none."""
        at = np.minimum(np.searchsorted(self._sorted, codes), len(self._sorted) - 1)
        return np.where(self._sorted[at] == codes, self._order[at], -1)

    def _lookup(self, codes: np.ndarray, op: str) -> np.ndarray:
        found = self.find(codes)
        if (found < 0).any():
            raise InconsistencyDetected(f"the {op} of two sections is not a section")
        return found

    def algebra(self) -> Algebra:
        """Override meet, common-restriction join, the empty section on top
        and the implication f→g = g restricted to ↑(dom g ∖ dom f)."""
        n = len(self.names)
        meet, join, arrow = (np.empty((n, n), dtype=np.int16) for _ in range(3))
        step = max(1, _BLOCK_CELLS // n)
        for lo in range(0, n, step):
            f = slice(lo, lo + step)
            common = self.inside[f] @ self.weight.T  # g restricted to the domain of f
            rest = self.code - common  # g off the domain of f
            join[f] = self._lookup(common, "join")
            meet[f] = self._lookup(self.code[f, None] + rest, "meet")
            if self.lifted:
                # ↑(dom g ∖ dom f) adds g at each p above a point of that gap, not in it
                gap = self.mask[None, :] & ~self.mask[f, None]
                for p, below in self.lifted:
                    rest += np.where((gap & below != 0) & (gap >> p & 1 == 0), self.weight[:, p], 0)
            arrow[f] = self._lookup(rest, "implication")
        return make_algebra(self.names, meet, join, top=0, arrow=arrow)


def partial_function_algebra(x, y, bound: int = 10000) -> Algebra:
    """The algebra of all partial functions X → Y with override meet,
    common-restriction join, residue arrow and the empty map on top."""
    xs = range(x) if isinstance(x, int) else tuple(x)
    ys = range(y) if isinstance(y, int) else tuple(y)
    if not xs or not ys:
        raise PreconditionFailed("X and Y must be nonempty")
    # counted before a point or a value is named
    check_size("partial function algebra", [itertools.repeat(len(ys) + 1, len(xs))], bound)
    xnames = default_point_names(len(xs)) if isinstance(x, int) else tuple(str(v) for v in xs)
    ynames = tuple(str(v) for v in ys)
    labels = [[f"{p}:{v}" for v in ynames] for p in xnames]
    return _Sections(labels, range(1 << len(xnames))).algebra()


def partial_function_boolean(x, y, bound: int = 10000) -> tuple[Algebra, np.ndarray]:
    """The vertical dual of the partial-function algebra (a skew Boolean
    algebra with the empty map at the bottom) together with its difference
    table f∖g = f off the domain of g, the transposed residue."""
    pf = partial_function_algebra(x, y, bound)
    return vertical_dual(pf), pf.arrow.T


def _fiber_labels(model: SurjectionModel) -> list[list[str]]:
    base, total = model.base_names, model.total
    return [[f"{base[b]}:{total[e]}" for e in model.fiber(b)] for b in range(model.base_size)]


def sections_algebra(model: SurjectionModel, bound: int = 10000) -> Algebra:
    """Sections of a surjection over all subsets of a plain base, under the
    partial-function operations."""
    if isinstance(model.base, Poset):
        raise PreconditionFailed("use poset_sections_algebra for poset bases")
    labels = _fiber_labels(model)
    check_size("section algebra", [(len(values) + 1 for values in labels)], bound)
    return _Sections(labels, range(1 << len(labels))).algebra()


def section_model_size(base: Poset, fibers, bound: int) -> int:
    """The number of sections over the upsets of ``base`` with fibers of the
    given sizes, counted from the sizes alone and refused by
    :func:`errors.check_size` as soon as the running count passes ``bound``."""
    terms = ((fibers[p] for p in _bits(mask)) for mask in base._upsets())
    return check_size("section algebra", terms, bound)


def poset_sections_algebra(model: SurjectionModel, bound: int = 10000) -> Algebra:
    """Sections over the upsets of a poset base under the partial-function
    meet, join and top, with the arrow r→s = s|↑(dom s ∖ dom r).  That is
    derive_arrow's (s∨r∨s)→s in s↑: s∨r∨s = s|(dom r ∩ dom s), and among the
    restrictions of s to upsets the pseudocomplement of s|T is s restricted
    to the least upset holding dom s ∖ T; ``derive_arrow`` is its oracle."""
    if not isinstance(model.base, Poset):
        raise PreconditionFailed("poset_sections_algebra needs a poset base")
    P = model.base
    labels = _fiber_labels(model)
    section_model_size(P, [len(values) for values in labels], bound)
    below = [down & ~(1 << p) for p, down in enumerate(P._down_of_point)]
    return _Sections(labels, P.upset_masks, below).algebra()


# ---------------------------------------------------------------------------
# Upset lattices over finite posets


def upset_heyting(P: Poset, bound: int = 10000) -> Algebra:
    """The lattice of all upsets of a finite poset with intersection,
    union, and the implication U→V = X ∖ ↓(U∖V), verified by the exhaustive
    adjunction W∩U ⊆ V ⇔ W ⊆ U→V, which in a lattice admits one arrow only,
    so it fails first where the table first differs from that arrow."""
    from .heyting import adjunction_failure

    if P.n > 12:
        raise TooLarge("upset lattices are bounded at 12 poset points")
    check_size("upset lattice", [[len(P.upset_masks)]], bound)
    masks = np.array(P.upset_masks, dtype=np.int64)
    n, full = len(masks), (1 << P.n) - 1
    index = np.full(1 << P.n, -1, dtype=np.int64)  # mask -> element; upsets only
    index[masks] = np.arange(n)
    down = np.array([P.down(m) for m in range(1 << P.n)], dtype=np.int64)
    arrow_of_gap = index[full & ~down]  # U→V read off U∖V; X∖↓D is an upset
    a, b = masks[:, None], masks[None, :]
    meet, join, arrow = index[a & b], index[a | b], arrow_of_gap[a & ~b]
    names = tuple(P.subset_name(int(m)) for m in masks)
    L = make_algebra(names, meet, join, top=int(index[full]), bottom=int(index[0]), arrow=arrow)
    bad = adjunction_failure(L, np.arange(n), L.arrow)
    if bad is None:
        return L
    u, v = L.name_tuple(bad)
    raise EsakiaFormulaMismatch(
        f"complement-of-downset arrow disagrees with the Heyting arrow at ({u}, {v})", witness=bad
    )


# ---------------------------------------------------------------------------
# Skew Boolean induced algebras


def from_skew_boolean(A_sba: Algebra, diff_table) -> Algebra:
    """Turn a skew Boolean algebra upside down and read the implication off
    the difference: x→y = y∖x with the old bottom as the new top.

    The result is verified to satisfy the skew Heyting axioms and to agree
    with the derived arrow.
    """
    from .properties import check_skew_boolean
    from .skew_heyting import check_sh_axioms, derive_arrow

    outcome = check_skew_boolean(A_sba, diff_table)
    if not outcome:
        raise PreconditionFailed(f"not a skew Boolean algebra: {outcome.detail}", outcome.witness or ())
    result = vertical_dual(A_sba).with_arrow(np.asarray(diff_table).T)
    if not check_sh_axioms(result).all_hold() or not np.array_equal(derive_arrow(result), result.arrow):
        raise InconsistencyDetected(
            "difference-induced arrow fails the axioms or differs from the derived arrow"
        )
    return result


# ---------------------------------------------------------------------------
# Brute-force enumeration


def _idempotent_associative_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = []
    for combo in itertools.product(range(n), repeat=len(cells)):
        table = [[i] * n for i in range(n)]
        for (i, j), v in zip(cells, combo):
            table[i][j] = v
        ok = True
        for a in range(n):
            if not ok:
                break
            for b in range(n):
                tab = table[a][b]
                if any(table[tab][c] != table[a][table[b][c]] for c in range(n)):
                    ok = False
                    break
        if ok:
            found.append(tuple(tuple(row) for row in table))
    return found


def _new_class(buckets: dict[tuple, list[Algebra]], A: Algebra) -> bool:
    """Whether ``A`` is isomorphic to none of the algebras kept in
    ``buckets``; a new one is kept.  The kept algebras are bucketed by
    :func:`isomorphism_key`, and ``find_isomorphism`` compares ``A`` only
    with those in its own bucket."""
    kept = buckets.setdefault(isomorphism_key(A), [])
    if any(find_isomorphism(A, B) is not None for B in kept):
        return False
    kept.append(A)
    return True


def enumerate_skew_lattices(n: int):
    """All skew lattices on an n-element carrier up to isomorphism, by raw
    table enumeration; a generator in canonical order.  The bands run in
    lexicographic order, so the first (meet, join) pair of a class in
    product order is its least relabeling, and the one kept.  Bounded at
    n = 3, beyond which the model constructors, products and duals are the
    search substrate."""
    if n < 1:
        raise TooLarge("carrier must be nonempty")
    if n > 3:
        raise TooLarge("raw table enumeration is bounded at 3 elements")
    names = tuple("abc"[:n])
    bands = _idempotent_associative_tables(n)
    buckets: dict[tuple, list[Algebra]] = {}
    for meet, join in itertools.product(bands, bands):
        ok = all(
            meet[x][join[x][y]] == x
            and join[x][meet[x][y]] == x
            and join[meet[x][y]][y] == y
            and meet[join[x][y]][y] == y
            for x in range(n)
            for y in range(n)
        )
        if ok:
            A = make_algebra(names, meet, join)
            if _new_class(buckets, A):
                yield A


# ---------------------------------------------------------------------------
# Search substrate: a deterministic stream of (label, recipe) per family


def _reduct(construct, *args, **kwargs) -> Algebra:
    """The arrowless reduct of ``construct(*args, **kwargs)``."""
    return construct(*args, **kwargs).drop_arrow()


def _built(A: Algebra) -> Algebra:
    """The recipe of an instance that is already built: ``A`` itself."""
    return A


def _dual(build) -> Algebra:
    return vertical_dual(build())


def _pfn_pool(max_size: int, min_size: int = 2):
    out = []
    for nx in range(1, max_size.bit_length() + 1):
        for ny in itertools.count(1):
            size = (ny + 1) ** nx
            if size > max_size:
                break
            if size >= min_size:
                build = partial(_reduct, partial_function_algebra, nx, ny, bound=max_size)
                out.append((size, f"pfn({nx},{ny})", build))
    return out


def _section_pool(max_size: int):
    out = []
    for pts in range(1, 4):
        for i, base in enumerate(all_posets(pts)):
            for fibers in itertools.product((1, 2), repeat=pts):
                try:
                    size = section_model_size(base, fibers, max_size)
                except TooLarge:
                    continue
                model = SurjectionModel.from_fiber_sizes(base, fibers)
                label = f"sections(P{pts}#{i};{','.join(map(str, fibers))})"
                out.append((size, label, partial(_reduct, poset_sections_algebra, model, bound=max_size)))
    return out


def _enum_pool(max_size: int):
    raw = [
        (n, f"enum{n}#{i}", A)
        for n in range(1, min(3, max_size) + 1)
        for i, A in enumerate(enumerate_skew_lattices(n))
    ]
    pool = [(n, label, partial(_built, A)) for n, label, A in raw]
    for (sa, la, A), (sb, lb, B) in itertools.product(raw, raw):
        if sa > 1 and sb > 1 and sa * sb <= max_size:
            pool.append((sa * sb, f"prod({la},{lb})", partial(direct_product, A, B)))
    pool.extend(_pfn_pool(max_size, min_size=4))
    pool.extend((s, f"dual({label})", partial(_dual, build)) for s, label, build in list(pool))
    return pool


def search_family(family: str, max_size: int):
    """The (label, build) stream of a search family in (size, label) order.
    Each ``build`` is a picklable recipe: a :func:`functools.partial` of a
    module-level function that returns the instance's arrowless reduct, so
    whoever evaluates an instance builds it, a ``--jobs`` worker included,
    and the stream itself holds no tables.  Only the 'enum' family builds
    here: it skips an instance isomorphic to an earlier one, up to
    ISOMORPHISM_BOUND elements, by the bucketed comparison of
    :func:`_new_class`, and the recipe of a kept one returns the reduct
    already built; the key is cached per algebra.  ``max_size`` bounds every
    instance built; past the int16 carrier limit it is refused with TooLarge
    before any pool is built."""
    check_size("the largest search instance", [[max_size]], max_size)
    if family == "pfn":
        pool = _pfn_pool(max_size)
    elif family == "sections":
        pool = _section_pool(max_size)
    elif family == "enum":
        pool = _enum_pool(max_size)
    else:
        raise ValueError(f"unknown family {family!r}")
    pool.sort(key=lambda item: item[:2])
    buckets: dict[tuple, list[Algebra]] = {}
    for size, label, build in pool:
        if family == "enum" and size <= ISOMORPHISM_BOUND:
            alg = build()
            if not _new_class(buckets, alg):
                continue
            build = partial(_built, alg)
        yield label, build
