"""The identities of skew lattice theory, each written once as its formula,
and their vectorized evaluation over operation tables.

Formula grammar.  A formula is ``s=t``, or two relations joined by ``⇔``,
where a relation is ``s=t``, ``s≤t`` (natural order) or ``s⪯t`` (natural
preorder).  A term is a variable ``x y z w u v``, a constant ``0`` or ``1``,
a parenthesized term, or terms joined by one operator: ``∧`` (meet), ``∨``
(join), ``→`` (arrow), ``∖`` (difference) or ``∖∖`` (dual difference).  A
chain of one operator associates to the left (``x∧y∧z`` is ``(x∧y)∧z``), and
mixing operators needs parentheses.  A formula has at least one variable,
and they are numbered in the fixed order x y z w u v, skipping absent
ones, so ``(y∨x∨y)→y`` binds x to position 0 and y to position 1, and a
witness lists values in that order.  ``0`` and ``1`` are the algebra's
bottom and top, bound when the check runs.

The registry.  A property of :data:`GROUPS` holds when each of its formulas
holds, and a failure names the first failing formula; a verdict reported
under a short name (SH0, HA, imp-or, ...) maps to its formula in
:data:`NAMED`; a check may also be asked for by its formula.  To add an
identity, add its formula to the group it belongs to, or a new group or
name, and ask for it with :func:`run_identity` by that name and the
algebra, which binds from it every table the formula reads but a difference.

Deciders.  Five formulas have a decider, a decision procedure with a
theorem behind it, registered in :data:`DECIDERS` with the groups it needs,
which :func:`decide` runs through :func:`run_identity` on the algebra.
A decider is a pure function of the algebra alone, and reads only
maximal local lattices: ↑m for ≤-minimal m and ↓M for ≤-maximal M.  Every
↑x lies inside some ↑m and every ↓x inside some ↓M, and a law that holds
on a block holds on its sub-blocks.

On a skew lattice: a band is normal iff every local submonoid eSe is a
semilattice (Howie, *Fundamentals of Semigroup Theory*, 1995), and in a
skew lattice x∧S∧x is ↓x in the natural order (Leech, *Normal skew
lattices*, Semigroup Forum 44, 1992).  So normal (x∧y∧z∧w=x∧z∧y∧w) holds
iff every ↓M commutes under ∧, and conormal iff every ↑m commutes under ∨.
All ≤-minimal m lie in the bottom D-class (x∧b∧x < x for b in it and x
minimal outside it), all ≤-maximal M in the top one, and in a band x D y
gives xSx ≅ ySy through z ↦ yzy, so the first ↓M (↑m) decides, in |↓M|²
(|↑m|²) ≤ n² cells instead of n⁴ tuples.  Normal at (x, u, x, v∧x) gives
the meet half of regular, and conormal the join half.

On a co-strongly distributive skew lattice, for any arrow table: the two
co-strong laws give y∨(z∧w)∨y = (y∨z∨y)∧(y∨w∨y), and y∨S∨y = ↑y, so
SH4-prime says u→(a∧b) = (u→a)∧(u→b) for u, a, b each over ↑y, and it
holds iff it holds on (↑m)³ for every ≤-minimal m, which compares Σ|↑m|³
cells in boxes of at most 2^16; the isomorphism of the blocks need not
carry an arbitrary arrow, so every ↑m is read.

A decider only proves that a formula holds, and then gives the scan's
verdict: ``checked`` is n^k and ``evaluated`` the cells compared.  Where it
cannot, the formula is scanned, so every failing verdict and witness is the
scan's.  The formula stays the definition, and its scan the oracle for the
decider.

Verdicts.  The verdict of a formula of ∧ and ∨ alone, decided or scanned,
is cached on the algebra its tables are read from (:func:`run_identity`),
so it is computed once per algebra and its copies that keep meet and join;
this is the one cache of verdicts.  A formula that reads an arrow, a
difference, a relation or a constant is run afresh, since those copies may
differ there.

Evaluation.  A term parses to nested tuples over variable positions: an
``int`` is a variable, ``("c", k)`` the constant ``k``, ``(op, s, t)``
applies a binary table (``"m"``, ``"j"``, ``"r"``, ``"d"``, ``"dd"``) or a
boolean relation (``"leq"``, ``"pre"``), all read from the bound tables, and
``("eq", s, t)`` compares two value terms.  A check compares its two sides
over the full tuple space, in lexicographic order, and reports the first
failing tuple as its witness.

Images.  The frontier of a check is every subterm without the first
variable x that a subterm with x reads: x-free operations and bare
variables, constants left out.  The verdict at (x, y, ...) depends only on
x and the frontier's values there, its image, so it is enough to check x
against each distinct image once.  When the space needs more than one box
(below) and some variable after x is not in the frontier bare, the
frontier is evaluated over the space of the variables after x in boxes of
y-ranges, and the distinct images are kept, merged box by box, each with
the lexicographic index of its first occurrence.  Then x runs
over the images in boxes of x-ranges.  At the first x with a failing image,
the least first occurrence among its failing images gives the witness, so
it is the same tuple the plain scan finds.  The images are kept only while
they are at most a quarter of the frontier tuples seen: at the first box
where they are more, the check falls back to the plain boxes, so a check
the images do not shrink pays one box for trying.

Plain boxes.  The space is cut into boxes of at most 2^16 tuples: the whole
space if it fits, else a range of x with the other variables full, else one
value of x and a range of y (one such slice is a box even where it alone
holds more).  The scan stops at the first box with a failing tuple.  Each
distinct subterm is evaluated once per box, and one without x once per
range of y, then reused for every x.

A gather picks its form by operand shape: a single value of x takes its
table row once; an operand that is the last variable over its full axis,
paired with one constant along that axis, copies whole table rows (never
in the image scan, where a variable's column holds its values in the
images); any other pair takes flat indices.  ``checked`` counts the tuples
covered, n^k, and ``evaluated`` the tuples computed in the boxes scanned,
frontier and image boxes included.

Memory: every index array widened to intp spans at most one box, and the
reused x-free values hold at most n^(k-1) table cells each for k
variables.  The images need one int64 code each, the row in radix n and its
first occurrence, so at most a quarter of n^(k-1) codes plus one box; where
n^(f+k-1) overflows an int64 for f frontier nodes, the plain boxes run.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from .core import CheckResult, Record, coerce_table, leq_matrix, maximal_elements, minimal_elements, preceq_matrix
from .errors import PreconditionFailed
from .property_names import SKEW_AXIOMS

_BOX = 1 << 16  # tuples per evaluation box

GROUPS: dict[str, tuple[str, ...]] = {
    # the skew lattice axioms
    "meet-idempotent": ("x∧x=x",),
    "join-idempotent": ("x∨x=x",),
    "meet-associative": ("(x∧y)∧z=x∧(y∧z)",),
    "join-associative": ("(x∨y)∨z=x∨(y∨z)",),
    "absorption": ("x∧(x∨y)=x", "x∨(x∧y)=x", "(x∧y)∨y=y", "(x∨y)∧y=y"),
    # the classified properties
    "equivalence-pair": ("x∧y=x ⇔ x∨y=y", "x∧y=y ⇔ x∨y=x"),
    "regular": ("x∧u∧x∧v∧x=x∧u∧v∧x", "x∨u∨x∨v∨x=x∨u∨v∨x"),
    "rectangular": ("x∧y∧z=x∧z", "x∨y∨z=x∨z"),
    "strongly-distributive": ("x∧(y∨z)=(x∧y)∨(x∧z)", "(x∨y)∧z=(x∧z)∨(y∧z)"),
    "co-strongly-distributive": ("x∨(y∧z)=(x∨y)∧(x∨z)", "(x∧y)∨z=(x∨z)∧(y∨z)"),
    "distributive": ("x∧(y∨z)∧x=(x∧y∧x)∨(x∧z∧x)", "x∨(y∧z)∨x=(x∨y∨x)∧(x∨z∨x)"),
    "symmetric": ("x∧y=y∧x ⇔ x∨y=y∨x",),
    "conormal": ("x∨y∨z∨w=x∨z∨y∨w",),
    "normal": ("x∧y∧z∧w=x∧z∧y∧w",),
    # the differences of skew Boolean and dual skew Boolean algebras
    "skew-boolean-identities": (
        "(x∧y∧x)∨(x∖y)=x",
        "(x∖y)∨(x∧y∧x)=x",
        "(x∧y∧x)∧(x∖y)=0",
        "(x∖y)∧(x∧y∧x)=0",
    ),
    "dual-skew-boolean-identities": (
        "(y∨x∨y)∨(y∖∖x)=1",
        "(y∖∖x)∨(y∨x∨y)=1",
        "(y∨x∨y)∧(y∖∖x)=y",
        "(y∖∖x)∧(y∨x∨y)=y",
    ),
    # the skew Heyting axioms
    "SH3": ("y∧(x→y)=y", "(x→y)∧y=y"),
}
# the two distributive laws of a lattice, such as S/D
GROUPS["lattice-distributive"] = tuple(
    GROUPS[name][0] for name in ("strongly-distributive", "co-strongly-distributive")
)

NAMED: dict[str, str] = {
    "SH0": "x→y=(y∨x∨y)→y",
    "SH1": "x→x=1",
    "SH2": "x∧(x→y)∧x=x∧y∧x",
    "SH4": "x→(y∨(z∧w)∨y)=(x→(y∨z∨y))∧(x→(y∨w∨y))",
    "SH4-prime": "(y∨x∨y)→(y∨(z∧w)∨y)=((y∨x∨y)→(y∨z∨y))∧((y∨x∨y)→(y∨w∨y))",
    "SHA": "x⪯y→z ⇔ x∧y⪯z",
    "imp-or": "(x∨y∨x)→z=(x→z)∧(y→z)∧(x→z)",
    "H2": "x∧(x→y)=x∧y",
    "H4": "x→(y∧z)=(x→y)∧(x→z)",
    "HA": "x∧y≤z ⇔ x≤y→z",
    "arrow-join-reduction": "x→y=(x∨y)→y",
}
# the Heyting axioms H1 and H3 are SH1 and the first half of SH3
NAMED.update(H1=NAMED["SH1"], H3=GROUPS["SH3"][0])

_VARS = "xyzwuv"
_OPS = {"∧": "m", "∨": "j", "→": "r", "∖": "d", "∖∖": "dd"}
_RELS = {"=": "eq", "≤": "leq", "⪯": "pre"}
_TOKEN = re.compile(r"∖∖|\S")


class Check(Record):
    """A single universally quantified (in)equation."""

    __slots__ = ("name", "arity", "lhs", "rhs")

    def __init__(self, name: str, arity: int, lhs: object, rhs: object):
        self._init(name, arity, lhs, rhs)


class _Parser:
    """Recursive descent over the tokens of one formula; ``pos`` is the
    next token."""

    def __init__(self, formula: str):
        self.formula = formula
        self.tokens = _TOKEN.findall(formula)
        self.variables = [v for v in _VARS if v in self.tokens]
        self.pos = 0

    def more(self) -> bool:
        return self.pos < len(self.tokens)

    def take(self, expected=None) -> str:
        tok = self.tokens[self.pos] if self.more() else None
        if tok is None or expected not in (None, tok):
            raise ValueError(f"{self.formula!r}: expected {expected or 'a term'} at token {self.pos}")
        self.pos += 1
        return tok

    def atom(self):
        tok = self.take()
        if tok == "(":
            inner = self.term()
            self.take(")")
            return inner
        if tok in self.variables:
            return self.variables.index(tok)
        if tok in ("0", "1"):
            return ("c", tok)
        raise ValueError(f"{self.formula!r}: unexpected {tok!r} at token {self.pos - 1}")

    def term(self):
        out, op = self.atom(), None
        while self.more() and self.tokens[self.pos] in _OPS:
            tok = self.take()
            if op not in (None, tok):
                raise ValueError(f"{self.formula!r}: {op} and {tok} mixed without parentheses")
            op = tok
            out = (_OPS[op], out, self.atom())
        return out

    def relation(self):
        lhs = self.term()
        rel = self.take()
        if rel not in _RELS:
            raise ValueError(f"{self.formula!r}: expected a relation, found {rel!r}")
        return (_RELS[rel], lhs, self.term())


def parse(formula: str, name: str | None = None) -> Check:
    """The check a formula states, reported as ``name`` (default: the formula)."""
    p = _Parser(formula)
    rel, lhs, rhs = p.relation()
    if p.more() and p.take("⇔"):
        lhs, rhs = (rel, lhs, rhs), p.relation()
    elif rel != "eq":
        raise ValueError(f"{formula!r}: a single relation must be an equation")
    if p.more():
        raise ValueError(f"{formula!r}: trailing {p.tokens[p.pos]!r}")
    if not p.variables:
        raise ValueError(f"{formula!r}: no variable to quantify over")
    return Check(name or formula, len(p.variables), lhs, rhs)


@functools.cache
def named_check(name: str) -> Check:
    """The check reported as ``name``: a name in :data:`NAMED`, or a formula."""
    return parse(NAMED.get(name, name), name)


def bind(A, *, d=None, dd=None) -> dict:
    """The tables a check reads on algebra ``A``: its meet, join and arrow,
    the differences ``d`` and ``dd`` where given, which no algebra carries,
    and the constants ``0`` and ``1`` where ``A`` declares them.  Every
    other table is ``A``'s own: to bind another arrow, bind
    ``A.with_arrow(arrow)``."""
    tables = A.tables()
    tables.update((k, np.ascontiguousarray(t)) for k, t in (("d", d), ("dd", dd)) if t is not None)
    for const, value in (("0", A.bottom), ("1", A.top)):
        if value is not None:
            tables[const] = value
    return tables


class _Plan(Record):
    """The nodes of ``lhs != rhs``, each distinct subterm once, children
    first: ``(op, a, b, uses)`` with ``a``/``b`` the operand nodes (the
    variable for ``"v"``, the constant for ``"c"``) and ``uses`` the bit set
    of the variables below the node.  ``free`` lists the operation nodes
    without the first variable, ``rest`` the operations with it, and
    ``frontier`` the nodes without it that one of ``rest`` reads, constants
    left out; the last node is the mask."""

    __slots__ = ("nodes", "variables", "free", "frontier", "rest")

    def __init__(
        self,
        nodes: tuple,
        variables: tuple[int, ...],
        free: tuple[int, ...],
        frontier: tuple[int, ...],
        rest: tuple[int, ...],
    ):
        self._init(nodes, variables, free, frontier, rest)


def _visit(term, nodes: list, seen: dict) -> int:
    """The node of ``term`` in ``nodes``, appended after its operands' nodes
    where ``seen`` (term -> node) does not have it yet."""
    if term not in seen:
        if isinstance(term, int):
            node = ("v", term, None, 1 << term)
        elif term[0] == "c":
            node = ("c", term[1], None, 0)
        else:
            a, b = _visit(term[1], nodes, seen), _visit(term[2], nodes, seen)
            node = (term[0], a, b, nodes[a][3] | nodes[b][3])
        seen[term] = len(nodes)
        nodes.append(node)
    return seen[term]


@functools.cache
def _plan(check: Check) -> _Plan:
    nodes, seen = [], {}
    _visit(("ne", check.lhs, check.rhs), nodes, seen)
    ops = [i for i, node in enumerate(nodes) if node[0] not in ("v", "c")]
    rest = [i for i in ops if nodes[i][3] & 1]
    read = {operand for i in rest for operand in nodes[i][1:3]}
    return _Plan(
        tuple(nodes),
        tuple(seen[v] for v in range(check.arity)),
        tuple(i for i in ops if not nodes[i][3] & 1),
        tuple(i for i in sorted(read) if nodes[i][0] != "c" and not nodes[i][3] & 1),
        tuple(rest),
    )


def values_at(check: Check, tables, point) -> tuple:
    """The values of both sides of ``check`` at one tuple of elements, as
    plain ints or bools."""
    plan = _plan(check)
    vals = [tables[node[1]] if node[0] == "c" else None for node in plan.nodes]
    for i, value in zip(plan.variables, point):
        vals[i] = value
    _evaluate(plan, plan.free + plan.rest, vals, tables, None)
    _, lhs, rhs, _ = plan.nodes[-1]
    return tuple(v.item() if isinstance(v, np.generic) else v for v in (vals[lhs], vals[rhs]))


def _gather(table, a, b, a_last: bool, b_last: bool):
    """``table[a, b]`` for index values that broadcast over one box; a flag
    marks an operand that is the last variable over its full axis."""
    if not isinstance(a, np.ndarray):
        return table[a].take(b)
    if not isinstance(b, np.ndarray):
        return table[:, b].take(a)
    if b_last and a.shape[-1] == 1:
        return table.take(a[..., 0], axis=0)
    if a_last and b.shape[-1] == 1:
        return table.T.take(b[..., 0], axis=0)
    return table.reshape(-1).take(a.astype(np.intp) * table.shape[1] + b)


def _evaluate(plan: _Plan, order, vals, tables, last) -> None:
    """Evaluate the nodes ``order`` into ``vals``; ``last`` is the node of
    the last variable where it spans its full axis, else None."""
    for i in order:
        op, a, b, _ = plan.nodes[i]
        if op == "ne":
            vals[i] = vals[a] != vals[b]
        elif op == "eq":
            vals[i] = vals[a] == vals[b]
        else:
            vals[i] = _gather(tables[op], vals[a], vals[b], a == last, b == last)


def _axis(values, i: int, k: int):
    shape = [1] * k
    shape[i] = -1
    return values.reshape(shape)


def _y_ranges(every, n: int, k: int) -> list:
    """Ranges of y, each with the variables after it full, of at most _BOX
    tuples, else of one y."""
    step = max(1, _BOX // n ** (k - 2))
    return [(lo, _axis(every[lo : lo + step], 1, k)) for lo in range(0, n, step)]


def _use_images(plan: _Plan, n: int, k: int) -> bool:
    """Whether to try the images: the space needs more than one box, some
    variable after x is not in the frontier bare (else every image is its
    own tuple), and the codes fit an int64."""
    return (
        n**k > _BOX
        and not set(plan.variables[1:]) <= set(plan.frontier)
        and n ** (len(plan.frontier) + k - 1) < 1 << 63
    )


def _images(plan: _Plan, vals, tables, every, k: int):
    """The distinct rows of frontier values over the space of the variables
    after x, as the sorted codes ``key * n^(k-1) + first``: ``key`` reads the
    row in radix n, and ``first`` is the lexicographic index of its first
    occurrence, the least in its run of equal keys.  Also the tuples
    evaluated; the codes are None once the rows are more than a quarter of
    the tuples seen."""
    vals, n = list(vals), every.size
    radix = np.int64(n) ** np.arange(len(plan.frontier), dtype=np.int64)
    size = n ** (k - 1)
    codes = np.zeros(0, dtype=np.int64)
    seen = 0
    for y0, y in _y_ranges(every, n, k):
        vals[plan.variables[1]] = y
        _evaluate(plan, plan.free, vals, tables, plan.variables[-1])
        box = np.zeros((1, y.size) + (n,) * (k - 2), dtype=np.int64)
        for i, r in zip(plan.frontier, radix):
            box += r * vals[i]
        box *= size
        box += np.arange(seen, seen + box.size).reshape(box.shape)
        seen += box.size
        codes = np.concatenate([codes, box.reshape(-1)])
        codes.sort()
        keys = codes // size
        codes = codes[np.concatenate([[True], keys[1:] != keys[:-1]])]
        if 4 * codes.size > seen:
            return None, seen
    return codes, seen


def _scan_images(plan: _Plan, vals, tables, every, k: int, codes):
    """The first failing tuple over x × the distinct frontier images, and
    the tuples evaluated.  A failing image is reported by its first
    occurrence, so the tuple is the lexicographically first failing one."""
    n = every.size
    keys, first = np.divmod(codes, n ** (k - 1))
    for j, i in enumerate(plan.frontier):
        vals[i] = (keys // n**j % n).reshape(1, -1)
    step = max(1, _BOX // keys.size)
    evaluated = 0
    for lo in range(0, n, step):
        xs = every[lo : lo + step]
        vals[plan.variables[0]] = xs.reshape(-1, 1)
        _evaluate(plan, plan.rest, vals, tables, None)
        evaluated += xs.size * keys.size
        mask = np.broadcast_to(vals[-1], (xs.size, keys.size))
        hit = mask.any(axis=1)
        if hit.any():
            x = int(hit.argmax())
            at = np.unravel_index(int(first[mask[x]].min()), (n,) * (k - 1))
            return (lo + x, *(int(v) for v in at)), evaluated
    return None, evaluated


def _first_failure(check: Check, tables, n: int):
    """The lexicographically first tuple where the sides of ``check``
    differ, or None, and the tuples evaluated."""
    plan, k = _plan(check), check.arity
    vals = [tables[node[1]] if node[0] == "c" else None for node in plan.nodes]
    var = plan.variables
    every = np.arange(n, dtype=np.int16)
    for i in range(1, k):
        vals[var[i]] = _axis(every, i, k)
    evaluated = 0
    if _use_images(plan, n, k):
        codes, evaluated = _images(plan, vals, tables, every, k)
        if codes is not None:
            witness, scanned = _scan_images(plan, vals, tables, every, k, codes)
            return witness, evaluated + scanned
    # boxes: ranges of x with the rest full, else one x and a range of y
    if n ** (k - 1) <= _BOX:
        step = _BOX // n ** (k - 1)
        xs = [(lo, _axis(every[lo : lo + step], 0, k)) for lo in range(0, n, step)]
        ys = [(0, None)]
    else:
        xs = [(x, x) for x in range(n)]
        ys = _y_ranges(every, n, k)
    reused: list[list] = []  # per range of y, the values of plan.frontier
    for x0, x in xs:
        vals[var[0]] = x
        for r, (y0, y) in enumerate(ys):
            if y is not None:
                vals[var[1]] = y
            if r < len(reused):
                for i, value in zip(plan.frontier, reused[r]):
                    vals[i] = value
            else:
                _evaluate(plan, plan.free, vals, tables, var[-1])
                reused.append([vals[i] for i in plan.frontier])
            _evaluate(plan, plan.rest, vals, tables, var[-1])
            mask = vals[-1]
            evaluated += mask.size
            flat = int(mask.argmax())
            if mask.reshape(-1)[flat]:
                at = np.unravel_index(flat, mask.shape)
                witness = tuple(o + int(v) for o, v in zip([x0, y0] + [0] * k, at))
                return witness, evaluated
    return None, evaluated


def run_check(check: Check, tables) -> CheckResult:
    """Evaluate a check exhaustively in lexicographic order, and stop at the
    first failing tuple; ``checked`` counts the tuples covered and
    ``evaluated`` the tuples the engine computed to cover them."""
    n, k = tables["m"].shape[0], check.arity
    witness, evaluated = _first_failure(check, tables, n)
    if witness is None:
        return CheckResult(check.name, True, None, n**k, evaluated=evaluated)
    lhs, rhs = values_at(check, tables, witness)
    return CheckResult(check.name, False, witness, n**k, lhs, rhs, evaluated=evaluated)


def _commutes_on(table, row) -> int | None:
    """|m|², the cells compared, where ``table`` commutes on the set m that
    the boolean ``row`` marks, else None."""
    members = np.flatnonzero(row)
    block = table[np.ix_(members, members)]
    return members.size**2 if np.array_equal(block, block.T) else None


def _downsets_commute(A) -> int | None:
    """|↓M|² for the first ≤-maximal M where ↓M commutes under ∧, else None."""
    return _commutes_on(A.meet, leq_matrix(A)[:, maximal_elements(A)[0]])


def _upsets_commute(A) -> int | None:
    """|↑m|² for the first ≤-minimal m where ↑m commutes under ∨, else None."""
    return _commutes_on(A.join, leq_matrix(A)[minimal_elements(A)[0]])


def _arrow_meets_on_minimal_upsets(A) -> int | None:
    """Σ|↑m|³ over the ≤-minimal m where u→(a∧b) = (u→a)∧(u→b) for all u,
    a, b in every ↑m, else None, as without an arrow.  Each ↑m is compared
    in boxes of at most _BOX cells: a range of pairs (u, a) with every b."""
    leq, meet, arrow = leq_matrix(A), A.meet, A.arrow
    if arrow is None:
        return None
    n, cells = A.n, 0
    for m in minimal_elements(A):
        U = np.flatnonzero(leq[m])
        s = U.size
        meets = meet[np.ix_(U, U)]  # [a, b] = a∧b
        into = arrow[np.ix_(U, U)]  # [u, a] = u→a
        step = max(1, _BOX // s)
        for lo in range(0, s * s, step):
            u, a = np.divmod(np.arange(lo, min(lo + step, s * s)), s)
            lhs = arrow[U[u, None], meets[a]]  # [(u, a), b] = u→(a∧b)
            rhs = meet.reshape(-1).take(into[u, a, None].astype(np.intp) * n + into[u])  # (u→a)∧(u→b)
            if not np.array_equal(lhs, rhs):
                return None
        cells += s**3
    return cells


_DOWNSETS = (SKEW_AXIOMS, _downsets_commute)
_UPSETS = (SKEW_AXIOMS, _upsets_commute)

# formula -> (the groups its algebra must satisfy, its decider); normal and
# conormal hold iff one ↓M (↑m) commutes, all of them being isomorphic, and
# imply the meet (join) half of regular; SH4-prime holds iff the arrow
# preserves meets on every ↑m
DECIDERS = {
    GROUPS["normal"][0]: _DOWNSETS,
    GROUPS["regular"][0]: _DOWNSETS,
    GROUPS["conormal"][0]: _UPSETS,
    GROUPS["regular"][1]: _UPSETS,
    NAMED["SH4-prime"]: (SKEW_AXIOMS + ("co-strongly-distributive",), _arrow_meets_on_minimal_upsets),
}


def decide(name: str, A) -> CheckResult | None:
    """The verdict the scan gives the check reported as ``name`` (as in
    :func:`named_check`) on ``A``, where ``A`` has every group the
    formula's decider needs and the decider proves, from ``A``'s own
    tables, that the formula holds, with ``evaluated`` the cells the
    decider compared; else None."""
    needs, decider = DECIDERS.get(NAMED.get(name, name), ((), None))
    if decider is None or not all(run_identity(need, A) for need in needs):
        return None
    cells = decider(A)
    if cells is None:
        return None
    check = named_check(name)
    return CheckResult(check.name, True, None, A.n**check.arity, evaluated=cells)


# what a formula may read that an algebra may lack; no algebra carries a difference
_LACKED = {"r": "arrow", "d": "difference", "dd": "dual difference", "0": "bottom", "1": "top"}


def _verdict(name: str, check: Check, A, ops: dict, reads: set) -> CheckResult:
    tables = bind(A, **ops)
    # ≤ and ⪯ only where read: a search that asks one law of many instances builds neither
    tables.update((rel, fact(A)) for rel, fact in (("leq", leq_matrix), ("pre", preceq_matrix)) if rel in reads)
    missing = reads - tables.keys()
    if missing:
        what = " and ".join(f"the {_LACKED[k]}" for k in sorted(missing))
        raise PreconditionFailed(f"{name} reads {what}, and none is bound")
    return decide(name, A) or run_check(check, tables)  # a decided verdict holds, so it is true


def _run_formula(name: str, A, ops: dict) -> CheckResult:
    check = named_check(name)
    # the tables and constants the formula reads, named as in bind
    reads = {node[1] if node[0] == "c" else node[0] for node in _plan(check).nodes} - {"v", "eq", "ne"}
    if reads <= {"m", "j"}:  # ∧ and ∨ alone
        return A.cached(f"verdict:{name}", lambda: _verdict(name, check, A, ops, reads))
    return _verdict(name, check, A, ops, reads)


def run_identity(name: str, A, **ops) -> CheckResult:
    """Evaluate the group or the check reported as ``name`` on ``A``.  A
    group stops at its first failing formula and names it in the detail field.

    A formula reads meet, join, arrow, 0, 1, ≤ and ⪯ from ``A``; ``ops`` gives
    only the differences ``d=`` and ``dd=``, refused as a table of
    :func:`core.make_algebra` is, and what nothing binds raises
    PreconditionFailed.  A formula of :data:`DECIDERS` is decided where
    :func:`decide` proves it, and scanned otherwise, and the verdict of a
    formula of ∧ and ∨ alone is cached on ``A``."""
    if not ops.keys() <= {"d", "dd"}:
        raise TypeError(f"run_identity takes only d= and dd= as ops, not {sorted(ops.keys() - {'d', 'dd'})}")
    ops = {k: coerce_table(t, A.names, _LACKED[k]) for k, t in ops.items()}
    if name not in GROUPS:
        return _run_formula(name, A, ops)
    checked = evaluated = 0
    for formula in GROUPS[name]:
        res = _run_formula(formula, A, ops)
        checked += res.checked
        evaluated += res.evaluated
        if not res.holds:
            return res.replace(name=name, checked=checked, detail=formula, evaluated=evaluated)
    return CheckResult(name, True, None, checked, evaluated=evaluated)
