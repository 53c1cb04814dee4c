"""The earlier identity engines, kept as reference oracles.

:func:`run_check` is the chunked array path the workbench started from: the
whole tuple space as one broadcast evaluation when it has at most 2,000,000
tuples, else one evaluation per value of the first variable, each operation
a two-index gather.  It re-evaluates every subterm for every chunk and is
slow, but it is short and obviously exhaustive.

:func:`boxed_run_check` is the boxed engine that replaced it: boxes of at
most 2^16 tuples in lexicographic order, x-free subterms evaluated once per
range of y, whole-row gathers.  It visits every tuple of the space, so the
tests cross-check the library's image-compressed engine against it.
"""

import functools
from dataclasses import dataclass

import numpy as np

from skewbench.core import CheckResult
from skewbench.identities import Check

_CHUNK_LIMIT = 2_000_000


def _plain(value):
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _eval(term, tables, rels, varr):
    if isinstance(term, int):
        return varr[term]
    op = term[0]
    if op == "c":
        return tables[term[1]]
    a = _eval(term[1], tables, rels, varr)
    b = _eval(term[2], tables, rels, varr)
    if op == "eq":
        return a == b
    if op in ("leq", "pre"):
        return rels[op][a, b]
    return tables[op][a, b]


def _axes(n: int, count: int):
    out = []
    for i in range(count):
        shape = [1] * count
        shape[i] = n
        out.append(np.arange(n, dtype=np.intp).reshape(shape))
    return out


def _values_at(check: Check, tables, point, rels):
    return (
        _plain(_eval(check.lhs, tables, rels, point)),
        _plain(_eval(check.rhs, tables, rels, point)),
    )


def run_check(check: Check, tables, rels=None) -> CheckResult:
    rels = rels or {}
    n = tables["m"].shape[0]
    k = check.arity
    total = n**k

    def finish(witness):
        if witness is None:
            return CheckResult(check.name, True, None, total)
        lhs, rhs = _values_at(check, tables, witness, rels)
        return CheckResult(check.name, False, witness, total, lhs, rhs)

    if k == 0:
        lhs, rhs = _values_at(check, tables, (), rels)
        ok = bool(np.all(lhs == rhs))
        return CheckResult(check.name, ok, None if ok else (), 1, lhs, rhs)

    if total <= _CHUNK_LIMIT or k == 1:
        varr = _axes(n, k)
        lhs = _eval(check.lhs, tables, rels, varr)
        rhs = _eval(check.rhs, tables, rels, varr)
        mask = np.broadcast_to(lhs != rhs, (n,) * k)
        if not mask.any():
            return finish(None)
        flat = int(np.argmax(mask))
        return finish(tuple(int(v) for v in np.unravel_index(flat, (n,) * k)))

    tail = _axes(n, k - 1)
    for x0 in range(n):
        varr = [x0] + tail
        lhs = _eval(check.lhs, tables, rels, varr)
        rhs = _eval(check.rhs, tables, rels, varr)
        mask = np.broadcast_to(lhs != rhs, (n,) * (k - 1))
        if mask.any():
            flat = int(np.argmax(mask))
            rest = np.unravel_index(flat, (n,) * (k - 1))
            return finish((x0, *(int(v) for v in rest)))
    return finish(None)


# ---------------------------------------------------------------------------
# The boxed engine

_BOX = 1 << 16
_BOOL_OPS = ("leq", "pre")


@dataclass(frozen=True)
class _Plan:
    nodes: tuple
    variables: tuple[int, ...]
    free: tuple[int, ...]
    kept: tuple[int, ...]
    rest: tuple[int, ...]


@functools.cache
def _plan(check: Check) -> _Plan:
    nodes, seen = [], {}

    def visit(term) -> int:
        if term not in seen:
            if isinstance(term, int):
                node = ("v", term, None, 1 << term)
            elif term[0] == "c":
                node = ("c", term[1], None, 0)
            else:
                a, b = visit(term[1]), visit(term[2])
                node = (term[0], a, b, nodes[a][3] | nodes[b][3])
            seen[term] = len(nodes)
            nodes.append(node)
        return seen[term]

    visit(("ne", check.lhs, check.rhs))
    ops = [i for i, node in enumerate(nodes) if node[0] not in ("v", "c")]
    free = [i for i in ops if not nodes[i][3] & 1]
    rest = [i for i in ops if nodes[i][3] & 1]
    read = {operand for i in rest for operand in nodes[i][1:3]}
    return _Plan(
        tuple(nodes),
        tuple(seen[v] for v in range(check.arity)),
        tuple(free),
        tuple(i for i in free if i in read),
        tuple(rest),
    )


def _gather(table, a, b, a_last: bool, b_last: bool):
    if not isinstance(a, np.ndarray):
        return table[a].take(b)
    if not isinstance(b, np.ndarray):
        return table[:, b].take(a)
    if b_last and a.shape[-1] == 1:
        return table.take(a[..., 0], axis=0)
    if a_last and b.shape[-1] == 1:
        return table.T.take(b[..., 0], axis=0)
    return table.reshape(-1).take(a.astype(np.intp) * table.shape[1] + b)


def _evaluate(plan: _Plan, order, vals, tables, rels) -> None:
    last = plan.variables[-1]
    for i in order:
        op, a, b, _ = plan.nodes[i]
        if op == "ne":
            vals[i] = vals[a] != vals[b]
        elif op == "eq":
            vals[i] = vals[a] == vals[b]
        else:
            table = rels[op] if op in _BOOL_OPS else tables[op]
            vals[i] = _gather(table, vals[a], vals[b], a == last, b == last)


def _axis(values, i: int, k: int):
    shape = [1] * k
    shape[i] = -1
    return values.reshape(shape)


def _first_failure(check: Check, tables, rels, n: int):
    plan, k = _plan(check), check.arity
    vals = [tables[node[1]] if node[0] == "c" else None for node in plan.nodes]
    var = plan.variables
    every = np.arange(n, dtype=np.int16)
    for i in range(1, k):
        vals[var[i]] = _axis(every, i, k)
    if n ** (k - 1) <= _BOX:
        step = _BOX // n ** (k - 1)
        xs = [(lo, _axis(every[lo : lo + step], 0, k)) for lo in range(0, n, step)]
        ys = [(0, None)]
    else:
        step = max(1, _BOX // n ** (k - 2))
        xs = [(x, x) for x in range(n)]
        ys = [(lo, _axis(every[lo : lo + step], 1, k)) for lo in range(0, n, step)]
    reused: list[list] = []
    for x0, x in xs:
        vals[var[0]] = x
        for r, (y0, y) in enumerate(ys):
            if y is not None:
                vals[var[1]] = y
            if r < len(reused):
                for i, value in zip(plan.kept, reused[r]):
                    vals[i] = value
            else:
                _evaluate(plan, plan.free, vals, tables, rels)
                reused.append([vals[i] for i in plan.kept])
            _evaluate(plan, plan.rest, vals, tables, rels)
            mask = vals[-1]
            flat = int(mask.argmax())
            if mask.reshape(-1)[flat]:
                at = np.unravel_index(flat, mask.shape)
                return tuple(o + int(v) for o, v in zip([x0, y0] + [0] * k, at))
    return None


def boxed_run_check(check: Check, tables, rels=None) -> CheckResult:
    rels = rels or {}
    n = tables["m"].shape[0]
    k = check.arity
    if k == 0:
        lhs, rhs = _values_at(check, tables, (), rels)
        ok = bool(np.all(lhs == rhs))
        return CheckResult(check.name, ok, None if ok else (), 1, lhs, rhs)
    witness = _first_failure(check, tables, rels, n)
    if witness is None:
        return CheckResult(check.name, True, None, n**k)
    lhs, rhs = _values_at(check, tables, witness, rels)
    return CheckResult(check.name, False, witness, n**k, lhs, rhs)
