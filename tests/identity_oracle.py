"""The chunked identity engine, kept as the reference oracle.

This is the array path the workbench started from: the whole tuple space
as one broadcast evaluation when it has at most 2,000,000 tuples, else one
evaluation per value of the first variable, each operation a two-index
gather.  It re-evaluates every subterm for every chunk and is slow, but it
is short and obviously exhaustive, so the tests cross-check the library's
boxed engine against it.
"""

import numpy as np

from skewbench.identities import Check, CheckResult

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
