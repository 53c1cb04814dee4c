"""Seeded inputs and command lists for the four benchmark workloads.

Every algebra and poset file is built from the library, relabeled by a
permutation drawn from the seed, and round-tripped through the parser and
emitter before anything is timed.  Relabeling changes the order of the
carrier, never a verdict, a tuple count or an exit status, so the committed
expectations hold for every seed.  The program under test receives only the
files written here and the command arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from skewbench.cli import emit_algebra_file, parse_algebra_file, parse_poset_file
from skewbench.core import Algebra, make_algebra
from skewbench.models import (
    Poset,
    SurjectionModel,
    partial_function_algebra,
    poset_sections_algebra,
)

WORKLOADS = ("verify-deep", "classify-wide", "search-build", "error-paths")

# The memory-bound error op runs under this address-space cap; every other
# command gets the larger one, so no run can exhaust the machine.
SMALL_CAP_BYTES = 384 << 20
CAP_BYTES = 2 << 30
TIMEOUT_S = 120.0


class CorpusError(Exception):
    """A generated file does not survive the parse/emit round trip."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv`` holds ``{name}`` placeholders for the
    generated files, resolved against the run's work directory."""

    id: str
    argv: tuple[str, ...]
    cap_bytes: int = CAP_BYTES
    timeout_s: float = TIMEOUT_S
    # the traced run cannot see spans inside pool workers, so it runs this
    # op with these arguments instead (same expectation)
    traced_argv: tuple[str, ...] | None = None


def _chain_plus_point() -> Poset:
    # p < r < s, and q incomparable to all of them
    leq = np.eye(4, dtype=bool)
    for a, b in ((0, 2), (0, 3), (2, 3)):
        leq[a, b] = True
    return Poset(("p", "q", "r", "s"), leq)


def _five_point() -> Poset:
    # p < r, q < r, r < s, and t incomparable to all of them
    leq = np.eye(5, dtype=bool)
    for a, b in ((0, 2), (1, 2), (2, 3), (0, 3), (1, 3)):
        leq[a, b] = True
    return Poset(("p", "q", "r", "s", "t"), leq)


FIVE_POINT_FIBERS = (2, 1, 2, 1, 2)

N5_NAMES = ("0", "a", "b", "c", "1")
N5_MEET = [
    [0, 0, 0, 0, 0],
    [0, 1, 0, 1, 1],
    [0, 0, 2, 0, 2],
    [0, 1, 0, 3, 3],
    [0, 1, 2, 3, 4],
]
N5_JOIN = [
    [0, 1, 2, 3, 4],
    [1, 1, 4, 3, 4],
    [2, 4, 2, 4, 4],
    [3, 3, 4, 3, 4],
    [4, 4, 4, 4, 4],
]


def _n5() -> Algebra:
    """The nonmodular five-element lattice 0 < a < c < 1, 0 < b < 1."""
    return make_algebra(N5_NAMES, N5_MEET, N5_JOIN, top=4, bottom=0)


def _permutation(seed: int, label: str, n: int) -> list[int]:
    perm = list(range(n))
    random.Random(f"{seed}:{label}").shuffle(perm)
    return perm


def relabel_algebra(A: Algebra, perm) -> Algebra:
    """The isomorphic copy in which element i sits at position perm[i]."""
    p = np.asarray(perm, dtype=np.intp)
    inv = np.argsort(p)
    names = tuple(A.names[int(i)] for i in inv)

    def move(table):
        return None if table is None else p[np.asarray(table)][np.ix_(inv, inv)]

    return make_algebra(
        names,
        move(A.meet),
        move(A.join),
        top=None if A.top is None else int(p[A.top]),
        bottom=None if A.bottom is None else int(p[A.bottom]),
        arrow=move(A.arrow),
    )


def emit_poset_file(P: Poset) -> str:
    rows = [" ".join("1" if v else "0" for v in row) for row in P.leq]
    return "points: " + " ".join(P.points) + "\nleq:\n" + "\n".join(rows) + "\n"


def _algebra_text(A: Algebra) -> str:
    text = emit_algebra_file(A)
    back = parse_algebra_file(text)
    if back != A or emit_algebra_file(back) != text:
        raise CorpusError(f"algebra file with {A.n} elements does not round-trip")
    return text


def _poset_text(P: Poset) -> str:
    text = emit_poset_file(P)
    back = parse_poset_file(text)
    if back != P or emit_poset_file(back) != text:
        raise CorpusError(f"poset file with {P.n} points does not round-trip")
    return text


class Corpus:
    """Writes the seeded files of one workload into ``workdir``."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.files: dict[str, Path] = {}
        workdir.mkdir(parents=True, exist_ok=True)

    def _write(self, name: str, data: bytes) -> None:
        path = self.workdir / name
        path.write_bytes(data)
        self.files[name] = path

    def algebra(self, name: str, A: Algebra) -> Algebra:
        B = relabel_algebra(A, _permutation(self.seed, name, A.n))
        self._write(name, _algebra_text(B).encode())
        return B

    def poset(self, name: str, P: Poset, fibers) -> str:
        """Write the relabeled poset; returns ``fibers`` (one size per
        point) as the ``--fibers`` argument in the file's point order."""
        perm = _permutation(self.seed, name, P.n)
        inv = np.argsort(perm)
        Q = Poset(tuple(P.points[int(i)] for i in inv), P.leq[np.ix_(inv, inv)])
        self._write(name, _poset_text(Q).encode())
        return ",".join(str(fibers[int(i)]) for i in inv)

    def raw(self, name: str, data: bytes) -> None:
        self._write(name, data)


def build(workload: str, seed: int, workdir: Path) -> tuple[Corpus, list[Op]]:
    """Generate the workload's files and return them with its op list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    c = Corpus(seed, workdir)
    ops: list[Op] = []
    if workload == "verify-deep":
        c.algebra("pfn61.alg", partial_function_algebra(6, 1))
        c.algebra("pfn51.alg", partial_function_algebra(5, 1))
        model = SurjectionModel.from_fiber_sizes(_chain_plus_point(), (2, 2, 2, 2))
        c.algebra("sections4.alg", poset_sections_algebra(model))
        for f in ("pfn61", "pfn51", "sections4"):
            ops.append(Op(f"verify {f}", ("verify", "{%s.alg}" % f)))
            ops.append(Op(f"derive {f}", ("derive", "{%s.alg}" % f)))
    elif workload == "classify-wide":
        for x, y in ((4, 2), (3, 3), (2, 4)):
            f = f"pfn{x}{y}"
            c.algebra(f + ".alg", partial_function_algebra(x, y))
            ops.append(Op(f"check {f}", ("check", "{%s.alg}" % f)))
            ops.append(Op(f"derive {f}", ("derive", "{%s.alg}" % f)))
    elif workload == "search-build":
        c.algebra("pfn42.alg", partial_function_algebra(4, 2))
        fibers = c.poset("poset5.pos", _five_point(), FIVE_POINT_FIBERS)
        ops += [
            Op("model pfn 4 2", ("model", "pfn", "--x", "4", "--y", "2")),
            Op("model sections 3 3,2,2", ("model", "sections", "--base", "3", "--fibers", "3,2,2")),
            Op("model poset-sections poset5", ("model", "poset-sections", "{poset5.pos}", "--fibers", fibers)),
            Op("model upsets poset5", ("model", "upsets", "{poset5.pos}")),
        ]
        for rel in "DLR":
            ops.append(Op(f"quotient {rel} pfn42", ("quotient", "{pfn42.alg}", "--rel", rel)))
        ops += [
            Op(
                "search enum 12 not:symmetric",
                ("search", "--family", "enum", "--max-size", "12", "--property", "symmetric", "--negate"),
            ),
            Op(
                "search sections 40 not:symmetric",
                ("search", "--family", "sections", "--max-size", "40", "--property", "symmetric", "--negate"),
            ),
            Op(
                "search pfn 64 not:co-strongly-distributive",
                ("--jobs", "2", "search", "--family", "pfn", "--max-size", "64",
                 "--property", "co-strongly-distributive", "--negate"),
                traced_argv=("--jobs", "1", "search", "--family", "pfn", "--max-size", "64",
                             "--property", "co-strongly-distributive", "--negate"),
            ),
        ]
    else:  # error-paths
        small = partial_function_algebra(2, 1)
        c.algebra("pfn21.alg", small)
        text = _algebra_text(relabel_algebra(small, _permutation(seed, "unknown.alg", small.n)))
        head, sep, rest = text.partition("meet:\n")
        first, _, tail = rest.partition(" ")
        c.raw("unknown.alg", (head + sep + "nosuch " + tail).encode())
        c.raw("latin1.alg", b"# caf\xe9\n" + c.files["pfn21.alg"].read_bytes())
        c.algebra("n5.alg", _n5())
        ops += [
            Op("check unknown-element", ("check", "{unknown.alg}")),
            Op("check missing-file", ("check", "{missing.alg}")),
            Op("quotient --rel X", ("quotient", "{pfn21.alg}", "--rel", "X")),
            Op("search --property no-such", ("search", "--family", "pfn", "--max-size", "10", "--property", "no-such")),
            Op("derive n5", ("derive", "{n5.alg}")),
            Op("check non-utf8", ("check", "{latin1.alg}")),
            Op("model sections --fibers a,b", ("model", "sections", "--base", "2", "--fibers", "a,b")),
            Op("model pfn --x 0", ("model", "pfn", "--x", "0", "--y", "2")),
            Op("model sections wrong fiber count", ("model", "sections", "--base", "3", "--fibers", "2,2")),
            Op("--jobs 0 search", ("--jobs", "0", "search", "--family", "pfn", "--max-size", "10", "--property", "symmetric")),
            Op("search --max-size -3", ("search", "--family", "pfn", "--max-size", "-3", "--property", "symmetric")),
            Op(
                "--bound 1e8 model pfn 3 400",
                ("--bound", "100000000", "model", "pfn", "--x", "3", "--y", "400"),
                cap_bytes=SMALL_CAP_BYTES,
                timeout_s=60.0,
            ),
        ]
    return c, ops


def resolve(argv, workdir: Path) -> list[str]:
    """Replace ``{file}`` placeholders with paths in the work directory."""
    out = []
    for a in argv:
        if a.startswith("{") and a.endswith("}"):
            out.append(str(workdir / a[1:-1]))
        else:
            out.append(a)
    return out
