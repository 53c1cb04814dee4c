"""Batch interface: the algebra and poset file formats, subcommands for
checking, deriving, quotienting, model generation and counterexample search,
and a deterministic report format.

Both file formats are read by one section reader, so they share one set of
rules: sections in a fixed order, declared names unique, and every refusal
at a line and, for a table cell, a column.  ``verify`` and ``derive`` decide
whether the arrow can be derived by the one precondition of ``derive_arrow``
and report a failure with the same entry.

Exit statuses: 0 all verdicts hold, 1 a checked property fails (witness in
the report), 2 usage or parse error, 3 internal inconsistency (a verified
theorem failed, or any other unexpected exception: a workbench bug).  Reports are byte-identical
across runs and across ``--jobs`` settings.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from collections import deque
from functools import partial
from itertools import islice, repeat
from typing import TYPE_CHECKING

# Only light stdlib modules and ``errors`` load here: every refusal of a bad
# argument or input, an oversized model included, happens before a command
# imports the numeric layers it runs, and a module that only some paths use
# (the built-in SHA-256, traceback) is imported where it is used.
from .errors import (
    BadConstant,
    BadPoset,
    InconsistencyDetected,
    MalformedTable,
    ParseError,
    PreconditionFailed,
    SkewbenchError,
    TooLarge,
    check_size,
)

if TYPE_CHECKING:
    import numpy as np

    from .core import Algebra, CheckResult
    from .models import Poset

VERSION = "skewbench 0.1.0"

_EXIT_PASS, _EXIT_FAIL, _EXIT_USAGE, _EXIT_INCONSISTENT = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# Algebra and poset documents


class _Sections:
    """The significant lines of a sectioned document (blank and ``#`` lines
    skipped), read front to back.  Every refusal is a ParseError at a line
    and, for a table cell, at its column."""

    def __init__(self, text: str):
        lines = enumerate(text.splitlines(), start=1)
        self.lines = [(lineno, raw) for lineno, raw in lines if raw.strip()[:1] not in ("", "#")]
        self.pos = 0

    def _last_line(self) -> int:
        return self.lines[-1][0] if self.lines else 1

    def peek(self) -> str | None:
        """The name of the next section, or None at the end."""
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos][1].partition(":")[0].strip()

    def header(self, section: str) -> tuple[int, list[str]]:
        """The line of the ``section:`` header and the words after its colon."""
        found = self.peek()
        if found is None:
            raise ParseError(self._last_line(), 1, f"missing section {section + ':'!r}")
        lineno, raw = self.lines[self.pos]
        if found != section:
            raise ParseError(lineno, 1, f"expected section {section + ':'!r}, found {found!r}")
        self.pos += 1
        return lineno, raw.partition(":")[2].split()

    def names(self, section: str) -> list[str]:
        """The header's names: at least one, each once, and none starting
        with ``#``, which would make a table row it leads a comment."""
        lineno, names = self.header(section)
        if not names:
            raise ParseError(lineno, 1, f"no {section} declared")
        seen: set[str] = set()
        for name in names:
            if name in seen or name.startswith("#"):
                why = "is declared twice" if name in seen else "starts with '#'"
                raise ParseError(lineno, 1, f"name {name!r} {why}")
            seen.add(name)
        return names

    def table(self, section: str, n: int, cells: dict, what: str) -> list[list]:
        """The ``n`` rows of ``n`` words under a bare ``section:`` header,
        each word replaced by its value in ``cells``."""
        lineno, inline = self.header(section)
        if inline:
            raise ParseError(lineno, 1, f"{section}: rows must start on the following line")
        rows = []
        for rowno, raw in self.lines[self.pos : self.pos + n]:
            words = raw.split()
            if len(words) != n:
                raise ParseError(rowno, 1, f"row has {len(words)} entries, expected {n}")
            try:
                rows.append([cells[w] for w in words])
            except KeyError:
                # str.split and \S+ cut at the same code points, so the
                # unknown word is found again with its column
                word = next(m for m in re.finditer(r"\S+", raw) if m[0] not in cells)
                raise ParseError(rowno, word.start() + 1, f"unknown {what} {word[0]!r}") from None
        if len(rows) < n:
            raise ParseError(self._last_line(), 1, f"{section}: table is missing rows")
        self.pos += n
        return rows

    def end(self) -> None:
        """Refuse any line after the last section."""
        if self.pos < len(self.lines):
            lineno, raw = self.lines[self.pos]
            raise ParseError(lineno, 1, f"unexpected content {raw.strip()!r}")


def parse_algebra_file(text: str) -> Algebra:
    """Parse the sectioned algebra document: ``elements:``, ``meet:``,
    ``join:``, then optional ``arrow:``, ``top:``, ``bottom:``."""
    doc = _Sections(text)
    names = doc.names("elements")
    lookup = {name: i for i, name in enumerate(names)}
    meet, join = (doc.table(section, len(names), lookup, "element") for section in ("meet", "join"))
    arrow = doc.table("arrow", len(names), lookup, "element") if doc.peek() == "arrow" else None

    def constant(section: str) -> str:
        lineno, words = doc.header(section)
        if len(words) != 1:
            raise ParseError(lineno, 1, f"{section}: wants exactly one element name")
        if words[0] not in lookup:
            raise ParseError(lineno, 1, f"unknown element {words[0]!r}")
        return words[0]

    top = constant("top") if doc.peek() == "top" else None
    bottom = constant("bottom") if doc.peek() == "bottom" else None
    doc.end()
    from .core import make_algebra

    return make_algebra(names, meet, join, top=top, bottom=bottom, arrow=arrow)


def _table_lines(A: Algebra, label: str, table: np.ndarray) -> list[str]:
    """A ``label`` line, then one line of element names per table row."""
    return [label, *(" ".join(A.names[int(v)] for v in row) for row in table)]


def emit_algebra_file(A: Algebra) -> str:
    out = ["elements: " + " ".join(A.names)]
    out += _table_lines(A, "meet:", A.meet) + _table_lines(A, "join:", A.join)
    if A.arrow is not None:
        out += _table_lines(A, "arrow:", A.arrow)
    if A.top is not None:
        out.append(f"top: {A.names[A.top]}")
    if A.bottom is not None:
        out.append(f"bottom: {A.names[A.bottom]}")
    return "\n".join(out) + "\n"


def parse_poset_file(text: str) -> Poset:
    """Parse ``points:`` followed by ``leq:`` rows of 0/1."""
    doc = _Sections(text)
    points = doc.names("points")
    rows = doc.table("leq", len(points), {"0": False, "1": True}, "relation entry")
    doc.end()
    from .models import Poset

    return Poset(tuple(points), rows)


# ---------------------------------------------------------------------------
# Reports


# Plain mutable classes, not ``core.Record``s: ``core`` loads numpy, which a
# refused request never does.  Nothing on a command's path is a dataclass,
# whose definition ``exec``s each generated method in every process.


class ReportEntry:
    """One report line: a check's verdict, its witness and evaluated sides."""

    def __init__(
        self,
        name: str,
        verdict: str,
        witness: tuple[str, ...] = (),
        checked: int | None = None,
        lhs: str | None = None,
        rhs: str | None = None,
        detail: str = "",
        unit: str = "tuples",
    ):
        self.name, self.verdict, self.witness, self.checked = name, verdict, witness, checked
        self.lhs, self.rhs, self.detail, self.unit = lhs, rhs, detail, unit


class Report:
    """Deterministic, diffable record of one command run."""

    def __init__(
        self,
        command: str,
        input_digest: str,
        entries: list[ReportEntry] | None = None,
        payload: str = "",
        overall: str = "PASS",
    ):
        self.command, self.input_digest = command, input_digest
        self.entries = [] if entries is None else entries
        self.payload, self.overall = payload, overall

    def add(self, entry: ReportEntry) -> None:
        self.entries.append(entry)

    def settle(self, gating: set[str] | None = None) -> None:
        """Compute the overall verdict; with ``gating`` only those entries
        decide, everything else is informational classification."""
        relevant = [
            e for e in self.entries if (gating is None or e.name in gating) and e.verdict != "skipped"
        ]
        if any(e.verdict == "fails" for e in relevant):
            self.overall = "FAIL"


def _entry_tokens(e: ReportEntry) -> list[str]:
    parts = [f"name={e.name}", f"verdict={e.verdict}"]
    if e.checked is not None:
        parts.append(f"checked={e.checked}")
    if e.witness:
        parts.append("witness=" + ",".join(e.witness))
    if e.lhs is not None:
        parts.append(f"lhs={e.lhs}")
    if e.rhs is not None:
        parts.append(f"rhs={e.rhs}")
    if e.detail:
        parts.append(f"detail={e.detail.replace(' ', '_')}")
    return parts


def emit_report(report: Report, fmt: str = "text") -> bytes:
    lines: list[str] = []
    if fmt == "machine":
        lines.append(f"ARTIFACT: {VERSION}")
        lines.append(f"COMMAND: {report.command}")
        lines.append(f"INPUT: {report.input_digest}")
        for e in report.entries:
            lines.append("CHECK: " + " ".join(_entry_tokens(e)))
        if report.payload:
            for payload_line in report.payload.rstrip("\n").split("\n"):
                lines.append("OUT: " + payload_line)
        lines.append(f"VERDICT: {report.overall}")
    else:
        lines.append(VERSION)
        lines.append(f"command: {report.command}")
        lines.append(f"input: {report.input_digest}")
        mark = {"holds": "ok", "fails": "XX", "skipped": "--", "info": "  ", "error": "!!"}
        for e in report.entries:
            extra = []
            if e.witness:
                extra.append("witness " + ",".join(e.witness))
            if e.lhs is not None:
                extra.append(f"lhs={e.lhs} rhs={e.rhs}")
            if e.detail:
                extra.append(e.detail)
            if e.checked is not None:
                extra.append(f"{e.checked} {e.unit}")
            suffix = ("  [" + "; ".join(extra) + "]") if extra else ""
            lines.append(f"  [{mark.get(e.verdict, '??')}] {e.name}{suffix}")
        if report.payload:
            lines.append(report.payload.rstrip("\n"))
        lines.append(f"VERDICT: {report.overall}")
    return ("\n".join(lines) + "\n").encode()


def _digest(data: bytes) -> str:
    """``sha256:`` and the hex SHA-256 of ``data``, from CPython's built-in
    module: hashlib would map OpenSSL's libcrypto, a command's largest
    resident cost, for this one line of the report.  hashlib falls back to
    the same module where OpenSSL is absent, so the digest is the same."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return "sha256:" + sha256(data).hexdigest()


def _value_name(names, value) -> str | None:
    """A witness component or an evaluated side: an element index as its name."""
    if value is None:
        return None
    if isinstance(value, bool):
        return str(value)
    from numbers import Integral  # numpy, which every caller has loaded, loads it

    if isinstance(value, Integral):
        return names[int(value)]
    return str(value)


def _entry_from_check(res: CheckResult, names) -> ReportEntry:
    return ReportEntry(
        name=res.name,
        verdict=res.verdict,
        witness=tuple(_value_name(names, w) for w in res.witness or ()),
        checked=res.checked or None,
        lhs=_value_name(names, res.lhs_value),
        rhs=_value_name(names, res.rhs_value),
        detail=res.detail,
    )


def _add_checks(report: Report, results, names) -> None:
    """Add an entry per result, each as soon as ``results`` yields it."""
    for res in results:
        report.add(_entry_from_check(res, names))


# ---------------------------------------------------------------------------
# Commands


def _add_classification(report: Report, A: Algebra, entries) -> bool:
    """Add the property entries and, on a skew lattice, the co-strong
    equivalence; returns whether ``A`` is a skew lattice."""
    from .properties import check_costrong_equivalence, property_result

    _add_checks(report, entries, A.names)
    if not property_result(A, "skew-lattice").holds:
        return False
    check_costrong_equivalence(A)
    report.add(ReportEntry("costrong-equivalence", "holds"))
    return True


def _cmd_check(args, report: Report) -> None:
    A = parse_algebra_file(_read(args.file, report))
    from .properties import classify

    if not _add_classification(report, A, classify(A).entries):
        report.add(ReportEntry("costrong-equivalence", "skipped", detail="not a skew lattice"))
    report.settle(gating={"skew-lattice", "costrong-equivalence"})


def _arrow_payload(A: Algebra, table: np.ndarray) -> str:
    return "\n".join(_table_lines(A, "arrow:", table)) + "\n"


def _add_derived_arrow(report: Report, A: Algebra) -> np.ndarray | None:
    """Derive the arrow of ``A`` and add the ``arrow-derivable`` entry;
    returns the arrow table, or None when the entry fails.  The failure is
    that of ``derive_arrow``'s precondition, whose properties are cached."""
    from .core import CheckResult
    from .skew_heyting import derive_arrow

    try:
        arrow = derive_arrow(A)
    except PreconditionFailed as exc:
        failed = CheckResult("arrow-derivable", False, exc.witness, 0, detail=str(exc))
        report.add(_entry_from_check(failed, A.names))
        return None
    report.add(ReportEntry("arrow-derivable", "holds"))
    return arrow


def _add_declared_match(report: Report, A: Algebra, arrow: np.ndarray) -> None:
    if A.arrow is not None:
        same = bool((A.arrow == arrow).all())
        report.add(ReportEntry("declared-arrow-matches", "holds" if same else "fails"))


def _cmd_derive(args, report: Report) -> None:
    A = parse_algebra_file(_read(args.file, report))
    from .skew_heyting import check_sh_axioms

    arrow = _add_derived_arrow(report, A)
    if arrow is not None:
        _add_checks(report, check_sh_axioms(A.with_arrow(arrow)).entries, A.names)
        _add_declared_match(report, A, arrow)
        report.payload = _arrow_payload(A, arrow)
    report.settle()


def _cmd_quotient(args, report: Report) -> None:
    A = parse_algebra_file(_read(args.file, report))
    from .core import greens, quotient

    Q, _ = quotient(A, greens(A)["DLR".index(args.rel)])
    report.payload = emit_algebra_file(Q)
    report.settle()


def _check_fiber_count(fibers, points: int) -> None:
    if len(fibers) != points:
        raise argparse.ArgumentTypeError(f"--fibers gives {len(fibers)} sizes for {points} base points")


def _cmd_model(args, report: Report) -> None:
    # Each kind is sized before it imports what builds it, by name:
    # ``python -X importtime`` logs no module loaded as ``from . import m``.
    bound = args.bound
    if args.kind == "pfn":
        check_size("partial function algebra", [repeat(args.y + 1, args.x)], bound)
        from .models import partial_function_algebra

        A = partial_function_algebra(args.x, args.y, bound=bound)
    elif args.kind == "sections":
        _check_fiber_count(args.fibers, args.base)
        check_size("section algebra", [(f + 1 for f in args.fibers)], bound)
        from .models import SurjectionModel, default_point_names, sections_algebra

        base = default_point_names(args.base)
        A = sections_algebra(SurjectionModel.from_fiber_sizes(base, args.fibers), bound=bound)
    elif args.kind == "poset-sections":
        P = parse_poset_file(_read(args.posetfile, report))
        _check_fiber_count(args.fibers, P.n)
        from .models import SurjectionModel, poset_sections_algebra, section_model_size

        # counted from the fiber sizes, before a name is made for each element
        section_model_size(P, args.fibers, bound)
        A = poset_sections_algebra(SurjectionModel.from_fiber_sizes(P, args.fibers), bound=bound)
    else:  # upsets
        P = parse_poset_file(_read(args.posetfile, report))
        from .models import upset_heyting

        A = upset_heyting(P, bound=bound)
    report.payload = emit_algebra_file(A)
    report.settle()


def _verify_suites(A: Algebra):
    """The results of the theorem suites on ``A``'s arrow in report order,
    each computed when the one before it has been taken."""
    from .core import pullback_check
    from .skew_heyting import (
        check_arrow_congruences,
        check_imp_or,
        check_lifting,
        check_sh_axioms,
        check_sha,
        special_case_arrows,
    )

    yield from check_sh_axioms(A).entries
    yield check_sha(A)
    yield check_imp_or(A)
    yield check_lifting(A)
    yield check_arrow_congruences(A)
    yield from special_case_arrows(A).entries
    yield pullback_check(A)


def _cmd_verify(args, report: Report) -> None:
    A = parse_algebra_file(_read(args.file, report))
    from .properties import property_result

    names = ("skew-lattice", "co-strongly-distributive", "symmetric", "conormal", "quasi-distributive")
    if _add_classification(report, A, [property_result(A, name) for name in names]):
        arrow = _add_derived_arrow(report, A)
        if arrow is not None:
            _add_declared_match(report, A, arrow)
            _add_checks(report, _verify_suites(A.with_arrow(arrow)), A.names)
    report.settle()


_CHUNK = 4  # search recipes per task of a --jobs worker
_WINDOW = 2  # tasks in flight per worker


def _search_eval(verdict, prop_name: str, negate: bool, build):
    """Build an instance from its recipe and evaluate the property on it;
    its element names come back only on a hit, for the witness."""
    alg = build()
    res = verdict(alg, prop_name)
    hit = res.holds != negate
    return hit, res.witness, res.detail, alg.names if hit else None


def _search_chunk(evaluate, builds: list) -> list:
    return [evaluate(build) for build in builds]


def _pool_map(pool, evaluate, builds, jobs: int):
    """``evaluate`` over ``builds`` in order, on ``pool``'s workers, which
    build the instances from their recipes.  A recipe is drawn from the
    stream when its chunk is submitted, and at most ``_WINDOW`` chunks per
    worker are in flight, so a reader that stops at a hit leaves one window
    of work behind, not the whole stream."""
    chunks = iter(lambda: list(islice(builds, _CHUNK)), [])
    pending = deque(pool.submit(_search_chunk, evaluate, c) for c in islice(chunks, _WINDOW * jobs))
    while pending:
        yield from pending.popleft().result()
        pending.extend(pool.submit(_search_chunk, evaluate, c) for c in islice(chunks, 1))


def _first_hit(results):
    return next(((i, r) for i, r in enumerate(results) if r[0]), None)


def _cmd_search(args, report: Report) -> None:
    from .property_names import PROPERTY_NAMES

    if args.property not in PROPERTY_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown property {args.property!r}; choose from {', '.join(PROPERTY_NAMES)}"
        )
    check_size("the largest search instance", [[args.max_size]], args.bound)
    from .models import search_family
    from .properties import property_result  # before --jobs workers fork, so that they inherit it

    seen: list[str] = []  # the label of each instance submitted

    def instances():
        for label, build in search_family(args.family, args.max_size):
            seen.append(label)
            yield build

    evaluate = partial(_search_eval, property_result, args.property, args.negate)
    if args.jobs > 1:
        # imported here: it loads multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=args.jobs)
        try:
            found = _first_hit(_pool_map(pool, evaluate, instances(), args.jobs))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        found = _first_hit(map(evaluate, instances()))
    target = f"not:{args.property}" if args.negate else args.property
    scope = f"family={args.family} target={target}"
    if found is None:
        report.add(ReportEntry("search", "holds", (), len(seen), detail=scope + " exhausted", unit="instances"))
    else:
        index, (_, witness, detail, names) = found
        label = seen[index]
        report.add(ReportEntry("search", "fails", (label,), index + 1, detail=scope, unit="instances"))
        from .core import CheckResult

        hit = CheckResult(args.property, not args.negate, witness, 0, detail=detail or f"on instance {label}")
        report.add(_entry_from_check(hit, names))
    report.settle(gating={"search"})


def _read(path: str, report: Report) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(0, 0, f"cannot read {path}: {exc.strerror}")
    report.input_digest = _digest(data)
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, exc.start - line_start + 1, f"byte 0x{data[exc.start]:02x} is not UTF-8")


# ---------------------------------------------------------------------------
# Driver


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(v) for v in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skewbench", add_help=True)
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--bound", type=_positive_int, default=10000, help="global size bound for models")
    parser.add_argument("--jobs", type=_positive_int, default=1, help="parallelism degree for search")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check", help="classify an algebra file")
    p.add_argument("file")

    p = sub.add_parser("derive", help="derive the implication table")
    p.add_argument("file")

    p = sub.add_parser("quotient", help="quotient by a Green's relation")
    p.add_argument("file")
    p.add_argument("--rel", choices=("D", "L", "R"), required=True)

    p = sub.add_parser("model", help="emit a generated model as an algebra file")
    msub = p.add_subparsers(dest="kind", required=True)
    m = msub.add_parser("pfn")
    m.add_argument("--x", type=_positive_int, required=True)
    m.add_argument("--y", type=_positive_int, required=True)
    m = msub.add_parser("sections")
    m.add_argument("--base", type=_positive_int, required=True)
    m.add_argument("--fibers", type=_positive_ints, required=True, help="comma separated fiber sizes")
    m = msub.add_parser("poset-sections")
    m.add_argument("posetfile")
    m.add_argument("--fibers", type=_positive_ints, required=True)
    m = msub.add_parser("upsets")
    m.add_argument("posetfile")

    p = sub.add_parser("verify", help="run the full theorem suite")
    p.add_argument("file")

    p = sub.add_parser("search", help="scan a family for instances matching a property")
    p.add_argument("--family", choices=("pfn", "sections", "enum"), required=True)
    p.add_argument("--max-size", type=_positive_int, required=True)
    p.add_argument("--property", required=True)
    p.add_argument("--negate", action="store_true", help="hunt instances where the property fails")
    return parser


_HANDLERS = {
    "check": _cmd_check,
    "derive": _cmd_derive,
    "quotient": _cmd_quotient,
    "model": _cmd_model,
    "verify": _cmd_verify,
    "search": _cmd_search,
}


def run_command(argv) -> tuple[int, bytes]:
    """Execute one CLI invocation; returns (exit status, report bytes)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):  # --help
            return _EXIT_PASS, b""
        return _EXIT_USAGE, b"VERDICT: USAGE\n"
    if args.command is None:
        return _EXIT_USAGE, parser.format_usage().encode() + b"VERDICT: USAGE\n"

    report = Report(command=args.command, input_digest="sha256:-")
    if args.command == "model":
        seed = f"model {args.kind} {sorted(vars(args).items())!r}".encode()
        report.input_digest = _digest(seed)
    if args.command == "search":
        seed = f"search {args.family} {args.max_size} {args.property} {args.negate}".encode()
        report.input_digest = _digest(seed)

    try:
        _HANDLERS[args.command](args, report)
    except (ParseError, MalformedTable, BadConstant, BadPoset, TooLarge, argparse.ArgumentTypeError) as exc:
        report.entries = [ReportEntry("input", "error", detail=str(exc))]
        report.overall = "USAGE"
        return _EXIT_USAGE, emit_report(report, args.format)
    except InconsistencyDetected as exc:
        report.add(ReportEntry("inconsistency", "error", detail=str(exc)))
        report.overall = "INCONSISTENT"
        return _EXIT_INCONSISTENT, emit_report(report, args.format)
    except SkewbenchError as exc:
        report.add(ReportEntry(type(exc).__name__, "fails", detail=str(exc)))
        report.overall = "FAIL"
        return _EXIT_FAIL, emit_report(report, args.format)
    except Exception as exc:  # a workbench bug: status 3, never a traceback or status 1
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        detail = f"{type(exc).__name__}: {exc} (in {where.name}, line {where.lineno})"
        report.add(ReportEntry("internal", "error", detail=" ".join(detail.split())))
        report.overall = "INCONSISTENT"
        return _EXIT_INCONSISTENT, emit_report(report, args.format)

    status = _EXIT_PASS if report.overall == "PASS" else _EXIT_FAIL
    if args.command in ("model", "quotient") and report.overall == "PASS":
        # artifact-producing commands emit a bare, re-parseable algebra file
        return status, report.payload.encode()
    return status, emit_report(report, args.format)


def main() -> int:
    # Every matrix product in the workbench is an integer one, which numpy
    # runs in its own loops, so an OpenBLAS worker thread would only spin.
    # Pinned here, not at import, so that importing the CLI leaves the
    # environment alone; a value the caller set wins, and --jobs workers
    # inherit it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # The workbench makes no reference cycles (a test collects after every
    # command), so reference counting frees a command's memory, and the
    # collector's passes, mostly over numpy's import, would free only the
    # few hundred objects that argparse and that import leave once per
    # process.  Off here, not in run_command, so that a host calling it keeps
    # its collector; --jobs workers inherit the setting through fork.
    gc.disable()
    status, out = run_command(sys.argv[1:])
    sys.stdout.buffer.write(out)
    # Still frozen: the interpreter's exit runs a full collection whether or
    # not the collector is enabled, and it skips frozen objects, which the OS
    # reclaims anyway.
    gc.freeze()
    return status


if __name__ == "__main__":
    raise SystemExit(main())
