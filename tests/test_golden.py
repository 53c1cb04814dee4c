"""Byte-for-byte golden reports for ``check``, ``verify``, ``derive`` and
``search``, and golden artifacts of ``model`` and ``quotient``; and the
work of ``check``, ``derive`` and ``verify``: every scan and every decided
verdict, in call order, with its tuple counts (``*.work``).

The inputs and the expected exit statuses, report bytes and work live
under ``tests/golden/``.  A change that alters any report byte or any
scan or decision fails here; an intended change is re-recorded with
``python3 tests/test_golden.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from skewbench import classify, greens, identities, quotient
from skewbench.cli import emit_algebra_file, run_command
from skewbench.identities import GROUPS, bind, named_check, values_at
from skewbench.models import Poset, SurjectionModel, partial_function_algebra, poset_sections_algebra

GOLDEN = Path(__file__).parent / "golden"

# conftest fixtures written to tests/golden/<stem>.alg
INPUTS = ("pf22", "pf12", "n5", "rect2_bottom", "semilattice2", "left_zero_top", "chain12")

# (golden stem, command line after --format, expected exit status); an
# argument ending in ``.alg`` or ``.pos`` names a file under tests/golden/
CASES = (
    ("verify-pf22", ("verify", "pf22.alg"), 0),
    ("verify-pf12", ("verify", "pf12.alg"), 0),
    ("derive-pf22", ("derive", "pf22.alg"), 0),
    ("derive-pf12", ("derive", "pf12.alg"), 0),
    ("derive-n5", ("derive", "n5.alg"), 1),
    # SH4-prime on a chain is decided on the one upset of its least element
    ("derive-chain12", ("derive", "chain12.alg"), 0),
    ("derive-left_zero_top", ("derive", "left_zero_top.alg"), 1),
    ("check-pf22", ("check", "pf22.alg"), 0),
    ("check-n5", ("check", "n5.alg"), 0),
    ("check-rect2_bottom", ("check", "rect2_bottom.alg"), 0),
    ("check-semilattice2", ("check", "semilattice2.alg"), 1),
    ("verify-semilattice2", ("verify", "semilattice2.alg"), 1),
    ("quotient-pf22-D", ("quotient", "pf22.alg", "--rel", "D"), 0),
    ("quotient-pf22-L", ("quotient", "pf22.alg", "--rel", "L"), 0),
    ("quotient-pf22-R", ("quotient", "pf22.alg", "--rel", "R"), 0),
    ("quotient-semilattice2-D", ("quotient", "semilattice2.alg", "--rel", "D"), 0),
    (
        "search-enum-not-costrong",
        ("search", "--family", "enum", "--max-size", "3", "--property", "co-strongly-distributive", "--negate"),
        1,
    ),
    (
        "search-enum-not-skew-lattice",
        ("search", "--family", "enum", "--max-size", "3", "--property", "skew-lattice", "--negate"),
        0,
    ),
    (
        "search-pfn-not-normal",
        ("search", "--family", "pfn", "--max-size", "20", "--property", "normal", "--negate"),
        1,
    ),
    (
        "search-pfn-not-symmetric",
        ("search", "--family", "pfn", "--max-size", "20", "--property", "symmetric", "--negate"),
        0,
    ),
    (
        "search-sections-not-strongly-distributive",
        ("search", "--family", "sections", "--max-size", "20", "--property", "strongly-distributive", "--negate"),
        1,
    ),
    (
        "search-sections-not-symmetric",
        ("search", "--family", "sections", "--max-size", "40", "--property", "symmetric", "--negate"),
        0,
    ),
    ("model-pfn22", ("model", "pfn", "--x", "2", "--y", "2"), 0),
    ("model-pfn31", ("model", "pfn", "--x", "3", "--y", "1"), 0),
    ("model-sections3-322", ("model", "sections", "--base", "3", "--fibers", "3,2,2"), 0),
    ("model-poset-sections-p3-221", ("model", "poset-sections", "p3.pos", "--fibers", "2,2,1"), 0),
)
FORMATS = ("machine", "text")


def _run(argv, fmt: str) -> tuple[int, bytes]:
    args = [str(GOLDEN / a) if a.endswith((".alg", ".pos")) else a for a in argv]
    return run_command(["--format", fmt, *args])


@pytest.mark.parametrize("stem", INPUTS)
def test_golden_inputs_match_fixtures(stem, request):
    A = request.getfixturevalue(stem)
    assert (GOLDEN / f"{stem}.alg").read_text() == emit_algebra_file(A)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("golden,argv,status", CASES, ids=[f"{g}-{st}" for g, _, st in CASES])
def test_report_bytes(golden, argv, status, fmt):
    code, out = _run(argv, fmt)
    assert code == status
    assert out == (GOLDEN / f"{golden}.{fmt}").read_bytes()


def _check_pf42(tmp_dir: Path) -> tuple[int, bytes]:
    # pfn(4,2) is built, not kept as a file: its 81-element tables are large
    path = tmp_dir / "pf42.alg"
    path.write_bytes(emit_algebra_file(partial_function_algebra(4, 2)).encode())
    return run_command(["--format", "machine", "check", str(path)])


def test_check_report_bytes_of_pfn42(tmp_path):
    # conormal and the join half of regular hold there, and are decided
    assert _check_pf42(tmp_path) == (0, (GOLDEN / "check-pf42.machine").read_bytes())


def _chain_plus_point() -> Poset:
    # p < r < s, and q incomparable to all of them
    leq = np.eye(4, dtype=bool)
    for a, b in ((0, 2), (0, 3), (2, 3)):
        leq[a, b] = True
    return Poset(("p", "q", "r", "s"), leq)


# inputs of the work goldens that are built, not kept as files
BUILT = {
    "pf42": lambda: partial_function_algebra(4, 2),
    "pf61": lambda: partial_function_algebra(6, 1),
    "sections4": lambda: poset_sections_algebra(SurjectionModel.from_fiber_sizes(_chain_plus_point(), (2, 2, 2, 2))),
}
WORK_INPUTS = ("pf22", "n5", "chain12", "left_zero_top", "semilattice2", *BUILT)
WORK_COMMANDS = ("check", "derive", "verify")


def _input(stem: str, tmp_dir: Path) -> str:
    """The path of the algebra file of the work input ``stem``."""
    path = GOLDEN / f"{stem}.alg"
    if stem in BUILT:
        path = tmp_dir / f"{stem}.alg"
        path.write_text(emit_algebra_file(BUILT[stem]()))
    return str(path)


def _work(command: str, stem: str, tmp_dir: Path) -> str:
    """One line per scan (``identities.run_check``) and per decided verdict
    (``identities.decide`` proving a law) that ``command`` makes on the
    input ``stem``, in call order: the kind, the name, ``checked``,
    ``evaluated`` and the verdict."""
    lines = []

    def spy(kind: str, real):
        def call(*args):
            res = real(*args)
            if res is not None:
                verdict = "holds" if res.holds else "fails"
                lines.append(f"{kind}\t{res.name}\tchecked={res.checked}\tevaluated={res.evaluated}\t{verdict}\n")
            return res

        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "run_check", spy("scan", identities.run_check))
        mp.setattr(identities, "decide", spy("decide", identities.decide))
        run_command([command, _input(stem, tmp_dir)])
    return "".join(lines)


@pytest.mark.parametrize("stem", WORK_INPUTS)
@pytest.mark.parametrize("command", WORK_COMMANDS)
def test_work(command, stem, tmp_path):
    assert _work(command, stem, tmp_path) == (GOLDEN / f"{command}-{stem}.work").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem", WORK_INPUTS)
@pytest.mark.parametrize("command", WORK_COMMANDS)
def test_no_meet_join_formula_is_scanned_twice_on_the_same_tables(command, stem, tmp_path, monkeypatch):
    # its verdict depends on the two tables alone, so one scan of them is
    # enough, whichever algebra or S/D holds them
    scans, real = [], identities.run_check

    def spy(check, tables):
        if not set(identities.NAMED.get(check.name, check.name)) & set("→∖≤⪯01"):
            scans.append((tables["m"].tobytes(), tables["j"].tobytes(), check.name))
        return real(check, tables)

    monkeypatch.setattr(identities, "run_check", spy)
    run_command([command, _input(stem, tmp_path)])
    assert [key[-1] for i, key in enumerate(scans) if key in scans[:i]] == []


@pytest.mark.parametrize("stem", [argv[1][:-4] for _, argv, _ in CASES if argv[0] == "check"])
def test_failing_classify_entries_reevaluate(stem, request):
    # every failing entry of a golden ``check`` names a registry formula
    # (skew-lattice through its failing axiom) that fails at the witness
    A = request.getfixturevalue(stem)
    rep = classify(A)
    failing = [e for e in rep.entries if not e.holds]
    assert failing
    for entry in failing:
        if entry.name == "quasi-distributive":
            # evaluated in S/D, on the classes of the witness: a lattice
            # distributive law, or the skew lattice axiom the detail names
            Q, proj = quotient(A.drop_arrow(), greens(A)[0])
            point = tuple(int(proj[w]) for w in entry.witness)
            formulas = GROUPS["lattice-distributive"]
            if entry.detail.startswith("S/D is not a lattice ("):
                formulas = [entry.detail.split(": ", 1)[1][:-1]]
            sides = [values_at(named_check(f), bind(Q), point) for f in formulas]
            assert any(lhs != rhs for lhs, rhs in sides)
            continue
        formula = rep[entry.detail].detail if entry.name == "skew-lattice" else entry.detail
        lhs, rhs = values_at(named_check(formula), bind(A), entry.witness)
        assert lhs != rhs
        assert (lhs, rhs) == (entry.lhs_value, entry.rhs_value)


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    import conftest

    for stem in INPUTS:
        fixture = getattr(conftest, stem).__wrapped__
        (GOLDEN / f"{stem}.alg").write_text(emit_algebra_file(fixture()))
    for golden, argv, status in CASES:
        for fmt in FORMATS:
            code, out = _run(argv, fmt)
            assert code == status, (golden, fmt, code)
            (GOLDEN / f"{golden}.{fmt}").write_bytes(out)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        code, out = _check_pf42(Path(tmp))
    assert code == 0, ("check-pf42", code)
    (GOLDEN / "check-pf42.machine").write_bytes(out)
    with tempfile.TemporaryDirectory() as tmp:
        for command in WORK_COMMANDS:
            for stem in WORK_INPUTS:
                (GOLDEN / f"{command}-{stem}.work").write_text(_work(command, stem, Path(tmp)), encoding="utf-8")
