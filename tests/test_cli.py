import functools
import gc
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewbench
from skewbench import cli, errors, models
from skewbench.cli import (
    emit_algebra_file,
    emit_report,
    parse_algebra_file,
    parse_poset_file,
    run_command,
    Report,
    ReportEntry,
)
from skewbench.models import search_family
from skewbench.property_names import PROPERTY_NAMES

from conftest import shuffle_algebra

CHAIN2_DOC = """\
# two-element chain
elements: 0 1
meet:
0 0
0 1
join:
0 1
1 1
top: 1
bottom: 0
"""

NON_SKEW_DOC = """\
elements: a b
meet:
a a
a b
join:
a a
a b
"""

# every cell is 'a', so only the declared names can be at fault
TWO_NAMES_DOC = "elements: {}\nmeet:\na a\na a\njoin:\na a\na a\n"

POSET_DOC = """\
points: a b
leq:
1 1
0 1
"""


@pytest.fixture
def pf22_file(tmp_path, pf22):
    path = tmp_path / "pf22.alg"
    path.write_text(emit_algebra_file(pf22))
    return str(path)


@pytest.fixture
def chain2_file(tmp_path):
    path = tmp_path / "chain2.alg"
    path.write_text(CHAIN2_DOC)
    return str(path)


class TestAlgebraFile:
    def test_parse_chain2(self):
        A = parse_algebra_file(CHAIN2_DOC)
        assert A.n == 2 and A.top == 1 and A.bottom == 0

    def test_round_trip(self, pf22):
        text = emit_algebra_file(pf22)
        again = parse_algebra_file(text)
        assert again == pf22
        assert emit_algebra_file(again) == text

    def test_round_trip_without_constants(self, rect2):
        assert parse_algebra_file(emit_algebra_file(rect2)) == rect2

    def test_short_row_is_parse_error(self):
        doc = CHAIN2_DOC.replace("0 0\n0 1\njoin", "0 0 0\n0 1\njoin")
        with pytest.raises(errors.ParseError):
            parse_algebra_file(doc)

    def test_unknown_element_position(self):
        doc = CHAIN2_DOC.replace("0 1\n1 1\ntop", "0 1\n1 z\ntop")
        with pytest.raises(errors.ParseError) as info:
            parse_algebra_file(doc)
        assert info.value.line == 8

    def test_unknown_element_column_is_that_of_its_token(self):
        # 'a' first occurs inside the earlier token 'ab'
        doc = "elements: ab b\nmeet:\nab a\nb b\njoin:\nab b\nb b\n"
        with pytest.raises(errors.ParseError) as info:
            parse_algebra_file(doc)
        assert str(info.value) == "line 3, col 4: unknown element 'a'"
        assert (info.value.line, info.value.col) == (3, 4)

    @pytest.mark.parametrize("sep", ["\t", "\u00a0", " \t\u00a0 "], ids=["tab", "nbsp", "mixed"])
    def test_cells_split_at_any_whitespace(self, pf22, sep):
        assert parse_algebra_file(emit_algebra_file(pf22).replace(" ", sep)) == pf22
        doc = f"elements: ab b\nmeet:\nab{sep}a\nb b\njoin:\nab b\nb b\n"
        with pytest.raises(errors.ParseError) as info:
            parse_algebra_file(doc)
        assert (info.value.line, info.value.col) == (3, 3 + len(sep))

    def test_bad_constant_is_semantic_error(self):
        doc = CHAIN2_DOC.replace("top: 1", "top: 0")
        with pytest.raises(errors.BadConstant):
            parse_algebra_file(doc)

    def test_comments_and_blanks_ignored(self):
        doc = "# leading\n\n" + CHAIN2_DOC + "\n# trailing\n"
        assert parse_algebra_file(doc).n == 2

    @pytest.mark.parametrize(
        "names, message",
        [("a a", "name 'a' is declared twice"), ("a #b", "name '#b' starts with '#'")],
        ids=["repeated", "hash"],
    )
    def test_bad_name_rejected_at_the_elements_line(self, names, message):
        with pytest.raises(errors.ParseError) as info:
            parse_algebra_file(TWO_NAMES_DOC.format(names))
        assert str(info.value) == f"line 1, col 1: {message}"

    def test_bound_refuses_the_file_at_its_elements_line(self):
        # the rows after it are never read: a bad one would raise ParseError
        doc = CHAIN2_DOC.replace("0 0\n0 1\njoin", "0 0\n0 nosuch\njoin")
        with pytest.raises(errors.TooLarge, match="^algebra file has more than 1 elements, bound is 1$"):
            parse_algebra_file(doc, bound=1)
        assert parse_algebra_file(CHAIN2_DOC, bound=2).n == 2

    def test_no_bound_still_refuses_what_int16_cannot_index(self):
        # without the cap, index 32768 would wrap to -32768 in the tables
        names = " ".join(f"e{i}" for i in range(errors.MAX_CARRIER + 1))
        with pytest.raises(errors.TooLarge, match="more than 32768 elements"):
            parse_algebra_file(f"elements: {names}\nmeet:\n")


class TestPosetFile:
    def test_parse(self):
        P = parse_poset_file(POSET_DOC)
        assert P.points == ("a", "b")
        assert P.leq[0, 1] and not P.leq[1, 0]

    def test_non_transitive_rejected(self):
        doc = "points: a b c\nleq:\n1 1 0\n0 1 1\n0 0 1\n"
        with pytest.raises(errors.BadPoset):
            parse_poset_file(doc)

    def test_bad_cell_rejected(self):
        with pytest.raises(errors.ParseError):
            parse_poset_file(POSET_DOC.replace("0 1", "0 2"))

    @pytest.mark.parametrize(
        "doc, line, col",
        [
            (POSET_DOC.replace("leq:", "leq: 1 1 junk"), 2, 1),
            (POSET_DOC.replace("a b", "p p"), 1, 1),
            (POSET_DOC + "0 1\n1 1\n", 5, 1),
            (POSET_DOC.replace("0 1", "0 2"), 4, 3),
            (POSET_DOC.replace("0 1\n", ""), 3, 1),
        ],
        ids=["text after leq:", "repeated point", "surplus row", "bad cell", "missing row"],
    )
    def test_malformed_header_rejected_at_its_line(self, doc, line, col):
        with pytest.raises(errors.ParseError) as info:
            parse_poset_file(doc)
        assert (info.value.line, info.value.col) == (line, col)


class TestExitStatuses:
    def test_verify_pass_is_zero(self, pf22_file):
        code, out = run_command(["verify", pf22_file])
        assert code == 0
        assert out.decode().rstrip().endswith("VERDICT: PASS")

    def test_wrong_declared_arrow_is_one(self, tmp_path, pf22):
        # the arrow is derived from meet, join and top alone, so a declared
        # arrow that leaves the upsets is reported, not taken for bad input
        low = pf22.index("{p:0,q:0}")
        path = tmp_path / "wrong-arrow.alg"
        path.write_text(emit_algebra_file(pf22.with_arrow(np.full((pf22.n, pf22.n), low))))
        code, out = run_command(["--format", "machine", "verify", str(path)])
        assert code == 1
        assert "CHECK: name=declared-arrow-matches verdict=fails" in out.decode()
        assert "CHECK: name=arrow-congruences verdict=holds" in out.decode()

    def test_check_failure_is_one(self, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text(NON_SKEW_DOC)
        code, out = run_command(["check", str(path)])
        assert code == 1
        assert out.decode().rstrip().endswith("VERDICT: FAIL")

    def test_parse_error_is_two(self, tmp_path):
        path = tmp_path / "broken.alg"
        path.write_text("elements: a b\nmeet:\na\n")
        code, out = run_command(["check", str(path)])
        assert code == 2

    def test_usage_error_is_two(self):
        code, _ = run_command(["quotient"])
        assert code == 2

    def test_non_utf8_input_is_parse_error(self, tmp_path):
        path = tmp_path / "latin1.alg"
        path.write_bytes(CHAIN2_DOC.replace("# two-element chain", "# caf\xe9").encode("latin-1"))
        code, out = run_command(["--format", "machine", "check", str(path)])
        assert code == 2
        assert "line_1,_col_6:_byte_0xe9_is_not_UTF-8" in out.decode()
        assert out.decode().rstrip().endswith("VERDICT: USAGE")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--jobs", "0", "search", "--family", "pfn", "--max-size", "10", "--property", "symmetric"],
            ["search", "--family", "pfn", "--max-size", "-3", "--property", "symmetric"],
            ["model", "pfn", "--x", "0", "--y", "2"],
            ["model", "sections", "--base", "2", "--fibers", "a,b"],
            ["model", "sections", "--base", "2", "--fibers", "2,0"],
        ],
    )
    def test_non_positive_integer_argument_is_two(self, argv, capsys):
        code, out = run_command(argv)
        assert (code, out) == (2, b"VERDICT: USAGE\n")
        err = capsys.readouterr().err
        assert "error: argument" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["model", "sections", "--base", "3", "--fibers", "2,2"],
            ["model", "poset-sections", "POSET", "--fibers", "2,2,2"],
            ["--bound", "100000000", "model", "pfn", "--x", "3", "--y", "400"],
            # 2^22 sections, refused before the 2^22 upsets are listed
            ["model", "poset-sections", "WIDE", "--fibers", ",".join(["1"] * 22)],
        ],
        ids=["sections-fiber-count", "poset-sections-fiber-count", "pfn-beyond-int16", "wide-antichain"],
    )
    def test_bad_model_request_is_two(self, argv, tmp_path, capsys):
        files = {"POSET": tmp_path / "p.poset", "WIDE": tmp_path / "wide.poset"}
        files["POSET"].write_text(POSET_DOC)
        rows = ["".join(" 1" if i == j else " 0" for j in range(22)) for i in range(22)]
        wide = ["points:" + "".join(f" p{i}" for i in range(22)), "leq:", *rows]
        files["WIDE"].write_text("\n".join(wide) + "\n")
        code, out = run_command(["--format", "machine"] + [str(files.get(a, a)) for a in argv])
        assert code == 2
        assert out.decode().rstrip().endswith("VERDICT: USAGE")
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_property_is_two(self):
        code, _ = run_command(
            ["search", "--family", "pfn", "--max-size", "5", "--property", "nope"]
        )
        assert code == 2

    def test_inconsistency_is_three(self, chain2_file, monkeypatch):
        import skewbench.properties as properties

        def boom(A):
            raise errors.InconsistencyDetected("synthetic theorem violation")

        monkeypatch.setattr(properties, "check_costrong_equivalence", boom)
        code, out = run_command(["check", chain2_file])
        assert code == 3
        assert out.decode().rstrip().endswith("VERDICT: INCONSISTENT")

    def test_inconsistency_keeps_the_entries_before_it(self, pf22_file, monkeypatch):
        import skewbench.skew_heyting as skew_heyting

        def boom(A):
            raise errors.InconsistencyDetected("synthetic lifting violation")

        monkeypatch.setattr(skew_heyting, "check_lifting", boom)
        code, out = run_command(["--format", "machine", "verify", pf22_file])
        names = [line.split()[1][5:] for line in out.decode().splitlines() if line.startswith("CHECK:")]
        assert code == 3
        assert names[names.index("arrow-derivable") :] == [
            "arrow-derivable",
            "declared-arrow-matches",
            *("SH0", "SH1", "SH2", "SH3", "SH4", "SH4-prime"),
            "SHA",
            "imp-or",
            "inconsistency",
        ]

    def test_unexpected_exception_is_three(self, chain2_file, monkeypatch, capsys):
        import skewbench.cli as cli

        def crash(args, report):
            raise RuntimeError("synthetic bug")

        monkeypatch.setitem(cli._HANDLERS, "check", crash)
        code, out = run_command(["--format", "machine", "check", chain2_file])
        text = out.decode()
        assert code == 3
        assert "CHECK: name=internal verdict=error" in text and "RuntimeError" in text
        assert text.rstrip().endswith("VERDICT: INCONSISTENT")
        assert "Traceback" not in capsys.readouterr().err


class TestCommands:
    def test_check_reports_classification(self, chain2_file):
        code, out = run_command(["--format", "machine", "check", chain2_file])
        text = out.decode()
        assert code == 0
        assert "name=rectangular verdict=fails" in text
        assert "name=skew-lattice verdict=holds" in text
        assert text.rstrip().endswith("VERDICT: PASS")

    def test_derive_emits_arrow_and_axioms(self, chain2_file):
        code, out = run_command(["derive", chain2_file])
        text = out.decode()
        assert code == 0
        assert "arrow:" in text
        assert "SH4" in text

    def test_derive_failure_carries_witness(self, tmp_path, rect2_bottom):
        path = tmp_path / "rb.alg"
        path.write_text(emit_algebra_file(rect2_bottom))
        code, out = run_command(["derive", str(path)])
        assert code == 1
        assert b"arrow-derivable" in out

    @pytest.mark.parametrize("fixture", ["rect2", "n5"], ids=["no top", "not co-strongly distributive"])
    def test_verify_and_derive_give_the_same_arrow_entry(self, tmp_path, request, fixture):
        path = tmp_path / "a.alg"
        path.write_text(emit_algebra_file(request.getfixturevalue(fixture)))

        def arrow_entry(command):
            code, out = run_command(["--format", "machine", command, str(path)])
            entries = [line for line in out.decode().splitlines() if "name=arrow-derivable " in line]
            assert code == 1 and len(entries) == 1
            return entries[0]

        assert arrow_entry("verify") == arrow_entry("derive")
        assert "verdict=fails" in arrow_entry("verify") and "detail=" in arrow_entry("verify")

    def test_quotient_emits_parseable_file(self, pf22_file, pf22):
        code, out = run_command(["quotient", pf22_file, "--rel", "D"])
        assert code == 0
        Q = parse_algebra_file(out.decode())
        assert Q.n == 4 and Q.top is not None

    def test_quotient_l_and_r(self, pf22_file, pf22):
        for rel, expected in (("L", 4), ("R", pf22.n)):
            code, out = run_command(["quotient", pf22_file, "--rel", rel])
            assert code == 0
            assert parse_algebra_file(out.decode()).n == expected

    def test_model_pfn_round_trips(self, pf22):
        code, out = run_command(["model", "pfn", "--x", "2", "--y", "2"])
        assert code == 0
        assert parse_algebra_file(out.decode()) == pf22

    def test_model_upsets(self, tmp_path):
        path = tmp_path / "p.poset"
        path.write_text(POSET_DOC)
        code, out = run_command(["model", "upsets", str(path)])
        assert code == 0
        A = parse_algebra_file(out.decode())
        assert A.n == 3 and A.arrow is not None

    def test_model_sections(self):
        code, out = run_command(["model", "sections", "--base", "2", "--fibers", "2,1"])
        assert code == 0
        assert parse_algebra_file(out.decode()).n == 6

    def test_model_poset_sections(self, tmp_path):
        path = tmp_path / "p.poset"
        path.write_text(POSET_DOC)
        code, out = run_command(
            ["model", "poset-sections", str(path), "--fibers", "2,2"]
        )
        assert code == 0
        A = parse_algebra_file(out.decode())
        assert A.arrow is not None
        # verify the emitted algebra file passes the whole suite
        verify_path = path.with_suffix(".alg")
        verify_path.write_text(out.decode())
        code2, _ = run_command(["verify", str(verify_path)])
        assert code2 == 0

    def test_model_too_large_is_two(self):
        code, _ = run_command(["--bound", "5", "model", "pfn", "--x", "2", "--y", "2"])
        assert code == 2

    def test_search_honours_the_bound(self):
        search = ["search", "--family", "pfn", "--property", "symmetric", "--max-size"]
        code, out = run_command(["--bound", "50", *search, "100"])
        assert code == 2 and b"has more than 50 elements, bound is 50" in out
        assert run_command(["--bound", "100", *search, "100"])[0] == 1  # found pfn(1,1)

    def test_search_beyond_an_int16_carrier_is_refused_at_once(self):
        search = ["search", "--family", "pfn", "--property", "symmetric", "--max-size", "2000000"]
        start = time.perf_counter()
        assert run_command(search)[0] == 2  # beyond the default bound
        code, out = run_command(["--format", "machine", "--bound", "100000000", *search])
        assert code == 2 and b"bound_is_32768" in out
        assert time.perf_counter() - start < 1.0

    def test_model_upsets_honours_the_bound(self, tmp_path):
        path = tmp_path / "p.poset"
        path.write_text(POSET_DOC)  # a two-point chain: three upsets
        assert run_command(["--bound", "2", "model", "upsets", str(path)])[0] == 2
        assert run_command(["--bound", "3", "model", "upsets", str(path)])[0] == 0

    def test_search_negate_finds_non_example(self):
        code, out = run_command(
            [
                "--format",
                "machine",
                "search",
                "--family",
                "enum",
                "--max-size",
                "3",
                "--property",
                "co-strongly-distributive",
                "--negate",
            ]
        )
        assert code == 1
        assert b"witness=" in out
        assert out.decode().rstrip().endswith("VERDICT: FAIL")

    def test_search_exhaustion_is_zero(self):
        code, out = run_command(
            [
                "search",
                "--family",
                "pfn",
                "--max-size",
                "30",
                "--property",
                "co-strongly-distributive",
                "--negate",
            ]
        )
        assert code == 0
        assert out.decode().rstrip().endswith("VERDICT: PASS")

    def test_an_empty_search_counts_zero_instances_in_both_formats(self):
        # pfn has no instance of at most one element
        argv = ["search", "--family", "pfn", "--max-size", "1", "--property", "normal"]
        code, machine = run_command(["--format", "machine", *argv])
        assert code == 0 and b"name=search verdict=holds checked=0 " in machine
        code, text = run_command(["--format", "text", *argv])
        assert code == 0
        assert "  [ok] search  [family=pfn target=normal exhausted; 0 instances]\n" in text.decode()


class TestDeterminism:
    def test_reports_byte_stable_across_runs(self, pf22_file):
        first = run_command(["--format", "machine", "verify", pf22_file])
        second = run_command(["--format", "machine", "verify", pf22_file])
        assert first == second

    @pytest.mark.parametrize("family,max_size", [("enum", "3"), ("pfn", "20"), ("sections", "20")])
    def test_search_byte_stable_across_jobs(self, family, max_size):
        argv = [
            "search",
            "--family",
            family,
            "--max-size",
            max_size,
            "--property",
            "symmetric",
            "--negate",
        ]
        base = run_command(["--jobs", "1"] + argv)
        for jobs in ("2", "3"):
            assert run_command(["--jobs", jobs] + argv) == base

    @settings(max_examples=10, deadline=None)
    @given(
        family=st.sampled_from(["enum", "pfn", "sections"]),
        max_size=st.integers(1, 12),
        prop=st.sampled_from(PROPERTY_NAMES),
        negate=st.booleans(),
    )
    def test_search_bytes_equal_for_every_jobs_setting(self, family, max_size, prop, negate):
        argv = ["search", "--family", family, "--max-size", str(max_size), "--property", prop]
        argv += ["--negate"] * negate
        base = run_command(["--format", "machine", "--jobs", "1", *argv])
        for jobs in ("2", "3"):
            assert run_command(["--format", "machine", "--jobs", jobs, *argv]) == base


_FILE_COMMANDS = {
    "check": ("check",),
    "derive": ("derive",),
    "verify": ("verify",),
    "quotient": ("quotient", "--rel", "D"),
}


# the conftest fixtures written out for the golden reports, and two more
_SEED_DOCUMENTS = [CHAIN2_DOC.encode(), NON_SKEW_DOC.encode()] + [
    path.read_bytes() for path in sorted((Path(__file__).parent / "golden").glob("*.alg"))
]


@st.composite
def _damaged_documents(draw):
    """A valid algebra file with a few bytes replaced, inserted or deleted."""
    doc = bytearray(draw(st.sampled_from(_SEED_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(doc)))
        # the slice i:i inserts, i:i+1 replaces, and either with b"" deletes
        cut = draw(st.integers(0, 1))
        doc[i : i + cut] = draw(st.sampled_from([b"", *(bytes([c]) for c in b"01ab{}:, \n#\xff")]))
    return bytes(doc)


@st.composite
def _random_tables(draw):
    """A well-formed file whose tables and constants are arbitrary."""
    n = draw(st.integers(1, 4))
    names = [f"e{i}" for i in range(n)]
    cell = st.sampled_from(names)
    lines = ["elements: " + " ".join(names)]
    for label in ("meet:", "join:"):
        lines.append(label)
        lines += [" ".join(draw(st.lists(cell, min_size=n, max_size=n))) for _ in range(n)]
    for label in ("top", "bottom"):
        if draw(st.booleans()):
            lines.append(f"{label}: {draw(cell)}")
    return ("\n".join(lines) + "\n").encode()


@functools.cache
def _family(name: str) -> list:
    return [build() for _, build in search_family(name, 12)]


class TestRobustness:
    """Property-based: no file makes a command fail with a traceback or an
    internal error, and parse∘emit is the identity."""

    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from(sorted(_FILE_COMMANDS)),
        data=st.one_of(st.binary(max_size=200), _damaged_documents(), _random_tables()),
    )
    def test_any_bytes_give_a_status_of_at_most_two(self, tmp_path_factory, command, data):
        path = tmp_path_factory.getbasetemp() / "arbitrary.alg"
        path.write_bytes(data)
        cmd, *rest = _FILE_COMMANDS[command]
        code, out = run_command(["--format", "machine", cmd, str(path), *rest])
        assert code <= 2, out
        assert b"name=internal " not in out

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["enum", "pfn", "sections"]), data=st.data())
    def test_parse_inverts_emit_on_relabeled_instances(self, family, data):
        A = data.draw(st.sampled_from(_family(family)))
        B = shuffle_algebra(A, seed=data.draw(st.integers(0, 2**32 - 1)))
        assert parse_algebra_file(emit_algebra_file(B)) == B


def test_emit_report_formats():
    report = Report(command="check", input_digest="sha256:x")
    report.add(ReportEntry("demo", "holds", checked=4))
    machine = emit_report(report, "machine").decode()
    assert machine.splitlines()[0].startswith("ARTIFACT:")
    assert machine.rstrip().endswith("VERDICT: PASS")
    text = emit_report(report, "text").decode()
    assert text.rstrip().endswith("VERDICT: PASS")


def test_failing_sh2_witness_names_pair_and_sides(pf22):
    # mutate one arrow entry until SH2 specifically fails, then check the
    # rendered report names the violating pair and both evaluated sides
    from skewbench import check_sh_axioms
    from skewbench.cli import _entry_from_check

    entry = None
    for x in range(pf22.n):
        for y in range(pf22.n):
            arrow = np.array(pf22.arrow)
            arrow[x, y] = (arrow[x, y] + 1) % pf22.n
            rep = check_sh_axioms(pf22.with_arrow(arrow))
            if not rep.holds("SH2"):
                entry = _entry_from_check(rep["SH2"], pf22.names)
                break
        if entry:
            break
    assert entry is not None
    assert len(entry.witness) == 2
    assert entry.lhs is not None and entry.rhs is not None and entry.lhs != entry.rhs
    report = Report(command="derive", input_digest="sha256:x", entries=[entry])
    report.settle()
    machine = emit_report(report, "machine").decode()
    assert "witness=" in machine and "lhs=" in machine and "rhs=" in machine
    assert machine.rstrip().endswith("VERDICT: FAIL")


def _run_python(*args, env=None, timeout=60):
    """Run the interpreter on ``args`` with ``env`` (default: this
    process's environment) and the package on its path."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(Path(skewbench.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=timeout)


def _with_paths(tmp_path, argv) -> list[str]:
    return [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]


def test_cli_import_loads_no_process_pool():
    code = "import sys, skewbench.cli; print('concurrent.futures.process' in sys.modules)"
    proc = _run_python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, b"False\n")


def test_cli_import_loads_nothing_a_refusal_does_not_use():
    unused = ("dataclasses", "inspect", "hashlib", "_sha2", "_sha256", "traceback")
    code = f"import sys, skewbench.cli; print([m for m in {unused!r} if m in sys.modules])"
    proc = _run_python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, b"[]\n")


def test_python_m_skewbench_runs_the_cli():
    proc = _run_python("-X", "importtime", "-m", "skewbench", "--help")
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: skewbench")
    assert "numpy" not in _imported_modules(proc.stderr)


def _import_log(importtime_log: bytes) -> list[str]:
    """The modules named by ``python -X importtime``'s log on stderr, once
    per import in each process that writes to it."""
    prefix = b"import time:"
    lines = (line for line in importtime_log.splitlines() if line.startswith(prefix))
    return [line.rsplit(b"|", 1)[-1].strip().decode() for line in lines]


def _imported_modules(importtime_log: bytes) -> set[str]:
    return set(_import_log(importtime_log))


_CHECK_LAYERS = {"core", "identities", "property_names", "properties"}
_DERIVE_LAYERS = _CHECK_LAYERS | {"heyting", "skew_heyting"}
COMMAND_LAYERS = {
    "check": (["check", "{pf22.alg}"], _CHECK_LAYERS),
    "quotient": (["quotient", "{pf22.alg}", "--rel", "D"], {"core"}),
    "derive": (["derive", "{pf22.alg}"], _DERIVE_LAYERS),
    "verify": (["verify", "{pf22.alg}"], _DERIVE_LAYERS),
    "model": (["model", "pfn", "--x", "2", "--y", "2"], {"core", "models"}),
    "model poset-sections": (["model", "poset-sections", "{chain2.pos}", "--fibers", "2,1"], {"core", "models"}),
    "model upsets": (["model", "upsets", "{chain2.pos}"], {"core", "models", "heyting"}),
    "search": (
        ["search", "--family", "pfn", "--max-size", "10", "--property", "symmetric", "--negate"],
        _CHECK_LAYERS | {"models"},
    ),
    # the pool's forked workers log their imports to the same stderr
    "search --jobs 2": (
        ["--jobs", "2", "search", "--family", "pfn", "--max-size", "10", "--property", "symmetric", "--negate"],
        _CHECK_LAYERS | {"models"},
    ),
}


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_each_command_loads_only_its_layers(tmp_path, pf22, command):
    """Every module a command loads is compiled in each process, so a layer
    it never calls is start-up cost; the sets are the README's."""
    (tmp_path / "pf22.alg").write_text(emit_algebra_file(pf22))
    (tmp_path / "chain2.pos").write_text("points: p q\nleq:\n1 1\n0 1\n")
    argv, layers = COMMAND_LAYERS[command]
    proc = _run_python("-X", "importtime", "-m", "skewbench", *_with_paths(tmp_path, argv))
    assert proc.returncode == 0, proc.stdout
    modules = _imported_modules(proc.stderr)
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("skewbench.")}
    assert loaded == {"cli", "errors"} | layers
    assert "dataclasses" not in modules  # its records would exec code in every process
    assert not modules & {"hashlib", "_hashlib"}  # _hashlib maps OpenSSL's libcrypto


@pytest.mark.parametrize(
    "data", [b"", b"\xff\xfe\x00 not UTF-8 \x80", bytes(range(256)) * 800], ids=["empty", "non-utf8", "200KB"]
)
def test_digest_is_the_sha256_of_the_input(data):
    assert cli._digest(data) == "sha256:" + hashlib.sha256(data).hexdigest()


def test_the_hashlib_fallback_gives_the_same_report_bytes():
    """Without CPython's built-in SHA-256 modules the digest comes from
    hashlib, and ``check`` writes the golden report unchanged."""
    golden = Path(__file__).parent / "golden"
    code = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "from skewbench.cli import main; sys.exit(main())"
    )
    proc = _run_python("-X", "importtime", "-c", code, "check", str(golden / "pf22.alg"))
    assert proc.returncode == 0
    assert proc.stdout == (golden / "check-pf22.text").read_bytes()
    assert "hashlib" in _imported_modules(proc.stderr)


@pytest.mark.parametrize("module", ["skewbench", "skewbench.cli"])
def test_import_loads_no_numpy(module):
    proc = _run_python("-c", f"import sys, {module}; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, b"False\n")


REFUSED_BEFORE_NUMPY = {
    "check missing file": ["check", "{missing.alg}"],
    "check non-utf8": ["check", "{latin1.alg}"],
    "check unknown element": ["check", "{unknown.alg}"],
    "quotient --rel X": ["quotient", "{chain2.alg}", "--rel", "X"],
    "model sections --fibers a,b": ["model", "sections", "--base", "2", "--fibers", "a,b"],
    "model pfn --x 0": ["model", "pfn", "--x", "0", "--y", "2"],
    "model sections wrong fiber count": ["model", "sections", "--base", "3", "--fibers", "2,2"],
    "--jobs 0 search": ["--jobs", "0", "search", "--family", "pfn", "--max-size", "10", "--property", "symmetric"],
    "search --property no-such": ["search", "--family", "pfn", "--max-size", "10", "--property", "no-such"],
    "search --max-size -3": ["search", "--family", "pfn", "--max-size", "-3", "--property", "symmetric"],
    "--bound -1": ["--bound", "-1", "model", "pfn", "--x", "2", "--y", "2"],
    "search --max-size above --bound": [
        "--bound", "50", "search", "--family", "pfn", "--max-size", "100", "--property", "symmetric"
    ],
    "--bound 1e8 model pfn 3 400": ["--bound", "100000000", "model", "pfn", "--x", "3", "--y", "400"],
    "model sections oversized": ["model", "sections", "--base", "3", "--fibers", "3000000,1,1"],
    "poset text after leq:": ["model", "poset-sections", "{junk_leq.pos}", "--fibers", "1,1"],
    "poset repeated point": ["model", "poset-sections", "{repeated.pos}", "--fibers", "1,1"],
    "check repeated element": ["check", "{repeated.alg}"],
    "check element named #b": ["check", "{hash.alg}"],
    "search --max-size beyond an int16 carrier": [
        "--bound", "100000", "search", "--family", "pfn", "--max-size", "40000", "--property", "symmetric"
    ],
    "check above --bound": ["--bound", "1", "check", "{chain2.alg}"],
}


@pytest.mark.parametrize("argv", REFUSED_BEFORE_NUMPY.values(), ids=REFUSED_BEFORE_NUMPY.keys())
def test_refused_input_exits_two_without_numpy(tmp_path, argv):
    (tmp_path / "chain2.alg").write_text(CHAIN2_DOC)
    (tmp_path / "latin1.alg").write_bytes(b"# caf\xe9\n" + CHAIN2_DOC.encode())
    (tmp_path / "unknown.alg").write_text(CHAIN2_DOC.replace("0 0\n0 1\njoin", "0 0\n0 nosuch\njoin"))
    (tmp_path / "junk_leq.pos").write_text(POSET_DOC.replace("leq:", "leq: 1 1 junk"))
    (tmp_path / "repeated.pos").write_text(POSET_DOC.replace("a b", "p p"))
    (tmp_path / "repeated.alg").write_text(TWO_NAMES_DOC.format("a a"))
    (tmp_path / "hash.alg").write_text(TWO_NAMES_DOC.format("a #b"))
    argv = _with_paths(tmp_path, argv)
    proc = _run_python("-X", "importtime", "-m", "skewbench", *argv)
    assert proc.returncode == 2
    assert "numpy" not in _imported_modules(proc.stderr)


OVERSIZED_MODELS = {
    "pfn 2^20000": ["model", "pfn", "--x", "20000", "--y", "1"],
    "pfn 3^1e9": ["model", "pfn", "--x", "1000000000", "--y", "2"],
    "sections 1e26": ["model", "sections", "--base", "3", "--fibers", "99999999999999999999999999,1,1"],
    "sections 3e6": ["model", "sections", "--base", "3", "--fibers", "3000000,1,1"],
    "poset-sections 5e6": ["model", "poset-sections", "{chain2.pos}", "--fibers", "5000000,1"],
}


@pytest.mark.parametrize("argv", OVERSIZED_MODELS.values(), ids=OVERSIZED_MODELS.keys())
def test_oversized_model_is_refused_at_once(tmp_path, argv):
    """The size is counted from the arguments, stopping once it passes the
    bound: no huge power is computed and no element is named first."""
    (tmp_path / "chain2.pos").write_text(POSET_DOC)
    argv = _with_paths(tmp_path, argv)
    proc = _run_python("-m", "skewbench", *argv, timeout=3)
    assert proc.returncode == 2 and b"Traceback" not in proc.stderr
    assert b"has more than 10000 elements, bound is 10000" in proc.stdout


def test_a_model_command_imports_numpy():
    """The control for the tests above: the log does name numpy once a
    command runs its numeric layers."""
    proc = _run_python("-X", "importtime", "-m", "skewbench", "model", "pfn", "--x", "1", "--y", "1")
    assert proc.returncode == 0
    assert "numpy" in _imported_modules(proc.stderr)


def test_negative_bound_is_a_usage_error():
    code, out = run_command(["--bound", "-1", "model", "pfn", "--x", "2", "--y", "2"])
    assert (code, out) == (2, b"VERDICT: USAGE\n")


# the variables OpenBLAS reads for its thread count, first match wins
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_HAS_TASK_DIR = os.path.isdir("/proc/self/task")


def _unpinned_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_MAIN_THEN_THREADS = """\
import os, sys
from skewbench import cli
sys.argv = ["skewbench", "model", "pfn", "--x", "1", "--y", "1"]
status = cli.main()
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else "-"
print(status, threads, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_main_pins_blas_to_one_thread_unless_set(preset):
    env = _unpinned_env()
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = _run_python("-c", _MAIN_THEN_THREADS, env=env)
    assert proc.returncode == 0, proc.stderr
    status, threads, value = proc.stdout.splitlines()[-1].decode().split()
    assert (status, value) == ("0", preset or "1")
    if preset is None and _HAS_TASK_DIR:
        assert threads == "1"


@pytest.mark.skipif(not _HAS_TASK_DIR or _usable_cpus() < 2, reason="needs /proc/self/task and two CPUs")
def test_bare_numpy_import_starts_blas_workers():
    """The control for the test above: without the pin, loading numpy
    starts OpenBLAS worker threads."""
    proc = _run_python("-c", "import os, numpy; print(len(os.listdir('/proc/self/task')))", env=_unpinned_env())
    assert proc.returncode == 0 and int(proc.stdout) > 1


def test_import_and_run_command_leave_the_environment_alone():
    code = """\
import os
before = dict(os.environ)
import skewbench, skewbench.cli
skewbench.cli.run_command(["model", "pfn", "--x", "1", "--y", "1"])
print(dict(os.environ) == before)
"""
    proc = _run_python("-c", code, env=_unpinned_env())
    assert (proc.returncode, proc.stdout) == (0, b"True\n")


_MAIN_THEN_FREEZE_COUNT = """\
import gc, sys
from skewbench import cli
sys.argv = ["skewbench", "model", "pfn", "--x", "2", "--y", "2"]
before = gc.get_freeze_count()
status = cli.main()
print(status, before, gc.get_freeze_count(), gc.isenabled())
"""


def test_main_freezes_the_heap_for_the_exit():
    proc = _run_python("-c", _MAIN_THEN_FREEZE_COUNT)
    assert proc.returncode == 0, proc.stderr
    status, before, after, enabled = proc.stdout.splitlines()[-1].split()
    assert (int(status), int(before)) == (0, 0) and int(after) > 0
    assert enabled == b"False"


def _write_inputs(tmp_path, pf22, n5) -> None:
    (tmp_path / "pf22.alg").write_text(emit_algebra_file(pf22))
    (tmp_path / "n5.alg").write_text(emit_algebra_file(n5))
    (tmp_path / "bad.alg").write_text(NON_SKEW_DOC)


@pytest.mark.parametrize(
    "argv,status",
    [(["check", "{pf22.alg}"], 0), (["derive", "{n5.alg}"], 1), (["quotient"], 2)],
    ids=["check", "derive n5", "usage"],
)
def test_run_command_leaves_the_collector_alone(tmp_path, pf22, n5, argv, status):
    _write_inputs(tmp_path, pf22, n5)
    before = (gc.get_freeze_count(), gc.isenabled())
    assert run_command(_with_paths(tmp_path, argv))[0] == status
    assert (gc.get_freeze_count(), gc.isenabled()) == before


_MAIN_THEN_CYCLIC_GARBAGE = """\
import gc, sys, types
from skewbench import cli
sys.argv[0] = "skewbench"
status = cli.main()
gc.unfreeze()
gc.set_debug(gc.DEBUG_SAVEALL)
gc.collect()
def made_by_skewbench(o):
    module = o.__module__ if isinstance(o, types.FunctionType) else type(o).__module__
    return str(module).startswith("skewbench")
ours = sorted({repr(o if isinstance(o, types.FunctionType) else type(o)) for o in gc.garbage if made_by_skewbench(o)})
print(status, len(gc.garbage), ours, file=sys.stderr)
"""

CYCLE_FREE_CASES = {
    **{command: (argv, 0) for command, (argv, _) in COMMAND_LAYERS.items()},
    "search enum": (["search", "--family", "enum", "--max-size", "12", "--property", "symmetric", "--negate"], 0),
    "derive n5": (["derive", "{n5.alg}"], 1),
}


@pytest.mark.parametrize("argv,status", CYCLE_FREE_CASES.values(), ids=CYCLE_FREE_CASES.keys())
def test_a_command_leaves_no_cyclic_garbage_of_its_own(tmp_path, pf22, n5, argv, status):
    """``main`` runs with the collector off, so the workbench must free its
    memory by reference counting: a collection after the command finds
    argparse's cycles, made once per process, and nothing of skewbench."""
    _write_inputs(tmp_path, pf22, n5)
    (tmp_path / "chain2.pos").write_text("points: p q\nleq:\n1 1\n0 1\n")
    proc = _run_python("-c", _MAIN_THEN_CYCLIC_GARBAGE, *_with_paths(tmp_path, argv))
    assert proc.returncode == 0, proc.stderr
    returned, garbage, ours = proc.stderr.decode().splitlines()[-1].split(" ", 2)
    assert (int(returned), ours) == (status, "[]")
    assert int(garbage) > 0


ENTRY_POINT_CASES = {
    "check passes": (["check", "{pf22.alg}"], 0),
    "check fails": (["--format", "machine", "check", "{bad.alg}"], 1),
    "derive n5": (["derive", "{n5.alg}"], 1),
    "usage error": (["quotient", "{pf22.alg}"], 2),
    "parse error": (["check", "{missing.alg}"], 2),
    "model pfn": (["model", "pfn", "--x", "2", "--y", "2"], 0),
    "--jobs 2 search": (
        ["--jobs", "2", "search", "--family", "pfn", "--max-size", "16", "--property", "symmetric", "--negate"],
        0,
    ),
}


@pytest.mark.parametrize("argv,status", ENTRY_POINT_CASES.values(), ids=ENTRY_POINT_CASES.keys())
def test_entry_point_writes_what_run_command_returns(tmp_path, pf22, n5, argv, status):
    _write_inputs(tmp_path, pf22, n5)
    argv = _with_paths(tmp_path, argv)
    proc = _run_python("-m", "skewbench", *argv, env=_unpinned_env())
    assert (proc.returncode, proc.stdout) == run_command(argv)
    assert proc.returncode == status


def test_jobs_workers_import_no_layer_of_their_own():
    """The parent loads every layer a search builds and evaluates with
    before the pool forks, so no worker compiles one again."""
    for family in ("pfn", "sections", "enum"):
        argv = ["search", "--family", family, "--max-size", "16", "--property", "symmetric", "--negate"]
        proc = _run_python("-X", "importtime", "-m", "skewbench", "--jobs", "2", *argv)
        assert proc.returncode == 0, (family, proc.stdout)
        ours = [m for m in _import_log(proc.stderr) if m.startswith("skewbench.")]
        assert "skewbench.properties" in ours and len(ours) == len(set(ours)), family


def test_a_jobs_search_that_hits_at_once_builds_one_window(monkeypatch):
    """pfn(1,1) is normal, so the search stops at its first instance and
    draws no more recipes than the chunks it had in flight."""
    built = []
    stream = models.search_family

    def counted(family, max_size):
        for label, alg in stream(family, max_size):
            built.append(label)
            yield label, alg

    monkeypatch.setattr(models, "search_family", counted)
    argv = ["--jobs", "2", "search", "--family", "pfn", "--max-size", "400", "--property", "normal"]
    code, out = run_command(["--format", "machine", *argv])
    assert code == 1 and b"name=search verdict=fails checked=1 " in out
    assert 1 <= len(built) <= cli._CHUNK * cli._WINDOW * 2


def test_search_jobs_through_the_entry_point():
    """``--jobs`` workers forked from a pinned ``main`` give the same bytes."""
    argv = ["search", "--family", "pfn", "--max-size", "16", "--property", "co-strongly-distributive", "--negate"]
    runs = [_run_python("-m", "skewbench", "--jobs", jobs, *argv, env=_unpinned_env()) for jobs in ("1", "2")]
    assert runs[0].stdout.startswith(b"skewbench ")
    assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)


SEARCH_HITS = {
    "pfn": ["--family", "pfn", "--max-size", "64", "--property", "strongly-distributive", "--negate"],
    "sections": ["--family", "sections", "--max-size", "40", "--property", "normal", "--negate"],
    "enum": ["--family", "enum", "--max-size", "40", "--property", "conormal", "--negate"],
}


@pytest.mark.parametrize("argv", SEARCH_HITS.values(), ids=SEARCH_HITS.keys())
def test_a_hit_names_its_witness_alike_for_every_jobs_setting(argv):
    """The witness of a hit is named from the instance that a ``--jobs 2``
    worker built, past the first instance, and the bytes are those of
    ``--jobs 1``."""
    argv = ["--format", "machine", "search", *argv]
    runs = [_run_python("-m", "skewbench", "--jobs", jobs, *argv, env=_unpinned_env()) for jobs in ("1", "2")]
    assert runs[0].returncode == 1 and runs[0].stdout.count(b" witness=") == 2
    assert b"name=search verdict=fails checked=1 " not in runs[0].stdout
    assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)


def test_a_search_keeps_no_instance_it_has_evaluated():
    """The stream holds recipes and the search keeps labels, so the parent's
    peak is one instance's working set, not the sum over the stream."""
    import tracemalloc

    argv = ["search", "--family", "pfn", "--max-size", "400", "--property", "symmetric", "--negate"]
    assert run_command(argv[:4] + ["4"] + argv[5:])[0] == 0  # the layers load outside the trace
    tracemalloc.start()
    try:
        code, _ = run_command(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 11 << 20, f"{peak / 2**20:.1f} MiB"
