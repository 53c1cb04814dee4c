"""Byte-for-byte golden reports for ``verify`` and ``derive``.

The inputs and the expected exit statuses and report bytes live under
``tests/golden/``.  A change that alters any report byte fails here; an
intended change is re-recorded with ``python3 tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from skewbench.cli import emit_algebra_file, run_command

GOLDEN = Path(__file__).parent / "golden"

# (command, input stem, expected exit status)
CASES = (
    ("verify", "pf22", 0),
    ("verify", "pf12", 0),
    ("derive", "pf22", 0),
    ("derive", "pf12", 0),
    ("derive", "n5", 1),
)
FORMATS = ("machine", "text")


def _run(command: str, stem: str, fmt: str) -> tuple[int, bytes]:
    return run_command(["--format", fmt, command, str(GOLDEN / f"{stem}.alg")])


@pytest.mark.parametrize("stem", ["pf22", "pf12", "n5"])
def test_golden_inputs_match_fixtures(stem, request):
    A = request.getfixturevalue(stem)
    assert (GOLDEN / f"{stem}.alg").read_text() == emit_algebra_file(A)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command,stem,status", CASES)
def test_report_bytes(command, stem, status, fmt):
    code, out = _run(command, stem, fmt)
    assert code == status
    assert out == (GOLDEN / f"{command}-{stem}.{fmt}").read_bytes()


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import n5, pf12, pf22

    for stem, fixture in (("pf22", pf22), ("pf12", pf12), ("n5", n5)):
        (GOLDEN / f"{stem}.alg").write_text(emit_algebra_file(fixture.__wrapped__()))
    for command, stem, status in CASES:
        for fmt in FORMATS:
            code, out = _run(command, stem, fmt)
            assert code == status, (command, stem, fmt, code)
            (GOLDEN / f"{command}-{stem}.{fmt}").write_bytes(out)
