"""Output checker against the committed expectations in ``expectations.json``.

For a report command the expectation is the exit status, the ``VERDICT:``
line and the ``name``/``verdict``/``checked`` tokens of every ``CHECK:``
line of ``--format machine``; none of these changes under relabeling.  A
search also carries the label of the instance it found in the ``witness``
token of its ``search`` entry, which is checked too.  An artifact command
(``model``, ``quotient``) must exit 0 and print a file that re-parses with
the expected number of elements.  Every command fails its check if it
writes a Python traceback, times out or dies on the address-space cap.
"""

from __future__ import annotations

import json
from pathlib import Path

from skewbench.cli import parse_algebra_file
from skewbench.errors import SkewbenchError

EXPECTATIONS = Path(__file__).resolve().parent / "expectations.json"


def load() -> dict:
    with open(EXPECTATIONS) as fh:
        return json.load(fh)


def check_tokens(stdout: bytes) -> list[str]:
    """The ``name``, ``verdict`` and ``checked`` tokens of every ``CHECK:`` line."""
    keep = ("name=", "verdict=", "checked=")
    return [
        " ".join(tok for tok in line[7:].split() if tok.startswith(keep))
        for line in stdout.decode("utf-8", "replace").splitlines()
        if line.startswith("CHECK: ")
    ]


def _entry_token(stdout: bytes, name: str, key: str) -> str | None:
    """The ``key=`` token of the ``CHECK:`` line of entry ``name``."""
    for line in stdout.decode("utf-8", "replace").splitlines():
        if line.startswith(f"CHECK: name={name} "):
            for tok in line.split():
                if tok.startswith(key + "="):
                    return tok[len(key) + 1:]
    return None


def searched(stdout: bytes) -> int:
    """Instances a search evaluated: the ``checked`` count of its entry."""
    return int(_entry_token(stdout, "search", "checked") or 0)


def _last_line(stdout: bytes) -> str:
    lines = stdout.decode("utf-8", "replace").rstrip("\n").splitlines()
    return lines[-1] if lines else ""


def observe(run) -> dict:
    """The expectation record that this run's output would produce."""
    text = run.stdout
    if _last_line(text).startswith("VERDICT:"):
        rec = {"status": run.status, "verdict": _last_line(text), "checks": check_tokens(text)}
        found = _entry_token(text, "search", "witness")
        if found is not None:
            rec["found"] = found
        return rec
    try:
        A = parse_algebra_file(text.decode())
    except (SkewbenchError, UnicodeDecodeError) as exc:
        return {"status": run.status, "artifact_error": f"{type(exc).__name__}: {exc}"}
    return {"status": run.status, "elements": A.n}


def problems(expected: dict, run) -> list[str]:
    """Why the run does not meet its expectation; empty when it does."""
    out = []
    if run.timed_out:
        out.append("timed out")
    if b"Traceback (most recent call last)" in run.stderr:
        out.append("wrote a traceback")
    if b"MemoryError" in run.stderr:
        out.append("hit the address-space cap")
    if run.status != expected["status"]:
        out.append(f"exit status {run.status}, expected {expected['status']}")
    seen = observe(run)
    if "checks" in expected and seen.get("checks") != expected["checks"]:
        got = seen.get("checks") or []
        extra = [t for t in got if t not in expected["checks"]]
        lost = [t for t in expected["checks"] if t not in got]
        out.append(f"checks differ: got {extra}, expected {lost}")
    for key in ("verdict", "found", "elements"):
        if key in expected and seen.get(key) != expected[key]:
            out.append(f"{key}: got {seen.get(key)!r}, expected {expected[key]!r}")
    if expected.get("witness") and not _entry_token(run.stdout, expected["witness"], "witness"):
        out.append(f"no witness on {expected['witness']}")
    return out
