"""Re-record ``bench/expectations.json``.

    python3 bench/record.py

Run from the root of a checkout whose program is trusted.  Every op of
``verify-deep``, ``classify-wide`` and ``search-build`` runs once on seed 0
and its observed output becomes the expectation; an op that has a traced
variant (the ``--jobs 2`` search) is recorded from that ``--jobs 1``
variant, so the parallel run must match the serial one.  The ``error-paths``
expectations are the CLI's exit-status contract, written out below, not
observations; ``KNOWN_DEFECTS`` names the ops that break it at the commit
the benchmark was defined on.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import corpus  # noqa: E402
import proc  # noqa: E402

USAGE = {"status": 2, "verdict": "VERDICT: USAGE"}
CONTRACT = {
    "check unknown-element": USAGE,
    "check missing-file": USAGE,
    "quotient --rel X": USAGE,
    "search --property no-such": USAGE,
    "check non-utf8": USAGE,
    "model sections --fibers a,b": USAGE,
    "model pfn --x 0": USAGE,
    "model sections wrong fiber count": USAGE,
    "--jobs 0 search": USAGE,
    "search --max-size -3": USAGE,
    "--bound 1e8 model pfn 3 400": USAGE,
}
# recorded like the other workloads, plus a witness on the failing entry
OBSERVED_ERRORS = {"derive n5": "arrow-derivable"}
KNOWN_DEFECTS = {
    "error-paths": {
        "check non-utf8": "UnicodeDecodeError traceback, exit 1",
        "model sections --fibers a,b": "ValueError traceback, exit 1",
        "model pfn --x 0": "PreconditionFailed reported as FAIL, exit 1",
        "model sections wrong fiber count": "PreconditionFailed reported as FAIL, exit 1",
        "--jobs 0 search": "accepted; the search runs serially",
        "search --max-size -3": "accepted; the empty family exhausts with PASS, exit 0",
        "--bound 1e8 model pfn 3 400": "the --bound is not applied; MemoryError traceback on the cap",
    }
}


def record(workload: str) -> dict:
    workdir = ROOT / ".bench_work" / f"record-{workload}"
    try:
        _, ops = corpus.build(workload, 0, workdir)
        out = {}
        for op in ops:
            if op.id in CONTRACT:
                out[op.id] = CONTRACT[op.id]
                continue
            argv = ["--format", "machine", *corpus.resolve(op.traced_argv or op.argv, workdir)]
            run = proc.run(
                "launch.py", argv, root=ROOT, workdir=workdir, cap_bytes=op.cap_bytes, timeout_s=op.timeout_s
            )
            if run.timed_out or b"Traceback" in run.stderr:
                raise SystemExit(f"{workload}: {op.id} did not run cleanly:\n{run.stderr.decode()}")
            out[op.id] = check.observe(run)
            if op.id in OBSERVED_ERRORS:
                out[op.id]["witness"] = OBSERVED_ERRORS[op.id]
            print(f"{workload}: {op.id}: {out[op.id]['status']}", file=sys.stderr)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    book = {
        "workloads": {w: record(w) for w in corpus.WORKLOADS},
        "known_defects": KNOWN_DEFECTS,
    }
    with open(check.EXPECTATIONS, "w") as fh:
        json.dump(book, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
