"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the
root of a checkout."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
import proc  # noqa: E402
from skewbench.cli import emit_algebra_file, parse_algebra_file  # noqa: E402
from skewbench.models import partial_function_algebra  # noqa: E402


def _run(workdir: Path, args, launcher="launch.py", extra=()):
    argv = ["--format", "machine", *corpus.resolve(args, workdir)]
    return proc.run(
        launcher, argv, root=ROOT, workdir=workdir, cap_bytes=corpus.CAP_BYTES, timeout_s=60, extra_args=extra
    )


def test_negative_control_flags_a_changed_arrow_entry(tmp_path):
    corpus.build("verify-deep", 7, tmp_path)
    path = tmp_path / "pfn51.alg"
    A = parse_algebra_file(path.read_text())
    arrow = A.arrow.copy()
    arrow[0, 0] = (arrow[0, 0] + 1) % A.n
    path.write_text(emit_algebra_file(A.with_arrow(arrow)))

    run = _run(tmp_path, ("derive", "{pfn51.alg}"))
    expected = check.load()["workloads"]["verify-deep"]["derive pfn51"]
    found = check.problems(expected, run)
    assert found, "the checker accepted a changed arrow entry"
    assert "name=declared-arrow-matches verdict=fails" in check.check_tokens(run.stdout)
    assert any("declared-arrow-matches" in p for p in found)


def test_untouched_file_passes_the_same_check(tmp_path):
    corpus.build("verify-deep", 7, tmp_path)
    run = _run(tmp_path, ("derive", "{pfn51.alg}"))
    expected = check.load()["workloads"]["verify-deep"]["derive pfn51"]
    assert check.problems(expected, run) == []


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_seeded_and_every_op_has_an_expectation(tmp_path, workload):
    _, ops_a = corpus.build(workload, 3, tmp_path / "a")
    _, ops_b = corpus.build(workload, 3, tmp_path / "b")
    corpus.build(workload, 4, tmp_path / "c")
    for f in (tmp_path / "a").iterdir():
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
    assert ops_a == ops_b
    assert {op.id for op in ops_a} == set(check.load()["workloads"][workload])


def test_relabeling_is_an_isomorphism():
    A = partial_function_algebra(2, 2)
    perm = corpus._permutation(5, "x", A.n)
    B = corpus.relabel_algebra(A, perm)
    for i in range(A.n):
        for j in range(A.n):
            assert B.meet[perm[i], perm[j]] == perm[A.meet[i, j]]
            assert B.arrow[perm[i], perm[j]] == perm[A.arrow[i, j]]
    assert B.top == perm[A.top]


def test_a_file_that_does_not_round_trip_stops_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "emit_algebra_file", lambda A: emit_algebra_file(A).replace("top:", "# top:"))
    with pytest.raises(corpus.CorpusError):
        corpus.build("classify-wide", 1, tmp_path)


def test_known_defects_are_error_path_ops():
    book = check.load()
    ops = book["workloads"]["error-paths"]
    assert len(ops) == 12
    assert set(book["known_defects"]) == {"error-paths"}
    assert len(book["known_defects"]["error-paths"]) == 7
    assert set(book["known_defects"]["error-paths"]) <= set(ops)


def _traced_metrics(workdir: Path, args):
    spans = workdir / "spans.json"
    run = _run(workdir, args, launcher="tracer.py", extra=(str(spans), "0:0"))
    with open(spans) as fh:
        trace = json.load(fh)
    return run, trace


def test_trace_counts_repeat_exactly_and_verify_names_every_sub_suite(tmp_path):
    corpus.build("verify-deep", 11, tmp_path)
    expected = check.load()["workloads"]["verify-deep"]["verify pfn51"]
    metrics = []
    for _ in range(2):
        run, trace = _traced_metrics(tmp_path, ("verify", "{pfn51.alg}"))
        assert check.problems(expected, run) == []
        assert trace["command"] == "0:0"
        assert all(span[0] == "0:0" for span in trace["spans"])
        lp = layers.Pass([trace])
        assert layers.subsuites(trace) == set(layers.SUB_SUITES.values())
        metrics.append(lp.metrics(run.wall_s))
    for name in layers.COUNTS + layers.RATIOS:
        assert metrics[0][name] == metrics[1][name], name
    assert metrics[0]["heyting.kernel_calls"] > 0
    assert metrics[0]["identities.arity4_tuples"] > 0


def test_traced_output_equals_untraced_output(tmp_path):
    corpus.build("classify-wide", 2, tmp_path)
    plain = _run(tmp_path, ("derive", "{pfn24.alg}"))
    traced, _ = _traced_metrics(tmp_path, ("derive", "{pfn24.alg}"))
    assert plain.stdout == traced.stdout
    assert plain.status == traced.status


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "error-paths", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert b'"correct"' not in out.stdout


def test_reported_metrics_are_the_declared_ones(tmp_path):
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run.END_TO_END) == {m["name"] for m in declared["end_to_end"]}
    corpus.build("classify-wide", 2, tmp_path)
    run_, trace = _traced_metrics(tmp_path, ("check", "{pfn24.alg}"))
    names = set(layers.Pass([trace]).metrics(run_.wall_s)) | {"bench.trace_overhead"}
    assert names == {m["name"] for m in declared["per_layer"]}
    for m in declared["per_layer"]:
        assert m["unit"] == layers.unit_of(m["name"])


def test_times_are_scaled_by_the_reference_and_failed_runs_leave_peak_rss():
    import run

    def sample(op, wall, passed=True, rss=40.0):
        # every reference run took twice REF_S: the machine ran at half speed
        return run.Sample(op=op, wall_s=wall, cpu_s=wall, rss_mb=rss, passed=passed, setup_s=wall / 10,
                          instances=0, trace=None, ref_s=2 * run.REF_S)

    samples = [sample(0, 2.0), sample(1, 4.0), sample(1, 4.4), sample(2, 6.0, passed=False, rss=300.0)]
    m = run._end_to_end(run._scaled(samples))
    assert m["wall_s"] == pytest.approx(1.0 + 2.1 + 3.0)
    assert m["cmd_p50_s"] == pytest.approx(2.1)
    assert m["setup_s"] == pytest.approx(0.21)
    assert m["peak_rss_mb"] == 40.0
