"""Benchmark harness for the skewbench CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It writes the workload's seeded input
files under ``.bench_work/``, then runs the workload's commands until
``--seconds`` have elapsed (at least one whole pass).  Every command
runs in its own fresh process, one at a time, in a closed loop with one
client, so nothing cached inside a process can outlive one invocation.
After one whole pass the untraced run keeps choosing the command with the
least measured time so far, so that short commands get more samples;
``wall_s`` is the sum of the commands' median times.  Before every command
and after the last it runs the fixed reference work of ``bench/reference.py``,
and it scales each command's times by ``REF_S`` over the mean of the
reference times measured just before and just after it: the end-to-end times are seconds on a machine whose reference takes
``REF_S``, so that the state of a shared machine cancels out.
Every output is checked against ``bench/expectations.json``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the passes alternate between
untraced and traced (``bench/tracer.py``) and the object carries the
per-layer metrics.  The lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import proc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Every command's timeout is cut so that a run ends within this many seconds
# even if commands hang; a command cut short fails its check.
DEADLINE_S = 150.0

# Seconds that bench/reference.py takes on the machine the benchmark was
# defined on (a 2-vCPU Intel Xeon virtual machine), in its usual state.
REF_S = 0.2

END_TO_END = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    """One command run, measured from outside."""

    op: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    passed: bool
    setup_s: float | None
    instances: int
    trace: dict | None
    # mean time of the reference work run just before and just after it
    ref_s: float | None = None


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


class Harness:
    def __init__(self, workload: str, seed: int, workdir: Path):
        import check
        import corpus

        self.check = check
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        _, self.ops = corpus.build(workload, seed, workdir)
        self.resolve = corpus.resolve
        self.cap_bytes = corpus.CAP_BYTES
        book = check.load()
        self.expected = book["workloads"][workload]
        self.known = book["known_defects"].get(workload, {})
        missing = [op.id for op in self.ops if op.id not in self.expected]
        if missing:
            raise SystemExit(f"no committed expectation for {missing}")
        self.runs = 0
        self.failed_runs = 0
        self.unexpected = 0
        self.failures: dict[str, list[str]] = {}

    def run_op(self, i: int, trace_id: str | None = None, traced_args: bool = False) -> Sample:
        """Run op ``i``, traced under ``trace_id`` if one is given;
        ``traced_args`` gives it the arguments of its traced run."""
        op = self.ops[i]
        traced = trace_id is not None
        argv = op.traced_argv if (traced or traced_args) and op.traced_argv else op.argv
        argv = ["--format", "machine", *self.resolve(argv, self.workdir)]
        spans = self.workdir / "spans.json"
        r = proc.run(
            "tracer.py" if traced else "launch.py",
            argv,
            root=ROOT,
            workdir=self.workdir,
            cap_bytes=op.cap_bytes,
            timeout_s=max(1.0, min(op.timeout_s, self.deadline - time.monotonic())),
            extra_args=(str(spans), trace_id) if traced else (),
        )
        self.runs += 1
        probs = self.check.problems(self.expected[op.id], r)
        if probs:
            self.failed_runs += 1
            self.failures.setdefault(op.id, probs)
            if op.id not in self.known:
                self.unexpected += 1
        trace = None
        if traced:
            trace = {"command": trace_id, "argv": argv, "spans": []}
            if spans.exists():
                with open(spans) as fh:
                    trace = json.load(fh)
                spans.unlink()
        return Sample(
            op=i,
            wall_s=r.wall_s,
            cpu_s=r.cpu_s,
            rss_mb=r.maxrss_kb / 1024,
            passed=not probs,
            setup_s=r.setup_s,
            instances=0 if probs else self.check.searched(r.stdout),
            trace=trace,
        )

    def run_reference(self) -> float:
        """Wall time of one run of the fixed reference work."""
        r = proc.run(
            "reference.py",
            [],
            root=ROOT,
            workdir=self.workdir,
            cap_bytes=self.cap_bytes,
            timeout_s=max(1.0, min(30.0, self.deadline - time.monotonic())),
        )
        if r.status != 0:
            raise SystemExit(f"the reference work failed: {r.stderr.decode(errors='replace')}")
        return r.wall_s

    def run_pass(self, number: int, traced: bool) -> list[Sample]:
        return [
            self.run_op(i, f"{number}:{i}" if traced else None, traced_args=True) for i in range(len(self.ops))
        ]

    def summary(self, traced: bool) -> list[str]:
        lines = []
        for op in self.ops:
            probs = self.failures.get(op.id)
            tag = "ok" if not probs else ("KNOWN DEFECT" if op.id in self.known else "FAILED")
            note = "" if not probs else ": " + "; ".join(probs)
            if traced and op.traced_argv:
                note += "  (run with " + " ".join(op.traced_argv[:2]) + " in both kinds of pass: spans in pool workers would be lost)"
            lines.append(f"  [{tag}] {op.id}{note}")
        return lines


def _by_op(samples: list[Sample], field: str) -> dict[int, float]:
    """Median of one measurement per op."""
    values: dict[int, list] = {}
    for smp in samples:
        values.setdefault(smp.op, []).append(getattr(smp, field))
    return {op: _median(v) for op, v in values.items()}


def _scaled(samples: list[Sample]) -> list[Sample]:
    """The samples with their times scaled to a reference time of ``REF_S``."""
    out = []
    for smp in samples:
        f = REF_S / smp.ref_s
        out.append(replace(
            smp,
            wall_s=smp.wall_s * f,
            cpu_s=smp.cpu_s * f,
            setup_s=None if smp.setup_s is None else smp.setup_s * f,
        ))
    return out


def _end_to_end(samples: list[Sample]) -> dict[str, float]:
    walls = _by_op(samples, "wall_s")
    return {
        "wall_s": sum(walls.values()),
        "cmd_p50_s": _median(list(walls.values())),
        "cpu_s": sum(_by_op(samples, "cpu_s").values()),
        "setup_s": _median([s.setup_s for s in samples if s.setup_s is not None]),
        # a failing op may have died on the harness's own cap, which would
        # set the figure instead of the program
        "peak_rss_mb": max(_by_op([s for s in samples if s.passed] or samples, "rss_mb").values()),
    }


def _search_rate(samples: list[Sample]) -> float | None:
    """Search instances evaluated per second of search-command wall time."""
    ops = {s.op for s in samples if s.instances}
    if not ops:
        return None
    walls = _by_op(samples, "wall_s")
    instances = {s.op: s.instances for s in samples if s.instances}
    return sum(instances.values()) / sum(walls[op] for op in ops)


def _per_layer(traced: list[list[Sample]], untraced: list[list[Sample]]) -> tuple[dict[str, float], list[str]]:
    import layers

    problems = []
    passes = [layers.Pass([s.trace for s in p]) for p in traced]
    walls = [sum(s.wall_s for s in p) for p in traced]
    runs = [lp.metrics(wall) for lp, wall in zip(passes, walls)]
    exact = layers.COUNTS + layers.RATIOS
    out = {}
    for name in runs[0]:
        values = [m[name] for m in runs]
        if name in exact:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = _median(values)
    untraced_wall = _median([sum(s.wall_s for s in p) for p in untraced])
    out["bench.trace_overhead"] = _median(walls) / untraced_wall - 1.0
    for lp in passes:
        for trace in lp.traces:
            if "verify" in trace["argv"]:
                missing = set(layers.SUB_SUITES.values()) - layers.subsuites(trace)
                if missing:
                    problems.append(f"verify span tree lacks {sorted(missing)}")
    return dict(sorted(out.items())), problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "skewbench" / "cli.py").is_file():
        print(f"bench/run.py: no skewbench sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus

    if args.workload not in corpus.WORKLOADS:
        print(f"bench/run.py: unknown workload {args.workload!r}; choose from {', '.join(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    h = Harness(args.workload, args.seed, workdir)
    n = len(h.ops)
    start = time.monotonic()
    samples: list[Sample] = []
    untraced: list[list[Sample]] = []
    traced: list[list[Sample]] = []
    if args.trace:
        # whole passes with the same arguments, alternating, so that the
        # two kinds of pass compare
        while not traced or time.monotonic() - start < args.seconds:
            untraced.append(h.run_pass(2 * len(traced), False))
            traced.append(h.run_pass(2 * len(traced) + 1, True))
    else:
        # one whole pass, then until time is up the command with the least
        # measured time so far: short commands get more samples
        busy = [0.0] * n
        refs = [h.run_reference()]
        while len(samples) < n or time.monotonic() - start < args.seconds:
            i = len(samples) if len(samples) < n else busy.index(min(busy))
            samples.append(h.run_op(i))
            refs.append(h.run_reference())
            samples[-1].ref_s = (refs[-2] + refs[-1]) / 2
            busy[i] += samples[-1].wall_s

    print(f"workload {args.workload}, seed {args.seed}: {h.runs} runs of {n} commands, "
          f"{len(traced) * n} of them traced")
    for line in h.summary(bool(args.trace)):
        print(line)
    print(f"  ops_failed = {len(h.failures)}/{n} ops = {len(h.failures) / n:.4f}"
          f" ({h.failed_runs} of {h.runs} command runs; {h.unexpected} not among the known defects)")
    correct = h.unexpected == 0
    if not args.trace:
        scaled = _scaled(samples)
        timed = _end_to_end(scaled)
        raw = _end_to_end(samples)
        print(f"  reference work: median {_median(refs):.4g} s over {len(refs)} runs,"
              f" times below scaled to {REF_S} s")
        for name, unit in END_TO_END.items():
            note = f" (unscaled {raw[name]:.6g})" if unit == "s" else ""
            print(f"  {name} = {timed[name]:.6g} {unit}{note}")
        rate = _search_rate(scaled)
        if rate is not None:
            print(f"  search_instances_per_s = {rate:.6g} 1/s")
        result = {k: {"value": v, "unit": END_TO_END[k]} for k, v in timed.items()}
    else:
        import layers

        metrics, problems = _per_layer(traced, untraced)
        for problem in problems:
            print(f"  TRACE PROBLEM: {problem}")
        correct = correct and not problems
        wall = _median([sum(s.wall_s for s in p) for p in traced])
        shares = ", ".join(
            f"{layer} {metrics[layer + '.self_s'] / wall:.1%}" for layer in layers.LAYERS
        )
        print(f"  layer self-time shares of traced wall: {shares}, "
              f"unattributed {metrics['bench.unattributed_s'] / wall:.1%}")
        result = {k: {"value": v, "unit": layers.unit_of(k)} for k, v in metrics.items()}
    # ops, not command runs: the untraced run repeats the shortest commands
    # most, so run counts depend on how fast each op is
    print(json.dumps({"correct": correct, "attempted": n, "failed": len(h.failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
