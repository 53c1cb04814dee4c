"""Record a baseline: repeated sets of benchmark runs and their spreads.

    python3 bench/baseline.py --out bench/baseline.json

Run from the root of a checkout.  Each of ``SETS`` sets runs every workload
of ``BENCHMARK.json`` ``RUNS`` times with ``--trace 0``, each time with
another seed, then once with ``--trace 1`` on the set's first seed.  For
every end-to-end metric it
records the values, their median, and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median.  Across sets it records how far each median moved, and
whether the count metrics of the traced runs repeated exactly.  The
per-layer self-time shares of each traced run are set against the
predictions in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

SETS = 2
RUNS = 10

def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=900, check=True)
    result = json.loads(out.stdout.decode().strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - t0
    result["seed"] = seed
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def shares(metrics: dict) -> dict:
    """Self time of each layer as a share of all attributed self time."""
    self_s = {layer: metrics[f"{layer}.self_s"]["value"] for layer in layers.LAYERS}
    total = sum(self_s.values())
    out = {layer: v / total for layer, v in self_s.items()}
    out["core.find_isomorphism"] = metrics["core.find_isomorphism_s"]["value"] / total
    return out


def predictions(traced: dict) -> list[dict]:
    """The stated share predictions, each with what was measured."""
    checks = []
    if "verify-deep" in traced:
        s = traced["verify-deep"]
        checks.append({"claim": "heyting is the largest layer on verify-deep",
                       "holds": max(layers.LAYERS, key=s.get) == "heyting"})
    if "classify-wide" in traced:
        s = traced["classify-wide"]
        checks.append({"claim": "identities is the largest layer on classify-wide",
                       "holds": max(layers.LAYERS, key=s.get) == "identities"})
    if "search-build" in traced:
        s = traced["search-build"]
        share = s["models"] + s["core.find_isomorphism"]
        checks.append({"claim": "models plus core.find_isomorphism is at least a third of search-build",
                       "measured": share, "holds": share >= 1 / 3})
    return checks


def main() -> int:
    p = argparse.ArgumentParser(prog="bench/baseline.py")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    counts = layers.COUNTS + layers.RATIOS

    sets = []
    for k in range(SETS):
        seeds = list(range(1 + k * RUNS, 1 + (k + 1) * RUNS))
        record = {"seeds": seeds, "workloads": {}}
        for w in workloads:
            runs = [run_once(w, seed, spec["run_seconds"], 0) for seed in seeds]
            traced = run_once(w, 1, spec["run_seconds"], 1)
            record["workloads"][w] = {
                "runs": runs,
                "metrics": {
                    m: spread([r["metrics"][m]["value"] for r in runs]) for m in bounds
                },
                "traced": traced,
                "shares": shares(traced["metrics"]),
            }
            print(f"set {k + 1} {w}: " + ", ".join(
                f"{m} {v['median']:.4g} ({v['spread']:.1%})" for m, v in record["workloads"][w]["metrics"].items()
            ), file=sys.stderr)
        sets.append(record)

    verdicts = []
    for w in workloads:
        for m, bound in bounds.items():
            medians = [s["workloads"][w]["metrics"][m]["median"] for s in sets]
            spreads = [s["workloads"][w]["metrics"][m]["spread"] for s in sets]
            moved = max(medians[1:], default=medians[0]) / medians[0] - 1
            verdicts.append({
                "workload": w, "metric": m, "bound": bound, "spreads": spreads,
                "median_moved": moved,
                "steady": all(x <= bound / 3 for x in spreads) and moved <= bound,
            })
        traced = [s["workloads"][w]["traced"]["metrics"] for s in sets]
        same = all(t[c]["value"] == traced[0][c]["value"] for t in traced for c in counts)
        verdicts.append({"workload": w, "metric": "counts", "identical_between_sets": same})
    doc = {
        "run_seconds": spec["run_seconds"],
        "sets": sets,
        "verdicts": verdicts,
        "predictions": [predictions({w: s["workloads"][w]["shares"] for w in workloads}) for s in sets],
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
