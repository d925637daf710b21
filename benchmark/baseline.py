"""Measure the benchmark over many seeds and write the baseline file.

Run from the repository root::

    python3 benchmark/baseline.py

For every workload of ``BENCHMARK.json`` this runs ``run.py --trace 0``
once per seed, ``SEEDS`` seeds in each of ``SETS`` sets, one run at a
time, and writes to ``baseline.json`` each end-to-end metric's median,
quartiles and spread (the interquartile range as a share of the median)
against its bound. A final ``--trace 1`` run at the default
seed gives the full per-layer table and the tracing overhead. The medians
of each set after the first are printed against the first set's.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int, report: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--report", str(report)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(report.read_text(encoding="utf-8"))


def spread_row(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    tmp = HERE / ".work"
    tmp.mkdir(exist_ok=True)
    report = tmp / "baseline-report.json"

    result: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(SETS):
            seeds = range(1 + k * SEEDS, 1 + (k + 1) * SEEDS)
            runs = [run_once(workload, seed, spec["run_seconds"], 0, report) for seed in seeds]
            rows = {}
            for metric, bound in bounds.items():
                values = [r["metrics"][metric]["value"] for r in runs]
                rows[metric] = spread_row(values, bound)
                rows[metric]["unit"] = runs[0]["metrics"][metric]["unit"]
                print(f"{workload} set {k + 1} {metric}: median {rows[metric]['median']:.6g} "
                      f"spread {rows[metric]['spread']:.4f} (bound {bound})", flush=True)
            sets.append({"seeds": list(seeds), "end_to_end": rows,
                         "failed": sum(r["failed"] for r in runs),
                         "attempted": sum(r["attempted"] for r in runs),
                         "detail": {str(s): r["detail"] for s, r in zip(seeds, runs)}})
            result["environment"] = runs[0]["environment"]
        traced = run_once(workload, 0, spec["run_seconds"], 1, report)
        result["workloads"][workload] = {
            "sets": sets,
            "per_layer": traced["metrics"],
            "tracing_overhead_s": traced["metrics"]["trace_overhead_s"]["value"],
            "traced_detail": traced["detail"],
        }
        for k in range(1, len(sets)):
            for metric in bounds:
                first = sets[0]["end_to_end"][metric]["median"]
                later = sets[k]["end_to_end"][metric]["median"]
                print(f"{workload} set {k + 1} vs 1 {metric}: {later / first - 1.0:+.4f}")
    report.unlink(missing_ok=True)
    for key in ("workload", "seed", "trace"):
        del result["environment"][key]
    (HERE / "baseline.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
