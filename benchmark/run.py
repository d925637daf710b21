"""Benchmark of the caputo-density CLI: three workloads, checked outputs.

Run from the repository root::

    python3 benchmark/run.py --workload solve-verify --seed 0 --seconds 35 --trace 0

Each sample is a fresh interpreter (``sample.py``) that imports
``caputo_density.cli`` from ``src/`` and calls ``main(argv)`` for every
command of the workload, so caches such as the psi cache start cold in
every sample. Samples run one at a time from a single client (a closed
loop, no concurrency) with BLAS/OpenMP threads pinned to 1, until
``--seconds`` have passed. Every command's outputs are checked.

``--trace 0`` reports the end-to-end metrics from untraced samples. The
speed of a core on a shared host drifts by up to about 2x over seconds to
minutes, which makes medians of wall time move by 10-30 % from one run to
the next. So the timing metric ``run_ref`` is each sample's wall time for
its commands (after import) divided by the median time of a fixed
reference loop that the sample times every 50 ms while the commands run:
run time in units of the machine's speed at that moment. ``setup_s`` is
corrected the same way: each sample times the reference loop right after
set-up, and its set-up seconds are scaled to the speed at which the loop
takes ``REFERENCE_NOMINAL_S``. Wall seconds are printed as detail lines.
``--trace 1`` runs pairs of samples on the same inputs, one untraced and
one with the public functions of every package module wrapped in spans
from this directory's code; it checks that the two produced byte-identical
CSVs and reports the per-layer metrics of the traced sample.

Human-readable detail comes first on stdout; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when any command failed a check and 2
when the benchmark itself could not run (no result is printed then).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# import-only interpreters per run, so that setup_s is a median of many
SETUP_PROBES = 10
# setup_s is in seconds at the machine speed at which the reference loop
# of sample.py takes this long
REFERENCE_NOMINAL_S = 1e-3
SAMPLE_TIMEOUT_S = 120
# acceptance tolerances of the CLI checks (tests/test_acceptance.py)
RESIDUAL_TOL = 1e-5
ORACLE_TOL = 1e-6
CLOSED_FORM_TOL = 1e-8
DENSITY_RESIDUAL_TOL = 1e-4
# error figures are floored at machine epsilon before taking log10
EPS64 = 2.220446049250313e-16


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# -- workloads -----------------------------------------------------------------
#
# The seed moves only generated inputs (grid endpoints, s within +-0.01 of
# the sweep values, eps within +-2 %, the output grid size); it never picks a
# code path. The oracle check needs s = 1/2 exactly, so solve-verify keeps it.


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def solve_verify(rng: random.Random) -> list[dict]:
    """README derivative, then extend of ramp and bump at s = 1/2."""
    lo, hi = _u(rng, 0.08, 0.12), _u(rng, 1.9, 2.1)
    commands = [{
        "kind": "derivative", "csv": "linear.csv", "s": 0.5, "n": 40,
        "argv": ["derivative", "--profile", "linear", "--s", "0.5",
                 "--grid", f"{lo}:{hi}:40", "--out", "linear.csv"],
    }]
    for profile in ("ramp", "bump"):
        lo, hi = _u(rng, 1.01, 1.03), _u(rng, 4.8, 5.2)
        commands.append({
            "kind": "extend", "csv": f"{profile}.csv",
            "argv": ["extend", "--profile", profile, "--s", "0.5",
                     "--grid", f"{lo}:{hi}:200", "--out", f"{profile}.csv"],
        })
    return commands


def blowup_sweep(rng: random.Random) -> list[dict]:
    """README blowup --j-list 4,8,16,32,64 across the range of s."""
    commands = []
    for s0 in (0.1, 0.25, 0.5, 0.75, 0.9):
        s = _u(rng, s0 - 0.01, s0 + 0.01)
        name = f"blowup-{s0}.csv"
        commands.append({
            "kind": "blowup", "csv": name,
            "argv": ["blowup", "--s", str(s), "--j-list", "4,8,16,32,64", "--out", name],
        })
    return commands


def density(rng: random.Random) -> list[dict]:
    """README approximate of sin (k=1), then of x (k=0) in the same process."""
    commands = []
    for name, target, k, eps0 in (("sin.csv", ["--f", "sin"], 1, 5e-2),
                                  ("x1.csv", ["--m", "1"], 0, 1e-2)):
        eps = float(f"{eps0 * rng.uniform(0.98, 1.02):.5g}")
        commands.append({
            "kind": "approximate", "csv": name, "eps": eps,
            "argv": ["approximate", *target, "--k", str(k), "--eps", repr(eps),
                     "--s", "0.5", "--n-points", str(rng.randint(180, 220)), "--out", name],
        })
    return commands


WORKLOADS = {
    # the solver user's path, balanced between the forcing/Chebyshev table
    # build and the 200-point caputo_value residual
    "solve-verify": solve_verify,
    # heavy on psi table writes, light on reads, no residual quadrature; it
    # bypasses residual batching and varies s, which sets the mesh grading
    "blowup-sweep": blowup_sweep,
    # heavy on table reads and quadrature application: the density residual,
    # jet solves, the FD certificate and a psi cache reused by the second run
    "density": density,
}


# -- checks --------------------------------------------------------------------


def _report(stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("{")]
    return json.loads(lines[-1]) if lines else {}


def _read_csv(path: Path) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return [[float(v) for v in r] for r in rows[1:]]


def check(command: dict, result: dict, sample_dir: Path) -> tuple[list[str], dict[str, float]]:
    """Failed checks and error figures of one command's outputs."""
    failures: list[str] = []
    figures: dict[str, float] = {}
    if result["rc"] != 0:
        failures.append("exit_code")
    report = _report(result["stdout"])
    kind = command["kind"]
    if kind == "derivative":
        path = sample_dir / command["csv"]
        rows = _read_csv(path) if path.is_file() else []
        s = command["s"]
        dev = max((abs(v - x ** (1.0 - s) / math.gamma(2.0 - s)) for x, v in rows),
                  default=math.inf)
        figures["derivative_dev"] = dev
        if len(rows) != command["n"] or not dev <= CLOSED_FORM_TOL:
            failures.append("closed_form")
    elif kind == "extend":
        figures["residual_max"] = res = report.get("residual_max", math.inf)
        figures["oracle_deviation"] = dev = report.get("oracle_deviation", math.inf)
        if not res <= RESIDUAL_TOL:
            failures.append("residual")
        if not dev <= ORACLE_TOL:
            failures.append("oracle")
    elif kind == "blowup":
        kappa = report.get("kappa", {})
        b = kappa.get("candidate_b", math.nan)
        relerr = abs(kappa.get("fitted", math.inf) - b) / b
        figures["kappa_relerr"] = relerr if math.isfinite(relerr) else math.inf
        if report.get("matched") != "b":
            failures.append("kappa_match")
    elif kind == "approximate":
        achieved = report.get("epsilon_achieved", math.inf)
        figures["epsilon_achieved"] = achieved
        figures["eps_ratio"] = achieved / command["eps"]
        figures["residual_max"] = res = report.get("residual_max", math.inf)
        if not achieved < command["eps"]:
            failures.append("eps")
        if not res <= DENSITY_RESIDUAL_TOL:
            failures.append("residual")
    return failures, figures


# -- samples -------------------------------------------------------------------


def run_sample(commands: list[dict], sample_dir: Path, trace: bool = False) -> dict:
    """Run the commands in one fresh interpreter; return its timings and outputs."""
    sample_dir.mkdir(parents=True)
    spec = {
        "commands": [c["argv"] for c in commands],
        "trace": trace,
        "spans_path": str(sample_dir / "spans.json") if trace else None,
    }
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **THREAD_ENV)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py")], input=json.dumps(spec),
            capture_output=True, text=True, cwd=sample_dir, env=env,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"sample did not finish within {SAMPLE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"sample process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child on Linux
    result["setup_wall_s"] = result["ready"] - start
    result["setup_s"] = (result["setup_wall_s"] * REFERENCE_NOMINAL_S
                         / statistics.median(result["ready_reference_s"]))
    # wall time of the commands, less the reference loops run during them
    result["run_s"] = sum(c["seconds"] - c["sampler_s"] for c in result["commands"])
    if result["reference_s"]:
        result["run_ref"] = result["run_s"] / statistics.median(result["reference_s"])
    return result


class Tally:
    """Checks of every command run so far, and their worst error figures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.worst: dict[str, float] = {}

    def add(self, commands: list[dict], result: dict, sample_dir: Path,
            extra: list[list[str]] | None = None) -> None:
        for i, (command, res) in enumerate(zip(commands, result["commands"])):
            failures, figures = check(command, res, sample_dir)
            failures += extra[i] if extra else []
            self.attempted += 1
            self.failed += bool(failures)
            for name in failures:
                self.failures[name] = self.failures.get(name, 0) + 1
            for name, value in figures.items():
                # a missing or non-finite figure counts as no correct digit
                value = value if math.isfinite(value) else 1.0
                self.worst[name] = max(self.worst.get(name, -math.inf), value)

    def error_digits(self) -> float:
        """Mean correct digits of the worst error figures, so that each one moves it."""
        errors = [v for k, v in self.worst.items() if k != "eps_ratio"]
        return statistics.fmean(-_log10(v) for v in errors)


def _outputs(commands: list[dict], result: dict, sample_dir: Path) -> list[bytes]:
    files = [(sample_dir / c["csv"]) for c in commands]
    return [p.read_bytes() if p.is_file() else b"" for p in files] + [
        c["stdout"].encode() for c in result["commands"]]


# -- statistics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    pct = math.floor(100.0 * (n - 10) / n) if n > 10 else 0
    if pct <= 50:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _log10(x: float) -> float:
    return math.log10(max(x, EPS64))


# -- per-layer metrics ---------------------------------------------------------

COUNTERS = {
    "singular_quadrature.integrate_singular": "nodes",
    "singular_quadrature.gauss_ladder": "nodes",
    "extension_solver.ExtensionSolution.value": "points",
    "extension_solver.ExtensionSolution.smooth_factor": "points",
    "extension_solver.ExtensionSolution.derivative_fast": "points",
}


def layer_metrics(spans_path: Path) -> dict[str, float]:
    data = json.loads(spans_path.read_text(encoding="utf-8"))
    names, recorded = data["names"], data["spans"]
    table = spans.summarize(names, recorded)
    metrics: dict[str, float] = {}
    for name, row in table.items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
        if name in COUNTERS:
            metrics[f"{name}.{COUNTERS[name]}"] = row.get(COUNTERS[name], 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    built = spans.count_under(names, recorded, "extension_solver.ExtensionSolution.init",
                              "blowup.build_psi")
    psi_calls = table["blowup.build_psi"]["calls"]
    metrics["blowup.build_psi.hit_ratio"] = ratio(psi_calls - built, psi_calls)
    metrics["jet.p_accept_ratio"] = ratio(table["density_builder.prescribe_jet"]["calls"],
                                          table["density_builder.jet_matrix"]["calls"])
    metrics["halving.accept_ratio"] = ratio(
        table["density_builder.approximate_monomial"].get("m_positive", 0),
        table["density_builder.monomial_ck_errors"]["calls"])
    metrics["self_sum_s"] = sum(row["self_s"] for row in table.values())
    return metrics


# -- runs ----------------------------------------------------------------------


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "caputo_density").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, sample: dict) -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": sample["python"],
        "numpy": sample["numpy"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": THREAD_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def fits(start: float, seconds: float, last: float) -> bool:
    """Whether another iteration as long as the last ends at most half of it late."""
    return time.perf_counter() - start + 0.5 * last < seconds


def measure(args, commands: list[dict], run_dir: Path) -> tuple[Tally, dict, dict, list[str]]:
    """Untraced run: setup probes, then samples until the time is up."""
    tally = Tally()
    setups: list[dict] = []

    def probe() -> None:
        setups.append(run_sample([], run_dir / f"probe{len(setups)}"))

    samples = []
    start = time.perf_counter()
    last = 0.0
    while not samples or fits(start, args.seconds, last):
        began = time.perf_counter()
        # spread the probes over the run, as the machine's speed drifts
        if len(setups) < SETUP_PROBES:
            probe()
        sample_dir = run_dir / f"sample{len(samples)}"
        result = run_sample(commands, sample_dir)
        tally.add(commands, result, sample_dir)
        shutil.rmtree(sample_dir)
        samples.append(result)
        last = time.perf_counter() - began
    while len(setups) < SETUP_PROBES:
        probe()
    run_s = [r["run_s"] for r in samples]
    setups += samples
    metrics = {
        "run_ref": (statistics.median(r["run_ref"] for r in samples), "ref"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024.0 for r in samples), "MB"),
        "error_digits": (tally.error_digits(), "digits"),
    }
    reference = [statistics.median(r["reference_s"]) for r in samples]
    lines = [f"samples: {len(samples)} (run_ref, run_s), {len(setups)} (setup_s)",
             f"run_s (wall, after import) quartiles: {_quartiles(run_s)}",
             f"setup (wall) quartiles: {_quartiles([r['setup_wall_s'] for r in setups])}",
             f"reference loop quartiles: {_quartiles(reference)}"]
    t = tail(run_s)
    lines.append(f"run_s p{t[0]}: {t[1]!r} s" if t else
                 f"run_s tail: none (p50 is the highest percentile with >= 10 samples "
                 f"beyond it only from 20 samples; have {len(run_s)})")
    return tally, metrics, samples[0], lines


def measure_traced(args, commands: list[dict], run_dir: Path) -> tuple[Tally, dict, dict, list[str]]:
    """Traced run: pairs of untraced and traced samples on the same inputs."""
    tally = Tally()
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    first = None
    last = 0.0
    while not layers or fits(start, args.seconds, last):
        began = time.perf_counter()
        i = len(layers)
        plain_dir, traced_dir = run_dir / f"plain{i}", run_dir / f"traced{i}"
        plain = run_sample(commands, plain_dir)
        traced = run_sample(commands, traced_dir, trace=True)
        same = [a == b for a, b in zip(_outputs(commands, plain, plain_dir),
                                       _outputs(commands, traced, traced_dir))]
        # a command's outputs are its CSV and its stdout report
        changed = [[] if same[j] and same[len(commands) + j] else ["trace_changed_output"]
                   for j in range(len(commands))]
        tally.add(commands, plain, plain_dir)
        tally.add(commands, traced, traced_dir, extra=changed)
        layer = layer_metrics(traced_dir / "spans.json")
        layer["untraced.run_s"] = plain["run_s"]
        layer["traced.run_s"] = traced["run_s"]
        layer["trace_overhead_s"] = traced["run_s"] - plain["run_s"]
        layer["unattributed_s"] = traced["run_s"] - layer["self_sum_s"]
        layers.append(layer)
        first = first or plain
        shutil.rmtree(plain_dir)
        shutil.rmtree(traced_dir)
        last = time.perf_counter() - began
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_ratio") else "count")
        metrics[name] = (statistics.median(values), unit)
    lines = [f"pairs: {len(layers)} (untraced + traced samples on the same inputs)"]
    return tally, metrics, first, lines


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n/a (n={len(values)})"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1!r} / {q2!r} / {q3!r} s (n={len(values)})"


def accuracy_lines(tally: Tally) -> list[str]:
    """fail_frac and the workload's accuracy figures, one detail line each."""
    w = tally.worst
    lines = [f"fail_frac: {tally.failed / tally.attempted!r} "
             f"({tally.failed} of {tally.attempted} commands) {tally.failures or ''}".rstrip()]
    for key, name in (("residual_max", "residual_log10"), ("oracle_deviation", "oracle_dev_log10"),
                      ("kappa_relerr", "kappa_relerr_log10"), ("derivative_dev", "closed_form_dev_log10")):
        if key in w:
            lines.append(f"{name}: {_log10(w[key])!r} log10")
    if "eps_ratio" in w:
        lines.append(f"eps_ratio: {w['eps_ratio']!r} ratio")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full result as JSON to this path")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "caputo_density" / "cli.py").is_file():
        print(f"error: no caputo_density sources under {SRC}", file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload](random.Random(args.seed))
    run_dir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        run = measure_traced if args.trace else measure
        tally, metrics, sample, lines = run(args, commands, run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment(args, sample)
    print(f"caputo-density benchmark, workload {args.workload}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in lines + accuracy_lines(tally):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.report:
        full = dict(result, environment=env,
                    detail=lines + accuracy_lines(tally), worst=tally.worst,
                    failures=tally.failures)
        Path(args.report).write_text(json.dumps(full, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
