"""Command-line surface: CSV curves and JSON reports for each pipeline stage.

Subcommands
-----------
derivative   Caputo derivative of a named or polynomial profile over a grid.
extend       Solve the stationary extension; CSV of x, u, g, residual.
blowup       Blow-up convergence table and the fitted limit constant.
approximate  Build a stationary approximant of a target in C^k([0,1]).

Everything is deterministic: identical configs produce byte-identical
outputs, and every CSV starts with a `# config-hash:` comment followed by
a header row. Exit codes: 0 success, 2 invalid input, 3 numerical target
missed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .blowup import (
    DEFAULT_J_LIST,
    Psi0Profile,
    check_blowup_convergence,
    check_convergence_inputs,
    estimate_kappa,
)
from .caputo_operator import caputo_derivative
from .density_builder import (
    MAX_CK_ORDER,
    MAX_JET_ORDER,
    DeltaUnderflowError,
    ExpTarget,
    JetInfeasibleError,
    PolyTarget,
    SampledTarget,
    SinTarget,
    TargetDegreeError,
    approximate_function,
)
from .extension_solver import solve_extension
from .profiles import builtin_extension_oracle, builtin_profile
from .special_functions import FractionalOrder

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_TARGET_MISSED = 3
# largest grid or sample count a run may ask for
MAX_POINTS = 1_000_000


@dataclass
class RunConfig:
    """Fully resolved, seed-free run parameters (validated per command)."""

    command: str
    s: float = 0.5
    profile: str | None = None
    poly: str | None = None
    a: float | None = None
    b: float | None = None
    grid: str | None = None
    tol: float = 1e-5
    j_list: str | None = None
    interval: str | None = None
    n_points: int = 200
    f: str | None = None
    k: int = 0
    m: int | None = None
    eps: float = 1e-2
    residual_tol: float = 1e-4
    out: str = "-"

    def as_dict(self) -> dict:
        """The command and those of its own settings that are set."""
        own = _own_keys(self.command)
        return {
            k: v for k, v in dataclasses.asdict(self).items()
            if v is not None and (k == "command" or k in own)
        }

    def hash(self) -> str:
        # the output destination does not change what is computed
        payload = {k: v for k, v in self.as_dict().items() if k != "out"}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _check_int(name: str, n, lo: int, hi: int) -> int:
    """The one check of every integer setting: an int (not a bool) in lo..hi."""
    if isinstance(n, bool) or not isinstance(n, int) or not lo <= n <= hi:
        raise ValueError(f"{name} must be an integer in {lo}..{hi}, got {n!r}")
    return n


def _check_count(name: str, n) -> int:
    """The one check of every point count: an integer in 2..MAX_POINTS."""
    return _check_int(name, n, 2, MAX_POINTS)


def _check_finite(name: str, value) -> None:
    """The one check of every coordinate and order: a finite number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _check_positive(name: str, value) -> None:
    """The one check of every tolerance and target: a finite number > 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        math.isfinite(value) and value > 0.0
    ):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(f"grid must be lo:hi:n, got {spec!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"grid bounds must be finite with lo < hi, got {spec!r}")
    return np.linspace(lo, hi, _check_count("grid point count n", n))


def _parse_blowup_inputs(config: RunConfig) -> tuple[tuple[int, ...], tuple[float, float]]:
    """--j-list (j1,j2,...) and --interval (lo:hi), parsed and validated."""
    j_list, interval = DEFAULT_J_LIST, (0.5, 2.0)
    if config.j_list is not None:
        try:
            j_list = tuple(int(j) for j in config.j_list.split(","))
        except (AttributeError, ValueError):
            raise ValueError(f"--j-list must be integers j1,j2,..., got {config.j_list!r}") from None
    if config.interval is not None:
        try:
            lo, hi = config.interval.split(":")
            interval = (float(lo), float(hi))
        except (AttributeError, ValueError):
            raise ValueError(f"--interval must be lo:hi, got {config.interval!r}") from None
    return check_convergence_inputs(j_list, interval)


# built-in profiles whose span is fixed: --a/--b do not apply to them
_FIXED_SPAN = ("appendix-es1", "appendix-es2", "ramp", "bump")


def _fixed_span_profile(config: RunConfig) -> str | None:
    """The fixed-span built-in profile a derivative or extend run solves, if any."""
    if config.command == "derivative":
        name = config.profile or "linear"
    elif config.command == "extend" and config.poly is None:
        name = config.profile or "appendix-es1"
    else:
        return None
    return name if name in _FIXED_SPAN else None


def _check_config(config: RunConfig) -> None:
    """Every setting a command reads that no handler checks before its solve."""
    _check_finite("--s", config.s)
    FractionalOrder(config.s)
    for name in ("a", "b"):
        if getattr(config, name) is not None:
            _check_finite("--" + name, getattr(config, name))
    for name in ("profile", "poly", "grid", "f", "out"):
        value = getattr(config, name)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"--{name} must be a string, got {value!r}")
    if config.profile is not None and config.poly is not None:
        raise ValueError("give either --profile or --poly, not both")
    if config.out != "-" and not os.path.isdir(os.path.dirname(config.out) or "."):
        raise ValueError(f"--out directory of {config.out!r} does not exist")
    fixed = _fixed_span_profile(config)
    if fixed is not None and (config.a is not None or config.b is not None):
        raise ValueError(
            f"--a/--b do not apply to the {fixed} profile; they set the span of "
            "--poly and of the constant and linear profiles"
        )
    _check_count("--n-points", config.n_points)
    for name in ("eps", "tol", "residual_tol"):
        _check_positive("--" + name.replace("_", "-"), getattr(config, name))
    _check_int("--k", config.k, 0, MAX_CK_ORDER)
    if config.m is not None:
        _check_int("--m", config.m, 0, MAX_JET_ORDER)
    _parse_blowup_inputs(config)


# a value that starts like a negative number: -1e-3, -.5, -1,2, -1:2:10, -inf
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _join_negative_values(argv: list[str]) -> list[str]:
    """'--eps -1e-3' as '--eps=-1e-3', so the value reaches the checks.

    argparse reads a negative number as a value only in the forms -1 and
    -.5, and takes a token such as -1e-3, -1,2 or -inf for an unknown
    option. Every flag of this CLI takes a value, so such a token right
    after a flag is joined to it.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_csv(path: str, config: RunConfig, header: list[str], columns: list[np.ndarray]) -> None:
    lines = [f"# config-hash: {config.hash()}", ",".join(header)]
    rows = zip(*columns)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


def _resolve_profile(config: RunConfig):
    if config.poly is not None:
        coeffs = [float(c) for c in config.poly.split(",")]
        from .piecewise import PiecewisePoly
        from .profiles import CausalProfile

        lo = 0.0 if config.a is None else config.a
        hi = (lo + 1.0) if config.b is None else config.b
        return CausalProfile(PiecewisePoly.single(coeffs, lo, hi), lo, hi, name="poly")
    name = config.profile or "appendix-es1"
    return builtin_profile(name, config.a, config.b)


# -- command handlers ---------------------------------------------------------


def _cmd_derivative(config: RunConfig) -> int:
    grid = _parse_grid(config.grid or "0.1:2:40")
    s = FractionalOrder(config.s)
    name = _fixed_span_profile(config)
    if name is not None:
        profile = builtin_profile(name)
        sol = solve_extension(profile, s, x_max=max(max(grid) + 1.0, 2.0))
        if np.any(grid <= profile.a):
            raise ValueError("grid points must lie right of the initial point")
        values = sol.caputo_value(grid)
    else:
        if config.profile is None and config.poly is None:
            config = dataclasses.replace(config, profile="linear")
        if config.poly is None and config.b is None:
            config = dataclasses.replace(config, b=float(max(grid)))
        profile = _resolve_profile(config)
        a = profile.a
        if np.any(grid > profile.b):
            raise ValueError("grid extends beyond the data; use `extend` for x > b")
        values = np.array([caputo_derivative(profile, a, s, float(x)) for x in grid])
    _write_csv(config.out, config, ["x", "caputo"], [grid, values])
    return EXIT_OK


def _cmd_extend(config: RunConfig) -> int:
    s = FractionalOrder(config.s)
    profile = _resolve_profile(config)
    grid = _parse_grid(config.grid or "1.01:5:200")
    if np.any(grid <= profile.b):
        raise ValueError("extend grid points must lie strictly right of b")
    sol = solve_extension(profile, s, x_max=max(float(max(grid)) + 1.0, 2.0))
    u = sol.value(grid)
    g = sol.g_value(grid)
    residual = sol.caputo_value(grid)
    _write_csv(config.out, config, ["x", "u", "g", "residual"], [grid, u, g, residual])

    report: dict = {
        "command": "extend",
        "config": config.as_dict(),
        "config_hash": config.hash(),
        "residual_max": float(np.max(np.abs(residual))),
    }
    oracle = builtin_extension_oracle(profile.name) if config.s == 0.5 else None
    if oracle is not None:
        report["oracle_deviation"] = float(np.max(np.abs(u - oracle(grid))))
    code = EXIT_OK
    # written so that a NaN misses the gate
    if not report["residual_max"] <= config.tol:
        report["exit_reason"] = f"residual {report['residual_max']:.3e} above tol {config.tol:g}"
        code = EXIT_TARGET_MISSED
    else:
        report["exit_reason"] = "ok"
    _emit_json(report)
    return code


def _cmd_blowup(config: RunConfig) -> int:
    s = FractionalOrder(config.s)
    profile = Psi0Profile.default_quadratic()
    j_list, interval = _parse_blowup_inputs(config)
    kappa = estimate_kappa(s, profile)
    conv = check_blowup_convergence(
        s, profile, j_list, interval, n_points=config.n_points, kappa=kappa
    )
    _write_csv(
        config.out,
        config,
        ["j", "sup_error"],
        [np.asarray(conv.j_list, dtype=float), np.asarray(conv.sup_errors)],
    )
    report = {
        "command": "blowup",
        "config": config.as_dict(),
        "config_hash": config.hash(),
        "kappa": {
            "fitted": kappa.kappa,
            "candidate_a": kappa.kappa_a,
            "candidate_b": kappa.kappa_b,
        },
        "matched": kappa.matched,
        "fit_exponent": kappa.fit_exponent,
        "rate_exponent": conv.rate_exponent,
        "sup_errors": list(conv.sup_errors),
    }
    code = EXIT_OK
    if kappa.matched is None:
        report["exit_reason"] = "fitted kappa matches neither candidate within 1%"
        code = EXIT_TARGET_MISSED
    else:
        report["exit_reason"] = "ok"
    _emit_json(report)
    return code


def _parse_target(spec: str):
    if spec in ("sin",):
        return SinTarget()
    if spec in ("exp",):
        return ExpTarget()
    if spec in ("x^2", "x2"):
        return PolyTarget([0.0, 0.0, 1.0])
    if spec.startswith("poly:"):
        return PolyTarget([float(c) for c in spec[5:].split(",")])
    if spec.startswith("csv:"):
        rows = []
        with open(spec[4:], encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    row = [float(v) for v in line.split(",")[:2]]
                except ValueError:
                    continue  # header row
                if len(row) < 2:
                    raise ValueError(f"csv target rows must hold x,y, got {line!r}")
                rows.append(row)
        data = np.asarray(rows, dtype=float).reshape(-1, 2)
        return SampledTarget(data[:, 0], data[:, 1])
    try:
        const = float(spec)
    except ValueError:
        raise ValueError(
            f"unknown target {spec!r}; use sin, exp, x^2, poly:c0,c1,..., csv:PATH or a constant"
        ) from None
    return PolyTarget([const])


def _cmd_approximate(config: RunConfig) -> int:
    s = FractionalOrder(config.s)
    profile = Psi0Profile.default_quadratic()
    if config.m is not None:
        # single-monomial mode: approximate x^m directly
        if config.f is not None:
            raise ValueError("give either --f or --m, not both")
        target = PolyTarget([0.0] * config.m + [1.0])
    else:
        target = _parse_target(config.f or "x^2")
    try:
        approx, rep = approximate_function(target, config.k, config.eps, s, profile)
    except (JetInfeasibleError, DeltaUnderflowError, TargetDegreeError) as exc:
        _emit_json(
            {
                "command": "approximate",
                "config": config.as_dict(),
                "config_hash": config.hash(),
                "exit_reason": f"{type(exc).__name__}: {exc}",
            }
        )
        return EXIT_TARGET_MISSED

    grid = np.linspace(0.0, 1.0, config.n_points)
    header = ["x", "f", "u", "u_minus_f"]
    cols = [grid, target.eval(grid, 0), approx.value(grid)]
    cols.append(cols[2] - cols[1])
    for l in range(1, config.k + 1):
        header += [f"f_d{l}", f"u_d{l}"]
        cols += [target.eval(grid, l), approx.derivative(l, grid)]
    _write_csv(config.out, config, header, cols)

    report = {
        "command": "approximate",
        "config": config.as_dict(),
        "config_hash": config.hash(),
        "errors": {"per_derivative": list(rep.errors_per_derivative)},
        "epsilon_achieved": rep.epsilon_achieved,
        "residual_max": rep.residual_max,
        "delta": {str(m): d for m, d in rep.delta_per_monomial.items()},
        "initial_point": rep.initial_point,
        "polynomial_degree": rep.polynomial_degree,
    }
    code = EXIT_OK
    reasons = []
    if not rep.epsilon_achieved < config.eps:
        reasons.append(f"epsilon_achieved {rep.epsilon_achieved:.3e} >= eps {config.eps:g}")
    if not rep.residual_max <= config.residual_tol:
        reasons.append(
            f"residual {rep.residual_max:.3e} above residual-tol {config.residual_tol:g}"
        )
    if reasons:
        report["exit_reason"] = "; ".join(reasons)
        code = EXIT_TARGET_MISSED
    else:
        report["exit_reason"] = "ok"
    _emit_json(report)
    return code


_HANDLERS = {
    "derivative": _cmd_derivative,
    "extend": _cmd_extend,
    "blowup": _cmd_blowup,
    "approximate": _cmd_approximate,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caputo-density",
        description="Caputo-stationary extensions, blow-up limits and density approximants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("derivative", "Caputo derivative of a profile over a grid (CSV)"),
        ("extend", "solve the stationary extension (CSV + JSON summary)"),
        ("blowup", "blow-up convergence and the limit constant (CSV + JSON)"),
        ("approximate", "C^k density approximant of a target (CSV + JSON report)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of defaults, merged under the flags")
        p.add_argument("--s", type=float, default=None, help="fractional order in (0,1)")
        p.add_argument("--out", default=None, help="CSV output path ('-' for stdout)")
        if name in ("derivative", "extend"):
            p.add_argument("--profile", default=None, help="built-in profile name")
            p.add_argument("--poly", default=None, help="data polynomial c0,c1,...")
            p.add_argument("--a", type=float, default=None, help="initial point")
            p.add_argument("--b", type=float, default=None, help="data right end")
            p.add_argument("--grid", default=None, help="evaluation grid lo:hi:n")
        if name == "extend":
            p.add_argument("--tol", type=float, default=None, help="residual gate (exit 3)")
        if name == "blowup":
            p.add_argument("--j-list", dest="j_list", default=None, help="comma list of j")
            p.add_argument("--interval", default=None, help="convergence interval lo:hi")
            p.add_argument("--n-points", dest="n_points", type=int, default=None)
        if name == "approximate":
            p.add_argument("--f", default=None, help="target: sin, exp, x^2, poly:..., csv:PATH")
            p.add_argument("--k", type=int, default=None, help="C^k norm order (0..4)")
            p.add_argument("--m", type=int, default=None, help="approximate the monomial x^m")
            p.add_argument("--eps", type=float, default=None, help="target C^k error")
            p.add_argument(
                "--residual-tol", dest="residual_tol", type=float, default=None,
                help="Caputo residual gate on [0,1]",
            )
            p.add_argument("--n-points", dest="n_points", type=int, default=None)
    return parser


def _own_keys(command: str) -> set[str]:
    """The settings a subcommand reads: the destinations of its own flags."""
    return set(vars(_build_parser().parse_args([command]))) - {"command", "config"}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            fields = json.load(fh)
        if not isinstance(fields, dict):
            raise ValueError("--config must hold a JSON object")
        # only the subcommand's own flags (the subcommand itself comes
        # from the command line); null keeps a default
        own = _own_keys(args.command)
        for key, value in fields.items():
            if key not in own:
                raise ValueError(f"unknown config key {key!r}")
            if value is not None:
                setattr(config, key, value)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        setattr(config, key, value)
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        config = _resolve_config(args)
        _check_config(config)
        return _HANDLERS[args.command](config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
