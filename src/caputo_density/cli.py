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

import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .blowup import (
    DEFAULT_INTERVAL,
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
    approximate_function,
    approximate_monomial,
    residual_max,
)
from .extension_solver import solve_extension
from .piecewise import PiecewisePoly
from .profiles import FIXED_SPAN, builtin_extension_oracle, builtin_profile
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
        own = _FLAGS[self.command]
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
    j_list, interval = DEFAULT_J_LIST, DEFAULT_INTERVAL
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


def _profile_name(config: RunConfig) -> str | None:
    """The built-in profile a derivative or extend run solves; None for --poly."""
    if config.poly is not None:
        return None
    return config.profile or ("linear" if config.command == "derivative" else "appendix-es1")


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
    if config.out != "-" and os.path.isdir(config.out):
        raise ValueError(f"--out {config.out!r} is a directory")
    if config.out != "-" and not os.path.isdir(os.path.dirname(config.out) or "."):
        raise ValueError(f"--out directory of {config.out!r} does not exist")
    _check_count("--n-points", config.n_points)
    for name in ("eps", "tol", "residual_tol"):
        _check_positive("--" + name.replace("_", "-"), getattr(config, name))
    _check_int("--k", config.k, 0, MAX_CK_ORDER)
    if config.m is not None:
        _check_int("--m", config.m, 0, MAX_JET_ORDER)
    _parse_blowup_inputs(config)


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


def _report(config: RunConfig, fields: dict, failures: list[str]) -> int:
    """Print the command's JSON report and return its exit code.

    The report holds the command, its config and config hash, ``fields``,
    and an ``exit_reason``: the failures joined by "; " (exit 3), or "ok"
    when there are none (exit 0).
    """
    report = {
        "command": config.command,
        "config": config.as_dict(),
        "config_hash": config.hash(),
        **fields,
        "exit_reason": "; ".join(failures) or "ok",
    }
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return EXIT_TARGET_MISSED if failures else EXIT_OK


def _coefficients(flag: str, spec: str, prefix: str = "") -> list[float]:
    """The numbers c0,c1,... that follow ``prefix`` in the value of ``flag``."""
    try:
        return [float(c) for c in spec[len(prefix):].split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be {prefix}c0,c1,..., got {spec!r}") from None


def _resolve_profile(config: RunConfig) -> PiecewisePoly:
    """The data of a derivative or extend run: --poly on [--a, --b], or a built-in profile."""
    name = _profile_name(config)
    if name is None:
        coeffs = _coefficients("--poly", config.poly)
        lo = 0.0 if config.a is None else config.a
        hi = (lo + 1.0) if config.b is None else config.b
        return PiecewisePoly.single(coeffs, lo, hi)
    return builtin_profile(name, config.a, config.b)


# -- command handlers ---------------------------------------------------------


def _cmd_derivative(config: RunConfig) -> int:
    grid = _parse_grid(config.grid or "0.1:2:40")
    s = FractionalOrder(config.s)
    name = _profile_name(config)
    if name in FIXED_SPAN:
        profile = builtin_profile(name, config.a, config.b)
        sol = solve_extension(profile, s)
        if np.any(grid <= profile.lo):
            raise ValueError("grid points must lie right of the initial point")
        values = sol.caputo_value(grid)
    else:
        if config.poly is None:
            # the config, and so its hash, names the profile and where its data ends
            b = float(max(grid)) if config.b is None else config.b
            config = dataclasses.replace(config, profile=_profile_name(config), b=b)
        profile = _resolve_profile(config)
        if np.any(grid > profile.hi):
            raise ValueError("grid extends beyond the data; use `extend` for x > b")
        values = caputo_derivative(profile, profile.lo, s, grid)
    _write_csv(config.out, config, ["x", "caputo"], [grid, values])
    return EXIT_OK


def _cmd_extend(config: RunConfig) -> int:
    s = FractionalOrder(config.s)
    profile = _resolve_profile(config)
    grid = _parse_grid(config.grid or "1.01:5:200")
    if np.any(grid <= profile.hi):
        raise ValueError("extend grid points must lie strictly right of b")
    sol = solve_extension(profile, s)
    u = sol.value(grid)
    g = sol.g_value(grid)
    residual = sol.caputo_value(grid)
    _write_csv(config.out, config, ["x", "u", "g", "residual"], [grid, u, g, residual])

    residual_max = float(np.max(np.abs(residual)))
    fields = {"residual_max": residual_max}
    # --poly (no name) has no oracle
    name = _profile_name(config)
    oracle = builtin_extension_oracle(name) if name and config.s == 0.5 else None
    if oracle is not None:
        fields["oracle_deviation"] = float(np.max(np.abs(u - oracle(grid))))
    failures = []
    # written so that a NaN misses the gate
    if not residual_max <= config.tol:
        failures.append(f"residual {residual_max:.3e} above tol {config.tol:g}")
    return _report(config, fields, failures)


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
    fields = {
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
    failures = []
    if kappa.matched is None:
        failures.append("fitted kappa matches neither candidate within 1%")
    return _report(config, fields, failures)


def _parse_target(spec: str):
    if spec in ("sin",):
        return SinTarget()
    if spec in ("exp",):
        return ExpTarget()
    if spec in ("x^2", "x2"):
        return PolyTarget([0.0, 0.0, 1.0])
    if spec.startswith("poly:"):
        return PolyTarget(_coefficients("--f", spec, "poly:"))
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
        # single-monomial mode: the jet construction for x^m
        if config.f is not None:
            raise ValueError("give either --f or --m, not both")
        target = PolyTarget([0.0] * config.m + [1.0])
        try:
            approx, mono = approximate_monomial(s, profile, config.m, config.k, config.eps)
        except (JetInfeasibleError, DeltaUnderflowError) as exc:
            return _report(config, {}, [f"{type(exc).__name__}: {exc}"])
        errors, achieved = mono.errors_per_derivative, mono.achieved
        residual = residual_max(approx)
        route = {"delta": {str(config.m): mono.delta}}
    else:
        target = _parse_target(config.f or "x^2")
        approx, rep = approximate_function(target, config.k, config.eps, s, profile)
        errors, achieved = rep.errors_per_derivative, rep.epsilon_achieved
        residual = rep.residual_max
        route = {"terms": rep.terms, "coefficient_mass": rep.coefficient_mass}

    grid = np.linspace(0.0, 1.0, config.n_points)
    header = ["x", "f", "u", "u_minus_f"]
    cols = [grid, target.eval(grid, 0), approx.value(grid)]
    cols.append(cols[2] - cols[1])
    for l in range(1, config.k + 1):
        header += [f"f_d{l}", f"u_d{l}"]
        cols += [target.eval(grid, l), approx.derivative(l, grid)]
    _write_csv(config.out, config, header, cols)

    fields = {
        "errors": {"per_derivative": list(errors)},
        "epsilon_achieved": achieved,
        "residual_max": residual,
        "initial_point": approx.initial_point,
        **route,
    }
    failures = []
    if not achieved < config.eps:
        failures.append(f"epsilon_achieved {achieved:.3e} >= eps {config.eps:g}")
    if not residual <= config.residual_tol:
        failures.append(f"residual {residual:.3e} above residual-tol {config.residual_tol:g}")
    return _report(config, fields, failures)


# the settings of every subcommand, {command: {dest: (type, help)}}; the flag
# is --dest with "-" for "_". Parsing, --help and the settings a command
# owns (its config keys and config hash) all read this table.
_COMMON = {
    "s": (float, "fractional order in (0,1)"),
    "out": (str, "CSV output path ('-' for stdout)"),
}
_DATA = {
    "profile": (str, "built-in profile name"),
    "poly": (str, "data polynomial c0,c1,..."),
    "a": (float, "initial point"),
    "b": (float, "data right end"),
    "grid": (str, "evaluation grid lo:hi:n"),
}
_FLAGS = {
    "derivative": {**_COMMON, **_DATA},
    "extend": {**_COMMON, **_DATA, "tol": (float, "residual gate (exit 3)")},
    "blowup": {
        **_COMMON,
        "j_list": (str, "comma list of j"),
        "interval": (str, "convergence interval lo:hi"),
        "n_points": (int, "points of the convergence interval"),
    },
    "approximate": {
        **_COMMON,
        "f": (str, "target: sin, exp, x^2, poly:..., csv:PATH"),
        "k": (int, "C^k norm order (0..4)"),
        "m": (int, "approximate the monomial x^m"),
        "eps": (float, "target C^k error"),
        "residual_tol": (float, "Caputo residual gate on [0,1]"),
        "n_points": (int, "CSV grid points on [0,1]"),
    },
}
# {command: (handler, summary)}
_COMMANDS = {
    "derivative": (_cmd_derivative, "Caputo derivative of a named or polynomial profile (CSV)"),
    "extend": (_cmd_extend, "the stationary extension: CSV of x, u, g, residual + JSON"),
    "blowup": (_cmd_blowup, "blow-up convergence table and the fitted limit constant"),
    "approximate": (_cmd_approximate, "stationary approximant of a target in C^k([0,1])"),
}
_HELP = ("-h", "--help")
# every command also takes --config, which is no setting of its own
_CONFIG = {"config": (str, "JSON file of defaults, merged under the flags")}


def _help(command: str | None) -> str:
    """The top-level help (command None) or the flags of one subcommand."""
    if command is None:
        rows = (f"  {name:<12} {summary}" for name, (_, summary) in _COMMANDS.items())
        return "\n".join([
            "usage: caputo-density COMMAND [--flag VALUE ...]", "",
            "Caputo-stationary extensions, blow-up limits and density approximants.", "",
            "commands:", *rows, "", "COMMAND --help lists its flags.", ""])
    rows = (f"  {'--' + dest.replace('_', '-') + ' ' + kind.__name__.upper():<22} {text}"
            for dest, (kind, text) in {**_CONFIG, **_FLAGS[command]}.items())
    return "\n".join([f"usage: caputo-density {command} [--flag VALUE | --flag=VALUE ...]", "",
                      _COMMANDS[command][1], "", "flags:", *rows, ""])


def _parse_argv(argv: list[str]) -> tuple[str | None, dict | None]:
    """(command, {dest: value}); the values are None when help is asked for.

    A flag's value is the text after "=", else the next token unless that starts
    with "--" (so -1e-3, -inf, -1,2 are values). A repeated flag's last value wins.
    """
    if argv and argv[0] in _HELP:
        return None, None
    if not argv or argv[0] not in _FLAGS:
        given = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ValueError(f"{given}; use one of {', '.join(_FLAGS)}")
    command, values, tokens = argv[0], {}, iter(argv[1:])
    flags = {"--" + d.replace("_", "-"): (d, kind)
             for d, (kind, _) in {**_CONFIG, **_FLAGS[command]}.items()}
    for token in tokens:
        if token in _HELP:
            return command, None
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ValueError(f"{command} has no flag {flag!r}")
        dest, kind = flags[flag]
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{flag} needs a value")
        try:
            values[dest] = kind(value)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{flag} must be {what}, got {value!r}") from None
    return command, values


def _resolve_config(command: str, values: dict) -> RunConfig:
    config = RunConfig(command=command)
    if path := values.pop("config", None):
        with open(path, encoding="utf-8") as fh:
            fields = json.load(fh)
        if not isinstance(fields, dict):
            raise ValueError("--config must hold a JSON object")
        # only the subcommand's own flags, not the subcommand; null keeps a default
        for key, value in fields.items():
            if key not in _FLAGS[command]:
                raise ValueError(f"unknown config key {key!r}")
            if value is not None:
                setattr(config, key, value)
    for key, value in values.items():
        setattr(config, key, value)
    return config


def main(argv=None) -> int:
    try:
        command, values = _parse_argv(sys.argv[1:] if argv is None else list(argv))
        if values is None:
            sys.stdout.write(_help(command))
            return EXIT_OK
        config = _resolve_config(command, values)
        _check_config(config)
        return _COMMANDS[command][0](config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
