import contextlib
import dataclasses
import io
import json
import os
import string
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caputo_density
from caputo_density import cli
from caputo_density.cli import MAX_CK_ORDER, MAX_JET_ORDER, MAX_POINTS, RunConfig, main
from caputo_density.extension_solver import ExtensionSolution
from caputo_density.special_functions import gamma


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# config-hash: ")
    header = lines[1].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return lines[0], header, data


def test_derivative_linear_closed_form(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, _ = run_cli(
        capsys, "derivative", "--profile", "linear", "--s", "0.5",
        "--grid", "0.1:2:40", "--out", str(out),
    )
    assert code == 0
    _, header, data = read_csv(out)
    assert header == ["x", "caputo"]
    expect = data[:, 0] ** 0.5 / gamma(1.5)
    np.testing.assert_allclose(data[:, 1], expect, atol=1e-10)


def test_derivative_constant_is_zero(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, _ = run_cli(
        capsys, "derivative", "--profile", "constant", "--grid", "0.1:2:10",
        "--out", str(out),
    )
    assert code == 0
    _, _, data = read_csv(out)
    np.testing.assert_allclose(data[:, 1], 0.0, atol=1e-300)


def test_derivative_of_solved_extension_is_residual(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, _ = run_cli(
        capsys, "derivative", "--profile", "appendix-es1", "--grid", "1.05:5:25",
        "--out", str(out),
    )
    assert code == 0
    _, _, data = read_csv(out)
    assert np.max(np.abs(data[:, 1])) <= 1e-5


def test_derivative_inside_the_data_span_builds_no_table(tmp_path, capsys, monkeypatch):
    # every point lies in [a, b], where caputo_value is the closed form alone
    calls = []
    quad = ExtensionSolution._smooth_factor_quad

    def counted(self, n, xi):
        calls.append(n)
        return quad(self, n, xi)

    monkeypatch.setattr(ExtensionSolution, "_smooth_factor_quad", counted)
    code, _, _ = run_cli(
        capsys, "derivative", "--profile", "ramp", "--grid", "0.1:0.9:40",
        "--out", str(tmp_path / "d.csv"),
    )
    assert code == 0 and calls == []


def test_derivative_rejects_unknown_profile(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "derivative", "--profile", "nonsense", "--grid", "0.1:1:5",
        "--out", str(tmp_path / "d.csv"),
    )
    assert code == 2
    assert "unknown profile" in err


@pytest.mark.parametrize("profile,oracle_tol", [("appendix-es1", 1e-6), ("appendix-es2", 1e-6)])
def test_extend_reports_oracle_deviation(tmp_path, capsys, profile, oracle_tol):
    out = tmp_path / "e.csv"
    code, stdout, _ = run_cli(
        capsys, "extend", "--profile", profile, "--grid", "1.01:5:60", "--out", str(out),
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["command"] == "extend"
    assert report["oracle_deviation"] <= oracle_tol
    assert report["residual_max"] <= 1e-5
    assert report["exit_reason"] == "ok"
    _, header, data = read_csv(out)
    assert header == ["x", "u", "g", "residual"]


def test_extend_constant_profile_constant_column(tmp_path, capsys):
    out = tmp_path / "e.csv"
    code, stdout, _ = run_cli(
        capsys, "extend", "--profile", "constant", "--grid", "1.01:4:20", "--out", str(out),
    )
    assert code == 0
    _, _, data = read_csv(out)
    np.testing.assert_allclose(data[:, 1], 1.0, atol=1e-12)


def test_extend_residual_gate_exit_code(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "extend", "--profile", "appendix-es1", "--grid", "1.01:5:20",
        "--tol", "1e-20", "--out", str(tmp_path / "e.csv"),
    )
    assert code == 3
    assert "above tol" in json.loads(stdout)["exit_reason"]


def test_extend_rejects_grid_left_of_b(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "extend", "--profile", "appendix-es1", "--grid", "0.5:5:20",
        "--out", str(tmp_path / "e.csv"),
    )
    assert code == 2
    assert "right of b" in err


def test_blowup_kappa_and_rate(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, stdout, _ = run_cli(
        capsys, "blowup", "--j-list", "4,8,16,32,64", "--out", str(out),
    )
    assert code == 0
    report = json.loads(stdout)
    fitted = report["kappa"]["fitted"]
    cand_a, cand_b = report["kappa"]["candidate_a"], report["kappa"]["candidate_b"]
    assert fitted > 0.0
    matches = [abs(fitted - c) <= 0.01 * abs(c) for c in (cand_a, cand_b)]
    assert sum(matches) == 1
    assert -1.3 <= report["rate_exponent"] <= -0.7
    _, header, data = read_csv(out)
    assert header == ["j", "sup_error"]
    assert np.all(np.diff(data[:, 1]) < 0.0)


def test_approximate_constant_target_exact(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "approximate", "--f", "3", "--k", "1", "--eps", "1e-2",
        "--out", str(tmp_path / "a.csv"),
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["epsilon_achieved"] <= 1e-12
    assert report["residual_max"] == 0.0


def test_approximate_square_exit_zero(tmp_path, capsys):
    out = tmp_path / "a.csv"
    code, stdout, _ = run_cli(
        capsys, "approximate", "--f", "x^2", "--k", "0", "--eps", "1e-2", "--out", str(out),
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["epsilon_achieved"] < 1e-2
    assert report["residual_max"] <= 1e-4
    assert report["errors"]["per_derivative"]
    assert report["initial_point"] < 0.0
    _, header, data = read_csv(out)
    assert header == ["x", "f", "u", "u_minus_f"]
    np.testing.assert_allclose(data[:, 3], data[:, 2] - data[:, 1], atol=1e-15)


def test_csv_and_json_are_deterministic(tmp_path, capsys):
    args = ["extend", "--profile", "appendix-es2", "--grid", "1.01:3:30"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    _, json1, _ = run_cli(capsys, *args, "--out", str(out1))
    _, json2, _ = run_cli(capsys, *args, "--out", str(out2))
    body1 = out1.read_text().split("\n", 1)[1]
    body2 = out2.read_text().split("\n", 1)[1]
    assert body1 == body2
    strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "config"}
    assert strip(json1) == strip(json2)


def test_config_file_merged_under_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "appendix-es1", "grid": "1.01:4:15", "s": 0.5}))
    out = tmp_path / "c.csv"
    # the flag wins over the file for the grid
    code, stdout, _ = run_cli(
        capsys, "extend", "--config", str(cfg), "--grid", "1.01:2:7", "--out", str(out),
    )
    assert code == 0
    _, _, data = read_csv(out)
    assert data.shape[0] == 7
    assert json.loads(stdout)["config"]["profile"] == "appendix-es1"


def test_invalid_order_rejected(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "extend", "--profile", "appendix-es1", "--s", "1.5",
        "--grid", "1.01:2:5", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_seventeen_digit_csv(tmp_path, capsys):
    out = tmp_path / "d.csv"
    run_cli(capsys, "derivative", "--profile", "linear", "--grid", "0.1:1:3",
            "--out", str(out))
    line = out.read_text().splitlines()[2]
    x_text = line.split(",")[0]
    assert float(x_text) == 0.1
    assert len(x_text.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_approximate_monomial_flag(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "approximate", "--m", "1", "--k", "0", "--eps", "1e-2",
        "--out", str(tmp_path / "m.csv"),
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["epsilon_achieved"] < 1e-2
    assert report["delta"]["1"] > 0.0


def test_approximate_csv_samples_target(tmp_path, capsys):
    xs = np.linspace(0.0, 1.0, 60)
    path = tmp_path / "samples.csv"
    path.write_text(
        "# sampled target\nx,f\n"
        + "\n".join(f"{x},{0.5 + 0.25 * x * x}" for x in xs)
        + "\n"
    )
    code, stdout, _ = run_cli(
        capsys, "approximate", "--f", f"csv:{path}", "--k", "0", "--eps", "2e-2",
        "--out", str(tmp_path / "c.csv"),
    )
    assert code == 0
    assert json.loads(stdout)["epsilon_achieved"] < 2e-2


def test_derivative_poly_profile(tmp_path, capsys):
    # quadratic data t^2 on [0, 2]: D_0^s t^2 = 2 x^(2-s)/Gamma(3-s)
    out = tmp_path / "p.csv"
    code, _, _ = run_cli(
        capsys, "derivative", "--poly", "0,0,1", "--a", "0", "--b", "2",
        "--s", "0.5", "--grid", "0.2:2:10", "--out", str(out),
    )
    assert code == 0
    _, _, data = read_csv(out)
    expect = 2.0 * data[:, 0] ** 1.5 / gamma(2.5)
    np.testing.assert_allclose(data[:, 1], expect, rtol=1e-12)


@pytest.mark.parametrize("grid", ["1.01:inf:5", "-inf:5:5", "1.01:nan:5"])
def test_grid_rejects_non_finite_bounds(tmp_path, capsys, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(
            capsys, "extend", "--profile", "appendix-es1", f"--grid={grid}",
            "--out", str(tmp_path / "e.csv"),
        )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "finite" in err


def test_nan_misses_the_gates(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        ExtensionSolution, "caputo_value", lambda self, x: np.full(np.shape(x), np.nan)
    )
    code, stdout, _ = run_cli(
        capsys, "extend", "--profile", "appendix-es1", "--grid", "1.01:5:5",
        "--out", str(tmp_path / "e.csv"),
    )
    assert code == 3
    assert json.loads(stdout)["exit_reason"] != "ok"

    real = cli.approximate_function

    def nan_residual(*args, **kwargs):
        approx, rep = real(*args, **kwargs)
        return approx, dataclasses.replace(rep, residual_max=float("nan"))

    monkeypatch.setattr(cli, "approximate_function", nan_residual)
    code, stdout, _ = run_cli(
        capsys, "approximate", "--f", "3", "--out", str(tmp_path / "a.csv"),
    )
    assert code == 3
    assert "residual nan above" in json.loads(stdout)["exit_reason"]


@pytest.mark.parametrize("argv", [
    ("derivative", "--grid", "0.1:2:1000000000000"),
    ("extend", "--grid", f"1.01:5:{MAX_POINTS + 1}"),
    ("extend", "--grid", "1.01:5:1"),
    ("blowup", "--n-points", "0"),
    ("approximate", "--n-points", "1000000000000"),
])
def test_point_counts_rejected_before_allocation(tmp_path, capsys, monkeypatch, argv):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and f"in 2..{MAX_POINTS}" in err


@pytest.mark.parametrize("argv", [
    ("approximate", "--eps", "nan"),
    ("approximate", "--eps", "inf"),
    ("approximate", "--eps", "0"),
    ("approximate", "--residual-tol", "nan"),
    ("approximate", "--residual-tol=-1e-4"),
    ("extend", "--tol", "nan"),
    ("extend", "--tol", "inf"),
])
def test_tolerances_must_be_finite_and_positive(tmp_path, capsys, argv):
    code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "finite number > 0" in err


@pytest.mark.parametrize("field,value", [
    ("eps", float("nan")), ("eps", float("inf")), ("tol", float("nan")),
    ("residual_tol", float("-inf")), ("eps", "0.01"), ("tol", True),
])
def test_config_tolerances_are_checked_like_flags(tmp_path, capsys, field, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({field: value}), encoding="utf-8")  # NaN, Infinity tokens
    command = "extend" if field == "tol" else "approximate"
    code, stdout, err = run_cli(
        capsys, command, "--config", str(path), "--out", str(tmp_path / "o.csv")
    )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "finite number > 0" in err


def test_blowup_rejects_a_single_j(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(
            capsys, "blowup", "--j-list", "4", "--out", str(tmp_path / "b.csv")
        )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "at least two j" in err


@pytest.mark.parametrize("argv", [
    ("approximate", "--residual-tol", "-1e-4"),
    ("approximate", "--eps", "-1e-3"),
    ("approximate", "--eps", "-inf"),
    ("extend", "--tol", "-1e-5"),
])
def test_negative_values_in_exponent_form_reach_the_checks(tmp_path, capsys, argv):
    # the token after a flag is its value, even when it starts with a single '-'
    code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "finite number > 0" in err


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve started before the settings were checked")


_SOLVES = (
    "solve_extension", "caputo_derivative", "estimate_kappa",
    "check_blowup_convergence", "approximate_function", "approximate_monomial",
)


@pytest.mark.parametrize("argv,message", [
    (("approximate", "--m", "-1"), "--m must be an integer in 0..4"),
    (("approximate", "--m", "5"), "--m must be an integer in 0..4"),
    (("approximate", "--k", "5"), "--k must be an integer in 0..4"),
    (("approximate", "--k", "-1"), "--k must be an integer in 0..4"),
    (("blowup", "--j-list", "4"), "at least two j"),
    (("blowup", "--j-list", "4,a"), "--j-list must be integers"),
    (("blowup", "--j-list", "8,4"), "increasing positive integers"),
    (("blowup", "--j-list", "0,4"), "increasing positive integers"),
    (("blowup", "--interval", "1:x"), "--interval must be lo:hi"),
    (("blowup", "--interval", "1"), "--interval must be lo:hi"),
    (("blowup", "--interval", "1:inf"), "bounded subinterval"),
    (("blowup", "--interval", "2:1"), "bounded subinterval"),
    (("extend", "--poly", "nan,1"), "coefficients must be finite"),
    (("derivative", "--a", "inf"), "--a must be a finite number"),
    (("approximate", "--f", "inf"), "target coefficients must be finite"),
    (("approximate", "--f", "poly:1,nan"), "target coefficients must be finite"),
    (("extend", "--poly", "1,,2"), "--poly must be c0,c1,..., got '1,,2'"),
    (("approximate", "--f", "poly:"), "--f must be poly:c0,c1,..., got 'poly:'"),
    (("approximate", "--f", "poly:1,,2"), "--f must be poly:c0,c1,..., got 'poly:1,,2'"),
])
def test_run_config_fields_checked_before_any_solve(tmp_path, capsys, monkeypatch, argv, message):
    for name in _SOLVES:
        monkeypatch.setattr(cli, name, _no_solve)
    code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    ("derivative", "--profile", "ramp", "--grid", "0.5:2:3", "--a", "3"),
    ("derivative", "--profile", "bump", "--b", "2"),
    ("extend", "--profile", "appendix-es2", "--a", "-1"),
    ("extend", "--b", "2"),  # the default profile, appendix-es1
])
def test_span_flags_rejected_for_fixed_span_profiles(tmp_path, capsys, monkeypatch, argv):
    for name in _SOLVES:
        monkeypatch.setattr(cli, name, _no_solve)
    code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: --a/--b do not apply")


@pytest.mark.parametrize("argv", [
    ("derivative", "--profile", "linear", "--a", "0.5", "--b", "3", "--grid", "1:2:3"),
    ("extend", "--profile", "constant", "--a", "-1", "--b", "0", "--grid", "0.5:2:3"),
    ("extend", "--poly", "0,1", "--b", "2", "--grid", "2.5:3:3"),
])
def test_span_flags_accepted_where_they_apply(tmp_path, capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o.csv"))
    assert code == 0, err


@pytest.mark.parametrize("command", ["derivative", "extend", "blowup", "approximate"])
def test_out_directory_checked_before_any_solve(tmp_path, capsys, monkeypatch, command):
    for name in _SOLVES:
        monkeypatch.setattr(cli, name, _no_solve)
    out = tmp_path / "missing" / "x.csv"
    code, stdout, err = run_cli(capsys, command, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: --out directory")
    assert not out.parent.exists()


def test_non_finite_csv_samples_exit_2(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    rows = [(0.0, 0.5), (0.2, 0.6), (0.4, "nan"), (0.6, 0.8), (0.8, 0.9), (1.0, 1.0)]
    path.write_text("x,f\n" + "\n".join(f"{x},{y}" for x, y in rows) + "\n")
    code, stdout, err = run_cli(
        capsys, "approximate", "--f", f"csv:{path}", "--out", str(tmp_path / "c.csv")
    )
    assert code == 2
    assert stdout == ""
    assert err == "error: target samples must be finite\n"


@pytest.mark.parametrize("text,message", [
    ("", "need matching x/y samples"),
    ("# only a comment\nx,f\n", "need matching x/y samples"),
    ("x\n0.0\n0.5\n1.0\n0.25\n", "csv target rows must hold x,y, got '0.0'"),
], ids=["empty", "header-only", "one-column"])
def test_csv_target_without_samples_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "samples.csv"
    path.write_text(text)
    code, stdout, err = run_cli(
        capsys, "approximate", "--f", f"csv:{path}", "--out", str(tmp_path / "c.csv")
    )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv,config,message", [
    (("derivative", "--profile", "ramp", "--poly", "0,0,1"), None, "either --profile or --poly"),
    (("extend", "--poly", "0,1"), {"profile": "ramp"}, "either --profile or --poly"),
    (("blowup",), {"a": 3, "profile": "bump"}, "unknown config key 'a'"),
    (("derivative",), {"tol": 1e-3}, "unknown config key 'tol'"),
    (("approximate",), {"j_list": "4,8"}, "unknown config key 'j_list'"),
], ids=["profile-and-poly", "config-profile-and-poly", "blowup-span", "derivative-tol",
        "approximate-j-list"])
def test_settings_a_command_never_reads_exit_2(tmp_path, capsys, monkeypatch, argv, config, message):
    for name in _SOLVES:
        monkeypatch.setattr(cli, name, _no_solve)
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ("--config", str(path))
    code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_cli_runs_leave_numpy_ma_unimported(tmp_path):
    # numpy 2.4 takes 13.5 ms and 0.7 MB to import numpy.ma, which a plain
    # np.unique pulls in; the package's own runs must not. numpy.polynomial
    # (5 ms) is left to csv: targets: no other run loads it
    src = os.path.dirname(os.path.dirname(caputo_density.__file__))
    code = (
        "import sys\n"
        "from caputo_density.cli import main\n"
        f"d = main(['derivative', '--out', {str(tmp_path / 'd.csv')!r}])\n"
        f"b = main(['extend', '--profile', 'bump', '--out', {str(tmp_path / 'b.csv')!r}])\n"
        f"u = main(['blowup', '--out', {str(tmp_path / 'u.csv')!r}])\n"
        "print(d, b, u, 'numpy.polynomial' in sys.modules)\n"
        f"a = main(['approximate', '--f', 'sin', '--k', '1', '--out', {str(tmp_path / 'a.csv')!r}])\n"
        f"m = main(['approximate', '--m', '1', '--out', {str(tmp_path / 'm.csv')!r}])\n"
        "print(a, m, 'numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-4] == "0 0 0 False"
    assert lines[-1] == "0 0 False False"


@pytest.mark.parametrize("command,field,value", [
    ("approximate", "k", 1.5), ("approximate", "m", True), ("blowup", "j_list", [4, 8]),
    ("blowup", "interval", 3), ("blowup", "j_list", "2,4,x"),
    ("extend", "poly", 5), ("derivative", "grid", 5), ("approximate", "f", 5),
    ("extend", "s", "0.5"), ("extend", "a", "x"),
])
def test_config_fields_are_checked_like_flags(tmp_path, capsys, monkeypatch, command, field, value):
    for name in _SOLVES:
        monkeypatch.setattr(cli, name, _no_solve)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({field: value}), encoding="utf-8")
    code, stdout, err = run_cli(
        capsys, command, "--config", str(path), "--out", str(tmp_path / "o.csv")
    )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_negative_list_values_are_values(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, err = run_cli(
        capsys, "derivative", "--poly", "-1,2", "--grid", "0.1:0.9:3", "--out", str(out)
    )
    assert code == 0, err
    _, header, data = read_csv(out)
    # u = -1 + 2x: D^s u(x) = 2 x^(1-s) / Gamma(2-s)
    np.testing.assert_allclose(data[:, 1], 2.0 * data[:, 0] ** 0.5 / gamma(1.5), rtol=1e-12)


@pytest.mark.parametrize("fields,message", [
    ({"panels": 256}, "unknown config key 'panels'"),
    ({"grade": 2.0}, "unknown config key 'grade'"),
    ({"command": "blowup"}, "unknown config key 'command'"),
    ([1, 2], "--config must hold a JSON object"),
], ids=["panels", "grade", "command", "non-object"])
def test_config_rejects_unknown_keys(tmp_path, capsys, fields, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    code, stdout, err = run_cli(
        capsys, "extend", "--config", str(path), "--out", str(tmp_path / "o.csv")
    )
    assert code == 2
    assert stdout == ""
    assert err == f"error: {message}\n"


# -- fuzzed up-front validation -------------------------------------------------
# Every value drawn below is invalid, so no run may reach a solve (they are
# replaced by _no_solve) or allocate a grid: each must exit 2 with one line.

_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity"])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BAD_ORDER = st.one_of(
    _NON_FINITE,
    st.floats(max_value=0.0, allow_nan=False).map(repr),
    st.floats(min_value=1.0, allow_nan=False).map(repr),
)
_BAD_POSITIVE = st.one_of(_NON_FINITE, st.floats(max_value=0.0, allow_nan=False).map(repr))
_BAD_COUNT = st.one_of(
    st.integers(max_value=1), st.integers(min_value=MAX_POINTS + 1, max_value=10**18)
)
_BAD_POLY = st.tuples(
    st.lists(_FINITE.map(repr), max_size=2), _NON_FINITE, st.lists(_FINITE.map(repr), max_size=1)
).map(lambda t: ",".join(t[0] + [t[1]] + t[2]))
_BAD_GRID = st.one_of(
    st.tuples(_NON_FINITE, _FINITE.map(repr), st.integers(2, 50)),
    st.tuples(_FINITE.map(repr), _NON_FINITE, st.integers(2, 50)),
    st.tuples(_FINITE, _FINITE, st.integers(2, 50)).map(lambda t: (max(t[:2]), min(t[:2]), t[2])),
    st.tuples(_FINITE, st.floats(1e-3, 1e3), _BAD_COUNT).map(lambda t: (t[0], t[0] + t[1], t[2])),
).map(lambda t: ":".join(str(v) for v in t)) | st.sampled_from(["1:2", "1:2:3:4", "1:2:3.5", "a:b:c"])
_BAD_J_LIST = st.one_of(
    st.integers().map(str),
    st.lists(st.integers(1, 100), min_size=2, max_size=5).filter(
        lambda js: any(b <= a for a, b in zip(js, js[1:]))).map(lambda js: ",".join(map(str, js))),
    st.tuples(st.integers(max_value=0), st.integers(1, 100)).map(lambda t: f"{t[0]},{t[1]}"),
    st.sampled_from(["4,x", "4,8.5", "", "4,,8"]),
)
_BAD_INTERVAL = st.one_of(
    st.tuples(st.floats(max_value=0.0, allow_nan=False), _FINITE),
    st.tuples(_FINITE, _FINITE).map(lambda t: (max(t), min(t))),
    st.tuples(st.floats(min_value=1e-300, allow_infinity=False), _NON_FINITE),
).map(lambda t: f"{t[0]}:{t[1]}") | st.sampled_from(["1", "1:2:3", "a:b", ":"])
_BAD_PROFILE = st.text(string.ascii_lowercase + string.digits + "-_", min_size=1, max_size=12).filter(
    lambda n: n[0].isalpha()
    and n not in ("appendix-es1", "appendix-es2", "bump", "constant", "linear", "ramp"))
_BAD_TARGET = st.one_of(
    _NON_FINITE,
    _BAD_POLY.map(lambda p: "poly:" + p),
    st.text(string.ascii_letters, min_size=1, max_size=8).filter(lambda n: n not in ("sin", "exp", "x")),
)
_DATA_FLAGS = {
    "--s": _BAD_ORDER, "--grid": _BAD_GRID, "--a": _NON_FINITE, "--b": _NON_FINITE,
    "--poly": _BAD_POLY, "--profile": _BAD_PROFILE,
}
_BAD_FLAGS = {
    "derivative": _DATA_FLAGS,
    "extend": {**_DATA_FLAGS, "--tol": _BAD_POSITIVE},
    "blowup": {
        "--s": _BAD_ORDER, "--j-list": _BAD_J_LIST, "--interval": _BAD_INTERVAL,
        "--n-points": _BAD_COUNT.map(str),
    },
    "approximate": {
        "--s": _BAD_ORDER, "--f": _BAD_TARGET, "--eps": _BAD_POSITIVE,
        "--residual-tol": _BAD_POSITIVE, "--n-points": _BAD_COUNT.map(str),
        "--k": st.one_of(st.integers(max_value=-1), st.integers(min_value=MAX_CK_ORDER + 1)).map(str),
        "--m": st.one_of(st.integers(max_value=-1), st.integers(min_value=MAX_JET_ORDER + 1)).map(str),
    },
}
_BAD_ARGV = st.sampled_from(
    [(command, flag) for command, flags in _BAD_FLAGS.items() for flag in flags]
).flatmap(lambda cf: _BAD_FLAGS[cf[0]][cf[1]].map(lambda value: [cf[0], cf[1], value]))

_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
_NOT_A_NUMBER = st.one_of(
    st.text(max_size=5), st.booleans(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_NOT_A_STRING = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_WRONG_TYPE = {
    **dict.fromkeys(("s", "a", "b", "tol", "eps", "residual_tol"), _NOT_A_NUMBER),
    **dict.fromkeys(("n_points", "k", "m"), st.one_of(st.floats(), _NOT_A_NUMBER)),
    **dict.fromkeys(("profile", "poly", "grid", "j_list", "interval", "f", "out"), _NOT_A_STRING),
}
_BAD_CONFIG = st.one_of(
    st.one_of(
        st.sampled_from(["panels", "grade", "command"]),
        st.text(min_size=1, max_size=8).filter(lambda k: k not in _CONFIG_KEYS),
    ).map(lambda key: json.dumps({key: 1})),
    st.sampled_from(sorted(_WRONG_TYPE)).flatmap(
        lambda key: _WRONG_TYPE[key].map(lambda value: json.dumps({key: value}))),
    st.one_of(st.none(), st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=3)).map(
        json.dumps),
    st.sampled_from(["{", "{'s': 0.5}", "", "[1,"]),
)
# a valid value for every key, under the command that reads it
_VALID_VALUE = {
    "s": 0.5, "profile": "bump", "poly": "0,1", "a": 0.0, "b": 1.0, "grid": "1.1:2:3",
    "tol": 1e-5, "j_list": "4,8", "interval": "0.5:2", "n_points": 50, "f": "sin", "k": 1,
    "m": 1, "eps": 1e-2, "residual_tol": 1e-4, "out": "-",
}


def _foreign_config(command: str):
    """Another subcommand's setting, with a value valid there."""
    own = {flag[2:].replace("-", "_") for flag in _BAD_FLAGS[command]} | {"out"}
    return st.sampled_from(sorted(_CONFIG_KEYS - own)).map(
        lambda key: json.dumps({key: _VALID_VALUE[key]}))


def _run_checked(argv) -> tuple[int, str, str]:
    """main(argv) with every solve replaced by _no_solve and warnings raised."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in _SOLVES:
            mp.setattr(cli, name, _no_solve)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_line_error(code, stdout, stderr) -> None:
    assert code == 2, stderr
    assert stdout == ""
    assert stderr.count("\n") == 1 and stderr.startswith("error: "), stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("argv,message", [
    ((), "no command given"),
    (("nonsense",), "unknown command 'nonsense'"),
    (("--s", "0.5", "extend"), "unknown command '--s'"),
    (("blowup", "--bogus", "1"), "blowup has no flag '--bogus'"),
    (("blowup", "--eps", "1"), "blowup has no flag '--eps'"),
    (("derivative", "--tol", "1e-3"), "derivative has no flag '--tol'"),
    (("approximate", "--ep", "1e-3"), "approximate has no flag '--ep'"),
    (("approximate", "--n_points", "5"), "approximate has no flag '--n_points'"),
    (("extend", "-s", "0.5"), "extend has no flag '-s'"),
    (("extend", "stray"), "extend has no flag 'stray'"),
    (("extend", "--grid"), "--grid needs a value"),
    (("extend", "--grid", "--s", "0.5"), "--grid needs a value"),
    (("extend", "--s", "--"), "--s needs a value"),
    (("derivative", "--s", "half"), "--s must be a number, got 'half'"),
    (("derivative", "--a", "1,2"), "--a must be a number, got '1,2'"),
    (("derivative", "--b="), "--b must be a number, got ''"),
    (("extend", "--tol", "1e"), "--tol must be a number, got '1e'"),
    (("approximate", "--eps", "0.01x"), "--eps must be a number, got '0.01x'"),
    (("approximate", "--residual-tol", "tol"), "--residual-tol must be a number, got 'tol'"),
    (("approximate", "--k", "1.5"), "--k must be an integer, got '1.5'"),
    (("approximate", "--m", "x"), "--m must be an integer, got 'x'"),
    (("blowup", "--n-points", "5e1"), "--n-points must be an integer, got '5e1'"),
])
def test_malformed_argv_exits_2_with_one_line(argv, message):
    code, stdout, stderr = _run_checked(list(argv))
    _assert_one_line_error(code, stdout, stderr)
    assert message in stderr


@pytest.mark.parametrize("command", sorted(_BAD_FLAGS))
def test_out_that_is_a_directory_exits_2_before_any_solve(tmp_path, command):
    code, stdout, stderr = _run_checked([command, "--out", str(tmp_path)])
    _assert_one_line_error(code, stdout, stderr)
    assert f"--out {str(tmp_path)!r} is a directory" in stderr


@pytest.mark.parametrize("argv", [("--help",), ("-h",)] + [
    (command, flag) for command in sorted(_BAD_FLAGS) for flag in ("--help", "-h")], ids=" ".join)
def test_help_exits_0_and_lists_every_flag(argv):
    code, stdout, stderr = _run_checked(list(argv))
    assert code == 0 and stderr == ""
    if len(argv) == 1:
        assert all(command in stdout for command in _BAD_FLAGS)
    else:
        flags = {"--config", "--out"} | set(_BAD_FLAGS[argv[0]])
        listed = {line.split()[0] for line in stdout.splitlines() if line.startswith("  --")}
        assert listed == flags


def test_flag_equals_value_reads_as_flag_value(capsys):
    spaced = ["derivative", "--poly", "-1,2", "--s", "0.3", "--grid", "0.1:0.9:5"]
    joined = ["derivative", "--poly=-1,2", "--s=0.3", "--grid=0.1:0.9:5"]
    repeated = ["derivative", "--s", "0.9", "--poly=-1,2", "--grid", "0.1:0.9:5", "--s=0.3"]
    outputs = [run_cli(capsys, *argv) for argv in (spaced, joined, repeated)]
    assert outputs[0][0] == 0 and outputs[0][2] == ""
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("argv,config_hash", [
    ("derivative --profile linear --s 0.5 --grid 0.1:2:40", "a24f9b9414d41944"),
    ("extend --profile appendix-es1 --grid 1.01:5:200", "53f87a74a140ecff"),
    ("blowup --j-list 4,8,16,32,64", "ecb3460681dfd869"),
    ("approximate --f sin --k 1 --eps 5e-2", "b5c834f1814868f5"),
    ("approximate --m 1 --k 0 --eps 1e-2", "c8c0190331dcd503"),
], ids=["derivative", "extend", "blowup", "approximate-f", "approximate-m"])
def test_readme_config_hashes_are_pinned(tmp_path, capsys, argv, config_hash):
    out = tmp_path / "o.csv"
    code, _, err = run_cli(capsys, *argv.split(), "--out", str(out))
    assert code == 0, err
    assert out.read_text().splitlines()[0] == f"# config-hash: {config_hash}"


def test_cli_import_leaves_argparse_unimported():
    src = os.path.dirname(os.path.dirname(caputo_density.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, caputo_density.cli; print('argparse' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@given(_BAD_ARGV)
@settings(max_examples=300, deadline=None)
def test_fuzzed_flags_exit_2_with_one_line(argv):
    _assert_one_line_error(*_run_checked(argv))


@given(st.sampled_from(sorted(_BAD_FLAGS)).flatmap(
    lambda command: st.tuples(st.just(command), _BAD_CONFIG | _foreign_config(command))))
@settings(max_examples=200, deadline=None)
def test_fuzzed_config_exits_2_with_one_line(tmp_path_factory, command_text):
    command, text = command_text
    path = tmp_path_factory.mktemp("config") / "c.json"
    path.write_text(text, encoding="utf-8")
    _assert_one_line_error(*_run_checked([command, "--config", str(path)]))


@pytest.mark.parametrize("argv", [
    ("--f", "sin", "--k", "2", "--eps", "0.01"),
    ("--f", "exp", "--k", "2", "--eps", "0.05"),
    ("--f", "exp", "--k", "3", "--eps", "0.1"),
], ids=["sin-k2", "exp-k2", "exp-k3"])
def test_target_beyond_degree_4_is_fitted_without_any_jet(tmp_path, capsys, monkeypatch, argv):
    # each would need a polynomial of degree 5 or more; the fit builds no jet
    from caputo_density import density_builder

    monkeypatch.setattr(density_builder, "prescribe_jet", _no_solve)
    code, stdout, err = run_cli(capsys, "approximate", *argv, "--out", str(tmp_path / "o.csv"))
    assert code == 0, stdout
    assert err == ""
    assert json.loads(stdout)["exit_reason"] == "ok"


@pytest.mark.parametrize("command", sorted(_BAD_FLAGS))
def test_config_reports_only_the_commands_own_settings(command):
    own = {flag[2:].replace("-", "_") for flag in _BAD_FLAGS[command]} | {"out"}
    config = RunConfig(command=command, **_VALID_VALUE)
    assert set(config.as_dict()) == own | {"command"}


_ORDER = st.floats(0.02, 0.98).map(repr)
_TOLERANCE = st.floats(1e-8, 1.0).map(repr)
_SMALL_COUNT = st.integers(2, 8).map(str)
_FIXED_SPAN = st.sampled_from(["appendix-es1", "appendix-es2", "ramp", "bump"])
_AFFINE = st.sampled_from(["constant", "linear"])


def _coeffs(most):
    return st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=most).map(
        lambda cs: ",".join(map(repr, cs)))


def _valid_grid(lo, hi):
    """lo:hi:n with lo <= x0 < x1 <= hi and 2..8 points."""
    return st.tuples(st.floats(0.0, 0.9), st.floats(0.05, 1.0), st.integers(2, 8)).map(
        lambda t: f"{lo + t[0] * (hi - lo)!r}:{lo + min(1.0, t[0] + t[1]) * (hi - lo)!r}:{t[2]}")


@st.composite
def _valid_derivative(draw):
    argv = ["derivative", "--s", draw(_ORDER)]
    kind = draw(st.sampled_from(["fixed", "affine", "poly"]))
    if kind == "poly":
        b = draw(st.floats(1.0, 3.0))
        return argv + ["--poly", draw(_coeffs(3)), "--b", repr(b), "--grid", draw(_valid_grid(0.01, b))]
    argv += ["--profile", draw(_FIXED_SPAN if kind == "fixed" else _AFFINE)]
    if kind == "affine" and draw(st.booleans()):
        argv += ["--a", repr(draw(st.floats(-1.0, 0.0)))]
    return argv + ["--grid", draw(_valid_grid(0.01, 3.0))]


@st.composite
def _valid_extend(draw):
    argv = ["extend", "--s", draw(_ORDER), "--tol", draw(_TOLERANCE)]
    kind = draw(st.sampled_from(["fixed", "affine", "poly"]))
    b = 1.0
    if kind == "fixed":
        argv += ["--profile", draw(_FIXED_SPAN)]
    else:
        a = draw(st.floats(-1.0, 0.5))
        b = a + draw(st.floats(0.1, 2.0))
        data = ["--poly", draw(_coeffs(3))] if kind == "poly" else ["--profile", draw(_AFFINE)]
        argv += data + ["--a", repr(a), "--b", repr(b)]
    return argv + ["--grid", draw(_valid_grid(b + 1e-3, b + 4.0))]


@st.composite
def _valid_blowup(draw):
    js = draw(st.lists(st.integers(1, 12), min_size=2, max_size=3, unique=True))
    lo = draw(st.floats(0.1, 1.0))
    return ["blowup", "--s", draw(_ORDER), "--j-list", ",".join(map(str, sorted(js))),
            "--interval", f"{lo!r}:{lo + draw(st.floats(0.1, 2.0))!r}",
            "--n-points", draw(_SMALL_COUNT)]


@st.composite
def _valid_approximate(draw):
    target = draw(st.one_of(
        st.sampled_from(["sin", "exp", "x^2", "x2"]).map(lambda f: ["--f", f]),
        _coeffs(6).map(lambda cs: ["--f", "poly:" + cs]),  # degree 5 is beyond the jets
        st.floats(-2.0, 2.0).map(lambda c: ["--f", repr(c)]),
        st.integers(0, 4).map(lambda m: ["--m", str(m)]),
    ))
    return ["approximate", "--s", draw(_ORDER), *target,
            "--k", str(draw(st.integers(0, 4))), "--eps", repr(10.0 ** draw(st.floats(-3.0, 0.0))),
            "--residual-tol", draw(_TOLERANCE), "--n-points", draw(_SMALL_COUNT)]


@given(st.one_of(_valid_derivative(), _valid_extend(), _valid_blowup(), _valid_approximate()))
@settings(max_examples=200, deadline=None)
def test_fuzzed_valid_settings_run_or_miss_the_target(argv):
    # a valid run either succeeds (0) or reports a missed target (3) on
    # stdout; nothing reaches stderr and no warning is raised
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 3), (code, err.getvalue())
    assert err.getvalue() == ""
