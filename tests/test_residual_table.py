"""The tabulated Caputo residual against the per-point ladder it replaces.

Beyond b, D^s u sums the junction polynomial's terms in closed form and
R(xi) = int_0^1 w^(s-1) (1-w)^(-s) H_1(xi w) dw, read from a Chebyshev
table on the panels of the H_n tables. The reference below takes R per
point by ``gauss_ladder`` over the tabulated H_1, the formula the table's
node values come from. Each bound is ten times the largest distance
measured on 300 points from 1e-6 to 64 gaps right of b, rounded up to
one digit; the extension integrals themselves, before the division by
Gamma(1 - s), differ by at most 5.7e-13 (ramp, s = 0.998) and, for the
bump and psi_0, 6.2e-15. With the unit rules' panels sized to their
margins they differ by at most 6.3e-13 and 4.3e-15, and every bound
still holds.
"""

import json
import sys
import threading
import time

import mpmath
import numpy as np
import pytest

from caputo_density import density_builder, extension_solver
from caputo_density.blowup import Psi0Profile, build_psi
from caputo_density.cli import main
from caputo_density.density_builder import SinTarget, approximate_function
from caputo_density.extension_solver import ExtensionSolution, solve_extension
from caputo_density.piecewise import polyder
from caputo_density.profiles import (
    builtin_profile,
    quadratic_bump_profile,
)
from caputo_density.singular_quadrature import gauss_ladder, poly_abel_integral
from caputo_density.special_functions import beta, gamma

ORDERS = (0.002, 0.02, 0.1, 0.5, 0.9, 0.98, 0.998)
# max |caputo_value - reference| per order of ORDERS
BOUNDS = {
    "ramp": (6e-13, 4e-13, 4e-13, 5e-14, 2e-14, 2e-14, 2e-14),
    "bump": (4e-14, 3e-14, 3e-14, 9e-15, 2e-15, 4e-16, 2e-16),
    "psi0": (4e-14, 3e-14, 3e-14, 9e-15, 2e-15, 4e-16, 2e-16),
}


def _solution(name: str, s: float) -> ExtensionSolution:
    if name == "psi0":
        return build_psi(s, Psi0Profile.default_quadratic())
    return solve_extension(builtin_profile(name), s)


def _reference_caputo(sol, x: np.ndarray) -> np.ndarray:
    """D^s u at points x > b with R per point by ``gauss_ladder`` over H_1;
    each row of a ``gauss_ladder`` call is what a call for that point
    alone gives."""
    s, xi = sol.s, x - sol.b
    ext = np.zeros_like(xi)
    dpoly = polyder(sol.junction_polynomial)
    for k in range(dpoly.size):
        if dpoly[k] != 0.0:
            ext += dpoly[k] * xi ** (k + 1.0 - s) * beta(k + 1.0, 1.0 - s)
    ext += gauss_ladder(lambda z: sol.smooth_factor(1, z), xi, s, -s, sol._branch_gap)
    data = poly_abel_integral(sol.profile.derivative_pieces(), x, -s)
    return (data + ext) / gamma(1.0 - s)


@pytest.mark.parametrize("s", ORDERS)
@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_table_matches_the_per_point_ladder(name, s):
    sol = _solution(name, s)
    x = sol.b + 4.0 * sol._branch_gap * np.geomspace(1e-6, 16.0, 300)
    got = sol.caputo_value(x)
    assert np.max(np.abs(got - _reference_caputo(sol, x))) <= BOUNDS[name][ORDERS.index(s)]


def test_far_field_extend_exits_0(tmp_path, capsys):
    # the forcing is the data's Abel integral, whose far pieces do not
    # cancel, so u(1e9) matches the closed form, evaluated in mpmath since its
    # float terms cancel like x^2 (profiles.bump_extension_value errs by 8e-4
    # there), and the residual passes extend's default gate
    out = tmp_path / "far.csv"
    code = main(["extend", "--profile", "bump", "--grid", "1.01:1e9:2", "--out", str(out)])
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    far = [float(v) for v in rows[-1].split(",")]
    with mpmath.workdps(60):
        x = mpmath.mpf(far[0])
        want = (27 * mpmath.pi + mpmath.sqrt(x - 1) * (-48 * x + 52)
                + mpmath.asin(1 / mpmath.sqrt(x)) * (96 * x**2 - 144 * x)
                - mpmath.asin(1 / mpmath.sqrt(4 * x - 3)) * (96 * x**2 - 144 * x + 54)
                ) / (27 * mpmath.pi)
    assert far[0] == 1e9 and abs(far[1] - float(want)) <= 1e-12  # measured 4.4e-16
    assert report["residual_max"] <= 1e-5  # extend's default residual gate


def test_covered_residual_makes_one_table_read_per_point_and_term(monkeypatch):
    fit, _ = approximate_function(SinTarget(), 1, 5e-2, 0.5, Psi0Profile.default_quadratic())
    density_builder.residual_max(fit)  # the tables now cover every argument
    ladders, reads = [], []
    ladder, read = extension_solver.gauss_ladder, ExtensionSolution._eval_table

    def counted_ladder(*args):
        ladders.append(args[1].size)
        return ladder(*args)

    def counted_read(self, key, xi):
        reads.append(xi.size)
        return read(self, key, xi)

    monkeypatch.setattr(extension_solver, "gauss_ladder", counted_ladder)
    monkeypatch.setattr(ExtensionSolution, "_eval_table", counted_read)
    density_builder.residual_max(fit)
    assert ladders == []
    assert sum(reads) == density_builder.RESIDUAL_POINTS * fit.A.size == 1000


def _in_threads(jobs, timeout: float = 60.0) -> list:
    """Each job's result, every job in its own daemon thread, all started
    together; a job still running at the deadline, stuck on the growth
    lock say, fails the test instead of hanging the run."""
    start = threading.Barrier(len(jobs), timeout=timeout)
    results = [None] * len(jobs)

    def work(i):
        start.wait()
        results[i] = jobs[i]()

    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(len(jobs))]
    deadline = time.monotonic() + timeout
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    return results


def test_concurrent_residual_and_derivative_reads_match_one_thread():
    # each thread reaches its own distance past the last panel, so the order-1
    # table and R grow in an order that depends on the scheduling
    def reads(sol, i):
        xs = 1.0 + np.linspace(0.01, 12.0 + 9.0 * i, 64)
        return sol.caputo_value(xs), sol.derivative_fast(1, xs[::-1] + 3.0 * i)

    serial = solve_extension(quadratic_bump_profile(), 0.3)
    (expected,) = _in_threads([lambda: [reads(serial, i) for i in range(8)]])
    sol = solve_extension(quadratic_bump_profile(), 0.3)
    results = _in_threads([lambda i=i: reads(sol, i) for i in range(8)])
    for got, want in zip(results, expected):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
