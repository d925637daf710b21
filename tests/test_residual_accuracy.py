"""Accuracy map of the Caputo residual across the order s.

max |D^s u| of the solved ramp and bump extensions on b + [1e-3, 4], at
orders from 0.002 to 0.998. Each bound is ten times the value measured
with a residual rule of fixed depth 12 (172 nodes) and the Gauss-Jacobi
table build, rounded up to one digit. Every entry is at rounding
(largest 6.3e-14, ramp at s = 0.01); before the table build's right half
became a Gauss-Jacobi rule the residual grew as s -> 0 with the table
error, to 1.2e-8 at s = 0.01. The residual rule now takes each point's
depth from the distance of H_1's branch point, 40 to 88 nodes on this
range, and the map stays at rounding (largest 5.3e-14, the same entry).
The entries at s = 0.002 and 0.998 were measured with this rule: the ramp
at s = 0.002 reads 3.1e-13, the largest of the map.
The residual is now read from a table of its integral of H_1, and the
map stays at rounding (largest 2.9e-13, ramp at s = 0.002). The table's
own error stays at rounding too (the integral taken per point by a rule
with twice the nodes and 20 bands moves the residuals of
test_residual_batching's grids by at most 7.0e-15). With the unit rules'
start panel cut to 10 nodes and end panel to 12, each sized to its
margin, the map stays at rounding (largest 2.8e-13, ramp at s = 0.002).
"""

import numpy as np
import pytest

from caputo_density.extension_solver import solve_extension
from caputo_density.profiles import builtin_profile

# s: (ramp, bump)
BOUNDS = {
    0.002: (4e-12, 5e-14),
    0.01: (7e-13, 4e-14),
    0.02: (4e-13, 5e-14),
    0.05: (7e-14, 4e-14),
    0.1: (2e-13, 6e-14),
    0.25: (3e-14, 2e-14),
    0.5: (2e-14, 2e-14),
    0.75: (7e-15, 2e-14),
    0.9: (2e-14, 1e-14),
    0.95: (2e-14, 7e-15),
    0.98: (2e-14, 9e-15),
    0.99: (2e-14, 6e-15),
    0.998: (3e-14, 4e-15),
}


@pytest.mark.parametrize("s", sorted(BOUNDS))
@pytest.mark.parametrize("name", ["ramp", "bump"])
def test_residual_accuracy_map(name, s):
    sol = solve_extension(builtin_profile(name), s)
    xs = sol.b + np.geomspace(1e-3, 4.0, 60)
    bound = BOUNDS[s][("ramp", "bump").index(name)]
    assert np.max(np.abs(sol.caputo_value(xs))) <= bound
