"""Accuracy map of the Caputo residual across the order s.

max |D^s u| of the solved ramp and bump extensions on b + [1e-3, 4], at
orders from 0.01 to 0.99. Each bound is ten times the value measured
with the 172-node Gauss-Jacobi residual rule, rounded up to one digit.
The residual grows as s -> 0 with the error of the tabulated H_1; the
rule's own error stays at rounding there (a rule with twice the nodes
moves these residuals by < 4e-15, see test_residual_batching).
"""

import numpy as np
import pytest

from caputo_density.extension_solver import solve_extension
from caputo_density.profiles import builtin_profile

# s: (ramp, bump)
BOUNDS = {
    0.01: (5e-8, 2e-7),
    0.02: (3e-8, 6e-8),
    0.05: (5e-9, 2e-8),
    0.1: (2e-9, 4e-9),
    0.25: (3e-10, 7e-10),
    0.5: (5e-11, 2e-10),
    0.75: (2e-11, 3e-11),
    0.9: (3e-12, 8e-12),
    0.95: (2e-12, 4e-12),
    0.98: (5e-13, 2e-12),
    0.99: (3e-13, 6e-13),
}


@pytest.mark.parametrize("s", sorted(BOUNDS))
@pytest.mark.parametrize("name", ["ramp", "bump"])
def test_residual_accuracy_map(name, s):
    sol = solve_extension(builtin_profile(name), s)
    xs = sol.b + np.geomspace(1e-3, 4.0, 60)
    bound = BOUNDS[s][("ramp", "bump").index(name)]
    assert np.max(np.abs(sol.caputo_value(xs))) <= bound
