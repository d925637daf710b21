import os

import numpy as np
import pytest
from hypothesis import settings

from caputo_density.blowup import Psi0Profile, build_psi
from caputo_density.extension_solver import solve_extension
from caputo_density.profiles import quadratic_bump_profile, ramp_profile

# CI runs draw the same examples every time and print a blob that replays
# a failure; local runs keep exploring. Example counts stay per test.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def ramp_solution():
    return solve_extension(ramp_profile(), 0.5)


@pytest.fixture(scope="session")
def bump_solution():
    return solve_extension(quadratic_bump_profile(), 0.5)


@pytest.fixture(scope="session")
def psi0_default():
    return Psi0Profile.default_quadratic()


@pytest.fixture(scope="session")
def psi_half(psi0_default):
    # shared across the blow-up and density tests through the module cache
    return build_psi(0.5, psi0_default)


@pytest.fixture(scope="session")
def jet_cache(psi0_default):
    from caputo_density.density_builder import prescribe_jet

    cache = {}

    def get(m, s=0.5):
        if (m, s) not in cache:
            cache[m, s] = prescribe_jet(s, psi0_default, m)
        return cache[m, s]

    return get


@pytest.fixture(scope="session")
def oracle_grid():
    return np.linspace(1.01, 5.0, 200)
