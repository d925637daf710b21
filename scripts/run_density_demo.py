"""Build Caputo-stationary approximants of a few targets and print reports.

Demonstrates the full density pipeline at desk scale: x^2 in C^0, sin in
C^1, and a cubic polynomial in C^2.
"""

from __future__ import annotations

import json
import sys
import time

from caputo_density.blowup import Psi0Profile
from caputo_density.density_builder import PolyTarget, SinTarget, approximate_function


RUNS = (
    (PolyTarget([0.0, 0.0, 1.0]), 0, 1e-2),
    (SinTarget(), 1, 5e-2),
    (PolyTarget([0.5, -1.0, 0.0, 2.0]), 2, 1e-1),
)


def main() -> int:
    profile = Psi0Profile.default_quadratic()
    ok = True
    for target, k, eps in RUNS:
        start = time.monotonic()
        approx, rep = approximate_function(target, k, eps, 0.5, profile)
        elapsed = time.monotonic() - start
        print(
            json.dumps(
                {
                    "target": rep.target,
                    "k": k,
                    "eps": eps,
                    "epsilon_achieved": rep.epsilon_achieved,
                    "residual_max": rep.residual_max,
                    "initial_point": rep.initial_point,
                    "terms": rep.terms,
                    "coefficient_mass": rep.coefficient_mass,
                    "seconds": round(elapsed, 2),
                },
                sort_keys=True,
            )
        )
        ok = ok and rep.ok and rep.residual_max <= 1e-4
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
