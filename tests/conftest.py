"""Shared fixtures: moderate-resolution discretizations and cached solves.

Oracle policy used throughout the suite (tags in test comments):
  [TRIVIAL]  asserted directly from definitions/arithmetic
  [DERIVED]  checked against an independently computed oracle (closed forms,
             Monte-Carlo, symbolic derivatives, refinement limits)
  [PAPER]    checks a stated identity/inequality of the underlying theory
"""

import pytest

from hartreelab import (build_grid, build_kernel, build_plan, make_params,
                        solve_ground_state)
from hartreelab.ground_state import GroundStateOptions


class Ctx:
    """Bundle of params/grid/plan/kernel for one (d, a, n, r_max)."""

    def __init__(self, d, a, n, r_max):
        self.params = make_params(d, a)
        self.grid = build_grid(d, n, r_max)
        self.plan = build_plan(self.params, self.grid)
        self.km = build_kernel(self.grid, self.params)


@pytest.fixture(scope="session")
def ctx3():
    # main workhorse: d=3, a=-0.1 at n=256
    return Ctx(3, -0.1, 256, 12.0)


@pytest.fixture(scope="session")
def ctx3_free():
    # a = 0 oracle context (classical Laplacian)
    return Ctx(3, 0.0, 256, 12.0)


@pytest.fixture(scope="session")
def ctx4():
    return Ctx(4, -0.5, 256, 12.0)


@pytest.fixture(scope="session")
def gs3(ctx3):
    # cached moderate-resolution ground state for downstream tests
    return solve_ground_state(ctx3.params, ctx3.grid, ctx3.plan, ctx3.km,
                              GroundStateOptions(residual_tol=1e-4))

