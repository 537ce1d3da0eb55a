"""Numerical laboratory for the mass-critical focusing Hartree equation with an
inverse-square potential.

The equation, in the sign convention used throughout this package, is

    i du/dt = -L_a u + (|.|^{-2} * |u|^2) u,      L_a = -Laplacian + a/|x|^2,

for radial u on R^d, d >= 3, with coupling -((d-2)/2)^2 < a < 0 (a = 0 is
allowed for oracle comparisons).  With this convention the solitary wave is
e^{-it} Q where Q >= 0 solves L_a Q + Q = (|.|^{-2} * Q^2) Q.

Modules:
    params       physical parameters (d, a) and derived exponents rho, nu
    grid         radial quadrature grid on (0, r_max], dilation and d/dr
    transform    Fourier-Bessel transform diagonalizing L_a
    hartree      nonlocal potential Phi = |.|^{-2} * |u|^2 and L_V
    functionals  M, H, E, L_V, J plus scaling/rearrangement utilities
    ground_state ground-state solver, mass threshold M_gs, GN audit
    evolution    split-step time integration and blow-up diagnostics
    profiles     named initial-data profiles
    cli          config-driven batch front door
"""

from .params import ModelParams, make_params
from .grid import RadialGrid, build_grid
from .transform import TransformPlan, build_plan
from .hartree import KernelMatrix, build_kernel, potential, lv_value
from .functionals import Quantities, functionals, rescale, hardy_ratio, rearrange_decreasing
from .ground_state import (GroundStateOptions, GroundStateResult, GroundStateError,
                           solve_ground_state, el_residual, gn_audit,
                           save_ground_state, load_ground_state)
from .evolution import (IntegratorConfig, Trajectory, FitRejected, step, evolve,
                        virial, pseudo_conformal_family, fit_blowup,
                        concentration, rotated_energy_check)
from .profiles import make_initial_data

__all__ = [
    "ModelParams", "make_params",
    "RadialGrid", "build_grid",
    "TransformPlan", "build_plan",
    "KernelMatrix", "build_kernel", "potential", "lv_value",
    "Quantities", "functionals", "rescale", "hardy_ratio", "rearrange_decreasing",
    "GroundStateOptions", "GroundStateResult", "GroundStateError",
    "solve_ground_state", "el_residual", "gn_audit",
    "save_ground_state", "load_ground_state",
    "IntegratorConfig", "Trajectory", "FitRejected", "step", "evolve",
    "virial", "pseudo_conformal_family", "fit_blowup",
    "concentration", "rotated_energy_check",
    "make_initial_data",
]
