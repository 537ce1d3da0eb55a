"""Fourier-Bessel transform diagonalizing L_a = -Laplacian + a/|x|^2 on radials.

The reduced gauge g = r^{(d-2)/2} u turns the radial restriction of L_a into
the Bessel operator of order nu = sqrt(((d-2)/2)^2 + a) on the half line, so

    phi_m(r) = J_nu(k_m r) / r^{(d-2)/2},      k_m = j_{nu,m} / r_max,

with j_{nu,m} the positive zeros of J_nu (Dirichlet condition at r_max) are
exact eigenfunctions: L_a phi_m = k_m^2 phi_m.

The discrete modes psi_m are the phi_m orthonormalized (by Cholesky of their
Gram matrix, so low modes are perturbed least) in the quadrature inner
product <u, v>_w = sum_j w_j conj(u_j) v_j.  Consequences, all exact to
round-off rather than merely to quadrature accuracy:

  - round trip inverse(forward(u)) = u,
  - Parseval: sum_m |c_m|^2 = sum_j w_j |u_j|^2,
  - L_a is self-adjoint and positive (eigenvalues exactly k_m^2 > 0),
  - the evolution's linear flow c_m -> e^{i k_m^2 t} c_m is unitary, so it
    conserves the discrete mass and the discrete H per step.

All plan matrices are real.  They act on a complex field as one real
two-column product on its (re, im) pairs, never by upcasting the n x n
matrix to complex; real fields take the plain real product.

apply_La keeps spectral accuracy: the orthonormalization correction acts at
the quadrature-error level of mode products and vanishes under grid
refinement.  The derivative and resampling helpers use the raw collocation
basis (B and its inverse), which is the more accurate route for pointwise
evaluation off the quadrature metric.

If the grid carries a non-positive quadrature weight (possible at the first
node for d >= 6 and for pathologically coarse grids), the orthonormalization
metric clips it to a tiny positive value and the plan records it; conservation
statements then hold in the clipped metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.linalg import solve_triangular

from .grid import RadialGrid
from .params import ModelParams


def bessel_zeros(nu: float, n: int) -> np.ndarray:
    """First n positive zeros of J_nu for real order nu >= 0.

    McMahon's asymptotic expansion polished by Newton iteration with
    J_nu' = (J_{nu-1} - J_{nu+1})/2.
    """
    m = np.arange(1, n + 1)
    beta = (m + nu / 2 - 0.25) * np.pi
    mu = 4 * nu**2
    z = beta - (mu - 1) / (8 * beta) - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta)**3)
    for _ in range(60):
        fv = special.jv(nu, z)
        fp = 0.5 * (special.jv(nu - 1, z) - special.jv(nu + 1, z))
        dz = fv / fp
        z -= dz
        if np.max(np.abs(dz)) < 1e-14:
            break
    return z


@dataclass
class TransformPlan:
    params: ModelParams
    grid: RadialGrid
    k: np.ndarray              # spectral nodes, k_m^2 = eigenvalues of L_a
    B: np.ndarray              # collocation matrix J_nu(k_m r_j)
    Binv: np.ndarray           # its inverse (derivative/resample helpers)
    ralpha: np.ndarray         # r^{(d-2)/2} gauge factor
    Psi: np.ndarray            # orthonormal mode samples psi_m(r_j), n x n
    PsiTw: np.ndarray          # Psi^T diag(w_metric): the forward transform
    metric_clipped: bool       # True if a non-positive weight was clipped
    _deriv_matrix: np.ndarray | None = field(default=None, repr=False)
    _la_matrix: np.ndarray | None = field(default=None, repr=False)


def build_plan(params: ModelParams, grid: RadialGrid) -> TransformPlan:
    if params.d != grid.d:
        raise ValueError(f"params dimension {params.d} != grid dimension {grid.d}")
    nu, R = params.nu, grid.r_max
    z = bessel_zeros(nu, grid.n)
    k = z / R
    B = special.jv(nu, k[None, :] * grid.r[:, None])
    Binv = np.linalg.inv(B)
    ralpha = grid.r**((params.d - 2) / 2)

    w = grid.w
    clipped = bool(np.any(w <= 0))
    if clipped:
        w = np.maximum(w, 1e-14 * np.max(w))
    F = B / ralpha[:, None]
    gram = F.T @ (w[:, None] * F)
    R_chol = np.linalg.cholesky(gram).T          # gram = R^T R, upper triangular
    Psi = solve_triangular(R_chol, F.T, trans='T', lower=False).T
    PsiTw = Psi.T * w[None, :]
    return TransformPlan(params=params, grid=grid, k=k, B=B, Binv=Binv,
                         ralpha=ralpha, Psi=Psi, PsiTw=PsiTw,
                         metric_clipped=clipped)


def _check(plan: TransformPlan, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    if v.shape != (plan.grid.n,):
        raise ValueError(f"field length {v.shape} does not match grid n={plan.grid.n}")
    return v


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for a real matrix A.  A complex v is viewed, without a copy, as
    an (n, 2) real array of (re, im) pairs, so one real product replaces the
    complex upcast of A."""
    if not np.iscomplexobj(v):
        return A @ v
    v = np.ascontiguousarray(v, dtype=np.complex128)
    return (A @ v.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()


def transform_forward(plan: TransformPlan, u: np.ndarray) -> np.ndarray:
    """Samples -> spectral coefficients c_m (adjoint of the orthonormal modes)."""
    return _matvec(plan.PsiTw, _check(plan, u))


def transform_inverse(plan: TransformPlan, c: np.ndarray) -> np.ndarray:
    """Spectral coefficients -> samples."""
    return _matvec(plan.Psi, _check(plan, c))


def apply_la(plan: TransformPlan, u: np.ndarray) -> np.ndarray:
    """L_a u = inverse(k^2 * forward(u)); exactly self-adjoint and positive."""
    return _matvec(plan.Psi, plan.k**2 * _matvec(plan.PsiTw, _check(plan, u)))


def la_matrix(plan: TransformPlan) -> np.ndarray:
    """Dense matrix of apply_la (cached); used by the ground-state Newton polish."""
    if plan._la_matrix is None:
        plan._la_matrix = (plan.Psi * plan.k[None, :]**2) @ plan.PsiTw
    return plan._la_matrix


def radial_derivative(plan: TransformPlan, u: np.ndarray) -> np.ndarray:
    """Spectral d/dr of a field: differentiates the Bessel series term-by-term.

    d/dr [J_nu(k r) r^{-alpha}] = k J_nu'(k r) r^{-alpha} - alpha J_nu(k r) r^{-alpha-1}
    with J_nu'(x) = (nu/x) J_nu(x) - J_{nu+1}(x), reusing J_nu = B; the
    positive order nu+1 costs scipy less than nu-1 (negative for nu < 1).
    Uses the collocation coefficients, which track pointwise values most
    accurately.
    """
    if plan._deriv_matrix is None:
        nu, r, k = plan.params.nu, plan.grid.r, plan.k
        kr = k[None, :] * r[:, None]
        Jp = (nu / kr) * plan.B - special.jv(nu + 1, kr)
        alpha = (plan.params.d - 2) / 2
        A2 = (k[None, :] * Jp) / plan.ralpha[:, None] \
            - alpha * plan.B / (plan.ralpha * r)[:, None]
        plan._deriv_matrix = A2 @ plan.Binv
    # the matrix acts on the gauge samples ralpha*u
    return _matvec(plan._deriv_matrix, plan.ralpha * _check(plan, u))


def resample(plan: TransformPlan, u: np.ndarray, nu_s: float) -> np.ndarray:
    """Spectral evaluation of u(nu_s * r) on the same grid via the Bessel series.

    Exact for fields in the span of the transform basis; used internally by the
    ground-state solver where spectral-grade rescaling accuracy is needed.
    """
    if nu_s == 1.0:
        return np.array(u, copy=True)
    c = _matvec(plan.Binv, plan.ralpha * _check(plan, u))
    rr = nu_s * plan.grid.r
    B2 = special.jv(plan.params.nu, plan.k[None, :] * rr[:, None])
    alpha = (plan.params.d - 2) / 2
    return _matvec(B2, c) / rr**alpha
