"""Fourier-Bessel transform diagonalizing L_a = -Laplacian + a/|x|^2 on radials.

The reduced gauge g = r^{(d-2)/2} u turns the radial restriction of L_a into
the Bessel operator of order nu = sqrt(((d-2)/2)^2 + a) on the half line, so

    phi_m(r) = J_nu(k_m r) / r^{(d-2)/2},      k_m = j_{nu,m} / r_max,

with j_{nu,m} the positive zeros of J_nu (Dirichlet condition at r_max) are
exact eigenfunctions: L_a phi_m = k_m^2 phi_m.

The discrete modes psi_m are the phi_m orthonormalized in the quadrature
inner product <u, v>_w = sum_j w_j conj(u_j) v_j by a Householder QR of the
samples sqrt(w_j) phi_m(r_j) (Gram-Schmidt order: low modes are perturbed
least).  Consequences, all exact to round-off rather than merely to
quadrature accuracy:

  - round trip inverse(forward(u)) = u,
  - Parseval: sum_m |c_m|^2 = sum_j w_j |u_j|^2,
  - L_a is self-adjoint and positive (eigenvalues exactly k_m^2 > 0),
  - the evolution's linear flow c_m -> e^{i k_m^2 t} c_m is unitary, so it
    conserves the discrete mass and the discrete H per step (the round-off
    left in Psi^T W Psi - I, a few times less from QR than from Cholesky of
    the Gram matrix, biases the mass alike in every step).

All plan matrices are real.  They act on a complex field as one real
two-column product on its (re, im) pairs, never by upcasting the n x n
matrix to complex; real fields take the plain real product.  The one complex
n x n matrix is the evolution's linear flow Psi diag(e^{i k^2 tau}) PsiTw,
which `evolution.evolve` forms once per run and keeps only for that run.

apply_La keeps spectral accuracy: the orthonormalization correction acts at
the quadrature-error level of mode products and vanishes under grid
refinement.  The plan keeps neither the collocation matrix B = J_nu(k_m r_j)
nor the QR triangle R: the modes, their forward transform and the k_m are all
that the package applies.  Dilating and differentiating a field is the
grid's job (`grid.dilate`, `grid.radial_derivative`), which needs no Bessel
function.

The build evaluates B once, by `_collocation`.  From x = k_m r_j >= x*(nu)
on, 90-93 % of the entries at n = 512, it sums Hankel's asymptotic expansion
(nine terms each of P and Q) instead of calling special.jv.  The switch x*
is where a bound on the first omitted term falls to one ulp of the
amplitude: 22.3 at nu = 0, growing with nu.  Below it, jv is used.  jv
itself changes method at x = 21.8 and below that loses up to 4e-14 of the
amplitude (nu = 0.387); nine terms keep the expansion where jv is accurate,
so B matches jv to 1.4e-16 absolute.
Against 30-digit mpmath both sides are within 3.5e-16 of
min(1, sqrt(2/(pi x))).

If the grid carries a non-positive quadrature weight (possible at the first
node for d >= 6 and for pathologically coarse grids), the orthonormalization
metric clips it to a tiny positive value; conservation statements then hold in
the clipped metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .grid import RadialGrid
from .params import ModelParams


def bessel_zeros(nu: float, n: int) -> np.ndarray:
    """First n positive zeros of J_nu for real order nu >= 0.

    McMahon's asymptotic expansion polished by Newton iteration with
    J_nu' = (J_{nu-1} - J_{nu+1})/2.  It stops once every step is within
    4 eps of its zero, relative; Newton from McMahon's start gets there in 1-4
    steps.  An absolute tolerance below the round-off of the large zeros
    (1.1e-13 at the 512th) would never be met and would run to the cap of 60.
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
        if np.max(np.abs(dz) / z) <= 4 * np.finfo(float).eps:
            break
    return z


#: terms of each of Hankel's series P and Q
_HANKEL_TERMS = 9
#: bound on the first term each series omits, relative to the amplitude
_HANKEL_TOL = np.finfo(float).eps
#: rows of the collocation matrix evaluated at once
_BLOCK = 32


def _hankel_switch(nu: float) -> float:
    """Smallest x from which Hankel's expansion of J_nu is exact to round-off.

    There the first term each of P and Q omits, a_k(nu)/x^k with k = 2K and
    2K + 1, is at most _HANKEL_TOL.  Each factor |4 nu^2 - (2j-1)^2| of a_k is
    bounded by 4 nu^2 + (2j-1)^2, so the switch grows with nu and does not
    collapse at half-integer orders, where the series terminates but would
    cancel at small x.  It is 22.3 at nu = 0, 23.1 at nu = 0.387 and 32.6 at
    nu = 2.5.  The omitted term bounds the remainder for nu <= 2K + 1/2 (DLMF
    10.17(iii)); past that, jv is used throughout.
    """
    K = _HANKEL_TERMS
    if nu > 2 * K + 0.5:
        return np.inf
    j = np.arange(1, 2 * K + 2)
    b = np.cumprod((4 * nu**2 + (2 * j - 1)**2) / (8 * j))
    return max((b[-2] / _HANKEL_TOL)**(1 / (2 * K)), (b[-1] / _HANKEL_TOL)**(1 / (2 * K + 1)))


def _collocation(nu: float, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """B_jm = J_nu(k_m r_j) for increasing k > 0 and r > 0.

    From the switch point x* of `_hankel_switch` on, Hankel's expansion
    J_nu(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - (nu/2 + 1/4) pi,
    with P and Q by Horner in 1/x^2; below x*, special.jv.  The phase enters
    by angle addition, cos chi = cos x cos phi + sin x sin phi: forming x - phi
    would cost ulp(x), 1.2e-13 of the amplitude at x ~ 3000.  The rows go in
    blocks of _BLOCK; x grows along a row, so the entries below x* of a block
    lie in the column prefix its first row has below x*.
    """
    K = _HANKEL_TERMS
    j = np.arange(1, 2 * K)
    a = np.cumprod(np.r_[1.0, (4 * nu**2 - (2 * j - 1)**2) / (8 * j)])   # a_0 .. a_{2K-1}
    sign = (-1.0)**np.arange(K)
    p, q = (sign * a[0::2])[::-1], (sign * a[1::2])[::-1]
    phi = (nu / 2 + 0.25) * np.pi
    c, s = np.cos(phi), np.sin(phi)
    x_switch = _hankel_switch(nu)
    B = np.empty((len(r), len(k)))
    for i0 in range(0, len(r), _BLOCK):
        x = r[i0:i0 + _BLOCK, None] * k
        m = int(np.searchsorted(x[0], x_switch))
        B[i0:i0 + _BLOCK, :m] = special.jv(nu, x[:, :m])
        x = x[:, m:]
        t = 1 / x
        t2 = t * t
        P = Q = 0.0
        for cp, cq in zip(p, q):
            P = P * t2 + cp
            Q = Q * t2 + cq
        Q = Q * t
        B[i0:i0 + _BLOCK, m:] = np.sqrt(2 / np.pi * t) * (np.cos(x) * (P * c + Q * s)
                                                          + np.sin(x) * (P * s - Q * c))
    return B


@dataclass
class TransformPlan:
    params: ModelParams
    grid: RadialGrid
    k: np.ndarray              # spectral nodes, k_m^2 = eigenvalues of L_a
    Psi: np.ndarray            # orthonormal mode samples psi_m(r_j), n x n
    PsiTw: np.ndarray          # Psi^T diag(w_metric): the forward transform


def build_plan(params: ModelParams, grid: RadialGrid) -> TransformPlan:
    if params.d != grid.d:
        raise ValueError(f"params dimension {params.d} != grid dimension {grid.d}")
    nu = params.nu
    k = bessel_zeros(nu, grid.n) / grid.r_max
    B = _collocation(nu, k, grid.r)

    w = grid.w
    if np.any(w <= 0):
        w = np.maximum(w, 1e-14 * np.max(w))
    sw = np.sqrt(w)
    B *= sw[:, None]
    B /= grid.r[:, None]**((params.d - 2) / 2)
    Psi, R = np.linalg.qr(B)
    sign = np.sign(np.diag(R))        # flip to the R with positive diagonal
    del B, R
    Psi *= sign
    Psi /= sw[:, None]
    PsiTw = Psi.T * w[None, :]
    return TransformPlan(params=params, grid=grid, k=k, Psi=Psi, PsiTw=PsiTw)


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
    """Dense matrix of apply_la; used once per ground-state Newton polish."""
    return (plan.Psi * plan.k[None, :]**2) @ plan.PsiTw
