"""Fourier-Bessel transform diagonalizing L_a = -Laplacian + a/|x|^2 on radials.

The reduced gauge g = r^{(d-2)/2} u turns the radial restriction of L_a into
the Bessel operator of order nu = sqrt(((d-2)/2)^2 + a) on the half line, so

    phi_m(r) = J_nu(k_m r) / r^{(d-2)/2},      k_m = j_{nu,m} / r_max,

with j_{nu,m} the positive zeros of J_nu (Dirichlet condition at r_max) are
exact eigenfunctions: L_a phi_m = k_m^2 phi_m.

The discrete modes psi_m are the phi_m orthonormalized in the quadrature
inner product <u, v>_w = sum_j w_j conj(u_j) v_j of the grid's positive
weights w (the metric of `M` and `H`) by the QR factorization of the samples
sqrt(w_j) phi_m(r_j) (Gram-Schmidt order: low modes are perturbed least).
The plan keeps one n x n matrix, the mode samples Psi; the forward
transform is c = Psi^T (w u), the weights applied to the field rather than
folded into a second matrix.  Consequences, all exact to round-off rather
than merely to quadrature accuracy:

  - round trip Psi (Psi^T (w u)) = u,
  - Parseval: the coefficients c = Psi^T (w u) have
    sum_m |c_m|^2 = sum_j w_j |u_j|^2,
  - L_a is self-adjoint and positive (eigenvalues exactly k_m^2 > 0),
  - the evolution's linear flow c_m -> e^{i k_m^2 t} c_m is unitary, so it
    conserves the discrete mass and the discrete H per step (the round-off
    left in Psi^T W Psi - I biases the mass alike in every step, through the
    mean of its diagonal; `tools/equivalence.py` prints that mean and the
    largest entry).

Psi is real.  It acts on a complex field as one real two-column product on
its (re, im) pairs, never by upcasting the n x n matrix to complex; real
fields take the plain real product.  Without a stored Psi^T W the plan
holds half the memory, and the forward transform reads Psi transposed.
The one complex n x n matrix is the evolution's linear flow
Psi diag(e^{i k^2 tau}) Psi^T W, which `evolution.evolve` forms once per run
and keeps only for that run.

apply_La keeps spectral accuracy: the orthonormalization correction acts at
the quadrature-error level of mode products and vanishes under grid
refinement.  The plan keeps neither the collocation matrix B = J_nu(k_m r_j)
nor the QR triangle R: the modes and the k_m are all that the package
applies.  `_orthonormalize` overwrites the weighted B with Q by block
Gram-Schmidt in matrix products on every BLAS thread, with numpy's
Householder QR for a panel where Cholesky QR would fail or lose
orthonormality (the ill-conditioned samples of large d).  Psi stays
C-ordered, the layout the transforms' products read.  The build holds one
n x n array, B and then Psi, beside n x _PANEL and `_collocation`'s
_BLOCK-row temporaries: `test_plan_build_peak_memory` bounds the traced
peak by two n x n arrays, and `tools/peak_memory.py` prints it.  Q is numpy's
Householder Q to round-off (`test_plan_q_matches_numpy_qr`: 1e-14), and
`test_plan_orthonormal_on_ill_conditioned_samples` covers the fallback.

Dilating and differentiating a field is the grid's job (`grid.dilate`,
`grid.radial_derivative`), which needs no Bessel function.

The build evaluates B once, by `_collocation`, with numpy alone.  From
x = k_m r_j >= x*(nu) on, most of the entries, it sums Hankel's asymptotic
expansion (nine terms each of P and Q for nu <= 9).  The switch x* is where
a bound on the first omitted term falls to one ulp of the amplitude: 22.3 at
nu = 0, growing with nu.  Below it, Miller's backward recurrence normalized
by Neumann's expansion of (x/2)^nu, in one call for all those entries.
Against 30-digit mpmath both stay within a few ulp of
min(1, sqrt(2/(pi x))): `test_collocation_matches_mpmath` bounds the error
by 2e-15 around the switch and `test_collocation_below_switch_matches_mpmath`
by 4e-15 below it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid
from .params import ModelParams


def bessel_zeros(nu: float, n: int) -> np.ndarray:
    """First n positive zeros of J_nu for real order nu > 0.

    Newton iteration with J_nu' = (nu/x) J_nu - J_{nu+1}, one `_jv_pair` call
    per step, from the lower of two asymptotic starts: McMahon's expansion in
    1/m, and Olver's uniform expansion in the zeros of Airy's Ai (DLMF
    10.21.43), the better start for the first zeros of large orders, where
    McMahon's alone can lead Newton to the wrong zero
    (`test_large_orders_match_mpmath`).  It stops once every step is within
    4 eps of its zero, relative (`test_bessel_zeros_stop_when_converged`):
    an absolute tolerance below the round-off of the large zeros would never
    be met and would run to the cap of 60.
    """
    m = np.arange(1, n + 1)
    beta = (m + nu / 2 - 0.25) * np.pi
    mu = 4 * nu**2
    z = beta - (mu - 1) / (8 * beta) - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta)**3)
    t = 3 * np.pi / 8 * (4 * m - 1)
    A = t**(2 / 3) * (1 + 5 / 48 / t**2)           # -(m-th zero of Airy's Ai)
    z = np.minimum(z, nu + A * (nu / 2)**(1 / 3) + 0.15 * A**2 * (2 / nu)**(1 / 3))
    for _ in range(60):
        fv, fv1 = _jv_pair(nu, z)
        dz = fv / (nu / z * fv - fv1)
        z -= dz
        if np.max(np.abs(dz) / z) <= 4 * np.finfo(float).eps:
            break
    return z


#: terms of each of Hankel's series P and Q, at least
_HANKEL_TERMS = 9
#: bound on the first term each series omits, relative to the amplitude
_HANKEL_TOL = np.finfo(float).eps
#: rows of the collocation matrix evaluated at once by Hankel's expansion
_BLOCK = 64
#: orders Miller's recurrence starts above the largest argument
_MILLER_MARGIN = 40
#: |J| past which Miller's recurrence rescales an argument's values
_MILLER_BIG = 1e150
#: columns per panel of `_orthonormalize`
_PANEL = 64


def _hankel_terms(nu: float) -> int:
    """K, the terms of each of P and Q: _HANKEL_TERMS, and nu from nu > 9 on.

    The first omitted term bounds the remainder only for nu <= 2K + 1/2 (DLMF
    10.17(iii)); K >= nu keeps that, and keeps the switch point finite and
    small: 63.5 at nu = 19 and 71.4 at nu = 29, where nine terms would give
    225 and 463.  Near the switch the terms of large orders grow before they
    fall (to ~50 at nu = 29), so their sums round to a few more ulp of the
    amplitude there; `test_large_orders_match_mpmath` bounds them by 1e-14.
    """
    return max(_HANKEL_TERMS, math.ceil(nu))


def _hankel_switch(nu: float) -> float:
    """Smallest x from which Hankel's expansion of J_nu is exact to round-off.

    There the first term each of P and Q omits, a_k(nu)/x^k with k = 2K and
    2K + 1, is at most _HANKEL_TOL.  Each factor |4 nu^2 - (2j-1)^2| of a_k is
    bounded by 4 nu^2 + (2j-1)^2, so the switch grows with nu and does not
    collapse at half-integer orders, where the series terminates but would
    cancel at small x.  It is 22.3 at nu = 0, 23.1 at nu = 0.387 and 32.6 at
    nu = 2.5.
    """
    K = _hankel_terms(nu)
    j = np.arange(1, 2 * K + 2)
    b = np.cumprod((4 * nu**2 + (2 * j - 1)**2) / (8 * j))
    return max((b[-2] / _HANKEL_TOL)**(1 / (2 * K)), (b[-1] / _HANKEL_TOL)**(1 / (2 * K + 1)))


def _hankel(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x) for x >= _hankel_switch(nu), by Hankel's expansion.

    J_nu(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - (nu/2 + 1/4) pi,
    with P and Q by Horner in 1/x^2.  The phase enters by angle addition,
    cos chi = cos x cos phi + sin x sin phi: forming x - phi would cost
    ulp(x), 1.2e-13 of the amplitude at x ~ 3000.
    """
    K = _hankel_terms(nu)
    j = np.arange(1, 2 * K)
    a = np.cumprod(np.r_[1.0, (4 * nu**2 - (2 * j - 1)**2) / (8 * j)])   # a_0 .. a_{2K-1}
    sign = (-1.0)**np.arange(K)
    p, q = (sign * a[0::2])[::-1], (sign * a[1::2])[::-1]
    phi = (nu / 2 + 0.25) * np.pi
    c, s = np.cos(phi), np.sin(phi)
    t = 1 / x
    t2 = t * t
    # Horner in preallocated buffers; the first step, 0 t^2 + p_0, is p_0
    P, Q = np.full_like(x, p[0]), np.full_like(x, q[0])
    for cp, cq in zip(p[1:], q[1:]):
        P *= t2
        P += cp
        Q *= t2
        Q += cq
    Q *= t
    # cos x (P c + Q s) + sin x (P s - Q c), times sqrt(2/(pi x))
    tmp = np.multiply(Q, s, out=t2)
    A = P * c
    A += tmp
    np.multiply(Q, c, out=tmp)
    P *= s
    P -= tmp
    A *= np.cos(x)
    P *= np.sin(x, out=Q)
    A += P
    t *= 2 / np.pi
    A *= np.sqrt(t, out=t)
    return A


def _miller(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_nu(x) and J_{nu+1}(x) for 0 < x below the switch point, by Miller's
    recurrence.

    f_{k-1} = 2 (nu + k) f_k / x - f_{k+1} runs down from f_{N+1} = 0,
    f_N = 1, with N the even order _MILLER_MARGIN above max x, and leaves
    f_k proportional to J_{nu+k}(x) (DLMF 3.6(vi)).  Neumann's expansion
    (x/2)^nu / Gamma(nu + 1) = sum_j c_j J_{nu+2j}(x) (DLMF 10.23.15), with
    c_0 = 1, c_j = (nu + 2j) Gamma(nu + j) / (j! Gamma(nu + 1)) by their
    product recurrence, fixes the scale.  Dividing by x in every step, rather
    than multiplying by a rounded 2/x, keeps the argument exact: a rounded
    2/x is a coherent relative shift of x, x eps of the amplitude.

    Values past _MILLER_BIG are rescaled, argument by argument, so f_k, which
    grows as k falls toward the turning point k ~ x, never overflows.  Each
    step has |f_{k-1}| <= (2 (nu + k)/x + 1) max(|f_k|, |f_{k+1}|), so the
    product of these factors from N down to k, at the smallest x, bounds
    every value up to f_{k-1}.  The steps scan for values past _MILLER_BIG
    only from where that bound reaches one e-fold below it (at none, for
    every `bessel_zeros` call): no rescale is skipped, and the values are
    the same bits as with a scan at every step.
    """
    N = 2 * ((int(np.max(x, initial=0.0)) + _MILLER_MARGIN + 1) // 2)
    c = np.empty(N // 2 + 1)
    c[0], g = 1.0, 1.0
    for j in range(1, N // 2 + 1):       # g = Gamma(nu + j) / (j! Gamma(nu + 1))
        c[j] = (nu + 2 * j) * g
        g *= (nu + j) / (j + 1)
    growth = np.cumsum(np.log1p(2 * (nu + np.arange(N, 0, -1)) / np.min(x, initial=np.inf)))
    k_scan = N - np.searchsorted(growth, math.log(_MILLER_BIG) - 1, side="right")
    f_next, f = np.zeros_like(x), np.ones_like(x)
    total, tmp = np.zeros_like(x), np.empty_like(x)
    for k in range(N, 0, -1):
        if k % 2 == 0:
            total += np.multiply(f, c[k // 2], out=tmp)
        # f_{k-1} = 2 (nu + k) f_k / x - f_{k+1}, into f_{k+1}'s buffer
        np.multiply(f, 2 * (nu + k), out=tmp)
        tmp /= x
        f_next, f = f, np.subtract(tmp, f_next, out=f_next)
        if k <= k_scan and np.abs(f, out=tmp).max() > _MILLER_BIG:
            big = tmp > _MILLER_BIG
            for v in (f, f_next, total):
                v[big] /= _MILLER_BIG
    total += f
    scale = (x / 2)**nu / math.gamma(nu + 1) / total
    return f * scale, f_next * scale


def _jv_pair(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_nu(x) and J_{nu+1}(x) for x > 0: `_hankel` from the switch point of
    nu + 1 on, the higher of the two; below it, one `_miller` run gives both."""
    low = x < _hankel_switch(nu + 1)
    j0, j1 = np.empty_like(x), np.empty_like(x)
    j0[~low], j1[~low] = _hankel(nu, x[~low]), _hankel(nu + 1, x[~low])
    j0[low], j1[low] = _miller(nu, x[low])
    return j0, j1


def _collocation(nu: float, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """B_jm = J_nu(k_m r_j) for increasing k > 0 and r > 0.

    From the switch point x* of `_hankel_switch` on, `_hankel`; below it,
    `_miller`.  x grows along a row and down a column, so row i lies below
    x* in its column prefix k_m < x*/r_i.  The rows go in blocks of _BLOCK,
    and `_hankel` fills a block from its last row's prefix on.  Then one
    `_miller` call overwrites every row's prefix, including the few entries
    of each block's first rows that `_hankel` saw below x*; one call per
    block would cost more in Python than the recurrence itself.
    """
    x_switch = _hankel_switch(nu)
    prefix = np.searchsorted(k, x_switch / r)
    B = np.empty((len(r), len(k)))
    for i0 in range(0, len(r), _BLOCK):
        m = prefix[min(i0 + _BLOCK, len(r)) - 1]
        B[i0:i0 + _BLOCK, m:] = _hankel(nu, r[i0:i0 + _BLOCK, None] * k[m:])
    rows, cols = _prefix_entries(prefix)
    B[rows, cols] = _miller(nu, r[rows] * k[cols])[0]
    return B


def _prefix_entries(prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries m < prefix[i] of every row i,
    row by row: those of np.nonzero(arange(n) < prefix[:, None]), in its
    order, from the lengths alone rather than an n x n mask."""
    rows = np.repeat(np.arange(len(prefix)), prefix)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(prefix) - prefix, prefix)


@dataclass
class TransformPlan:
    params: ModelParams
    grid: RadialGrid
    k: np.ndarray              # spectral nodes, k_m^2 = eigenvalues of L_a
    Psi: np.ndarray            # orthonormal mode samples psi_m(r_j), n x n


def build_plan(params: ModelParams, grid: RadialGrid) -> TransformPlan:
    """The modes Psi and nodes k of L_a on the grid.

    Psi = Q / sqrt(w), with Q of B = Q R, R's diagonal positive, for
    B = sqrt(w) J_nu(k_m r) / r^{(d-2)/2}.  `_orthonormalize` overwrites B
    with Q, and the plan keeps that one n x n array as Psi.
    """
    if params.d != grid.d:
        raise ValueError(f"params dimension {params.d} != grid dimension {grid.d}")
    nu = params.nu
    k = bessel_zeros(nu, grid.n) / grid.r_max
    Psi = _collocation(nu, k, grid.r)
    sw = np.sqrt(grid.w)
    Psi *= sw[:, None]
    Psi /= grid.r[:, None]**((params.d - 2) / 2)
    _orthonormalize(Psi)
    Psi /= sw[:, None]
    return TransformPlan(params=params, grid=grid, k=k, Psi=Psi)


def _orthonormalize(B: np.ndarray) -> None:
    """Overwrite the columns of B with the Q of B = Q R, R's diagonal positive.

    Reorthogonalized block classical Gram-Schmidt (Barlow and Smoktunowicz,
    Numer. Math. 123 (2013) 395) on panels of _PANEL columns, each in a
    contiguous copy (the products read it faster than B's strided columns).
    A round projects the panel P off the finished columns Q, P -= Q (Q^T P),
    and takes the Cholesky QR of P: P L^{-T}, with P^T P = G = L L^T.  The
    panel is done after a round past the first whose G lies within 1/2 of I
    (Frobenius norm): one Cholesky QR then leaves P orthonormal to round-off.
    A round takes numpy's Householder QR of P where G has no Cholesky factor,
    or past the first round where G is not within 1/2 of I.  Every factor's
    diagonal is positive, so Q is the QR's Q.
    """
    for j0 in range(0, B.shape[1], _PANEL):
        Q = B[:, :j0]
        P = np.ascontiguousarray(B[:, j0:j0 + _PANEL])
        for rounds in itertools.count(1):
            P -= Q @ (Q.T @ P)
            G = P.T @ P
            done = rounds > 1 and np.linalg.norm(G - np.eye(len(G))) <= 0.5
            try:
                L = np.linalg.cholesky(G) if rounds == 1 or done else None
            except np.linalg.LinAlgError:       # G is not positive definite
                L = None
            if L is not None:
                P = P @ np.linalg.inv(L).T
            else:
                Qp, R = np.linalg.qr(P)
                P = Qp * np.copysign(1.0, np.diag(R))
            if done:
                break
        B[:, j0:j0 + _PANEL] = P


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


def _forward(plan: TransformPlan, u: np.ndarray) -> np.ndarray:
    """Mode coefficients c = Psi^T (w u) of the samples u."""
    return _matvec(plan.Psi.T, plan.grid.w * u)


def apply_la(plan: TransformPlan, u: np.ndarray) -> np.ndarray:
    """L_a u = Psi (k^2 Psi^T (w u)); exactly self-adjoint and positive."""
    return _matvec(plan.Psi, plan.k**2 * _forward(plan, _check(plan, u)))
