"""Fourier-Bessel transform diagonalizing L_a = -Laplacian + a/|x|^2 on radials.

The reduced gauge g = r^{(d-2)/2} u turns the radial restriction of L_a into
the Bessel operator of order nu = sqrt(((d-2)/2)^2 + a) on the half line, so

    phi_m(r) = J_nu(k_m r) / r^{(d-2)/2},      k_m = j_{nu,m} / r_max,

with j_{nu,m} the positive zeros of J_nu (Dirichlet condition at r_max) are
exact eigenfunctions: L_a phi_m = k_m^2 phi_m.

The discrete modes psi_m are the phi_m orthonormalized in the quadrature
inner product <u, v>_w = sum_j w_j conj(u_j) v_j of the grid's positive
weights w (the metric of `M` and `H`) by a Householder QR of the samples
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
    left in Psi^T W Psi - I, a few times less from QR than from Cholesky of
    the Gram matrix, biases the mass alike in every step).

Psi is real.  It acts on a complex field as one real two-column product on
its (re, im) pairs, never by upcasting the n x n matrix to complex; real
fields take the plain real product.  Without the stored Psi^T W the plan
holds half the memory (2 MiB less at n = 512); the forward transform then
reads Psi transposed, which at n = 512 on 2 BLAS threads took 88 against
75 us on a real field and 149 against 105 us on a complex one (medians of 40
interleaved rounds on 2 shared cores), under 1 ms of a ~6 ms ground-state
solve at n = 512 (median 5.6 ms on 2 BLAS threads, 8.0 ms on one).  The one
complex n x n matrix is the evolution's linear flow Psi diag(e^{i k^2 tau})
Psi^T W, which `evolution.evolve` forms once per run and keeps only for that
run.

apply_La keeps spectral accuracy: the orthonormalization correction acts at
the quadrature-error level of mode products and vanishes under grid
refinement.  The plan keeps neither the collocation matrix B = J_nu(k_m r_j)
nor the QR triangle R: the modes and the k_m are all that the package
applies.  numpy's raw QR (LAPACK's geqrf) leaves the Householder reflectors
and R in one C-ordered n x n array, and `_form_q` overwrites it with Q by
compact-WY blocks.  The build thus holds at most the raw QR's three n x n
arrays (B, numpy's copy of it, and the Fortran-ordered copy LAPACK works
in, which tracemalloc does not see), then Psi alone; numpy's reduced QR
added Q and R as two more.  Traced at n = 512 the build peaks at 4.0 MiB,
in the raw QR, where the reduced QR reached 8.3 MiB; `_collocation`, which
holds the `_hankel` temporaries of _BLOCK = 64 rows at a time, peaks at 3.7
(11.5 at n = 1024).  Q differs from the reduced QR's, which LAPACK's dorgqr
forms from the same reflectors, by round-off (below 1e-14).

Dilating and differentiating a field is the grid's job (`grid.dilate`,
`grid.radial_derivative`), which needs no Bessel function.

The build evaluates B once, by `_collocation`, with numpy alone.  From
x = k_m r_j >= x*(nu) on, 90-93 % of the entries at n = 512, it sums
Hankel's asymptotic expansion (nine terms each of P and Q for nu <= 9).
The switch x* is where a bound on the first omitted term falls to one ulp of
the amplitude: 22.3 at nu = 0, growing with nu.  Below it, Miller's backward
recurrence normalized by Neumann's expansion of (x/2)^nu, in one call for
all those entries.  Against 30-digit mpmath, on dense samples at seven
orders nu <= 3, both are within 2.1e-15 of min(1, sqrt(2/(pi x)));
scipy.special.jv is up to 6.9e-14 off below x*.
"""

from __future__ import annotations

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
    10.21.43), the better start for the first zeros of large orders.  For
    nu <= 45 and m <= 30 Olver's start lay above every zero and the lower
    start within 0.08 of a zero spacing; McMahon's alone is 2.2 above the
    first zero of nu = 29, and Newton went from there to 2.67.  It stops once
    every step is within 4 eps of its zero, relative, after 1-4 steps.  An
    absolute tolerance below the round-off of the large zeros (1.1e-13 at the
    512th) would never be met and would run to the cap of 60.
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
#: reflectors per compact-WY block of `_form_q`, and rows per chunk of its
#: trailing update
_QR_BLOCK, _QR_ROWS = 64, 128


def _hankel_terms(nu: float) -> int:
    """K, the terms of each of P and Q: _HANKEL_TERMS, and nu from nu > 9 on.

    The first omitted term bounds the remainder only for nu <= 2K + 1/2 (DLMF
    10.17(iii)); K >= nu keeps that, and keeps the switch point finite and
    small: 63.5 at nu = 19 and 71.4 at nu = 29, where nine terms would give
    225 and 463.  Near the switch the terms of large orders grow before they
    fall (to ~50 at nu = 29), so their sums round to 6.6e-15 of the
    amplitude there, against 2.4e-15 at nu = 19.
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
    2/x is a coherent relative shift of x, x eps of the amplitude.  Values
    past _MILLER_BIG are rescaled, argument by argument, so f_k, which grows
    as k falls toward the turning point k ~ x, never overflows.
    """
    N = 2 * ((int(np.max(x, initial=0.0)) + _MILLER_MARGIN + 1) // 2)
    c = np.empty(N // 2 + 1)
    c[0], g = 1.0, 1.0
    for j in range(1, N // 2 + 1):       # g = Gamma(nu + j) / (j! Gamma(nu + 1))
        c[j] = (nu + 2 * j) * g
        g *= (nu + j) / (j + 1)
    f_next, f = np.zeros_like(x), np.ones_like(x)
    total, tmp = np.zeros_like(x), np.empty_like(x)
    for k in range(N, 0, -1):
        if k % 2 == 0:
            total += np.multiply(f, c[k // 2], out=tmp)
        # f_{k-1} = 2 (nu + k) f_k / x - f_{k+1}, into f_{k+1}'s buffer
        np.multiply(f, 2 * (nu + k), out=tmp)
        tmp /= x
        f_next, f = f, np.subtract(tmp, f_next, out=f_next)
        if np.max(np.abs(f, out=tmp)) > _MILLER_BIG:
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

    From the switch point x* of `_hankel_switch` on, 90-93 % of the entries
    at n = 512, `_hankel`; below it, `_miller`.  x grows along a row and down
    a column, so row i lies below x* in its column prefix k_m < x*/r_i.  The
    rows go in blocks of _BLOCK, and `_hankel` fills a block from its last
    row's prefix on.  Then one `_miller` call overwrites every row's prefix,
    including the few entries of each block's first rows that `_hankel` saw
    below x*; one call per block would cost more in Python than the
    recurrence itself.
    """
    x_switch = _hankel_switch(nu)
    prefix = np.searchsorted(k, x_switch / r)
    B = np.empty((len(r), len(k)))
    for i0 in range(0, len(r), _BLOCK):
        m = prefix[min(i0 + _BLOCK, len(r)) - 1]
        B[i0:i0 + _BLOCK, m:] = _hankel(nu, r[i0:i0 + _BLOCK, None] * k[m:])
    rows, cols = np.nonzero(np.arange(len(k)) < prefix[:, None])
    B[rows, cols] = _miller(nu, r[rows] * k[cols])[0]
    return B


@dataclass
class TransformPlan:
    params: ModelParams
    grid: RadialGrid
    k: np.ndarray              # spectral nodes, k_m^2 = eigenvalues of L_a
    Psi: np.ndarray            # orthonormal mode samples psi_m(r_j), n x n


def build_plan(params: ModelParams, grid: RadialGrid) -> TransformPlan:
    """The modes Psi and nodes k of L_a on the grid.

    Psi = Q sign(diag R) / sqrt(w), from the raw Householder QR of
    B = sqrt(w) J_nu(k_m r) / r^{(d-2)/2}.  B is freed after the QR, and Q
    is formed in the QR's own buffer (`_form_q`), which the plan keeps as
    Psi: the build peaks at three n x n arrays and the plan holds one.
    """
    if params.d != grid.d:
        raise ValueError(f"params dimension {params.d} != grid dimension {grid.d}")
    nu = params.nu
    k = bessel_zeros(nu, grid.n) / grid.r_max
    B = _collocation(nu, k, grid.r)
    sw = np.sqrt(grid.w)
    B *= sw[:, None]
    B /= grid.r[:, None]**((params.d - 2) / 2)
    h, tau = np.linalg.qr(B, mode="raw")
    del B
    Psi = h.T                         # C-ordered: R above the diagonal, reflectors below
    sign = np.sign(np.diagonal(Psi))  # flip to the R with positive diagonal
    _form_q(Psi, tau)
    Psi *= sign
    Psi /= sw[:, None]
    return TransformPlan(params=params, grid=grid, k=k, Psi=Psi)


def _form_q(a: np.ndarray, tau: np.ndarray) -> None:
    """Overwrite a, the Householder vectors below the diagonal of a square
    raw QR with R on and above it, with Q = H_0 H_1 ... H_{n-1}.

    The reflectors go in blocks of _QR_BLOCK columns from the last block
    back.  Block [j0, j1) is H_j0 ... H_{j1-1} = I - V T V^T (compact WY;
    Schreiber and Van Loan 1989), with V its unit lower-trapezoidal vectors
    and T upper triangular by LAPACK's forward recurrence, in which a tau of
    0 (the last column's) gives a zero column.  It multiplies the columns
    past j1 that the later blocks formed, whose rows above j1 are zero, in
    _QR_ROWS-row chunks, and turns its own identity columns into
    I - V T V_top^T; then R's entries above the block are zeroed.  The
    temporaries are a few n x _QR_BLOCK and _QR_ROWS x n arrays.
    """
    n = len(a)
    for j0 in reversed(range(0, n, _QR_BLOCK)):
        j1 = min(j0 + _QR_BLOCK, n)
        nb = j1 - j0
        V = np.tril(a[j0:, j0:j1], -1)
        np.fill_diagonal(V, 1.0)
        VtV = V.T @ V
        T = np.zeros((nb, nb))
        for i in range(nb):
            T[:i, i] = -tau[j0 + i] * (T[:i, :i] @ VtV[:i, i])
            T[i, i] = tau[j0 + i]
        if j1 < n:
            TW = T @ (V[nb:].T @ a[j1:, j1:])
            for r0 in range(j0, n, _QR_ROWS):
                a[r0:r0 + _QR_ROWS, j1:] -= V[r0 - j0:r0 - j0 + _QR_ROWS] @ TW
        a[j0:, j0:j1] = V @ (-T @ V[:nb].T)
        a[j0:j1, j0:j1] += np.eye(nb)
        a[:j0, j0:j1] = 0.0


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
