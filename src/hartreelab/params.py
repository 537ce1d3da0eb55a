"""Physical parameters of the model.

The coupling a enters through the operator L_a = -Laplacian + a/|x|^2.  Two
derived exponents appear everywhere downstream:

    nu  = sqrt(((d-2)/2)^2 + a)   Bessel order diagonalizing L_a on radials,
    rho = (d-2)/2 - nu            the r^{-rho} origin exponent of ground states,

so rho + nu = (d-2)/2 identically.  The main regime is -((d-2)/2)^2 < a < 0;
a = 0 is accepted so classical (Laplacian-only) oracles can be run through the
same code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    d: int
    a: float
    rho: float
    nu: float


def make_params(d: int, a: float) -> ModelParams:
    """Validate (d, a) and compute the derived exponents."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
    half = (d - 2) / 2
    if a <= -(half * half):
        raise ValueError(
            f"a must satisfy a > -((d-2)/2)^2 = {-half*half} "
            f"(operator not positive), got a = {a}"
        )
    if a > 0:
        raise ValueError(f"a must be <= 0 (focusing regime or free case), got {a}")
    nu = math.sqrt(half * half + a)
    rho = half - nu
    return ModelParams(d=d, a=a, rho=rho, nu=nu)
