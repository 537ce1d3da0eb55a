import math

import pytest

from hartreelab import make_params


def test_a_zero_d3():
    # [TRIVIAL] a = 0 collapses the square root: nu = (d-2)/2, rho = 0
    p = make_params(3, 0.0)
    assert p.rho == 0.0
    assert p.nu == 0.5


def test_closed_form_d4():
    # [DERIVED] closed-form evaluation: d=4, a=-0.75 -> nu = 0.5, rho = 0.5
    p = make_params(4, -0.75)
    assert p.nu == pytest.approx(0.5, abs=1e-15)
    assert p.rho == pytest.approx(0.5, abs=1e-15)


def test_closed_form_d3_deep():
    # [DERIVED] d=3, a=-0.2475 -> nu = 0.05, rho = 0.45
    p = make_params(3, -0.2475)
    assert p.nu == pytest.approx(0.05, abs=1e-12)
    assert p.rho == pytest.approx(0.45, abs=1e-12)


@pytest.mark.parametrize("d,a", [(3, -0.1), (3, -0.2), (4, -0.5), (5, -1.0)])
def test_rho_nu_identity(d, a):
    # [TRIVIAL] rho + nu = (d-2)/2 to machine precision; ranges
    p = make_params(d, a)
    assert p.rho + p.nu == pytest.approx((d - 2) / 2, abs=1e-14)
    assert 0 <= p.rho < (d - 2) / 2
    assert p.nu > 0


def test_rejects_operator_not_positive():
    # [TRIVIAL] a <= -((d-2)/2)^2 rejected, error cites the bound
    with pytest.raises(ValueError, match=r"-0\.25"):
        make_params(3, -1.0)
    with pytest.raises(ValueError):
        make_params(3, -0.25)   # boundary value itself is rejected


def test_rejects_bad_dimension_and_sign():
    # [TRIVIAL] d < 3, a d that is not an integer, and a > 0 rejected
    for d in (3.0, True, "3"):
        with pytest.raises(ValueError, match="d must be an integer"):
            make_params(d, -0.1)
    with pytest.raises(ValueError):
        make_params(2, -0.1)
    with pytest.raises(ValueError):
        make_params(3, 0.1)
    with pytest.raises(ValueError):
        make_params(3, math.nan)
