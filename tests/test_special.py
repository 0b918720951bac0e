import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc

from levyspec.models import _upper_gamma


def upper_gamma_quad(a: float, x: float, rtol: float = 1e-10) -> float:
    """Gamma(a, x) by quadrature of t^(a-1) e^(-t) over (x, inf): an independent reference."""
    val, err = quad(lambda t: t ** (a - 1.0) * math.exp(-t), x, math.inf,
                    epsrel=rtol, epsabs=0.0, limit=300)
    assert err <= 100 * rtol * abs(val), f"Gamma({a}, {x}) quadrature error {err:.2e}"
    return val


@pytest.mark.parametrize("a", [0.3, 1.0 / 1.7, 1.0, 10.0 / 7.0, 3.0, 10.0])
@pytest.mark.parametrize("x", [1e-8, 0.01, 0.5, 1.0, 2.0, 6.8, 30.0, 200.0])
def test_matches_scipy(a, x):
    ref = gammaincc(a, x) * gamma_fn(a)
    assert _upper_gamma(a, x) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("a,x", [(0.45, 0.3), (1.4, 2.0), (2.5, 9.0)])
def test_matches_quadrature(a, x):
    assert _upper_gamma(a, x) == pytest.approx(upper_gamma_quad(a, x), rel=1e-9)


def test_special_values():
    # Gamma(1, x) = e^-x, Gamma(a, 0) = Gamma(a)
    for x in (0.2, 1.0, 5.0):
        assert _upper_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)
    assert _upper_gamma(2.7, 0.0) == pytest.approx(gamma_fn(2.7), rel=1e-14)


def test_monotone_in_x():
    xs = np.linspace(0.0, 12.0, 40)
    vals = [_upper_gamma(0.7, x) for x in xs]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))



# the series (x < a + 1) and the continued fraction (x >= a + 1) meet at x = a + 1
@pytest.mark.parametrize("a", [0.5, 1.0 / 1.7, 1.0, 2.5, 7.0, 20.0, 40.0])
def test_matches_scipy_across_the_branch_switch(a):
    for x in a + 1.0 + np.array([-0.5, -0.01, -1e-9, 0.0, 1e-9, 0.01, 0.5]):
        ref = gammaincc(a, x) * gamma_fn(a)
        assert _upper_gamma(a, x) == pytest.approx(ref, rel=1e-13), x


# picard_derivative_bound asks for Gamma((k + 1) / alpha, t M)
@pytest.mark.parametrize("alpha", [0.2, 0.5, 1.3])
@pytest.mark.parametrize("k", [0, 3, 7])
def test_matches_scipy_at_the_orders_of_the_derivative_bound(alpha, k):
    a = (k + 1) / alpha
    for x in (1e-6, 1e-3, 0.5, 2.0, a / 2.0, a, 2.0 * a, 5.0 * a, 200.0):
        ref = gammaincc(a, x) * gamma_fn(a)
        assert _upper_gamma(a, x) == pytest.approx(ref, rel=1e-13), x


def test_is_finite_up_to_where_gamma_of_a_overflows():
    # x^a e^-x alone overflows near x = a here, while Gamma(a, x) does not
    for a in (160.0, 171.5):
        for x in (a / 2.0, a, a + 1.0, 2.0 * a):
            ref = gammaincc(a, x) * gamma_fn(a)
            assert _upper_gamma(a, x) == pytest.approx(ref, rel=1e-12), (a, x)


@pytest.mark.parametrize("a", [0.5, 1.0 / 1.7, 0.75, 1.0])
@pytest.mark.parametrize("x", [750.0, 1e4, 1e300, math.inf])
def test_underflows_to_zero_far_in_the_tail(a, x):
    assert _upper_gamma(a, x) == 0.0


@pytest.mark.parametrize("a,x", [(172.0, 0.0), (172.0, 1.0), (200.0, 10.0), (1e4, 1e-3)])
def test_is_inf_where_gamma_of_a_overflows(a, x):
    assert _upper_gamma(a, x) == math.inf


@pytest.mark.parametrize("a,x", [(math.nan, 1.0), (1.0, math.nan), (0.7, math.nan),
                                 (40.0, math.nan), (math.nan, math.nan)])
def test_nan_raises_instead_of_looping(a, x):
    with pytest.raises(ArithmeticError, match="did not converge"):
        _upper_gamma(a, x)
