"""Upper incomplete gamma function.

Gamma(a, x) = int_x^inf t^(a-1) e^(-t) dt, for a > 0, x >= 0.

The working version validates its arguments and evaluates scipy's regularized
Q(a, x) times Gamma(a).  A direct quadrature version is provided as an
independent cross-check.
"""

from __future__ import annotations

import math

from .errors import QuadratureError


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma Gamma(a, x)."""
    from scipy.special import gamma, gammaincc
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return float(gammaincc(a, x) * gamma(a))


def upper_incomplete_gamma_quad(a: float, x: float, rtol: float = 1e-10) -> float:
    """Quadrature evaluation of Gamma(a, x); slow, used for cross-validation."""
    from scipy.integrate import quad
    if a <= 0.0 or x < 0.0:
        raise ValueError("need a > 0 and x >= 0")
    val, err = quad(lambda t: t ** (a - 1.0) * math.exp(-t), x, math.inf,
                    epsrel=rtol, epsabs=0.0, limit=300)
    if val != 0.0 and err / abs(val) > 100 * rtol:
        raise QuadratureError(
            f"Gamma({a}, {x}) quadrature error estimate {err:.2e} too large",
            value=val, residual=err)
    return val
