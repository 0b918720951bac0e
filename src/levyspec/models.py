"""Levy process models: triplets, characteristic functions, closed-form bounds.

A Levy process is specified by its triplet (b, sigma^2, nu): drift, Gaussian
variance and jump measure.  The characteristic function at time t is

    phi_t(u) = exp( i t u b - t sigma^2 u^2 / 2
                    + t * int (e^{iux} - 1 - iux 1_{|x|<1}) nu(dx) ).

For stable-like jump densities

    p(x) = P / x^{1+alpha} (x > 0)  +  Q / |x|^{1+alpha} (x < 0),

the jump integral has a closed form: the increment at time t follows a stable
law in the one-parameterization

    phi(u) = exp( i delta u - gamma^alpha |u|^alpha
                  (1 - i beta tan(pi alpha / 2) sign u) ),      alpha != 1,
    phi(u) = exp( i delta u - gamma |u|
                  (1 + i beta (2/pi) sign(u) log|u|) ),         alpha  = 1,

with gamma^alpha = t (P+Q) Gamma(1-alpha) cos(pi alpha/2) / alpha (limit value
pi/2 per unit of P+Q at alpha = 1), beta = (P-Q)/(P+Q), and the location delta
fixed by the truncation term of the exponent above:

    delta = t (Q-P)/(1-alpha)            for alpha != 1,
    delta = t (P-Q)(1 - euler_gamma)     for alpha  = 1.

Everything here is a pure function of its arguments; no shared state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (QuadratureError, UnsupportedModelError, _require_between, _require_count,
                     _require_finite, _require_finite_entries, _require_nonnegative,
                     _require_positive)

__all__ = [
    "StableJumpDensity", "CustomJumpDensity", "LevyTriplet", "StableLaw",
    "ModelClass", "levy_khintchine_cf", "increment_stable_law", "stable_cf",
    "check_small_jump_bound", "truncated_moment_ratio", "truncated_second_moment",
    "picard_cf_bound", "picard_derivative_bound", "spectral_bias_bound",
    "optimal_cutoff", "mixed_cutoff", "stable_density_l2_norm", "oscillating_density",
    "partition_density", "gamma_process_density", "cauchy_triplet",
]

GAUSSIAN = "gaussian"
PURE_JUMP = "pure-jump"
MIXED = "mixed"

_CUTOFF_RESIDUAL_TOL = 1e-10
_JUMP_EXPONENT_RTOL = 1e-8  # relative tolerance of each quadrature of a custom jump exponent
_QUADPACK_DIVERGENT = "The integral is probably divergent"  # scipy's report of QUADPACK ier 5
_EPS = math.ulp(1.0)
_TINY = 1e-300  # keeps the Lentz recurrence off a zero divisor
_GAMMA_MAX_ITER = 500  # about 120 terms suffice at a = 171.6, where Gamma(a) overflows


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class StableJumpDensity:
    """Two-sided power-law jump density P/x^{1+alpha} (x>0), Q/|x|^{1+alpha} (x<0)."""

    P: float
    Q: float
    alpha: float

    def __post_init__(self):
        total = _require_nonnegative("P", self.P) + _require_nonnegative("Q", self.Q)
        _require_positive("P + Q", total)
        _require_between("alpha", self.alpha, 0, 2)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        neg = x < 0
        out[pos] = self.P * x[pos] ** (-1.0 - self.alpha)
        out[neg] = self.Q * np.abs(x[neg]) ** (-1.0 - self.alpha)
        return out if out.ndim else float(out)

    @property
    def activity_constant(self) -> float:
        """Exact constant (P+Q)/(2-alpha) of the truncated second moment."""
        return (self.P + self.Q) / (2.0 - self.alpha)

    @property
    def skew(self) -> float:
        return (self.P - self.Q) / (self.P + self.Q)


@dataclass(frozen=True, eq=False)
class CustomJumpDensity:
    """Jump density given by a nonnegative evaluator on R \\ {0}.

    ``breakpoints`` lists known discontinuities used to split the quadrature.
    """

    evaluator: Callable[[float], float]
    breakpoints: tuple = ()
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.check:
            probe = [0.37, -0.61, 1.9, -2.4, 0.013]
            for x in probe:
                _require_nonnegative(f"the jump density at x={x}", float(self.evaluator(x)))
            try:
                finite = math.isfinite(_levy_mass(self))
            except QuadratureError:
                finite = False
            if not finite:
                raise ValueError("int min(x^2, 1) p(x) dx is not finite")

    def __call__(self, x):
        if np.ndim(x) == 0:
            return float(self.evaluator(float(x)))
        return np.array([float(self.evaluator(float(v))) for v in np.ravel(x)]).reshape(np.shape(x))


JumpDensity = Union[StableJumpDensity, CustomJumpDensity]


@dataclass(frozen=True)
class LevyTriplet:
    """Levy triplet (b, sigma^2, nu); ``jumps`` is the density of nu or None."""

    b: float
    sigma2: float
    jumps: JumpDensity | None = None

    def __post_init__(self):
        _require_finite("b", self.b)
        _require_nonnegative("sigma2", self.sigma2)
        if self.jumps is None and self.sigma2 == 0:
            raise ValueError("a triplet with no jumps needs sigma2 > 0 "
                             "for the increment to have a density")


@dataclass(frozen=True)
class StableLaw:
    """Stable law S(alpha, gamma, beta, delta) in the one-parameterization."""

    alpha: float
    gamma: float
    beta: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha!r}")
        _require_positive("gamma", self.gamma)
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta!r}")
        _require_finite("delta", self.delta)


@dataclass(frozen=True)
class ModelClass:
    """Smoothness class of a triplet: Gaussian-dominant, pure-jump or mixed."""

    tag: str
    M: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.tag not in (GAUSSIAN, PURE_JUMP, MIXED):
            raise ValueError(f"unknown tag {self.tag!r}")
        if self.tag == GAUSSIAN:
            if self.M is not None or self.alpha is not None:
                raise ValueError("gaussian class carries no (M, alpha)")
        else:
            _require_positive("M", self.M)
            _require_between("alpha", self.alpha, 0, 2)

    @classmethod
    def gaussian_dominant(cls) -> "ModelClass":
        return cls(GAUSSIAN)

    @classmethod
    def pure_jump(cls, M: float, alpha: float) -> "ModelClass":
        return cls(PURE_JUMP, M, alpha)

    @classmethod
    def mixed(cls, M: float, alpha: float) -> "ModelClass":
        return cls(MIXED, M, alpha)


# ---------------------------------------------------------------------------
# built-in jump densities

def oscillating_density(alpha: float = 0.5, beta: float = 1.5) -> CustomJumpDensity:
    """Symmetric density |x|^{-a-1} + |x|^{-b-1} (1 + sin(1/|x|)) / 2.

    Oscillates between the two power envelopes near 0, so it is not regularly
    varying there; the quadratures over it converge slowly.  Too slowly for
    :func:`levy_khintchine_cf`, which raises QuadratureError at every frequency
    tried (a strict xfail in the tests keeps this visible).
    """
    if not 0 <= alpha < beta < 2:
        raise ValueError("need 0 <= alpha < beta < 2")

    def p0(x: float) -> float:
        ax = abs(x)
        if ax == 0.0:
            return 0.0
        return ax ** (-alpha - 1.0) + ax ** (-beta - 1.0) * (1.0 + math.sin(1.0 / ax)) / 2.0

    return CustomJumpDensity(p0, check=False)


def partition_density() -> CustomJumpDensity:
    """One-sided density alternating x^-2 / x^-1.5 on the dyadic-tower partition.

    With eta_k = 2^(-2^k) and I_k = (eta_{k+1}, eta_k] covering (0, 1/2], the
    density is x^-2 on odd-indexed cells and x^-1.5 on even-indexed ones.
    """
    etas = [math.pow(2.0, -(2.0 ** k)) for k in range(9)]
    floor = math.pow(2.0, -500)  # below this x^-2 overflows; the cells' mass is < 1e-75

    def p(x: float) -> float:
        if x <= floor or x > 0.5:
            return 0.0
        k = int(math.floor(math.log2(-math.log2(x))))
        return x ** -2.0 if k % 2 == 1 else x ** -1.5

    return CustomJumpDensity(p, breakpoints=tuple(etas), check=False)


def gamma_process_density() -> CustomJumpDensity:
    """One-sided density e^{-x}/x; infinite activity but zero power-law index."""

    def p(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return math.exp(-x) / x

    return CustomJumpDensity(p, check=False)


def cauchy_triplet() -> LevyTriplet:
    """Pure-jump symmetric 1-stable triplet; increment at t has CF e^{-t|u|}."""
    return LevyTriplet(0.0, 0.0, StableJumpDensity(1.0 / math.pi, 1.0 / math.pi, 1.0))


# ---------------------------------------------------------------------------
# quadrature helpers

def _quad_pieces(f, a: float, b: float, breakpoints: Sequence[float], rtol: float,
                 what: str):
    """Integrate f over (a, b) in (0, inf), split at |breakpoints| inside it; a piece
    that QUADPACK reports probably divergent raises QuadratureError."""
    from scipy.integrate import quad
    pts = sorted({abs(p) for p in breakpoints if a < abs(p) < b})
    edges = [a] + pts + [b]
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for lo, hi in zip(edges[:-1], edges[1:]):
            v, e, _, *report = quad(f, lo, hi, epsrel=rtol, epsabs=1e-300, limit=800,
                                    full_output=1)
            if report and report[0].startswith(_QUADPACK_DIVERGENT):
                raise QuadratureError(f"{what}: integral probably divergent on ({lo}, {hi})")
            total += v
            err += e
    if math.isnan(total) or math.isinf(total):
        raise QuadratureError(f"{what}: integral diverged on ({a}, {b})")
    return total, err


def _check_residual(value: float, err: float, rtol: float, what: str) -> float:
    if err > rtol * max(abs(value), 1e-300) and err > 1e-12:
        raise QuadratureError(
            f"{what}: error estimate {err:.2e} exceeds tolerance for value {value:.6e}")
    return value


def _levy_mass(p: CustomJumpDensity) -> float:
    """int min(x^2, 1) p(x) dx, loose tolerance; finiteness check only."""
    f2 = lambda x: x * x * p.evaluator(x)
    total = 0.0
    for a, b, f in ((0.0, 1.0, f2), (1.0, np.inf, p.evaluator)):
        v, _ = _quad_pieces(f, a, b, p.breakpoints, 1e-6, "levy mass")
        w, _ = _quad_pieces(lambda x: f(-x), a, b, p.breakpoints, 1e-6, "levy mass")
        total += v + w
    return total


def truncated_second_moment(density: JumpDensity, eta: float, rtol: float = 1e-8) -> float:
    """int_{-eta}^{eta} x^2 p(x) dx by adaptive quadrature."""
    _require_positive("eta", eta)
    _require_positive("rtol", rtol)
    brk = getattr(density, "breakpoints", ())
    f = lambda x: x * x * float(density(x))
    pos, ep = _quad_pieces(f, 0.0, eta, brk, rtol, "truncated second moment")
    neg, en = _quad_pieces(lambda x: f(-x), 0.0, eta, brk, rtol,
                           "truncated second moment")
    return _check_residual(pos + neg, ep + en, 50 * rtol, f"truncated second moment at eta={eta}")


# ---------------------------------------------------------------------------
# characteristic functions

def _stable_scale_constant(P: float, Q: float, alpha: float) -> float:
    """(P+Q) Gamma(1-alpha) cos(pi alpha/2) / alpha, with its alpha=1 limit."""
    if alpha == 1.0:
        return (math.pi / 2.0) * (P + Q)
    return (P + Q) * math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0) / alpha


def _custom_jump_exponent(jumps: CustomJumpDensity, u: float) -> complex:
    """int (e^{iux} - 1 - iux 1_{|x|<1}) p(x) dx for a black-box density.

    The compensated integrand is handled by adaptive quadrature on (0, 1);
    the oscillatory tails use Fourier-weighted quadrature (QUADPACK QAWF).
    """
    from scipy.integrate import quad
    if u == 0.0:
        return 0.0 + 0.0j
    p = jumps.evaluator
    brk = list(jumps.breakpoints) + [math.pi / (2.0 * abs(u))]

    def branch(sign: float):
        dens = lambda x: float(p(sign * x))
        re_in = lambda x: (math.cos(u * sign * x) - 1.0) * dens(x)
        im_in = lambda x: (math.sin(u * sign * x) - u * sign * x) * dens(x)
        val, e_re = _quad_pieces(re_in, 0.0, 1.0, brk, _JUMP_EXPONENT_RTOL, "jump exponent")
        ival, e_im = _quad_pieces(im_in, 0.0, 1.0, brk, _JUMP_EXPONENT_RTOL, "jump exponent")
        # tails: int_1^inf cos(ux) p - int_1^inf p, and int_1^inf sin(ux) p
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c, e1 = quad(dens, 1.0, np.inf, weight="cos", wvar=u * sign, limit=400)
            s, e2 = quad(dens, 1.0, np.inf, weight="sin", wvar=u * sign, limit=400)
            mass, e3 = _quad_pieces(dens, 1.0, np.inf, brk, _JUMP_EXPONENT_RTOL, "jump mass")
        return val + (c - mass) + 1j * (ival + s), e_re + e_im + (e1 + e2 + e3)

    vp, ep = branch(1.0)
    vn, en = branch(-1.0)
    val = vp + vn
    err = ep + en
    # modulus of the CF is <= 1, so errors are judged on an O(1) scale
    if err > 1000 * _JUMP_EXPONENT_RTOL * max(abs(val), 1.0):
        raise QuadratureError(f"jump exponent at u={u}: error estimate {err:.2e} too large")
    return val


def levy_khintchine_cf(triplet: LevyTriplet, t: float, u):
    """Characteristic function E[e^{iuX_t}] of the increment at time t.

    Stable jump densities contribute the factor ``stable_cf`` of their
    increment law; custom densities are integrated numerically (split at 0
    and +-1 plus any declared breakpoints).
    """
    _require_positive("t", t)
    u_arr = _require_finite_entries("u", np.atleast_1d(np.asarray(u, dtype=float)))
    expo = 1j * u_arr * (triplet.b * t) - t * triplet.sigma2 * u_arr ** 2 / 2.0
    if isinstance(triplet.jumps, CustomJumpDensity):
        vals = np.array([_custom_jump_exponent(triplet.jumps, float(x)) for x in u_arr])
        expo = expo + t * vals
    out = np.exp(expo)
    if isinstance(triplet.jumps, StableJumpDensity):
        out = out * stable_cf(increment_stable_law(triplet.jumps, t), u_arr)
    return out if np.ndim(u) else complex(out[0])


def increment_stable_law(jumps: StableJumpDensity, delta_t: float) -> StableLaw:
    """Stable law of the increment at time delta_t of the pure-jump process.

    The location is the one produced by the Levy-Khintchine exponent with
    zero drift, so ``stable_cf`` of the result equals ``levy_khintchine_cf``
    of the triplet (0, 0, jumps).
    """
    _require_positive("delta_t", delta_t)
    alpha = jumps.alpha
    try:
        gamma = (delta_t * _stable_scale_constant(jumps.P, jumps.Q, alpha)) ** (1.0 / alpha)
    except OverflowError:
        gamma = math.inf
    if gamma == math.inf:
        raise ValueError(f"the increment's scale gamma = (delta_t C)^(1/alpha) overflows at "
                         f"delta_t={delta_t!r}, alpha={alpha!r}")
    if gamma == 0.0:
        raise ValueError(f"delta_t={delta_t!r} is too small: the increment's scale "
                         f"gamma = (delta_t C)^(1/alpha) underflows to 0 at alpha={alpha!r}")
    if alpha == 1.0:
        delta = (jumps.P - jumps.Q) * (1.0 - np.euler_gamma) * delta_t
    else:
        delta = (jumps.Q - jumps.P) * delta_t / (1.0 - alpha)
    return StableLaw(alpha, gamma, jumps.skew, delta)


def _increment_parts(triplet: LevyTriplet, delta_t: float) -> tuple[float, StableLaw | None]:
    """The increment's Gaussian variance sigma2 * delta_t and its stable law, None
    without jumps: the law the sampler draws and the risk's reference.  The variance
    is finite, and positive without jumps, as a triplet without jumps needs
    sigma2 > 0; a custom jump density has no closed-form law."""
    _require_positive("delta_t", delta_t)
    if isinstance(triplet.jumps, CustomJumpDensity):
        raise UnsupportedModelError("a custom jump density has no closed-form increment law; "
                                    "only stable or empty jump parts")
    name = "the increment's variance sigma2 * delta_t"
    variance = _require_finite(name, triplet.sigma2 * delta_t)
    if triplet.jumps is None:
        return _require_positive(name, variance), None
    return variance, increment_stable_law(triplet.jumps, delta_t)


def stable_cf(law: StableLaw, u):
    """Characteristic function of a stable law in the one-parameterization."""
    u_arr = _require_finite_entries("u", np.atleast_1d(np.asarray(u, dtype=float)))
    au = np.abs(u_arr)
    sg = np.sign(u_arr)
    if law.alpha == 1.0:
        lg = np.where(au > 0, np.log(np.where(au > 0, au, 1.0)), 0.0)
        expo = (1j * law.delta * u_arr
                - law.gamma * au * (1.0 + 1j * law.beta * (2.0 / math.pi) * sg * lg))
    else:
        tan = math.tan(math.pi * law.alpha / 2.0)
        expo = (1j * law.delta * u_arr
                - law.gamma ** law.alpha * au ** law.alpha
                * (1.0 - 1j * law.beta * tan * sg))
    out = np.exp(expo)
    return out if np.ndim(u) else complex(out[0])


# ---------------------------------------------------------------------------
# class membership and bounds

def check_small_jump_bound(density: JumpDensity, M: float, alpha: float,
                           eta_grid=None, rtol: float = 1e-8) -> bool:
    """Check int_{-eta}^{eta} x^2 p >= M eta^{2-alpha} on every grid eta.

    The comparison allows relative slack 100*rtol so that densities meeting
    the bound with equality are accepted despite quadrature error.
    """
    _require_positive("M", M)
    _require_between("alpha", alpha, 0, 2)
    etas = np.geomspace(1e-4, 1.0, 32) if eta_grid is None else np.asarray(eta_grid, dtype=float)
    if etas.size == 0:
        raise ValueError("eta_grid must be nonempty")
    for i, eta in enumerate(etas.tolist()):
        if not 0 < eta <= 1:
            raise ValueError(f"eta_grid[{i}] must lie in (0, 1], got {eta!r}")
    slack = 100 * rtol
    for eta in etas:
        moment = truncated_second_moment(density, float(eta), rtol)
        if moment < M * eta ** (2.0 - alpha) * (1.0 - slack):
            return False
    return True


def truncated_moment_ratio(density: JumpDensity, eta: float, gamma_exp: float,
                           rtol: float = 1e-8) -> float:
    """eta^{gamma-2} * int_{-eta}^{eta} x^2 p(x) dx.

    Constant in eta exactly when the small-jump activity has index gamma_exp;
    it vanishes (diverges) as eta -> 0 when gamma_exp overshoots (undershoots)
    the activity index.
    """
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")
    _require_between("gamma_exp", gamma_exp, 0, 2)
    return eta ** (gamma_exp - 2.0) * truncated_second_moment(density, eta, rtol)


def picard_cf_bound(M: float, alpha: float, t: float, u):
    """Upper bound exp(-(2^alpha M / pi^alpha) |u|^alpha t) on |phi_t(u)|.

    Valid for |u| >= pi/2 when the jump density meets the small-jump lower
    bound with constants (M, alpha).
    """
    _require_positive("M", M)
    _require_between("alpha", alpha, 0, 2)
    _require_positive("t", t)
    u_arr = _require_finite_entries("u", np.atleast_1d(np.asarray(u, dtype=float)))
    if np.any(np.abs(u_arr) < math.pi / 2.0 - 1e-12):
        raise ValueError("bound only valid for |u| >= pi/2")
    out = np.exp(-(2.0 ** alpha * M / math.pi ** alpha) * np.abs(u_arr) ** alpha * t)
    return out if np.ndim(u) else float(out[0])


def _upper_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma Gamma(a, x) = int_x^inf t^(a-1) e^(-t) dt, for a > 0, x >= 0.

    Gamma(a) minus the series of the lower gamma(a, x) when x < a + 1, else the
    continued fraction for Gamma(a, x) by modified Lentz (Numerical Recipes 6.2).
    Both carry the factor x^a e^-x, formed as the square of its root so that it
    cannot overflow before Gamma(a) does; past that, at a > 171.6, the result is
    inf.  A NaN argument, which converges nowhere, raises ArithmeticError.
    """
    try:
        gamma_a = math.gamma(a)
    except OverflowError:
        return math.inf
    if x == 0.0:
        return gamma_a
    if x == math.inf:  # a tail integral beyond an infinite cutoff
        return 0.0
    root = math.exp(0.5 * (a * math.log(x) - x))
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, _GAMMA_MAX_ITER):
            term *= x / (a + n)
            total += term
            if term <= total * _EPS:
                return gamma_a - root * (root * total)
    else:
        b = x + 1.0 - a
        c, d = 1.0 / _TINY, 1.0 / b
        h = d
        for n in range(1, _GAMMA_MAX_ITER):
            an = n * (a - n)
            b += 2.0
            d = an * d + b
            d = 1.0 / (_TINY if abs(d) < _TINY else d)
            c = b + an / c
            c = _TINY if abs(c) < _TINY else c
            h *= d * c
            if abs(d * c - 1.0) <= _EPS:
                return root * (root * h)
    raise ArithmeticError(f"Gamma({a}, {x}) did not converge in {_GAMMA_MAX_ITER} terms")


def picard_derivative_bound(k: int, t: float, M: float, alpha: float) -> float:
    """Uniform bound on |f_t^{(k)}|: the k-th derivative of the increment density."""
    _require_count("k", k, 0)
    _require_positive("t", t)
    _require_positive("M", M)
    _require_between("alpha", alpha, 0, 2)
    first = (math.pi / 2.0) ** (k + 1) / (math.pi * (k + 1))
    scale = (math.pi / (2.0 * (t * M) ** (1.0 / alpha))) ** (k + 1)
    return first + scale * _upper_gamma((k + 1) / alpha, t * M) / alpha


def _spectral_tail(a: float, c: float, alpha: float, m: float) -> float:
    """(1/pi) int_m^inf exp(-a u^2 - c u^alpha) du, for a, c >= 0 not both 0 and m >= 0.

    The tail beyond m of a law's |phi|^2, or of its Gaussian or Picard
    envelope: erfc(m sqrt(a)) / (2 sqrt(pi a)) when c = 0,
    Gamma(1/alpha, c m^alpha) / (pi alpha c^{1/alpha}) when a = 0, and
    adaptive quadrature when both terms are present.
    """
    if c == 0.0:
        return math.erfc(m * math.sqrt(a)) / (2.0 * math.sqrt(math.pi * a))
    if a == 0.0:
        return _upper_gamma(1.0 / alpha, c * m ** alpha) / (
            math.pi * alpha * c ** (1.0 / alpha))
    from scipy.integrate import quad
    val, _ = quad(lambda u: math.exp(-a * u * u - c * u ** alpha), m, math.inf,
                  epsrel=1e-10, limit=200)
    return val / math.pi


def spectral_bias_bound(model_class: ModelClass, sigma2: float, m: float,
                        delta_t: float) -> float:
    """Upper bound on the squared bias ||f_{t,m} - f_t||^2 of a cutoff at m.

    The spectral tail (1/pi) int_m^inf of an envelope: e^{-t sigma^2 u^2} in
    the Gaussian branch, and in the pure-jump branch the Picard bound
    e^{-(2/pi)^alpha M t u^alpha} of :func:`picard_cf_bound`, valid for
    m >= pi/2.
    """
    _require_positive("delta_t", delta_t)
    if model_class.tag == GAUSSIAN:
        _require_nonnegative("m", m)
        _require_positive("sigma2", sigma2)
        return _spectral_tail(delta_t * sigma2, 0.0, 2.0, m)
    if model_class.tag == PURE_JUMP:
        _require_between("m", m, math.pi / 2.0, math.inf,
                         "lie in [pi/2, inf) in the jump branch", closed=True)
        M, alpha = model_class.M, model_class.alpha
        return _spectral_tail(0.0, (2.0 / math.pi) ** alpha * M * delta_t, alpha, m)
    raise ValueError("bias bound is defined for the gaussian and pure-jump branches")


def optimal_cutoff(model_class, sigma2: float, n: float, delta_t: float) -> float:
    """Cutoff balancing squared bias against the variance proxy m/(pi n).

    Gaussian-dominant: sqrt(log n / (delta_t sigma^2)).
    Pure-jump:        (pi/2) (log n / (M delta_t))^(1/alpha).
    Mixed classes delegate to :func:`mixed_cutoff`.
    """
    _require_between("n", n, 2, math.inf, closed=True)
    _require_positive("delta_t", delta_t)
    logn = math.log(n)
    if model_class.tag == GAUSSIAN:
        _require_positive("sigma2", sigma2)
        return math.sqrt(logn / (delta_t * sigma2))
    if model_class.tag == PURE_JUMP:
        return (math.pi / 2.0) * (logn / (model_class.M * delta_t)) ** (1.0 / model_class.alpha)
    return mixed_cutoff(sigma2, model_class.M, model_class.alpha, delta_t, n)


def mixed_cutoff(sigma2: float, M: float, alpha: float, delta_t: float, n: float) -> float:
    """Positive root of sigma^2 dt m^2 + c_alpha dt m^alpha = log n, by Brent's method.

    c_alpha = 2 M (2/pi)^alpha.  With sigma2 = 0 or M = 0 the closed-form
    degenerate branch is returned.  The root is guaranteed to satisfy the
    equation to an absolute residual below 1e-10.
    """
    total = _require_nonnegative("sigma2", sigma2) + _require_nonnegative("M", M)
    _require_positive("sigma2 + M", total)
    _require_between("alpha", alpha, 0, 2)
    _require_positive("delta_t", delta_t)
    _require_between("n", n, 1, math.inf)
    logn = math.log(n)
    c_alpha = 2.0 * M * (2.0 / math.pi) ** alpha
    if sigma2 == 0.0:
        return (logn / (c_alpha * delta_t)) ** (1.0 / alpha)
    if M == 0.0:
        return math.sqrt(logn / (sigma2 * delta_t))

    def g(m: float) -> float:
        return sigma2 * delta_t * m * m + c_alpha * delta_t * m ** alpha - logn

    hi = 1.0
    while g(hi) < 0:
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("root bracket exploded")
    from scipy.optimize import brentq
    # relative tolerance only: an absolute one would cap the residual at g' * xtol
    root = brentq(g, 0.0, hi, xtol=1e-300)
    if not abs(g(root)) < _CUTOFF_RESIDUAL_TOL:
        raise ArithmeticError(f"cutoff residual {g(root):.2e} exceeds {_CUTOFF_RESIDUAL_TOL:g}")
    return root


def stable_density_l2_norm(law: StableLaw) -> float:
    """||f||^2 of a stable density, via Plancherel on |phi|^2 = e^{-2 gamma^a |u|^a}:
    the spectral tail from 0.

    Skew-independent: the modulus of the characteristic function only sees
    (alpha, gamma).
    """
    return _spectral_tail(0.0, 2.0 * law.gamma ** law.alpha, law.alpha, 0.0)
