"""Empirical characteristic function, spectral cutoff and thresholded estimators.

The ECF on a symmetric frequency grid is

    phi_hat(u) = (1/n) sum_j exp(i u x_j),

summed directly (exact up to float rounding) for the K grid points u = k*step
>= 0.  The density estimators invert it by the trapezoid rule,

    f_hat(x)   = Re (1/2pi) int_{-m}^{m} phi_hat(u) e^{-iux} du,

either with a hard cutoff m or after thresholding the ECF at the level
(1 + kappa sqrt(log n)) / sqrt(n).  Both transforms sum exp(+-i k step x_j)
over the samples or the x points.  Writing k = a*B + b with B ~ sqrt(K) splits
it into U[a, j] V[b, j], phase tables that one kernel builds per 4096-point
chunk: the ECF is U @ V.T, the inversion sum_a U[a, j] (C @ V)[a, j] for the
weighted phi_hat reshaped to C.  Each costs O(points K) multiply-adds in BLAS
plus O(points sqrt(K)) phase products, on any x-grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .sampling import IncrementSample, write_rows

__all__ = ["UGrid", "ECFGrid", "ThresholdSpec", "SpectralEstimate", "ecf",
           "spectral_estimate", "threshold_cf", "adaptive_estimate",
           "optimal_cutoff", "mixed_cutoff", "plancherel_l2", "default_u_max",
           "default_u_step", "default_x_grid", "sample_bulk", "write_estimate_csv",
           "write_ecf_csv", "threshold_level", "trapezoid_weights"]


_CUTOFF_RESIDUAL_TOL = 1e-10


def default_u_max(delta_t: float) -> float:
    """Estimation domain half-width: 10/delta_t clamped to [10, 100]."""
    return float(min(100.0, max(10.0, 10.0 / delta_t)))


def default_u_step(u_max: float) -> float:
    return 0.05 if u_max <= 10.0 else 0.1


def _check_grid_values(u_max: float, step: float) -> None:
    if not (math.isfinite(u_max) and math.isfinite(step) and u_max > 0 and step > 0):
        raise ValueError(f"u_max and step must be finite and positive, got {u_max}, {step}")


@dataclass(frozen=True)
class UGrid:
    """Symmetric uniform frequency grid -u_max..u_max containing 0 exactly."""

    u_max: float
    step: float

    def __post_init__(self):
        _check_grid_values(self.u_max, self.step)
        k = round(self.u_max / self.step)
        if k < 1 or abs(k * self.step - self.u_max) > 1e-9 * self.u_max:
            raise ValueError("u_max must be a positive integer multiple of step")

    @classmethod
    def make(cls, u_max: float, step: float | None = None) -> "UGrid":
        """Build a grid with the default step rule, snapping u_max onto it."""
        if step is None:
            step = default_u_step(u_max)
        _check_grid_values(u_max, step)
        k = max(1, round(u_max / step))
        return cls(k * step, step)

    @property
    def half_count(self) -> int:
        return round(self.u_max / self.step)

    @property
    def points(self) -> np.ndarray:
        k = self.half_count
        return np.arange(-k, k + 1) * self.step

    def restrict(self, u_max: float) -> "UGrid":
        if u_max >= self.u_max:
            return self
        return UGrid(math.floor(u_max / self.step + 1e-9) * self.step, self.step)


@dataclass(frozen=True, eq=False)
class ECFGrid:
    """Finite complex CF values aligned with ``grid.points``; n is the sample size."""

    grid: UGrid
    values: np.ndarray
    n: int

    def __post_init__(self):
        if len(self.values) != 2 * self.grid.half_count + 1:
            raise ValueError("values length does not match the grid")
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"ECF values must be finite; value {self.values[bad[0]]!r} "
                             f"at index {bad[0]}")
        if self.n <= 0:
            raise ValueError("n must be positive")

    def check_invariants(self) -> None:
        k = self.grid.half_count
        v = self.values
        if v[k] != 1.0:
            raise AssertionError("value at u=0 must be exactly 1")
        if np.max(np.abs(v)) > 1.0 + 1e-10:
            raise AssertionError("modulus must not exceed 1")
        if np.max(np.abs(v[:k][::-1] - np.conj(v[k + 1:]))) > 1e-12:
            raise AssertionError("conjugate symmetry violated")


def threshold_level(kappa, n: int):
    """Threshold level (1 + kappa sqrt(log n)) / sqrt(n); ``kappa`` may be an array."""
    return (1.0 + kappa * math.sqrt(math.log(n))) / math.sqrt(n)


@dataclass(frozen=True)
class ThresholdSpec:
    """Threshold level (1 + kappa sqrt(log n)) / sqrt(n) for an ECF of size n."""

    kappa: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be a finite number >= 0, got {self.kappa}")
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def level(self) -> float:
        return threshold_level(self.kappa, self.n)


@dataclass(frozen=True, eq=False)
class SpectralEstimate:
    """Density values on an x-grid plus the cutoff/threshold that produced them."""

    x_grid: np.ndarray
    values: np.ndarray
    cutoff_m: float | None = None
    threshold: ThresholdSpec | None = None
    imag_residual: float = 0.0


# ---------------------------------------------------------------------------
# ECF

_CHUNK = 4096  # points per matrix product; the phase tables hold (A + B) * _CHUNK values


def _phase_powers(out: np.ndarray, theta: np.ndarray) -> None:
    """Row r of ``out`` becomes exp(i r theta): one complex exp, then repeated products."""
    out[0] = 1.0
    if len(out) > 1:
        np.exp(1j * theta, out=out[1])
    for r in range(2, len(out)):
        np.multiply(out[r - 1], out[1], out=out[r])


def _phase_tables(x: np.ndarray, size: int, step: float):
    """Yield (lo, U, V) per chunk x[lo:lo + _CHUNK], with U[a, j] = exp(i a B step x_j)
    and V[b, j] = exp(i b step x_j) for B = ceil(sqrt(size)), so that frequency
    k = a*B + b < size has exp(i k step x_j) = U[a, j] V[b, j].  The (A + B) x
    _CHUNK tables are rebuilt in place per chunk: use them before the next.
    """
    cols = math.isqrt(size - 1) + 1  # B
    rows = -(-size // cols)  # A
    width = min(_CHUNK, x.size)
    coarse = np.empty((rows, width), dtype=np.complex128)  # U, steps of B*step
    fine = np.empty((cols, width), dtype=np.complex128)  # V, steps of step
    for lo in range(0, x.size, _CHUNK):
        xs = x[lo:lo + _CHUNK]
        u, v = coarse[:, :xs.size], fine[:, :xs.size]
        _phase_powers(v, step * xs)
        _phase_powers(u, (cols * step) * xs)
        yield lo, u, v


def _ecf_half(values: np.ndarray, count: int, step: float) -> np.ndarray:
    """phi_hat at u = k*step for k = 0..count: (U @ V.T)[a, b] sums frequency a*B + b."""
    table = sum(u @ v.T for _, u, v in _phase_tables(values, count + 1, step))
    out = table.ravel()[:count + 1] / values.size
    out[0] = 1.0
    return out


def ecf(sample: IncrementSample, grid: UGrid) -> ECFGrid:
    """Empirical characteristic function of the sample on the grid.

    Only the nonnegative half-axis is summed, by ``_ecf_half``; the negative
    half is filled by conjugate symmetry, so phi_hat(0) = 1 exactly and
    phi_hat(-u) = conj(phi_hat(u)) exactly.
    """
    if sample.n == 0:
        raise ValueError("sample must be nonempty")
    half = _ecf_half(np.asarray(sample.values, dtype=float), grid.half_count, grid.step)
    vals = np.concatenate([np.conj(half[:0:-1]), half])
    return ECFGrid(grid, vals, sample.n)


# ---------------------------------------------------------------------------
# inversion

def sample_bulk(values: np.ndarray) -> tuple[float, float]:
    """Median and spread of a sample from one percentile pass; the spread is
    the interquartile range, or max(std, 1) when that is 0."""
    q75, median, q25 = np.percentile(values, [75.0, 50.0, 25.0])
    iqr = q75 - q25
    if iqr <= 0:
        iqr = max(float(np.std(values)), 1.0)
    return float(median), float(iqr)


def default_x_grid(spread: float, points: int = 512) -> np.ndarray:
    """Uniform x-grid spanning +-8 spreads (``sample_bulk``) around 0."""
    spread = float(spread)
    return np.linspace(-8.0 * spread, 8.0 * spread, points)


def trapezoid_weights(count: int, step: float) -> np.ndarray:
    """Trapezoid-rule weights of ``count`` points ``step`` apart; one point weighs 0."""
    w = np.zeros(count)
    w[1:] += step / 2.0
    w[:-1] += step / 2.0
    return w


def _invert(u: np.ndarray, phi: np.ndarray, x_grid: np.ndarray, step: float):
    """Trapezoid rule for (1/2pi) int phi(u) e^{-iux} du at each x, for u = u[0] + k*step.

    On the phase tables of -x, sum_k c_k exp(-i k step x_j) = sum_a U[a, j] (C @ V)[a, j]
    for c = weighted phi / 2pi zero-padded and reshaped to C, (A, B); exp(-i u[0] x)
    moves the band to its start.  Any x-grid; O(len(x) K) multiply-adds in BLAS.
    """
    coef = phi * trapezoid_weights(u.size, step) / (2.0 * math.pi)
    out = np.exp((-1j * u[0]) * x_grid)
    for lo, tu, tv in _phase_tables(-x_grid, u.size, step):
        c = np.pad(coef, (0, tu.shape[0] * tv.shape[0] - coef.size)).reshape(tu.shape[0], -1)
        out[lo:lo + _CHUNK] *= np.einsum("aj,aj->j", tu, c @ tv)
    return out


def spectral_estimate(ecf_grid: ECFGrid, m: float, x_grid) -> SpectralEstimate:
    """Cutoff estimator: invert the ECF restricted to frequencies |u| <= m."""
    if m <= 0:
        raise ValueError("cutoff m must be positive")
    if m > ecf_grid.grid.u_max * (1 + 1e-12):
        raise ValueError(f"cutoff m={m} exceeds the grid domain u_max={ecf_grid.grid.u_max}")
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.size == 0:
        raise ValueError("the x-grid is empty")
    reach, half_period = float(np.max(np.abs(x_grid))), math.pi / ecf_grid.grid.step
    if not reach <= half_period:  # the inversion is periodic in x with period 2 pi/step
        raise ValueError(f"the x-grid must lie within the alias half-period pi/step = "
                         f"{half_period:g}, got max |x| = {reach:g}")
    u = ecf_grid.grid.points
    keep = np.abs(u) <= m * (1 + 1e-12)
    f = _invert(u[keep], ecf_grid.values[keep], x_grid, ecf_grid.grid.step)
    return SpectralEstimate(x_grid, f.real, cutoff_m=m,
                            imag_residual=float(np.max(np.abs(f.imag))))


def threshold_cf(ecf_grid: ECFGrid, spec: ThresholdSpec) -> ECFGrid:
    """Zero the ECF wherever its modulus falls below the threshold level."""
    if spec.n != ecf_grid.n:
        raise ValueError("threshold spec and ECF disagree on the sample size n")
    kept = np.abs(ecf_grid.values) >= spec.level
    return ECFGrid(ecf_grid.grid, np.where(kept, ecf_grid.values, 0.0), ecf_grid.n)


def adaptive_estimate(ecf_grid: ECFGrid, kappa: float, x_grid) -> SpectralEstimate:
    """Thresholded estimator: the given ECF, zeroed below the kappa level, inverted
    over [-n, n] cut to the ECF's grid (``grid.restrict(n)``, usually all of it)."""
    spec = ThresholdSpec(kappa, ecf_grid.n)
    m = ecf_grid.grid.restrict(float(ecf_grid.n)).u_max
    est = spectral_estimate(threshold_cf(ecf_grid, spec), m, x_grid)
    return replace(est, cutoff_m=None, threshold=spec)


# ---------------------------------------------------------------------------
# cutoffs

def optimal_cutoff(model_class, sigma2: float, n: float, delta_t: float) -> float:
    """Cutoff balancing squared bias against the variance proxy m/(pi n).

    Gaussian-dominant: sqrt(log n / (delta_t sigma^2)).
    Pure-jump:        (pi/2) (log n / (M delta_t))^(1/alpha).
    Mixed classes delegate to :func:`mixed_cutoff`.
    """
    from .models import GAUSSIAN, MIXED, PURE_JUMP  # local to avoid cycle

    if n < 2:
        raise ValueError("need n >= 2")
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    logn = math.log(n)
    if model_class.tag == GAUSSIAN:
        if sigma2 <= 0:
            raise ValueError("gaussian-dominant class with sigma2 = 0 is inconsistent")
        return math.sqrt(logn / (delta_t * sigma2))
    if model_class.tag == PURE_JUMP:
        return (math.pi / 2.0) * (logn / (model_class.M * delta_t)) ** (1.0 / model_class.alpha)
    if model_class.tag == MIXED:
        return mixed_cutoff(sigma2, model_class.M, model_class.alpha, delta_t, n)
    raise ValueError(f"unknown class tag {model_class.tag!r}")


def mixed_cutoff(sigma2: float, M: float, alpha: float, delta_t: float, n: float) -> float:
    """Positive root of sigma^2 dt m^2 + c_alpha dt m^alpha = log n, by Brent's method.

    c_alpha = 2 M (2/pi)^alpha.  With sigma2 = 0 or M = 0 the closed-form
    degenerate branch is returned.  The root is guaranteed to satisfy the
    equation to an absolute residual below 1e-10.
    """
    if sigma2 < 0 or M < 0 or (sigma2 == 0 and M == 0):
        raise ValueError("need sigma2 >= 0, M >= 0, not both zero")
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    logn = math.log(n)
    if logn <= 0:
        raise ValueError("need log n > 0, i.e. n > 1")
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
    # relative tolerance only: an absolute one would cap the residual at g' * xtol
    root = brentq(g, 0.0, hi, xtol=1e-300)
    if not abs(g(root)) < _CUTOFF_RESIDUAL_TOL:
        raise ArithmeticError(f"cutoff residual {g(root):.2e} exceeds {_CUTOFF_RESIDUAL_TOL:g}")
    return root


def plancherel_l2(a, b, grid: UGrid | None = None) -> float:
    """(1/2pi) int |a - b|^2 over the grid, by the trapezoid rule.

    ``a`` and ``b`` are ECFGrid instances or plain arrays on ``grid``; both
    must live on the same grid.
    """
    ga = a.grid if isinstance(a, ECFGrid) else grid
    gb = b.grid if isinstance(b, ECFGrid) else grid
    if ga is None or gb is None:
        raise ValueError("plain arrays need an explicit grid")
    if ga != gb:
        raise ValueError("operands live on different grids")
    va = a.values if isinstance(a, ECFGrid) else np.asarray(a)
    vb = b.values if isinstance(b, ECFGrid) else np.asarray(b)
    if va.shape != vb.shape:
        raise ValueError("operands have different shapes")
    diff = np.abs(va - vb) ** 2
    return float(diff @ trapezoid_weights(diff.size, ga.step) / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# serialization

def write_estimate_csv(est: SpectralEstimate, path, meta_lines=()) -> None:
    write_rows(path, meta_lines, "x,f_hat", "%.17g,%.17g\n", est.x_grid, est.values)


def write_ecf_csv(ecf_grid: ECFGrid, path, meta_lines=()) -> None:
    write_rows(path, meta_lines, "u,re,im", "%.17g,%.17g,%.17g\n", ecf_grid.grid.points,
               np.real(ecf_grid.values), np.imag(ecf_grid.values))
