"""Empirical characteristic function, spectral cutoff and thresholded estimators.

The ECF on a symmetric frequency grid is

    phi_hat(u) = (1/n) sum_j exp(i u x_j),

needed at the K + 1 grid points u = k*step >= 0, a type-1 nonuniform DFT.  It
is computed from binned Taylor moments (Dutt & Rokhlin 1993): each sample is
placed in one of M >= 4 (K + 1) bins, the moments sum_j d_j^p of its offset
d_j in [-1, 1] from the bin centre are accumulated for p < P = 18, and one
batched rFFT of length M over the P moment rows gives every frequency.  That
is O(n P + P M log M) work instead of O(n K), with no BLAS call.  The Taylor
series is cut below 2e-18; the rounding error against exact summation is
about eps * u * mean|x|, the cost of forming u*x in double as a direct sum
does, plus the FFT's roundings of order eps log2(M).

The density estimators invert it by the trapezoid rule,

    f_hat(x)   = Re (1/2pi) int_{-m}^{m} phi_hat(u) e^{-iux} du,

either with a hard cutoff m or after thresholding the ECF at the level
(1 + kappa sqrt(log n)) / sqrt(n).  The inversion sums exp(-i k step x_j) over
the band for each x point.  Writing k = a*B + b with B ~ sqrt(K) splits it into
U[a, j] V[b, j], phase tables built per 4096-point chunk, and the sum becomes
sum_a U[a, j] (C @ V)[a, j] for the weighted phi_hat reshaped to C: O(points K)
multiply-adds in BLAS plus O(points sqrt(K)) phase products, on any x-grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import IncrementSample, write_rows

__all__ = ["UGrid", "ECFGrid", "SpectralEstimate", "ecf", "spectral_estimate",
           "unthresholded_mask", "threshold_cf", "adaptive_estimate", "plancherel_l2",
           "default_u_max", "default_u_step", "default_x_grid", "sample_bulk",
           "write_estimate_csv", "write_ecf_csv", "threshold_level", "trapezoid_weights"]


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


def threshold_level(kappa, n: int):
    """Threshold level (1 + kappa sqrt(log n)) / sqrt(n); ``kappa`` may be an array,
    each entry a finite number >= 0."""
    ok = np.isfinite(kappa) & (kappa >= 0)
    if not np.all(ok):
        bad = np.flatnonzero(~ok)[0]
        at = f" at index {bad}" if np.ndim(kappa) else ""
        raise ValueError(f"kappa must be a finite number >= 0, got {np.ravel(kappa)[bad]}{at}")
    return (1.0 + kappa * math.sqrt(math.log(n))) / math.sqrt(n)


@dataclass(frozen=True, eq=False)
class SpectralEstimate:
    """Density values on an x-grid, and the largest imaginary part the inversion left."""

    x_grid: np.ndarray
    values: np.ndarray
    imag_residual: float = 0.0


# ---------------------------------------------------------------------------
# ECF

_TERMS = 18  # P: Taylor terms per bin, (pi/4)^18 / 18! < 2e-18
_ECF_CHUNK = 16384  # samples per moment pass; the power table holds _TERMS * _ECF_CHUNK floats


def _ecf_bins(count: int) -> int:
    """M, the smallest power of 4 >= 4 (count + 1): every half-count of one rung
    shares its bins, so phi_hat(k step) does not depend on the grid's length."""
    size = 4
    while size < 4 * (count + 1):
        size *= 4
    return size


def _bin_moments(values: np.ndarray, size: int, scale: float) -> np.ndarray:
    """S[b, p] = sum of d_j^p over the samples in bin b, for q_j = scale x_j,
    m_j = rint(q_j), d_j = 2 (q_j - m_j) in [-1, 1] and b = m_j mod size.

    Per chunk the bins are sorted (a radix sort on their small unsigned type)
    and each bin's run is summed by ``np.add.reduceat``, pairwise, so that a bin
    holding thousands of tied samples costs O(log) roundings, not O(count).
    """
    moments = np.zeros((size, _TERMS))
    powers = np.empty((_TERMS, min(_ECF_CHUNK, values.size)))
    small = np.min_scalar_type(size - 1)
    for lo in range(0, values.size, _ECF_CHUNK):
        with np.errstate(over="ignore"):
            q = values[lo:lo + _ECF_CHUNK] * scale
        # Past 2^1000 every float is a multiple of M, in bin 0 with d = 0; so is an
        # overflowed q, whose phase, like that of any q past 2^53 M, is rounding noise.
        np.clip(q, -2.0 ** 1000, 2.0 ** 1000, out=q)
        m = np.rint(q)
        d = 2.0 * (q - m)  # exact: q - m is a float difference below 1/2
        m -= size * np.floor(m / size)  # exact, for the integer-valued m
        bins = m.astype(small)
        order = np.argsort(bins, kind="stable")
        bins = bins[order]
        rows = powers[:, :q.size]
        rows[0] = 1.0
        np.take(d, order, out=rows[1])
        for p in range(2, _TERMS):
            np.multiply(rows[p - 1], rows[1], out=rows[p])
        starts = np.flatnonzero(np.r_[True, bins[1:] != bins[:-1]])
        moments[bins[starts]] += np.add.reduceat(rows, starts, axis=1).T
    return moments


def _ecf_half(values: np.ndarray, count: int, step: float) -> np.ndarray:
    """phi_hat at u = k*step for k = 0..count, from binned Taylor moments.

    With M = ``_ecf_bins(count)`` bins and q = x step M / 2pi,
    exp(i k step x) = exp(2pi i k m / M) exp(i z_k d) for z_k = k pi / M <= pi/4,
    so the Taylor series of the second factor gives

        phi_hat(k step) = (1/n) sum_{p < P} (i z_k)^p / p! conj(rfft(S[:, p]))[k]

    for the bin moments S of ``_bin_moments``: O(n P + P M log M) work, one
    batched rFFT, no BLAS.  Truncation costs below 2e-18.  Rounding x step M /
    2pi moves each phase by about eps u |x|, as forming step * x does in a
    direct sum, so the error against exact summation is about eps u mean|x|
    plus the FFT's roundings, of order eps log2(M).
    """
    size = _ecf_bins(count)
    moments = _bin_moments(values, size, step * size / (2.0 * math.pi))
    spectrum = np.fft.rfft(moments, axis=0)[:count + 1]
    z = (1j * math.pi / size) * np.arange(count + 1)
    out = np.conj(spectrum[:, _TERMS - 1])
    for p in range(_TERMS - 2, -1, -1):  # Horner, from the smallest terms
        out *= z / (p + 1)
        out += np.conj(spectrum[:, p])
    out /= values.size
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


_CHUNK = 4096  # x points per inversion product; the phase tables hold (A + B) * _CHUNK values


def _phase_powers(out: np.ndarray, theta: np.ndarray) -> None:
    """Row r of ``out`` becomes exp(i r theta): one complex exp, then repeated products."""
    out[0] = 1.0
    if len(out) > 1:
        np.exp(1j * theta, out=out[1])
    for r in range(2, len(out)):
        np.multiply(out[r - 1], out[1], out=out[r])


def _invert(u: np.ndarray, phi: np.ndarray, x_grid: np.ndarray, step: float):
    """Trapezoid rule for (1/2pi) int phi(u) e^{-iux} du at each x, for u = u[0] + k*step.

    Frequency k = a*B + b < K, for B = ceil(sqrt(K)), has exp(-i k step x_j) =
    U[a, j] V[b, j], with the phase tables U[a, j] = exp(-i a B step x_j) and
    V[b, j] = exp(-i b step x_j), rebuilt in place per chunk of _CHUNK x points.
    So sum_k c_k exp(-i k step x_j) = sum_a U[a, j] (C @ V)[a, j] for c = weighted
    phi / 2pi zero-padded and reshaped to C, (A, B); exp(-i u[0] x) moves the band
    to its start.  Any x-grid; O(len(x) K) multiply-adds in BLAS.

    The inversion keeps the phase tables rather than the ECF's binned FFT, whose
    length grows with the band, not with the x points.  Criterion 6 inverts a
    100 001-coefficient band at 8 x points: 3.3 ms with the tables, against 18
    rFFTs of 2^20 points at 41 ms each for the FFT route (2-vCPU x86_64 host).
    A 16 001-coefficient band takes 0.9 ms at 8 points and 16 ms at 2561,
    against 18 rFFTs of 2^16 points at 1 ms each.
    """
    cols = math.isqrt(u.size - 1) + 1  # B
    rows = -(-u.size // cols)  # A
    coef = phi * trapezoid_weights(u.size, step) / (2.0 * math.pi)
    c = np.pad(coef, (0, rows * cols - coef.size)).reshape(rows, cols)
    width = min(_CHUNK, x_grid.size)
    coarse = np.empty((rows, width), dtype=np.complex128)  # U, steps of B*step
    fine = np.empty((cols, width), dtype=np.complex128)  # V, steps of step
    out = np.exp((-1j * u[0]) * x_grid)
    for lo in range(0, x_grid.size, _CHUNK):
        xs = -x_grid[lo:lo + _CHUNK]
        tu, tv = coarse[:, :xs.size], fine[:, :xs.size]
        _phase_powers(tv, step * xs)
        _phase_powers(tu, (cols * step) * xs)
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
    return SpectralEstimate(x_grid, f.real, imag_residual=float(np.max(np.abs(f.imag))))


def unthresholded_mask(ecf_grid: ECFGrid, kappa: float) -> np.ndarray:
    """Frequencies where |phi_hat| >= (1 + kappa sqrt(log n)) / sqrt(n), as a bool array."""
    return np.abs(ecf_grid.values) >= threshold_level(kappa, ecf_grid.n)


def threshold_cf(ecf_grid: ECFGrid, kappa: float) -> ECFGrid:
    """Zero the ECF outside :func:`unthresholded_mask`."""
    kept = unthresholded_mask(ecf_grid, kappa)
    return ECFGrid(ecf_grid.grid, np.where(kept, ecf_grid.values, 0.0), ecf_grid.n)


def adaptive_estimate(ecf_grid: ECFGrid, kappa: float, x_grid) -> SpectralEstimate:
    """Thresholded estimator: the given ECF, zeroed below the kappa level, inverted
    over [-n, n] cut to the ECF's grid (``grid.restrict(n)``, usually all of it)."""
    m = ecf_grid.grid.restrict(float(ecf_grid.n)).u_max
    return spectral_estimate(threshold_cf(ecf_grid, kappa), m, x_grid)


def plancherel_l2(a: np.ndarray, b: np.ndarray, grid: UGrid) -> float:
    """(1/2pi) int |a - b|^2 over ``grid`` by the trapezoid rule, for arrays on its points."""
    if a.shape != b.shape:
        raise ValueError(f"operands have different shapes, {a.shape} and {b.shape}")
    diff = np.abs(a - b) ** 2
    return float(diff @ trapezoid_weights(diff.size, grid.step) / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# serialization

def write_estimate_csv(est: SpectralEstimate, path, meta_lines=()) -> None:
    write_rows(path, meta_lines, "x,f_hat", "%.17g,%.17g\n", est.x_grid, est.values)


def write_ecf_csv(ecf_grid: ECFGrid, path, meta_lines=()) -> None:
    write_rows(path, meta_lines, "u,re,im", "%.17g,%.17g,%.17g\n", ecf_grid.grid.points,
               np.real(ecf_grid.values), np.imag(ecf_grid.values))
