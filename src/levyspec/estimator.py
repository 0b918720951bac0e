"""Empirical characteristic function, spectral cutoff and thresholded estimators.

The ECF on a symmetric frequency grid is

    phi_hat(u) = (1/n) sum_j exp(i u x_j),

needed at the K + 1 grid points u = k*step >= 0, a type-1 nonuniform DFT.  It
is computed as the low-rank NUFFT of Ruiz-Antolin & Townsend (2018) on the
binning of Dutt & Rokhlin (1993): each sample is placed in one of M bins, M
the smallest power of 4 >= K + 1, the Chebyshev moments sum_j T_p(d_j) of its
offset d_j in [-1, 1] from the bin centre are accumulated for p < P = 24, and
one batched rFFT of length M over the P moment rows, weighted by the
Jacobi-Anger coefficients eps_p i^p J_p(pi k / M), gives every frequency.
That is O(n P + P M log M) work instead of O(n K), with no BLAS call.  The
moment pass and the weighted sum over p (the contraction) run in the C
kernels of ``_kernels.c`` when they load (``_native``), else in their numpy
definitions, with the same bytes; only the rFFT is numpy's either way.  The
expansion is cut below 2e-18; the rounding error against exact summation is
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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (_require_count, _require_finite_entries, _require_nonnegative,
                     _require_positive)
from .sampling import IncrementSample, write_rows

__all__ = ["UGrid", "ECFGrid", "SpectralEstimate", "ecf", "spectral_estimate",
           "unthresholded_mask", "threshold_cf", "adaptive_estimate", "plancherel_l2",
           "default_u_max", "default_u_step", "default_u_grid", "default_x_grid",
           "write_estimate_csv", "write_ecf_csv", "threshold_level", "trapezoid_weights"]


def default_u_max(delta_t: float) -> float:
    """Estimation domain half-width: 10/delta_t clamped to [10, 100]."""
    return float(min(100.0, max(10.0, 10.0 / _require_positive("delta_t", delta_t))))


def default_u_step(u_max: float) -> float:
    return 0.05 if _require_positive("u_max", u_max) <= 10.0 else 0.1


# The most points of a grid the user sizes: the frequencies K = u_max / step a
# UGrid holds on each side (see UGrid), the x points of default_x_grid and the
# kappas of a KappaGrid, refused past it before any array exists.
_MAX_GRID = 10 ** 6
# The work a request may ask for, refused past it before any trial runs: sampling
# peaks at about 100 bytes per value, so n = 10^7 stays near 1 GB, and a bound
# check or a risk-table cell runs at most 10^6 trials of that size.
_MAX_N = 10 ** 7
_MAX_TRIALS = 10 ** 6


def _half_count(u_max: float, step: float) -> int:
    """round(u_max / step), refused past ``_MAX_GRID`` before any array exists."""
    if not u_max / step < _MAX_GRID + 0.5:
        raise ValueError(f"u_max={u_max!r} over step={step!r} gives {u_max / step:.3g} "
                         f"frequencies per side, more than the {_MAX_GRID} a grid "
                         f"holds: the smallest step that fits is {u_max / _MAX_GRID!r}")
    return round(u_max / step)


@dataclass(frozen=True)
class UGrid:
    """Symmetric uniform frequency grid -u_max..u_max containing 0 exactly.

    Its half-count K = u_max / step is at most 10^6.  At that K the ECF holds
    24 moment rows of M = 4^10 bins (201 MB), their rFFT (201 MB) and 24 (K + 1)
    Bessel weights (192 MB) at once, about 0.6 GB.
    """

    u_max: float
    step: float

    def __post_init__(self):
        _require_positive("u_max", self.u_max)
        _require_positive("step", self.step)
        k = self.half_count
        if k < 1 or abs(k * self.step - self.u_max) > 1e-9 * self.u_max:
            raise ValueError("u_max must be a positive integer multiple of step")

    @classmethod
    def make(cls, u_max: float, step: float | None = None) -> "UGrid":
        """Build a grid with the default step rule, snapping u_max onto it."""
        _require_positive("u_max", u_max)
        step = _require_positive("step", default_u_step(u_max) if step is None else step)
        return cls(max(1, _half_count(u_max, step)) * step, step)

    @property
    def half_count(self) -> int:
        return _half_count(self.u_max, self.step)

    @property
    def points(self) -> np.ndarray:
        k = self.half_count
        return np.arange(-k, k + 1) * self.step

    def _band(self, m: float) -> int:
        """k, the half-count of the points with |u| <= m, which are the contiguous
        slice K - k .. K + k of ``points``: the one rule of every cutoff."""
        return min(self.half_count, math.floor(m / self.step + 1e-9))

    def restrict(self, u_max: float) -> "UGrid":
        if _require_positive("u_max", u_max) >= self.u_max:
            return self
        k = self._band(u_max)
        if k < 1:
            raise ValueError(f"the grid cut to [-n, n] = [-{u_max:g}, {u_max:g}] holds only "
                             f"u = 0: its step {self.step:g} must be at most n")
        return UGrid(k * self.step, self.step)


def default_u_grid(delta_t: float, n: int, u_max: float | None = None,
                   step: float | None = None) -> UGrid:
    """The estimator's frequency grid: ``UGrid.make`` of u_max (default_u_max when
    None) and step (default_u_step of that u_max when None), cut to [-n, n].  A
    u_max past n is cut before the grid is made, which gives the same grid and
    puts the size cap on the grid the estimator uses."""
    # an infinite u_max is refused here, since min() would cut it to n unseen
    u_max = default_u_max(delta_t) if u_max is None else _require_positive("u_max", u_max)
    step = default_u_step(u_max) if step is None else step
    n = float(_require_count("n", n))
    return UGrid.make(min(u_max, n), step).restrict(n)


@dataclass(frozen=True, eq=False)
class ECFGrid:
    """Finite complex CF values aligned with ``grid.points``; n is the sample size."""

    grid: UGrid
    values: np.ndarray
    n: int

    def __post_init__(self):
        if len(self.values) != 2 * self.grid.half_count + 1:
            raise ValueError("values length does not match the grid")
        _require_finite_entries("ECF values", self.values)
        _require_count("n", self.n)


def threshold_level(kappa, n: int):
    """Threshold level (1 + kappa sqrt(log n)) / sqrt(n) for an integer n >= 1;
    ``kappa`` may be an array, each entry a finite number >= 0."""
    _require_count("n", n)
    if not isinstance(kappa, np.ndarray):
        _require_nonnegative("kappa", kappa)
    else:
        if kappa.size and not (kappa.min() >= 0 and kappa.max() < math.inf):  # NaN fails both
            bad = np.flatnonzero(~((kappa >= 0) & (kappa < math.inf)))[0]
            _require_nonnegative(f"kappa[{bad}]", kappa.flat[bad].item())
    return (1.0 + kappa * math.sqrt(math.log(n))) / math.sqrt(n)


@dataclass(frozen=True, eq=False)
class SpectralEstimate:
    """Density values on an x-grid, and the largest imaginary part the inversion left."""

    x_grid: np.ndarray
    values: np.ndarray
    imag_residual: float = 0.0


# ---------------------------------------------------------------------------
# ECF

_TERMS = 24  # P: Chebyshev terms per bin, 2 (pi/2)^24 / 24! < 2e-18
_ECF_CHUNK = 16384  # samples per moment pass; the Chebyshev table holds _TERMS * _ECF_CHUNK floats


def _ecf_bins(count: int) -> int:
    """M, the smallest power of 4 >= count + 1: every half-count of one rung
    shares its bins, so phi_hat(k step) does not depend on the grid's length."""
    size = 4
    while size <= count:
        size *= 4
    return size


@functools.lru_cache(maxsize=4)
def _ecf_weights(count: int, size: int) -> np.ndarray:
    """A[p, k] = eps_p (-1)^(p // 2) J_p(z_k) for p < P, z_k = pi k / size and
    k = 0..count, read-only; eps_0 = 1 and eps_p = 2 after it.

    The Jacobi-Anger weight eps_p i^p J_p(z_k) is A[p, k] for even p and
    i A[p, k] for odd p.  J_p comes from Miller's backward recurrence
    f_{p-1} = (2p / z) f_p - f_{p+1}, started at f_{P+7} = 0 and f_{P+6} = 1e-300
    and scaled by J_0 + 2 sum_p J_{2p} = 1.  For z_k < pi the error of that start
    is far below rounding, and the f grow from 1e-300 by less than 30! (2 / z)^30,
    so nothing overflows for any size below 2^64.
    """
    z = (math.pi / size) * np.arange(1, count + 1)
    table = np.zeros((_TERMS, count + 1))
    table[0, 0] = 1.0  # J_p(0)
    above, here = np.zeros(count), np.full(count, 1e-300)
    norm = np.zeros(count)
    for p in range(_TERMS + 6, 0, -1):  # here becomes f_{p-1}
        above, here = here, (2.0 * p / z) * here - above
        if p <= _TERMS:
            table[p - 1, 1:] = here
        if p % 2:
            norm += here
    table[:, 1:] /= 2.0 * norm - here  # here is f_0
    table[1:] *= 2.0
    table[2::4] *= -1.0
    table[3::4] *= -1.0
    table.flags.writeable = False
    return table


def _bin_moments(values: np.ndarray, size: int, scale: float) -> np.ndarray:
    """S[p, b] = sum of T_p(d_j) over the samples in bin b, for the Chebyshev
    polynomials T_p, q_j = scale x_j, m_j = rint(q_j), d_j = 2 (q_j - m_j) in
    [-1, 1] and b = m_j mod size: one row per term, as the batched rFFT reads it.

    Computed by ``bin_moments`` of ``_kernels.c`` when the native kernels load
    (``_native.library``), else by ``_bin_moments_numpy``, the definition.  The
    C pass gives the same bytes: per chunk it computes q, m, d and the bin by
    the same double operations (m / M as m * (1 / M), exact for the power of 4
    M), sorts by bin stably (a counting sort, the permutation of the stable
    argsort) and sums each bin's run as ``np.add.reduceat`` does, the first
    value plus numpy's pairwise sum of the rest, before one addition into S.
    It walks the sorted samples in tiles of whole bins, about 512 samples, so
    that a tile's rows stay in L1 while its sweeps make two terms each, every
    T_p by the same two roundings as numpy (contraction into FMAs is off).
    """
    from . import _native  # at the first ECF, not at import
    moments = _native.bin_moments(values, size, scale, _TERMS, _ECF_CHUNK)
    return _bin_moments_numpy(values, size, scale) if moments is None else moments


def _bin_moments_numpy(values: np.ndarray, size: int, scale: float) -> np.ndarray:
    """``_bin_moments`` in numpy: the definition, and the reference of the C pass.

    T_p(d) comes from the three-term recurrence T_{p+1} = 2 d T_p - T_{p-1}, so
    |T_p(d)| <= 1 and each value carries O(p eps) rounding.  Per chunk the bins
    are sorted (a radix sort on their small unsigned type) and each bin's run is
    summed by ``np.add.reduceat``, pairwise, so that a bin holding thousands of
    tied samples costs O(log) roundings, not O(count).
    """
    moments = np.zeros((_TERMS, size))
    cheb = np.empty((_TERMS, min(_ECF_CHUNK, values.size)))
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
        rows = cheb[:, :q.size]
        rows[0] = 1.0
        np.take(d, order, out=rows[1])
        twice = rows[1] + rows[1]
        for p in range(2, _TERMS):
            np.multiply(twice, rows[p - 1], out=rows[p])
            rows[p] -= rows[p - 2]
        starts = np.flatnonzero(np.r_[True, bins[1:] != bins[:-1]])
        moments[:, bins[starts]] += np.add.reduceat(rows, starts, axis=1)
    return moments


def _ecf_contract_numpy(spectrum: np.ndarray, weights: np.ndarray, size: int,
                        n: int) -> np.ndarray:
    """phi_hat(k step) for k = -count..count from the moments' rFFT rows: the
    definition of the contraction, and the reference of ``ecf_contract`` in C.

    The (P, count + 1) terms eps_p i^p J_p(z_k) conj(F_p[k]) are formed whole,
    the even and odd p summed apart (the odd weights carry the factor i), and
    the negative half filled by conjugate symmetry.
    """
    count = weights.shape[1] - 1
    half = min(count, size // 2) + 1
    terms = np.empty((_TERMS, count + 1), dtype=np.complex128)
    np.conjugate(spectrum[:, :half], out=terms[:, :half])
    terms[:, half:] = spectrum[:, size // 2 - 1:size - count - 1:-1]
    terms *= weights
    out = terms[0::2].sum(axis=0)  # the even p, whose weights are real
    out += 1j * terms[1::2].sum(axis=0)
    out /= n
    out[0] = 1.0
    return np.concatenate([np.conj(out[:0:-1]), out])


def _ecf_half(values: np.ndarray, count: int, step: float) -> np.ndarray:
    """phi_hat at u = k*step for k = -count..count, summed for k >= 0 only from
    binned Chebyshev moments; the k < 0 half is the conjugate of the k > 0 half.

    With M = ``_ecf_bins(count)`` bins and q = x step M / 2pi,
    exp(i k step x) = exp(2pi i k m / M) exp(i z_k d) for z_k = k pi / M < pi,
    and the Jacobi-Anger expansion exp(i z d) = sum_p eps_p i^p J_p(z) T_p(d)
    gives

        phi_hat(k step) = (1/n) sum_{p < P} eps_p i^p J_p(z_k) conj(F_p[k])

    for F_p = rfft(S[p]) of the bin moments S of ``_bin_moments``, with
    F_p[k] = conj(F_p[M - k]) past M/2, and the weights of ``_ecf_weights``:
    O(n P + P M log M) work, one batched rFFT over the P rows, no BLAS.  Since
    |J_p(z)| <= (z/2)^p / p!, the dropped terms sum below 2 (pi/2)^P / P! < 2e-18.
    Rounding x step M / 2pi moves each phase by about eps u |x|, as forming
    step * x does in a direct sum, so the error against exact summation is about
    eps u mean|x| plus the FFT's roundings, of order eps log2(M).

    The contraction over p runs in ``ecf_contract`` of ``_kernels.c`` when the
    native kernels load, straight into the 2 count + 1 output in blocks of 64
    frequencies, with no (P, count + 1) complex temporaries; else it runs in
    ``_ecf_contract_numpy``, the definition, whose operations the C pass repeats
    in numpy's order for the same bytes.
    """
    from . import _native
    size = _ecf_bins(count)
    spectrum = np.fft.rfft(_bin_moments(values, size, step * size / (2.0 * math.pi)), axis=1)
    weights = _ecf_weights(count, size)
    out = _native.ecf_contract(spectrum, weights, size, values.size)
    return _ecf_contract_numpy(spectrum, weights, size, values.size) if out is None else out


def ecf(sample: IncrementSample, grid: UGrid) -> ECFGrid:
    """Empirical characteristic function of the sample on the grid.

    Only the nonnegative half-axis is summed, by ``_ecf_half``; the negative
    half is filled by conjugate symmetry, so phi_hat(0) = 1 exactly and
    phi_hat(-u) = conj(phi_hat(u)) exactly.  Before the moment pass, a sample
    whose ECF is rounding noise raises ``_check_ecf_above_rounding``'s ArithmeticError.
    """
    if sample.n == 0:
        raise ValueError("sample must be nonempty")
    values = np.asarray(sample.values, dtype=float)
    _check_ecf_above_rounding(values, grid.u_max)
    return ECFGrid(grid, _ecf_half(values, grid.half_count, grid.step), sample.n)


def _check_ecf_above_rounding(values: np.ndarray, u_max: float) -> None:
    """Rounding u*x moves the ECF by up to eps * u_max * mean|x|; once that reaches
    the sampling error 1/sqrt(n), the ECF is rounding noise (an overflow counts).
    Checked in ``ecf`` only, so every caller of the ECF is held to it."""
    with np.errstate(over="ignore"):  # np.mean's sum, without the overhead of its wrapper
        rounding = math.ulp(1.0) * u_max * (float(np.add.reduce(np.abs(values))) / len(values))
    sampling = 1.0 / math.sqrt(len(values))
    if not rounding < sampling:
        raise ArithmeticError(
            f"the ECF is rounding noise: its rounding bound eps * u_max * mean|x| = "
            f"{rounding:g} reaches the sampling error 1/sqrt(n) = {sampling:g}; "
            f"the data's magnitude is too large for this u_max")


# ---------------------------------------------------------------------------
# inversion

def _check_within_half_period(reach: float, step: float, what: str) -> None:
    """The inversion repeats with period 2 pi/step in x: past pi/step it shows folded."""
    half_period = math.pi / step
    if not reach <= half_period:
        raise ValueError(
            f"the x-grid must lie within the alias half-period pi/step = {half_period:g}, "
            f"got {what} = {reach:g}; the inversion repeats with period 2 pi/step in x, "
            f"so this needs a step (--step) <= pi/{reach:g} = {math.pi / reach:.3g}")


def _quartiles(values) -> list:
    """``np.percentile(values, [75, 50, 25])`` from one sort, with its bytes but for
    the sign of a zero quartile: -0.0 and 0.0 tie, and the sort orders them its way.

    Its linear rule: quantile q sits at the index (n - 1) q, a fraction t past
    the sorted value a and short of the next, b, and is interpolated from the
    nearer of the two, a + (b - a) t for t < 1/2 and b - (b - a)(1 - t) else.  At
    n = 1 numpy takes the one value at t = 1; a NaN sorts last and makes every
    quartile NaN.
    """
    ordered = np.sort(values, axis=None)
    if np.isnan(ordered[-1]):
        ordered = ordered[-1:]
    last = ordered.size - 1
    quartiles = []
    for q in (0.75, 0.5, 0.25):
        index = last * q
        lo = math.floor(index) if index < last else -1
        t = index - lo
        a, b = ordered[lo], ordered[min(lo + 1, last)]
        quartiles.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return quartiles


def default_x_grid(values: np.ndarray, step: float, points: int = 512) -> np.ndarray:
    """Uniform x-grid spanning +-8 spreads around 0, the spread being the sample's
    interquartile range, or max(std, 1) when that is 0; the bulk |median| + 8
    spreads must lie within the alias half-period pi/step."""
    _require_positive("step", step)
    _require_count("points", points, 1, _MAX_GRID)
    q75, median, q25 = _quartiles(values)
    spread = float(q75 - q25)
    if spread <= 0:
        spread = max(float(np.std(values)), 1.0)
    _check_within_half_period(abs(float(median)) + 8.0 * spread, step, "|median| + 8 IQR")
    return np.linspace(-8.0 * spread, 8.0 * spread, points)


def trapezoid_weights(count: int, step: float) -> np.ndarray:
    """Trapezoid-rule weights of ``count`` points ``step`` apart; one point weighs 0."""
    _require_positive("step", step)
    w = np.zeros(_require_count("count", count, 0))
    w[1:] += step / 2.0
    w[:-1] += step / 2.0
    return w


@functools.lru_cache(maxsize=8)
def _trapezoid_row(count: int, step: float) -> np.ndarray:
    """``trapezoid_weights(count, step)``, read-only and kept for the next call."""
    row = trapezoid_weights(count, step)
    row.flags.writeable = False
    return row


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
    100 001-coefficient band at 8 x points: 5 ms with the tables, against 24
    rFFTs of 2^18 points, 100 ms in all, for the FFT route (2-vCPU x86_64 host).
    A 16 001-coefficient band takes 0.6 ms at 8 points but 11-15 ms at 2561,
    where the FFT route's 24 rFFTs of 2^14 points take 2.7 ms in all: for many
    x points on a long band the FFT route would be the faster one.
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
    """Cutoff estimator: invert the ECF over the band |u| <= m of ``UGrid._band``."""
    grid = ecf_grid.grid
    _require_positive("m", m)
    if m > grid.u_max * (1 + 1e-12):
        raise ValueError(f"cutoff m={m} exceeds the grid domain u_max={grid.u_max}")
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.size == 0:
        raise ValueError("the x-grid is empty")
    _check_within_half_period(float(np.max(np.abs(x_grid))), grid.step, "max |x|")
    K, k = grid.half_count, grid._band(m)
    band = slice(K - k, K + k + 1)
    f = _invert(grid.points[band], ecf_grid.values[band], x_grid, grid.step)
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
    return float(diff @ _trapezoid_row(diff.size, grid.step) / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# serialization

def write_estimate_csv(est: SpectralEstimate, path, meta_lines=()) -> None:
    write_rows(path, meta_lines, "x,f_hat", "%.17g,%.17g\n", est.x_grid, est.values)


def write_ecf_csv(ecf_grid: ECFGrid, path, meta_lines=()) -> None:
    write_rows(path, meta_lines, "u,re,im", "%.17g,%.17g,%.17g\n", ecf_grid.grid.points,
               np.real(ecf_grid.values), np.imag(ecf_grid.values))
