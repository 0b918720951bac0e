"""Increment sampling for Gaussian, stable and mixed Levy triplets.

Stable variates use the Chambers-Mallows-Stuck transform (Chambers, Mallows &
Stuck 1976; Weron 1996) in the one-parameterization, which is exact: no
discretization bias enters the Monte-Carlo benchmarks.  For the symmetric
Cauchy law (alpha = 1, beta = 0) the transform reduces to tan U, so that law
draws no exponential variate and computes no cos or log; its samples are the
bytes the full transform gives (see ``_cms_standard``).  Randomness comes from
counter-based Philox streams keyed by (master_seed, trial_index, substream),
so trials are reproducible independently of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (UnsupportedModelError, _require_between, _require_count, _require_finite,
                     _require_finite_entries, _require_positive)
from .models import CustomJumpDensity, LevyTriplet, StableLaw, increment_stable_law

__all__ = ["SeedSpec", "IncrementSample", "stable_sample", "sample_increments",
           "derive_seed", "write_increments_csv"]

_GAUSSIAN_STREAM = 0
_STABLE_STREAM = 1


def _require_seed(master_seed):
    """A master seed: an integer in [0, 2^64)."""
    if _require_count("master_seed", master_seed, 0) >= 2 ** 64:
        raise ValueError(f"master_seed must lie in [0, 2^64), got {master_seed}")
    return master_seed


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream: (master_seed, trial_index)."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        _require_seed(self.master_seed)
        _require_count("trial_index", self.trial_index, 0)

    def generator(self, substream: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=(self.trial_index, substream))
        return np.random.Generator(np.random.Philox(ss))


def derive_seed(master_seed: int, *lane: int) -> int:
    """Derive a 64-bit sub-master seed, e.g. one per experiment cell."""
    ss = np.random.SeedSequence(entropy=_require_seed(master_seed),
                                spawn_key=tuple(lane))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class IncrementSample:
    """n i.i.d. increments, all finite."""

    values: np.ndarray

    def __post_init__(self):
        _require_finite_entries("increments", self.values)

    @property
    def n(self) -> int:
        return len(self.values)


def _cms_standard(alpha: float, beta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard stable variates (gamma=1, delta=0) via Chambers-Mallows-Stuck.

    At alpha = 1 and beta == 0 (either sign of zero) the transform is
    (2/pi) ((pi/2) tan U), computed in place with no exponential W drawn.
    These are the bytes of the general alpha = 1 formula: its log term is
    finite (for W > 0) times a zero, so it subtracts a signed zero from values
    that are never -0.0 (U is never -0.0, since U = (r - 0.5) pi is +0.0 at
    r = 0.5); and W would be the last draw on a generator made for this call,
    so skipping it moves no other draw.
    """
    U = rng.random(n)
    U -= 0.5
    U *= math.pi
    half_pi = math.pi / 2.0
    if alpha == 1.0 and beta == 0.0:
        np.tan(U, out=U)
        U *= half_pi
        U *= 2.0 / math.pi
        return U
    W = rng.exponential(1.0, n)
    if alpha == 1.0:
        return (2.0 / math.pi) * ((half_pi + beta * U) * np.tan(U)
                                  - beta * np.log((half_pi * W * np.cos(U))
                                                  / (half_pi + beta * U)))
    theta0 = math.atan(beta * math.tan(math.pi * alpha / 2.0)) / alpha
    s = (np.sin(alpha * (U + theta0))
         / (math.cos(alpha * theta0) * np.cos(U)) ** (1.0 / alpha))
    t = (np.cos(alpha * theta0 + (alpha - 1.0) * U) / W) ** ((1.0 - alpha) / alpha)
    return s * t


def _cms(law: StableLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    # a non-finite variate is raised by _stable_sample, so numpy need not warn of it
    with np.errstate(all="ignore"):
        z = _cms_standard(law.alpha, law.beta, rng, n)
        z *= law.gamma
        if law.alpha == 1.0:
            # the one-parameterization scales with an extra beta*gamma*log(gamma) shift
            z += (2.0 / math.pi) * law.beta * law.gamma * math.log(law.gamma)
        z += law.delta
    return z


def _stable_sample(values: np.ndarray, law: StableLaw) -> IncrementSample:
    """``IncrementSample(values)`` for variates of a valid ``law``: a non-finite
    one is the sampler's numeric failure, an ArithmeticError naming alpha, beta
    and its index, not the ValueError of bad input."""
    try:
        return IncrementSample(values)
    except ValueError:
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ArithmeticError(
            f"sampling the stable law alpha={law.alpha!r}, beta={law.beta!r} gave the "
            f"non-finite variate {float(values[bad])!r} at index {bad}") from None


def stable_sample(law: StableLaw, n: int, seed: SeedSpec) -> IncrementSample:
    """n i.i.d. variates with characteristic function ``stable_cf(law, .)``."""
    _require_count("n", n)
    _require_between("alpha", law.alpha, 0, 2, "lie in (0, 2) for the sampler")
    return _stable_sample(_cms(law, seed.generator(_STABLE_STREAM), n), law)


def sample_increments(triplet: LevyTriplet, delta_t: float, n: int,
                      seed: SeedSpec) -> IncrementSample:
    """Sample X_{i dt} - X_{(i-1) dt} for a triplet with stable or no jumps.

    The Gaussian and jump parts are independent, drawn from separate
    substreams of the same seed.  Each value is (b dt + Gaussian) + jump,
    summed in place in that order.
    """
    _require_positive("delta_t", delta_t)
    _require_count("n", n)
    if isinstance(triplet.jumps, CustomJumpDensity):
        raise UnsupportedModelError("custom jump densities are not samplable; "
                                    "only stable or empty jump parts")
    drift = _require_finite("the increment's drift b * delta_t", triplet.b * delta_t)
    variance = _require_finite("the increment's variance sigma2 * delta_t",
                               triplet.sigma2 * delta_t)
    law = None if triplet.jumps is None else increment_stable_law(triplet.jumps, delta_t)
    if triplet.sigma2 > 0:
        values = seed.generator(_GAUSSIAN_STREAM).standard_normal(n)
        values *= math.sqrt(variance)
        values += drift
        if law is not None:
            values += _cms(law, seed.generator(_STABLE_STREAM), n)
    else:  # a triplet without a Gaussian part has stable jumps
        values = _cms(law, seed.generator(_STABLE_STREAM), n)
        values += drift  # also when 0.0: it turns a -0.0 into +0.0, as 0.0 + x does
    return IncrementSample(values) if law is None else _stable_sample(values, law)


_ROWS_PER_WRITE = 8192


def write_rows(path, meta_lines, header: str, row_format: str, *columns) -> None:
    """Write ``# meta`` lines, a header and one ``row_format`` row per index of
    the columns, formatting a block of rows with one ``%`` over the interleaved
    columns (``%.17g`` writes the same bytes as ``f"{v:.17g}"``)."""
    columns = [np.asarray(column).tolist() for column in columns]
    with open(path, "w") as fh:
        for line in meta_lines:
            fh.write(f"# {line}\n")
        fh.write(f"{header}\n")
        for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
            block = [column[start:start + _ROWS_PER_WRITE] for column in columns]
            rows = [None] * (len(columns) * len(block[0]))
            for j, cells in enumerate(block):
                rows[j::len(columns)] = cells
            fh.write((row_format * len(block[0])) % tuple(rows))


def write_increments_csv(sample: IncrementSample, path, meta_lines=()) -> None:
    """Dump increments as CSV with header ``index,value``, one ``%d,%.17g`` row each."""
    write_rows(path, meta_lines, "index,value", "%d,%.17g\n", np.arange(sample.n), sample.values)
