"""Increment sampling for Gaussian, stable and mixed Levy triplets.

Stable variates use the Chambers-Mallows-Stuck transform (Chambers, Mallows &
Stuck 1976; Weron 1996) in the one-parameterization, which is exact: no
discretization bias enters the Monte-Carlo benchmarks.  Randomness comes from
counter-based Philox streams keyed by (master_seed, trial_index, substream),
so trials are reproducible independently of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedModelError
from .models import (CustomJumpDensity, LevyTriplet, StableJumpDensity,
                     StableLaw, increment_stable_law)

__all__ = ["SeedSpec", "IncrementSample", "stable_sample", "sample_increments",
           "derive_seed", "write_increments_csv"]

_GAUSSIAN_STREAM = 0
_STABLE_STREAM = 1


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream: (master_seed, trial_index)."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")
        if self.trial_index < 0:
            raise ValueError("trial_index must be nonnegative")

    def generator(self, substream: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=(self.trial_index, substream))
        return np.random.Generator(np.random.Philox(ss))


def derive_seed(master_seed: int, *lane: int) -> int:
    """Derive a 64-bit sub-master seed, e.g. one per experiment cell."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(lane))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class IncrementSample:
    """n i.i.d. increments, all finite."""

    values: np.ndarray

    def __post_init__(self):
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"increments must be finite; value {self.values[bad[0]]!r} "
                             f"at index {bad[0]}")

    @property
    def n(self) -> int:
        return len(self.values)


def _cms_standard(alpha: float, beta: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard stable variates (gamma=1, delta=0) via Chambers-Mallows-Stuck."""
    U = (rng.random(n) - 0.5) * math.pi
    W = rng.exponential(1.0, n)
    if alpha == 1.0:
        half_pi = math.pi / 2.0
        return (2.0 / math.pi) * ((half_pi + beta * U) * np.tan(U)
                                  - beta * np.log((half_pi * W * np.cos(U))
                                                  / (half_pi + beta * U)))
    theta0 = math.atan(beta * math.tan(math.pi * alpha / 2.0)) / alpha
    s = (np.sin(alpha * (U + theta0))
         / (math.cos(alpha * theta0) * np.cos(U)) ** (1.0 / alpha))
    t = (np.cos(alpha * theta0 + (alpha - 1.0) * U) / W) ** ((1.0 - alpha) / alpha)
    return s * t


def _cms(law: StableLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    z = _cms_standard(law.alpha, law.beta, rng, n)
    if law.alpha == 1.0:
        # the one-parameterization scales with an extra beta*gamma*log(gamma) shift
        return law.gamma * z + (2.0 / math.pi) * law.beta * law.gamma * math.log(law.gamma) + law.delta
    return law.gamma * z + law.delta


def stable_sample(law: StableLaw, n: int, seed: SeedSpec) -> IncrementSample:
    """n i.i.d. variates with characteristic function ``stable_cf(law, .)``."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 < law.alpha < 2:
        raise ValueError("sampler requires alpha in (0, 2)")
    return IncrementSample(_cms(law, seed.generator(_STABLE_STREAM), n))


def sample_increments(triplet: LevyTriplet, delta_t: float, n: int,
                      seed: SeedSpec) -> IncrementSample:
    """Sample X_{i dt} - X_{(i-1) dt} for a triplet with stable or no jumps.

    The Gaussian and jump parts are independent, drawn from separate
    substreams of the same seed.
    """
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    if isinstance(triplet.jumps, CustomJumpDensity):
        raise UnsupportedModelError("custom jump densities are not samplable; "
                                    "only stable or empty jump parts")
    values = np.full(n, triplet.b * delta_t)
    if triplet.sigma2 > 0:
        rng = seed.generator(_GAUSSIAN_STREAM)
        values = values + math.sqrt(triplet.sigma2 * delta_t) * rng.standard_normal(n)
    if isinstance(triplet.jumps, StableJumpDensity):
        law = increment_stable_law(triplet.jumps, delta_t)
        values = values + _cms(law, seed.generator(_STABLE_STREAM), n)
    return IncrementSample(values)


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
