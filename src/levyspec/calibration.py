"""Data-driven choice of the threshold constant kappa.

As kappa grows, the set of frequencies where the ECF modulus stays above the
level (1 + kappa sqrt(log n))/sqrt(n) shrinks: the estimator's
``unthresholded_mask``, which ``threshold_cf`` keeps.  In one dimension its Euler
characteristic chi is the number of connected runs of kept grid points: large
for small kappa (noise pokes through everywhere), then stabilizing once the
threshold clears the noise floor.  We scan kappa = k * delta over k = 0..N and
select the first k >= 2 with chi constant over three consecutive values.

chi is counted, not masked.  With a_i = |phi_hat(u_i)|, a run of kept points
starts at i exactly when a_{i-1} < L <= a_i: a birth in the superlevel
filtration of a (Edelsbrunner & Harer, Computational Topology, 2010).  So
chi(L) = #{i: a_i >= L} - #{i >= 1: min(a_{i-1}, a_i) >= L}, two counts read
off sorted arrays for every level at once; ``euler_characteristic`` of the
estimator's mask is the definition they are checked against.  The fallback
rule lives here too: only :func:`calibrate` turns a chi sequence that never
settles into ``FALLBACK_KAPPA``, for the CLI and the risk loop alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import write_rows
from .errors import NoStabilizationError, _require_count, _require_positive
from .estimator import _MAX_GRID, ECFGrid, threshold_level

__all__ = ["KappaGrid", "euler_characteristic", "chi_profile", "stabilization_index",
           "select_kappa", "calibrate", "FALLBACK_KAPPA", "write_chi_csv"]

# smallest kappa for which the thresholded estimator's remainder term decays
# faster than 1/n; used when the chi sequence never settles
FALLBACK_KAPPA = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class KappaGrid:
    """Uniform kappa grid {k * delta_step, k = 0..count}, count at most 10^6."""

    delta_step: float = 0.05
    count: int = 100

    def __post_init__(self):
        _require_positive("delta_step", self.delta_step)
        _require_count("count", self.count, 3)
        try:
            top = self.count * self.delta_step
        except OverflowError:  # a count beyond the float range
            top = math.inf
        if not math.isfinite(top):
            raise ValueError(f"the top kappa count * delta_step = {self.count} * "
                             f"{self.delta_step!r} overflows")
        _require_count("count", self.count, 3, _MAX_GRID)  # past the floats, the top is named

    @property
    def kappas(self) -> np.ndarray:
        return np.arange(self.count + 1) * self.delta_step


def euler_characteristic(mask):
    """Number of maximal runs of consecutive kept points along the last axis:
    one count per row of a 2-D mask, an int for a 1-D mask."""
    kept = np.asarray(mask, dtype=bool)
    runs = (np.count_nonzero(kept[..., :1], axis=-1)
            + np.count_nonzero(kept[..., 1:] & ~kept[..., :-1], axis=-1))
    return int(runs) if kept.ndim == 1 else runs


def chi_profile(ecf_grid: ECFGrid, grid: KappaGrid) -> tuple[np.ndarray, np.ndarray]:
    """chi(A(kappa)) for every kappa on the grid, counted without a mask.

    The kept set at level L is a path graph: its vertices are the i with
    a_i >= L (a = |phi_hat|) and its edges the i >= 1 with min(a_{i-1}, a_i) >= L,
    so chi(L) = vertices - edges.  Each count is ``size - searchsorted(sort(.), L)``,
    the mask's own ``>=`` against the same levels.  Sorting puts NaN above every
    level, which is why ``ECFGrid`` holds finite values only.
    """
    levels = threshold_level(grid.kappas, ecf_grid.n)
    a = np.abs(ecf_grid.values)
    edges = np.minimum(a[:-1], a[1:])
    vertices = a.size - np.searchsorted(np.sort(a), levels)
    joined = edges.size - np.searchsorted(np.sort(edges), levels)
    return grid.kappas, vertices - joined


def stabilization_index(chis) -> int | None:
    """First k >= 2 with chis[k] == chis[k-1] == chis[k-2], else None."""
    chis = list(chis)
    for k in range(2, len(chis)):
        if chis[k] == chis[k - 1] == chis[k - 2]:
            return k
    return None


def select_kappa(ecf_grid: ECFGrid, grid: KappaGrid | None = None) -> float:
    """Smallest kappa = k*delta whose chi is stable over three consecutive k.

    Raises :class:`NoStabilizationError` (carrying the chi sequence) when the
    sequence never settles; :func:`calibrate` falls back to ``FALLBACK_KAPPA``.
    """
    if grid is None:
        grid = KappaGrid()
    kappas, chis = chi_profile(ecf_grid, grid)
    k = stabilization_index(chis)
    if k is None:
        raise NoStabilizationError(
            f"chi never stable over three consecutive kappas (grid step "
            f"{grid.delta_step}, count {grid.count})", chis)
    return float(kappas[k])


def calibrate(ecf_grid: ECFGrid, grid: KappaGrid | None = None,
              fallback: bool = False) -> tuple[float, bool]:
    """(kappa, fell_back): :func:`select_kappa`'s kappa, or ``(FALLBACK_KAPPA, True)`` where
    chi never stabilizes and ``fallback`` is set; else its NoStabilizationError propagates."""
    try:
        return select_kappa(ecf_grid, grid), False
    except NoStabilizationError:
        if not fallback:
            raise
        return FALLBACK_KAPPA, True


def write_chi_csv(kappas, chis, path, meta_lines=()) -> None:
    write_rows(path, meta_lines, "kappa,chi", np.asarray(kappas, dtype=float), chis)
