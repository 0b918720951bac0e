"""Monte-Carlo evaluation of the estimators against exact reference laws.

The squared L2 distance between the thresholded estimator and the truth is
computed in the frequency domain,

    ||f_tilde - f||^2 = (1/2pi) int_{|u|<=umax} |phi_tilde - phi|^2 du
                        + (1/pi) int_{umax}^inf |phi|^2 du,

with the tail term from the one spectral tail integral of the models module,
in closed form for a Gaussian or a pure stable law.  That tail,
(1/pi) int_m^inf |phi|^2, is also the bias^2 of a cutoff at m in the bound
checks and, at m = 0, the norm ||f||^2: all three come from
:func:`reference_tail_integral`.  Dividing by ||f||^2
gives the relative risk that the benchmark tables report.  Everything is
deterministic given the master seed; trials are keyed by trial index so any
execution order gives identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

from .calibration import FALLBACK_KAPPA, calibrate
from .errors import UnsupportedModelError
from .estimator import (UGrid, _check_ecf_above_rounding, default_u_grid, ecf, plancherel_l2,
                        threshold_cf, threshold_level, trapezoid_weights)
from .models import (LevyTriplet, StableJumpDensity, StableLaw, _spectral_tail,
                     cauchy_triplet, increment_stable_law, levy_khintchine_cf)
from .sampling import SeedSpec, derive_seed, sample_increments

__all__ = ["ExperimentConfig", "RiskReport", "BoundCheckReport", "reference_cf",
           "reference_tail_integral", "reference_l2_norm", "relative_l2_risk",
           "relative_risk_of_cf", "cutoff_risk_bound_check",
           "adaptive_risk_bound_check", "risk_table", "risk_table_csv"]

_MARGIN_SE = 3.0  # a bound check passes while empirical <= bound + 3 standard errors


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark experiment: a model crossed with sample sizes."""

    model: LevyTriplet
    delta_t: float
    n_list: tuple
    trials: int = 100
    u_max: float | None = None
    u_step: float | None = None
    kappa_mode: float | str = "auto"
    master_seed: int = 20406080
    label: str = ""

    def __post_init__(self):
        _check_trials(self.trials)
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        if min(self.n_list) < 1:
            raise ValueError(f"n_list entries must be at least 1, got {list(self.n_list)}")
        kappa = self.kappa_mode
        if not (kappa == "auto" or isinstance(kappa, Real) and math.isfinite(kappa) and kappa >= 0):
            raise ValueError(f"kappa_mode is 'auto' or a finite number >= 0, got {kappa!r}")
        if not self.delta_t > 0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t!r}")
        try:  # every cell's grid, before any trial runs
            for n in self.n_list:
                default_u_grid(self.delta_t, n, self.u_max, self.u_step)
        except ValueError as exc:
            raise ValueError(f"u_max {self.u_max!r}, u_step {self.u_step!r}: {exc}") from None
        SeedSpec(self.master_seed)  # the master-seed range, [0, 2^64)
        _check_label(self.label)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Parse a config object; an absent optional key takes the field's default."""
        return cls(**_parse_object(d, "config", _CONFIG_FIELDS, {"model", "delta_t", "n_list"}))


def _parse_object(d: dict, where: str, converters: dict, required: set = frozenset()) -> dict:
    """Each value of a config object through its key's converter; an unknown,
    missing or wrongly typed key is a ValueError naming it."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    for problem, keys in (("unknown", set(d) - set(converters)), ("missing", required - set(d))):
        if keys:
            raise ValueError(f"{problem} {where} key(s): {', '.join(map(repr, sorted(keys)))}")
    parsed = {}
    for key, value in d.items():
        try:
            parsed[key] = converters[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{where} key {key!r}: {exc}") from None
    return parsed


def _int(value) -> int:
    """An int, or a float with an integral value; booleans and fractions are errors."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _float(value) -> float:
    """An int or float with a finite value; booleans and strings are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _str(value) -> str:
    if isinstance(value, str):
        return value
    raise ValueError(f"expected a string, got {value!r}")


def _int_list(values) -> tuple:
    if not isinstance(values, list):
        raise TypeError(f"expected a list of integers, got {values!r}")
    return tuple(_int(n) for n in values)


def _parse_jumps(jumps) -> StableJumpDensity | None:
    keys = {"P", "Q", "alpha"}
    return None if jumps is None else StableJumpDensity(
        **_parse_object(jumps, "jumps", dict.fromkeys(keys, _float), keys))


def _parse_model(model) -> LevyTriplet:
    m = _parse_object(model, "model", {"b": _float, "sigma2": _float, "jumps": _parse_jumps})
    return LevyTriplet(m.get("b", 0.0), m.get("sigma2", 0.0), m.get("jumps"))


_CONFIG_FIELDS = {
    "model": _parse_model, "delta_t": _float, "n_list": _int_list,
    "trials": _int, "u_max": lambda v: None if v is None else _float(v),
    "u_step": lambda v: None if v is None else _float(v),
    "kappa_mode": lambda v: v if v == "auto" else _float(v), "master_seed": _int, "label": _str}


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _check_label(label: str) -> None:
    """A label is written unquoted as the first cell of a risk-table row."""
    if any(c in label for c in ',"\r\n'):
        raise ValueError(f"label must not contain a comma, a quote, CR or LF, got {label!r}")


@dataclass(frozen=True)
class RiskReport:
    """Mean/sd of the relative L2 risk and of the selected kappa for one cell."""

    label: str
    alpha: float | None
    delta_t: float
    n: int
    trials: int
    mean_relative_risk: float
    sd_relative_risk: float
    mean_kappa: float
    sd_kappa: float
    fallback_count: int
    master_seed: int

    def __post_init__(self):
        _check_label(self.label)


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of an empirical risk-bound verification: the verdict and one row
    per checked point (cutoff m or kappa)."""

    passed: bool
    rows: tuple


# ---------------------------------------------------------------------------
# reference quantities

def _stable_part(model: LevyTriplet, delta_t: float) -> StableLaw | None:
    if model.jumps is None:
        return None
    if not isinstance(model.jumps, StableJumpDensity):
        raise UnsupportedModelError("reference laws need stable or empty jumps")
    return increment_stable_law(model.jumps, delta_t)


def reference_cf(model: LevyTriplet, delta_t: float, grid: UGrid) -> np.ndarray:
    """Exact CF of the increment on the grid: Gaussian factor times stable factor."""
    _stable_part(model, delta_t)  # rejects jump parts without a closed form
    return levy_khintchine_cf(model, delta_t, grid.points)


def reference_tail_integral(model: LevyTriplet, delta_t: float, u_max: float) -> float:
    """(1/pi) int_{u_max}^inf |phi(u)|^2 du, with |phi|^2 = exp(-dt sigma^2 u^2
    - 2 gamma^alpha u^alpha): the risk's tail beyond u_max, the bias^2 of a
    cutoff at u_max, ||f||^2 at 0."""
    if not u_max >= 0:
        raise ValueError(f"u_max must be >= 0, got {u_max!r}")
    law = _stable_part(model, delta_t)
    c, alpha = (0.0, 2.0) if law is None else (2.0 * law.gamma ** law.alpha, law.alpha)
    return _spectral_tail(delta_t * model.sigma2, c, alpha, u_max)


def reference_l2_norm(model: LevyTriplet, delta_t: float) -> float:
    """||f||^2 of the increment density, via Plancherel: the tail integral from 0."""
    return reference_tail_integral(model, delta_t, 0.0)


# ---------------------------------------------------------------------------
# risk of a single estimate

def relative_risk_of_cf(phi_est, model: LevyTriplet, delta_t: float, grid: UGrid) -> float:
    """Relative L2 risk of an estimator given by its CF values on the grid."""
    num = (plancherel_l2(phi_est, reference_cf(model, delta_t, grid), grid=grid)
           + reference_tail_integral(model, delta_t, grid.u_max))
    return num / reference_l2_norm(model, delta_t)


def _trial_ecfs(model: LevyTriplet, delta_t: float, n: int, grid: UGrid, seed: int, trials: int):
    """Each trial's ECF on the grid, keyed by (seed, trial index) and checked above rounding."""
    for tr in range(trials):
        sample = sample_increments(model, delta_t, n, SeedSpec(seed, tr))
        _check_ecf_above_rounding(sample.values, grid.u_max)
        yield ecf(sample, grid)


def _thresholded_errors(model: LevyTriplet, delta_t: float, n: int, grid: UGrid,
                        seed: int, trials: int, kappa: float | None):
    """(errors, kappas, fallbacks): each trial's squared L2 error as in
    :func:`relative_risk_of_cf` before dividing by ||f||^2; a kappa of None is
    calibrated per trial by :func:`calibrate`, falling back where chi never stabilizes."""
    phi_ref = reference_cf(model, delta_t, grid)
    tail = reference_tail_integral(model, delta_t, grid.u_max)
    errors, kappas, fallbacks = np.empty(trials), np.empty(trials), 0
    for tr, phi_hat in enumerate(_trial_ecfs(model, delta_t, n, grid, seed, trials)):
        if kappa is None:
            kappas[tr], fell_back = calibrate(phi_hat, fallback=True)
            fallbacks += fell_back
        else:
            kappas[tr] = kappa
        errors[tr] = plancherel_l2(threshold_cf(phi_hat, kappas[tr]).values, phi_ref,
                                   grid=grid) + tail
    return errors, kappas, fallbacks


def _sd(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def relative_l2_risk(config: ExperimentConfig) -> list[RiskReport]:
    """Run the Monte-Carlo benchmark; one report per sample size in n_list.

    The norm is computed once per config and the reference CF and tail once
    per cell; each trial's risk is the arithmetic of :func:`relative_risk_of_cf`.
    """
    kappa = None if config.kappa_mode == "auto" else float(config.kappa_mode)
    model, delta_t = config.model, config.delta_t
    alpha = model.jumps.alpha if isinstance(model.jumps, StableJumpDensity) else None
    norm = reference_l2_norm(model, delta_t)
    reports = []
    for idx, n in enumerate(config.n_list):
        errors, kappas, fallbacks = _thresholded_errors(
            model, delta_t, n, default_u_grid(delta_t, n, config.u_max, config.u_step),
            derive_seed(config.master_seed, idx), config.trials, kappa)
        risks = errors / norm
        if kappa is None:
            mean_kappa, sd_kappa = float(np.mean(kappas)), _sd(kappas)
        else:
            mean_kappa, sd_kappa = kappa, 0.0
        reports.append(RiskReport(
            label=config.label or _default_label(model),
            alpha=alpha, delta_t=delta_t, n=int(n), trials=config.trials,
            mean_relative_risk=float(np.mean(risks)), sd_relative_risk=_sd(risks),
            mean_kappa=mean_kappa, sd_kappa=sd_kappa,
            fallback_count=fallbacks, master_seed=config.master_seed))
    return reports


def _default_label(model: LevyTriplet) -> str:
    has_jumps = isinstance(model.jumps, StableJumpDensity)
    if has_jumps and model.sigma2 > 0:
        return "gaussian+stable"
    return "stable" if has_jumps else "gaussian"


# ---------------------------------------------------------------------------
# empirical verification of the risk bounds

def _bound_row(values: np.ndarray, bound: float, **at) -> dict:
    """The mean of values against bound, with its standard error, margin and verdict."""
    emp = float(np.mean(values))
    se = _sd(values) / math.sqrt(values.size)
    limit = bound + _MARGIN_SE * se
    return {**at, "empirical": emp, "bound": bound, "se": se, "margin": limit - emp,
            "ok": emp <= limit}


def cutoff_risk_bound_check(delta_t: float, n: int, m_grid=None, trials: int = 100,
                            master_seed: int = 20406080) -> BoundCheckReport:
    """Check E||f_hat_m - f||^2 <= bias^2(m) + m/(pi n) + 3 se on an m-grid.

    The empirical mean integrated squared error is computed per cutoff m over
    seeded trials of the Cauchy law (:func:`cauchy_triplet`); the bias^2(m) =
    (1/pi) int_m^inf |phi|^2 of both sides is the reference tail integral,
    e^{-2 delta_t m}/(2 pi delta_t).
    """
    _check_trials(trials)
    model = cauchy_triplet()
    if m_grid is None:
        m_grid = np.linspace(0.5, 8.0, 10)
    m_grid = np.asarray(m_grid, dtype=float)
    grid = UGrid.make(float(np.max(m_grid)))
    phi_ref = reference_cf(model, delta_t, grid)
    diff2 = np.array([np.abs(phi_hat.values - phi_ref) ** 2
                      for phi_hat in _trial_ecfs(model, delta_t, n, grid, master_seed, trials)])
    # one row of trapezoid weights per band |u| <= m, zero outside the band
    bands = np.abs(grid.points) <= m_grid[:, None] * (1 + 1e-12)
    weights = np.zeros(bands.shape)
    for row, band in zip(weights, bands):
        row[band] = trapezoid_weights(np.count_nonzero(band), grid.step)
    bias2 = [reference_tail_integral(model, delta_t, m) for m in m_grid.tolist()]
    mises = diff2 @ weights.T / (2.0 * math.pi) + bias2
    rows = tuple(_bound_row(mises[:, j], b2 + m / (math.pi * n), m=m)
                 for j, (m, b2) in enumerate(zip(m_grid.tolist(), bias2)))
    return BoundCheckReport(all(row["ok"] for row in rows), rows)


def adaptive_risk_bound_check(delta_t: float, n: int, kappa: float = FALLBACK_KAPPA,
                              trials: int = 100, master_seed: int = 20406080) -> BoundCheckReport:
    """Check the oracle inequality for the thresholded estimator at given kappa,
    on the Cauchy law (:func:`cauchy_triplet`).

    RHS: inf over a 20-point m-grid of 9 bias^2(m) + (m/pi n)(5 + (1 +
    (kappa+2) sqrt(log n))^2), plus the remainder 64 n^{1 - kappa^2/4}.
    """
    _check_trials(trials)
    threshold_level(kappa, n)  # a finite kappa >= 0, before any trial runs
    try:
        variance = 5.0 + (1.0 + (kappa + 2.0) * math.sqrt(math.log(n))) ** 2
        remainder = 64.0 * n ** (1.0 - kappa ** 2 / 4.0)
    except OverflowError:
        raise ValueError(f"kappa={kappa!r} is too large: the bound's (1 + (kappa + 2) "
                         f"sqrt(log n))^2 is not finite") from None
    model = cauchy_triplet()
    grid = default_u_grid(delta_t, n)
    errors, _, _ = _thresholded_errors(model, delta_t, n, grid, master_seed, trials, kappa)
    rhs = min(9.0 * reference_tail_integral(model, delta_t, m) + m / (math.pi * n) * variance
              for m in np.linspace(grid.u_max / 20.0, grid.u_max, 20).tolist())
    row = _bound_row(errors, rhs + remainder, kappa=kappa)
    return BoundCheckReport(row["ok"], (row,))


# ---------------------------------------------------------------------------
# tables

def risk_table(configs: Sequence[ExperimentConfig]) -> list[RiskReport]:
    reports = []
    for config in configs:
        reports.extend(relative_l2_risk(config))
    return reports


def risk_table_csv(reports: Sequence[RiskReport], meta_lines=()) -> str:
    lines = [f"# {line}" for line in meta_lines]
    lines.append("model,alpha,delta,n,mean_risk,sd_risk,mean_kappa,sd_kappa,trials,seed")
    for r in reports:
        alpha = "" if r.alpha is None else f"{r.alpha:.17g}"
        lines.append(
            f"{r.label},{alpha},{r.delta_t:.17g},{r.n},{r.mean_relative_risk:.17g},"
            f"{r.sd_relative_risk:.17g},{r.mean_kappa:.17g},{r.sd_kappa:.17g},"
            f"{r.trials},{r.master_seed}")
    return "\n".join(lines) + "\n"
