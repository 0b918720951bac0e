import math
import re
import tracemalloc

import levyspec.calibration
import levyspec.risk

import numpy as np
import pytest
from scipy.integrate import quad

from levyspec import (FALLBACK_KAPPA, ExperimentConfig, KappaGrid, LevyTriplet,
                      NoStabilizationError, QuadratureError, SeedSpec, StableJumpDensity,
                      UGrid, increment_stable_law,
                      adaptive_risk_bound_check, cauchy_triplet,
                      cutoff_risk_bound_check, default_u_grid, default_u_max,
                      derive_seed, ecf, plancherel_l2, reference_cf,
                      reference_l2_norm, reference_tail_integral, relative_l2_risk,
                      relative_risk_of_cf, RiskReport, risk_table, risk_table_csv,
                      sample_increments, select_kappa, threshold_cf)

CAUCHY = cauchy_triplet()
MIXED = LevyTriplet(0.0, 0.5, StableJumpDensity(1.0, 0.5, 1.3))
GAUSS = LevyTriplet(0.0, 2.0, None)


# ---------------------------------------------------------------------------
# reference quantities

def test_reference_cf_cauchy():
    g = UGrid.make(10.0, 0.1)
    np.testing.assert_allclose(reference_cf(CAUCHY, 0.5, g),
                               np.exp(-0.5 * np.abs(g.points)), rtol=1e-12)


def test_reference_cf_gaussian():
    g = UGrid.make(10.0, 0.1)
    np.testing.assert_allclose(reference_cf(GAUSS, 0.5, g),
                               np.exp(-0.5 * 2.0 * g.points ** 2 / 2.0), rtol=1e-12)


def test_reference_cf_factorizes():
    g = UGrid.make(10.0, 0.1)
    pure_j = LevyTriplet(0.0, 0.0, MIXED.jumps)
    pure_g = LevyTriplet(0.0, MIXED.sigma2, None)
    np.testing.assert_allclose(
        reference_cf(MIXED, 0.7, g),
        reference_cf(pure_j, 0.7, g) * reference_cf(pure_g, 0.7, g), rtol=1e-12)


@pytest.mark.parametrize("model", [CAUCHY, MIXED, GAUSS])
def test_tail_integral_against_quadrature(model):
    # oracle: direct quadrature of |phi|^2 / pi beyond u_max
    from levyspec import levy_khintchine_cf

    def mod2(u):
        return abs(levy_khintchine_cf(model, 1.0, float(u))) ** 2
    for umax in (2.0, 5.0):
        want, _ = quad(lambda u: mod2(u) / math.pi, umax, np.inf, epsrel=1e-10)
        assert reference_tail_integral(model, 1.0, umax) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("model", [CAUCHY, MIXED, GAUSS])
def test_l2_norm_equals_full_tail(model):
    # ||f||^2 = (1/pi) int_0^inf |phi|^2, i.e. the tail integral from 0+
    assert reference_l2_norm(model, 0.8) == pytest.approx(
        reference_tail_integral(model, 0.8, 1e-12), rel=1e-9)


def test_cauchy_l2_norm_closed_form():
    assert reference_l2_norm(CAUCHY, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


@pytest.mark.parametrize("u_max", [-1.0, -1e-300, math.nan, -math.inf])
@pytest.mark.parametrize("model", [CAUCHY, MIXED, GAUSS], ids=["stable", "mixed", "gaussian"])
def test_tail_integral_rejects_u_max_below_zero_or_nan(model, u_max):
    # each law used to answer differently: 2||f||^2, a complex-power TypeError,
    # the incomplete gamma's "x must be nonnegative", or nan
    with pytest.raises(ValueError, match=re.escape(f"u_max must be finite and nonnegative, got {u_max!r}")):
        reference_tail_integral(model, 1.0, u_max)


@pytest.mark.parametrize("model, delta_t, named", [
    (CAUCHY, 5e-324, "is not finite at delta_t=5e-324, alpha=1.0"),
    (CAUCHY, 1e-310, "is not finite at delta_t=1e-310, alpha=1.0"),
    (LevyTriplet(0.0, 0.0, StableJumpDensity(1.0, 1.0, 0.7)), 1e-218,
     "is not finite at delta_t=1e-218, alpha=0.7"),
    (LevyTriplet(0.0, 1e-300, None), 1e-300,
     "the increment's variance sigma2 * delta_t must be finite and positive, got 0.0")],
    ids=["cauchy-5e-324", "cauchy-1e-310", "stable-0.7", "gaussian-variance-0"])
def test_a_reference_norm_that_is_not_finite_is_refused(model, delta_t, named):
    # the risk would be divided by an infinite or undefined ||f||^2 and read nan
    with pytest.raises(ValueError, match=re.escape(named)):
        reference_l2_norm(model, delta_t)


@pytest.mark.parametrize("m", [0.0, 0.5, 5.0])
@pytest.mark.parametrize("delta_t", [1.0, 1e10])
@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("P, Q", [(1.0, 1.0), (13.0, 6.5)])
def test_a_negligible_gaussian_part_leaves_the_pure_jump_tail(P, Q, alpha, delta_t, m):
    # quad missed a law narrower than its nodes: ||f||^2 was 0 at alpha 1.5, delta_t 1e10,
    # and 1.9e6 times too small at alpha 0.3, P 13, Q 6.5, delta_t 1
    jumps = StableJumpDensity(P, Q, alpha)
    want = reference_tail_integral(LevyTriplet(0.0, 0.0, jumps), delta_t, m)  # closed form
    got = reference_tail_integral(LevyTriplet(0.0, 1e-12, jumps), delta_t, m)
    law = increment_stable_law(jumps, delta_t)
    width = (2.0 * law.gamma ** alpha) ** (-1.0 / alpha)
    if 1e-12 * delta_t * max(width, m) ** 2 < 1e-10:  # exp(-a u^2) is 1 where the mass is
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)
    else:
        assert 0.0 <= got <= want


@pytest.mark.parametrize("sigma2", [1e-12, 1e-6, 1e-2])
def test_the_mixed_norm_of_a_narrow_law_is_its_jump_part(sigma2):
    jumps = StableJumpDensity(13.0, 6.5, 0.3)
    assert reference_l2_norm(LevyTriplet(0.0, sigma2, jumps), 1.0) == pytest.approx(
        reference_l2_norm(LevyTriplet(0.0, 0.0, jumps), 1.0), rel=1e-9)
    assert reference_l2_norm(LevyTriplet(0.0, 0.0, jumps), 1.0) == pytest.approx(1.6309e-7,
                                                                               rel=1e-4)


def test_the_mixed_norm_of_a_wide_law_is_its_gaussian_part():
    # at delta_t 1e-300 the jump part is negligible: the norm read -0.318 with a warning
    model = LevyTriplet(0.0, 1.0, StableJumpDensity(1.0, 1.0, 1.5))
    assert reference_l2_norm(model, 1e-300) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi * 1e-300)), rel=1e-9)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 1.9, 1.99])
@pytest.mark.parametrize("delta_t", [1e-300, 1e-100, 1.0, 1e10, 1e100])
@pytest.mark.parametrize("sigma2", [1e-300, 1e-12, 1.0, 1e10])
def test_a_mixed_tail_is_finite_or_refused_by_delta_t_and_alpha(alpha, delta_t, sigma2):
    model = LevyTriplet(0.0, sigma2, StableJumpDensity(1.0, 1.0, alpha))
    for m in (0.0, 0.5, 5.0, 1e3, 1e100):
        try:
            tail = reference_tail_integral(model, delta_t, m)
        except (ValueError, ArithmeticError) as exc:
            if "sigma2 * delta_t" in str(exc) or "gamma = (delta_t C)" in str(exc):
                return  # the law itself is refused, by the checks of _increment_parts
            assert f"delta_t={delta_t!r}, alpha={alpha!r}" in str(exc)
            assert "\n" not in str(exc)
        else:
            assert math.isfinite(tail) and tail >= 0.0


def test_an_unconverged_mixed_tail_is_refused_by_delta_t_and_alpha(monkeypatch):
    # the error estimate is checked: one that misses the tolerance is a QuadratureError
    import scipy.integrate
    monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kwargs: (1.0, 0.5, {}))
    with pytest.raises(QuadratureError, match=r"error estimate .* at delta_t=1\.0, alpha=1\.5$"):
        reference_l2_norm(LevyTriplet(0.0, 1.0, StableJumpDensity(1.0, 1.0, 1.5)), 1.0)


@pytest.mark.parametrize("check", [cutoff_risk_bound_check, adaptive_risk_bound_check])
def test_a_bound_check_whose_reference_tail_overflows_is_refused_before_any_trial(
        check, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(levyspec.risk, "sample_increments", no_trials)
    with pytest.raises(ValueError, match="is not finite at delta_t=5e-324"):
        check(5e-324, 50, trials=2, master_seed=1)


# ---------------------------------------------------------------------------
# risk of forced estimators

def test_risk_zero_for_perfect_cf():
    g = UGrid.make(10.0, 0.05)
    phi = reference_cf(CAUCHY, 1.0, g)
    # the residual is the mass beyond u_max, tiny here
    with_tail = relative_risk_of_cf(phi, CAUCHY, 1.0, g)
    assert with_tail == (reference_tail_integral(CAUCHY, 1.0, g.u_max)
                         / reference_l2_norm(CAUCHY, 1.0))
    assert 0.0 < with_tail < 1e-8


def test_risk_one_for_zero_estimator():
    g = UGrid.make(40.0, 0.01)
    zero = np.zeros(len(g.points), dtype=complex)
    assert relative_risk_of_cf(zero, CAUCHY, 1.0, g) == pytest.approx(1.0, rel=1e-3)


# ---------------------------------------------------------------------------
# monte carlo harness

def test_relative_risk_single_trial_sd_zero():
    cfg = ExperimentConfig(CAUCHY, 1.0, (500,), trials=1, master_seed=5)
    rep = relative_l2_risk(cfg)[0]
    assert rep.sd_relative_risk == 0.0
    assert rep.sd_kappa == 0.0
    assert rep.trials == 1


def test_relative_risk_reproducible():
    cfg = ExperimentConfig(CAUCHY, 1.0, (300, 600), trials=6, master_seed=77)
    a = relative_l2_risk(cfg)
    b = relative_l2_risk(cfg)
    assert a == b


@pytest.mark.parametrize("kappa_mode", ["auto", 0.8])
def test_relative_risk_equals_per_trial_pipeline(kappa_mode):
    # each cell rebuilt by hand, one public call per trial step, must match
    # the cell loop (reference quantities shared across trials) bit for bit
    cfg = ExperimentConfig(CAUCHY, 1.0, (300, 600), trials=6, kappa_mode=kappa_mode,
                           master_seed=77)
    reports = relative_l2_risk(cfg)
    for idx, (n, rep) in enumerate(zip(cfg.n_list, reports)):
        grid = default_u_grid(cfg.delta_t, n, cfg.u_max, cfg.u_step)
        risks, kappas, fallbacks = [], [], 0
        for tr in range(cfg.trials):
            sample = sample_increments(CAUCHY, 1.0, n, SeedSpec(derive_seed(77, idx), tr))
            phi_hat = ecf(sample, grid)
            kappa = kappa_mode
            if kappa_mode == "auto":
                try:
                    kappa = select_kappa(phi_hat, KappaGrid())
                except NoStabilizationError:
                    kappa = FALLBACK_KAPPA
                    fallbacks += 1
            phi_tilde = threshold_cf(phi_hat, kappa)
            risks.append(relative_risk_of_cf(phi_tilde.values, CAUCHY, 1.0, grid))
            kappas.append(kappa)
        assert rep.mean_relative_risk == float(np.mean(risks))
        assert rep.sd_relative_risk == float(np.std(risks, ddof=1))
        assert rep.fallback_count == fallbacks
        if kappa_mode == "auto":
            assert rep.mean_kappa == float(np.mean(kappas))
            assert rep.sd_kappa == float(np.std(kappas, ddof=1))
        else:
            assert kappas == [kappa_mode] * cfg.trials
            assert (rep.mean_kappa, rep.sd_kappa) == (kappa_mode, 0.0)


def test_relative_risk_decreases_with_n():
    cfg = ExperimentConfig(CAUCHY, 1.0, (500, 5000), trials=10, master_seed=31)
    reps = relative_l2_risk(cfg)
    assert reps[0].mean_relative_risk > reps[1].mean_relative_risk


def test_fixed_kappa_mode():
    cfg = ExperimentConfig(CAUCHY, 1.0, (400,), trials=3, kappa_mode=0.8, master_seed=3)
    rep = relative_l2_risk(cfg)[0]
    assert rep.mean_kappa == 0.8
    assert rep.sd_kappa == 0.0
    assert rep.fallback_count == 0


def test_thresholded_estimator_beats_one_percent_at_conservative_kappa():
    # at kappa = 2 sqrt(2) the risk is bias-dominated: the kept band only
    # reaches u0 with e^{-u0} ~ level, so n must be large for a 1e-2 risk
    cfg = ExperimentConfig(CAUCHY, 1.0, (20_000,), trials=10,
                           kappa_mode=2.0 * math.sqrt(2.0), master_seed=8)
    rep = relative_l2_risk(cfg)[0]
    assert rep.mean_relative_risk < 1e-2


# ---------------------------------------------------------------------------
# bound checks

def test_cutoff_risk_bound_smoke():
    rep = cutoff_risk_bound_check(1.0, 500, trials=25, master_seed=11)
    assert rep.passed
    assert len(rep.rows) == 10
    assert all(row["margin"] > 0 for row in rep.rows)


def test_cutoff_risk_bound_matches_per_m_trapezoid():
    # the weight-matrix MISE against a trapezoid over each band |u| <= m, kept by
    # a mask here: at step 0.05 the ten cutoffs keep 21, 53, ..., 321 points
    rep = cutoff_risk_bound_check(1.0, 400, trials=7, master_seed=4)
    grid = UGrid.make(8.0, 0.05)
    phi_ref = reference_cf(CAUCHY, 1.0, grid)
    diff2 = [np.abs(ecf(sample_increments(CAUCHY, 1.0, 400, SeedSpec(4, tr)), grid).values
                    - phi_ref) ** 2 for tr in range(7)]
    cutoffs = np.linspace(0.5, 8.0, 10).tolist()
    assert [row["m"] for row in rep.rows] == cutoffs
    kept = [np.abs(grid.points) <= m * (1 + 1e-12) for m in cutoffs]
    assert [np.count_nonzero(keep) for keep in kept] == [
        21, 53, 87, 121, 153, 187, 221, 253, 287, 321]
    for m, keep, row in zip(cutoffs, kept, rep.rows):
        mises = [np.trapezoid(d[keep], dx=grid.step) / (2.0 * math.pi)
                 + math.exp(-2.0 * m) / (2.0 * math.pi) for d in diff2]
        assert row["empirical"] == pytest.approx(float(np.mean(mises)), rel=1e-13)


def test_cutoff_risk_bound_memory_does_not_grow_with_the_trials():
    # each trial's |phi_hat - phi|^2 row, 2K + 1 = 321 floats here, folds into its
    # 10 band integrals as it arrives; keeping the rows would grow the peak by 0.82 MB
    def peak(trials):
        tracemalloc.start()
        try:
            cutoff_risk_bound_check(1.0, 500, trials=trials, master_seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    cutoff_risk_bound_check(1.0, 500, trials=2, master_seed=3)  # fills the caches
    assert peak(400) - peak(50) < 100_000


def test_adaptive_risk_bound_smoke():
    rep = adaptive_risk_bound_check(1.0, 500, trials=25, master_seed=13)
    assert rep.passed
    # over-thresholding still bounded: the right side grows with kappa
    rep10 = adaptive_risk_bound_check(1.0, 500, kappa=10.0, trials=10, master_seed=13)
    assert rep10.passed


@pytest.mark.parametrize("kappa", [1.4e154, 1e300, 1.7e308])
def test_adaptive_risk_bound_names_a_kappa_whose_bound_overflows(kappa):
    with pytest.raises(ValueError, match=re.escape(f"kappa={kappa!r} is too large")):
        adaptive_risk_bound_check(1.0, 50, kappa=kappa, trials=2, master_seed=1)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, -1.0])
def test_adaptive_risk_bound_rejects_non_finite_or_negative_kappa(kappa):
    with pytest.raises(ValueError, match="kappa must be finite and nonnegative"):
        adaptive_risk_bound_check(1.0, 50, kappa=kappa, trials=2, master_seed=1)


@pytest.mark.parametrize("kappa", [math.nan, -1.0, 1e300])
def test_adaptive_risk_bound_rejects_a_bad_kappa_before_any_trial(kappa, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(levyspec.risk, "_thresholded_errors", no_trials)
    with pytest.raises(ValueError, match="kappa"):
        adaptive_risk_bound_check(1.0, 50, kappa=kappa, trials=10**6, master_seed=1)


@pytest.mark.parametrize("kappa", [0.5, 2.0])
def test_adaptive_risk_bound_matches_per_trial_pipeline(kappa):
    # each trial rebuilt by hand, one public call per step, and the bound with
    # the Cauchy bias e^{-2m}/(2 pi) written out
    n, trials = 400, 7
    rep = adaptive_risk_bound_check(1.0, n, kappa=kappa, trials=trials, master_seed=4)
    grid = UGrid.make(default_u_max(1.0))
    phi_ref = reference_cf(CAUCHY, 1.0, grid)
    tail = reference_tail_integral(CAUCHY, 1.0, grid.u_max)
    errors = []
    for tr in range(trials):
        phi_hat = ecf(sample_increments(CAUCHY, 1.0, n, SeedSpec(4, tr)), grid)
        phi_tilde = threshold_cf(phi_hat, kappa)
        errors.append(plancherel_l2(phi_tilde.values, phi_ref, grid=grid) + tail)
    factor = 5.0 + (1.0 + (kappa + 2.0) * math.sqrt(math.log(n))) ** 2
    bound = min(9.0 * math.exp(-2.0 * m) / (2.0 * math.pi) + m / (math.pi * n) * factor
                for m in np.linspace(grid.u_max / 20.0, grid.u_max, 20))
    bound += 64.0 * n ** (1.0 - kappa ** 2 / 4.0)
    (row,) = rep.rows
    emp, se = float(np.mean(errors)), float(np.std(errors, ddof=1)) / math.sqrt(trials)
    assert row["empirical"] == pytest.approx(emp, rel=1e-13)
    assert row["se"] == pytest.approx(se, rel=1e-13)
    assert row["bound"] == pytest.approx(bound, rel=1e-13)
    assert row["margin"] == pytest.approx(bound + 3.0 * se - emp, rel=1e-12)
    assert rep.passed == row["ok"] == (emp <= bound + 3.0 * se)


def test_adaptive_risk_bound_evaluates_the_estimator_cut_to_minus_n_n():
    # at dt = 0.1 the default domain is |u| <= 100, so n = 50 cuts it, as the sweep
    # and adaptive_estimate do; the uncut grid gives a different mean error
    kappa, trials, seed = 0.5, 30, 8
    rep = adaptive_risk_bound_check(0.1, 50, kappa=kappa, trials=trials, master_seed=seed)
    cut, uncut = UGrid.make(100.0).restrict(50.0), UGrid.make(100.0)
    errors = {grid: float(np.mean(levyspec.risk._thresholded_errors(
        CAUCHY, 0.1, 50, grid, seed, trials, kappa)[0])) for grid in (cut, uncut)}
    assert errors[cut] != errors[uncut]
    assert rep.rows[0]["empirical"] == errors[cut]


# ---------------------------------------------------------------------------
# config and table serialization

def test_mixed_model_risk_end_to_end():
    # gaussian + stable jumps exercises the quadrature norm/tail paths
    cfg = ExperimentConfig(MIXED, 1.0, (1000,), trials=5, master_seed=44)
    rep = relative_l2_risk(cfg)[0]
    assert rep.label == "gaussian+stable"
    assert 0.0 < rep.mean_relative_risk < 0.2
    assert rep.alpha == 1.3


def test_gaussian_model_risk_and_null_jumps_config():
    cfg = ExperimentConfig(GAUSS, 1.0, (1000,), trials=5, master_seed=45)
    back = ExperimentConfig.from_dict(
        {"model": {"b": 0.0, "sigma2": 2.0, "jumps": None}, "delta_t": 1.0,
         "n_list": [1000], "trials": 5, "master_seed": 45})
    assert back == cfg
    assert back.model.jumps is None
    rep = relative_l2_risk(back)[0]
    assert rep.label == "gaussian"
    assert rep.alpha is None
    assert 0.0 < rep.mean_relative_risk < 0.2


def test_config_json_roundtrip():
    cfg = ExperimentConfig(MIXED, 0.1, (500, 1000), trials=7, u_max=50.0,
                           kappa_mode="auto", master_seed=12, label="mix")
    doc = {"model": {"b": 0.0, "sigma2": 0.5, "jumps": {"P": 1.0, "Q": 0.5, "alpha": 1.3}},
           "delta_t": 0.1, "n_list": [500, 1000], "trials": 7, "u_max": 50.0, "u_step": None,
           "kappa_mode": "auto", "master_seed": 12, "label": "mix"}
    assert ExperimentConfig.from_dict(doc) == cfg


def test_config_reads_an_integral_float_as_an_integer():
    # JSON writers may emit 3.0 for 3; an integer key takes it as the int 3
    cfg = ExperimentConfig.from_dict({"model": {"sigma2": 1.0}, "delta_t": 1.0,
                                      "n_list": [50.0], "trials": 3.0, "master_seed": 7.0})
    assert cfg == ExperimentConfig(LevyTriplet(0.0, 1.0), 1.0, (50,), trials=3, master_seed=7)
    assert [type(v) for v in (cfg.n_list[0], cfg.trials, cfg.master_seed)] == [int] * 3


@pytest.mark.parametrize("edit,key", [
    (lambda d: d.update(trails=5), "'trails'"),
    (lambda d: d.update(model={"sigma": 2.0}), "'sigma'"),
    (lambda d: d["model"]["jumps"].update(beta=0.5), "'beta'"),
    (lambda d: d.pop("model"), "missing config key(s): 'model'"),
    (lambda d: d.update(model=5), "model must be a JSON object"),
    (lambda d: d.update(n_list=[0]), "n_list[0] must be at least 1, got 0"),
    (lambda d: d.update(n_list=[500, -5]), "n_list[1] must be at least 1, got -5"),
], ids=["config-trails", "model-sigma", "jumps-beta", "missing-model", "model-not-object",
        "n_list-0", "n_list--5"])
def test_config_rejects_unknown_and_missing_keys(edit, key):
    doc = {"model": {"b": 0.0, "sigma2": 0.5, "jumps": {"P": 1.0, "Q": 0.5, "alpha": 1.3}},
           "delta_t": 0.1, "n_list": [500], "trials": 7}
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(key)):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("kappa", [0, 0.0, 0.8, 3])
def test_config_accepts_any_finite_kappa_mode_from_zero(kappa):
    assert ExperimentConfig(CAUCHY, 1.0, (10,), kappa_mode=kappa).kappa_mode == kappa
    doc = {"model": {"jumps": {"P": 1 / math.pi, "Q": 1 / math.pi, "alpha": 1.0}},
           "delta_t": 1.0, "n_list": [10], "kappa_mode": kappa}
    assert ExperimentConfig.from_dict(doc).kappa_mode == kappa


@pytest.mark.parametrize("kappa", [-1.0, -1e-300, math.nan, math.inf, "bogus", "0.5", None])
def test_config_rejects_kappa_mode_other_than_auto_or_finite_nonnegative(kappa):
    with pytest.raises(ValueError,
                       match="kappa_mode other than 'auto' must be finite and nonnegative"):
        ExperimentConfig(CAUCHY, 1.0, (10,), kappa_mode=kappa)


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "CR", "LF"])
def test_config_rejects_a_label_that_would_break_the_csv_row(char):
    with pytest.raises(ValueError, match="label"):
        ExperimentConfig(CAUCHY, 1.0, (10,), label=f"a{char}b")


def test_calibrate_is_called_through_the_module_once_per_auto_trial(monkeypatch):
    # perfbench's tracer wraps levyspec.calibration.select_kappa and counts the
    # NoStabilizationErrors it raises, so every calibration must go through it
    calls = []
    real = levyspec.calibration.select_kappa

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(levyspec.calibration, "select_kappa", counted)
    relative_l2_risk(ExperimentConfig(CAUCHY, 1.0, (300,), trials=4, master_seed=6))
    assert len(calls) == 4
    relative_l2_risk(ExperimentConfig(CAUCHY, 1.0, (300,), trials=4, kappa_mode=0.8))
    assert len(calls) == 4


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(CAUCHY, 1.0, ())
    with pytest.raises(ValueError):
        ExperimentConfig(CAUCHY, 1.0, (10,), trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(CAUCHY, 1.0, (10,), kappa_mode="bogus")


@pytest.mark.parametrize("fields, named", [
    ({"u_step": 0.0}, "u_step 0.0"),
    ({"u_step": -0.1}, "u_step -0.1"),
    ({"u_max": -5.0}, "u_max -5.0"),
    ({"u_max": 0.0}, "u_max 0.0"),
    ({"u_step": 2.0}, "step 2 must be at most n"),  # the cut to [-1, 1] at n = 1
    # built, these failed only inside the first trial
    ({"delta_t": math.inf}, "delta_t must be finite and positive, got inf"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
], ids=["step-0", "step-negative", "umax-negative", "umax-0", "cut-empty", "delta_t-inf",
        "trials-2.5"])
def test_config_checks_each_cells_grid_when_built(fields, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        ExperimentConfig(**{"model": GAUSS, "delta_t": 1.0, "n_list": (50, 1), "trials": 2,
                            **fields})


def test_default_u_grid_is_the_default_domain_cut_to_minus_n_n():
    # the grid of relative_l2_risk, adaptive_risk_bound_check and the CLI
    for n, u_max in ((3, 3.0), (7, 7.0), (500, 10.0)):
        grid = default_u_grid(1.0, n)
        assert (grid.u_max, grid.step) == (u_max, 0.05)
        assert grid == UGrid.make(default_u_max(1.0)).restrict(float(n))
    assert default_u_grid(0.1, 50, step=0.5) == UGrid(50.0, 0.5)
    assert default_u_grid(0.1, 10 ** 4, u_max=20.0) == UGrid(20.0, 0.1)


def test_risk_table_csv_format():
    cfg = ExperimentConfig(CAUCHY, 1.0, (300,), trials=2, master_seed=9, label="cauchy")
    reports = risk_table([cfg])
    text = risk_table_csv(reports, ["run=unit"])
    lines = text.splitlines()
    assert lines[0] == "# run=unit"
    assert lines[1] == "model,alpha,delta,n,mean_risk,sd_risk,mean_kappa,sd_kappa,trials,seed"
    cells = lines[2].split(",")
    assert cells[0] == "cauchy"
    assert float(cells[1]) == 1.0
    assert int(cells[3]) == 300
    assert int(cells[8]) == 2


def test_risk_report_rejects_a_label_that_would_break_the_csv():
    # a report built in code, not through ExperimentConfig, meets the same check
    with pytest.raises(ValueError, match="label must not contain a comma, a quote, CR or LF"):
        risk_table_csv([RiskReport('a,b', 1.0, 1.0, 300, 2, 0.1, 0.0, 1.0, 0.0, 0, 5)])
