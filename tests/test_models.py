import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

import levyspec.models
from levyspec import (CustomJumpDensity, ECFGrid, ExperimentConfig, KappaGrid, LevyTriplet,
                      ModelClass, QuadratureError, SeedSpec, StableJumpDensity, StableLaw, UGrid,
                      adaptive_risk_bound_check, cauchy_triplet, check_small_jump_bound,
                      cutoff_risk_bound_check, default_u_grid, default_u_max, default_x_grid,
                      derive_seed, gamma_process_density, increment_stable_law,
                      levy_khintchine_cf, mixed_cutoff, optimal_cutoff, oscillating_density,
                      partition_density, picard_cf_bound, picard_derivative_bound,
                      reference_cf, reference_l2_norm, reference_tail_integral,
                      sample_increments, spectral_bias_bound, spectral_estimate, stable_cf,
                      stable_density_l2_norm, stable_sample, threshold_level,
                      trapezoid_weights, truncated_moment_ratio, truncated_second_moment)

U_GRID = np.array([-7.3, -2.0, -0.9, -0.31, 0.4, 1.0, 2.6, 5.5])

SKEWED_07 = LevyTriplet(0.0, 0.0, StableJumpDensity(2.0, 1.0, 0.7))
SKEWED_17 = LevyTriplet(0.0, 0.0, StableJumpDensity(2.0, 1.0, 1.7))
SKEWED_1 = LevyTriplet(0.0, 0.0, StableJumpDensity(2.0, 1.0, 1.0))
MIXED = LevyTriplet(0.3, 0.8, StableJumpDensity(1.5, 0.5, 1.2))
GAUSS = LevyTriplet(0.0, 2.0, None)

ALL_TRIPLETS = [SKEWED_07, SKEWED_17, SKEWED_1, MIXED, GAUSS, cauchy_triplet()]


# ---------------------------------------------------------------------------
# type invariants

def test_type_validation():
    with pytest.raises(ValueError):
        StableJumpDensity(0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        StableJumpDensity(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        LevyTriplet(0.0, -1.0, None)
    with pytest.raises(ValueError):
        LevyTriplet(0.0, 0.0, None)  # no density computation path
    with pytest.raises(ValueError):
        StableLaw(1.0, -1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        StableLaw(1.0, 1.0, 1.5, 0.0)
    with pytest.raises(ValueError):
        ModelClass.pure_jump(-1.0, 0.5)
    with pytest.raises(ValueError):
        ModelClass("gaussian", M=1.0)


def test_custom_density_rejects_negative_evaluator():
    with pytest.raises(ValueError):
        CustomJumpDensity(lambda x: -1.0)


def _two_sided_power_law(x: float) -> float:
    # 2 x^-1.5 on the right, |x|^-1.5 on the left: int min(x^2, 1) p(x) dx = 8
    return (2.0 if x > 0 else 1.0) * abs(x) ** -1.5 if x else 0.0


@pytest.mark.parametrize("evaluator, mass", [
    # int_0^1 x e^-x dx + E_1(1) = 1 - 2/e + 0.21938393439552...
    (gamma_process_density().evaluator, 1.0 - 2.0 / math.e + 0.21938393439552029),
    (_two_sided_power_law, 8.0)], ids=["gamma", "power-law"])
def test_custom_density_accepts_a_valid_density_and_evaluates_arrays_pointwise(
        evaluator, mass):
    d = CustomJumpDensity(evaluator)  # the checked path: the probes and the Levy mass
    assert levyspec.models._levy_mass(d) == pytest.approx(mass, rel=1e-6)
    x = np.array([[0.37, -0.61, 1.9], [-2.4, 0.013, 5.0]])
    got = d(x)
    assert got.shape == x.shape
    assert got.tolist() == [[d(v) for v in row] for row in x.tolist()]
    assert d(0.37) == evaluator(0.37)


def _divergent_density(x: float) -> float:
    # int_0^1 x^2 |x|^-3.5 dx diverges at 0; QUADPACK returns a finite, negative value
    return abs(x) ** -3.5 if x else 0.0


def test_a_divergent_integral_raises_instead_of_returning_a_number():
    with pytest.raises(ValueError, match=r"int min\(x\^2, 1\) p\(x\) dx is not finite"):
        CustomJumpDensity(_divergent_density)
    d = CustomJumpDensity(_divergent_density, check=False)
    with pytest.raises(QuadratureError, match=r"second moment: integral probably divergent on "
                                              r"\(0\.0, 0\.5\)"):
        truncated_second_moment(d, 0.5)
    with pytest.raises(QuadratureError, match="probably divergent"):
        check_small_jump_bound(d, 1.0, 1.0)


@pytest.mark.parametrize("make, field", [
    (lambda: LevyTriplet(0.0, math.nan), "sigma2"),
    (lambda: LevyTriplet(math.nan, 1.0), "b"),
    (lambda: LevyTriplet(-math.inf, 1.0), "b"),
    (lambda: StableJumpDensity(math.inf, 1.0, 1.0), "P"),
    (lambda: StableJumpDensity(1.0, math.inf, 1.0), "Q"),
    (lambda: StableLaw(1.0, math.inf, 0.0, 0.0), "gamma"),
    (lambda: StableLaw(1.0, 1.0, 0.0, math.nan), "delta"),
    (lambda: KappaGrid(math.nan), "delta_step"),
    (lambda: KappaGrid(math.inf), "delta_step"),
    # the norm of a triplet with a nan variance was a silent nan
    (lambda: reference_l2_norm(LevyTriplet(0.0, math.nan), 1.0), "sigma2"),
], ids=["triplet-sigma2-nan", "triplet-b-nan", "triplet-b-inf", "jumps-P-inf",
        "jumps-Q-inf", "law-gamma-inf", "law-delta-nan", "kappa-grid-nan", "kappa-grid-inf",
        "norm-of-nan-sigma2"])
def test_value_objects_reject_non_finite_fields(make, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make()


# ---------------------------------------------------------------------------
# Levy-Khintchine characteristic function

def test_cf_at_zero_is_one():
    for trip in ALL_TRIPLETS:
        assert levy_khintchine_cf(trip, 0.7, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_pure_gaussian_cf():
    got = levy_khintchine_cf(GAUSS, 0.5, U_GRID)
    np.testing.assert_allclose(got, np.exp(-0.5 * 2.0 * U_GRID ** 2 / 2.0), rtol=1e-14)


def test_cauchy_cf_closed_form():
    for t in (0.1, 1.0):
        got = levy_khintchine_cf(cauchy_triplet(), t, U_GRID)
        np.testing.assert_allclose(got, np.exp(-t * np.abs(U_GRID)), rtol=1e-12)


def test_cauchy_cf_against_density_fourier_transform():
    # oracle: Fourier transform of dt/(pi (x^2 + dt^2)) by Fourier-weighted quadrature
    dt = 0.1
    for u in (0.4, 1.7, 6.0):
        val, _ = quad(lambda x: dt / (math.pi * (x * x + dt * dt)),
                      0.0, np.inf, weight="cos", wvar=u)
        assert levy_khintchine_cf(cauchy_triplet(), dt, u) == pytest.approx(
            2.0 * val, abs=1e-8)


def test_conjugate_symmetry_and_modulus():
    for trip in ALL_TRIPLETS:
        plus = levy_khintchine_cf(trip, 0.7, U_GRID)
        minus = levy_khintchine_cf(trip, 0.7, -U_GRID)
        np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-13)
        assert np.all(np.abs(plus) <= 1.0 + 1e-13)


def test_semigroup_property():
    for trip in ALL_TRIPLETS:
        t1, t2 = 0.4, 1.3
        lhs = levy_khintchine_cf(trip, t1 + t2, U_GRID)
        rhs = levy_khintchine_cf(trip, t1, U_GRID) * levy_khintchine_cf(trip, t2, U_GRID)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_custom_quadrature_matches_stable_closed_form():
    for trip in (SKEWED_07, SKEWED_17, SKEWED_1):
        sj = trip.jumps
        custom = CustomJumpDensity(lambda x, sj=sj: float(sj(x)), check=False)
        got = levy_khintchine_cf(LevyTriplet(0.0, 0.0, custom), 1.0, U_GRID)
        want = levy_khintchine_cf(trip, 1.0, U_GRID)
        np.testing.assert_allclose(got, want, atol=1e-8)


@pytest.mark.xfail(strict=True, raises=QuadratureError, reason=(
    "the jump exponent's quadrature error estimate over oscillating_density stays above "
    "its tolerance at every frequency tried, so this example density has no CF"))
def test_oscillating_density_has_a_characteristic_function():
    trip = LevyTriplet(0.2, 0.3, oscillating_density())
    phi = levy_khintchine_cf(trip, 1.0, 0.4)
    assert abs(phi) <= 1.0
    assert levy_khintchine_cf(trip, 1.0, -0.4) == pytest.approx(np.conj(phi), rel=1e-12)


def test_gamma_process_cf_closed_form():
    # int_0^inf (e^{iux}-1) e^{-x}/x dx = -log(1-iu); truncation adds a drift
    trip = LevyTriplet(0.0, 0.0, gamma_process_density())
    u = np.array([0.3, 1.0, 4.0])
    for t in (0.5, 2.0):
        want = np.exp(t * (-np.log(1 - 1j * u) - 1j * u * (1.0 - math.exp(-1.0))))
        np.testing.assert_allclose(levy_khintchine_cf(trip, t, u), want, atol=1e-9)


# ---------------------------------------------------------------------------
# stable law of an increment

def test_increment_stable_law_cauchy():
    for dt in (0.1, 1.0, 2.5):
        law = increment_stable_law(cauchy_triplet().jumps, dt)
        assert law.alpha == 1.0
        assert law.gamma == pytest.approx(dt, rel=1e-14)
        assert law.beta == 0.0
        assert law.delta == 0.0
        np.testing.assert_allclose(stable_cf(law, U_GRID),
                                   np.exp(-dt * np.abs(U_GRID)), rtol=1e-13)


def test_increment_stable_law_symmetric_has_zero_skew():
    for alpha in (0.4, 1.3, 1.9):
        law = increment_stable_law(StableJumpDensity(0.8, 0.8, alpha), 0.7)
        assert law.beta == 0.0
        assert law.delta == pytest.approx(0.0, abs=1e-15)


def test_increment_stable_law_skewed_values():
    law = increment_stable_law(StableJumpDensity(2.0, 1.0, 0.7), 1.0)
    assert law.beta == pytest.approx(1.0 / 3.0, rel=1e-14)
    # gamma^alpha = Gamma(0.3) * 3 * cos(0.35 pi) / 0.7
    want_scale = math.gamma(0.3) * 3.0 * math.cos(0.35 * math.pi) / 0.7
    assert law.gamma == pytest.approx(want_scale ** (1 / 0.7), rel=1e-12)
    assert law.gamma == pytest.approx(12.38, abs=5e-3)
    # location induced by the truncated compensator of the LK exponent
    assert law.delta == pytest.approx((1.0 - 2.0) / (1.0 - 0.7), rel=1e-12)


@pytest.mark.parametrize("trip", [SKEWED_07, SKEWED_17, SKEWED_1, cauchy_triplet()])
def test_stable_cf_equals_levy_khintchine(trip):
    # cross-module consistency oracle on a standard grid
    for dt in (0.1, 1.0):
        law = increment_stable_law(trip.jumps, dt)
        np.testing.assert_allclose(stable_cf(law, U_GRID),
                                   levy_khintchine_cf(trip, dt, U_GRID),
                                   atol=1e-6)


def test_stable_cf_basics():
    law = StableLaw(1.4, 2.0, -0.6, 0.9)
    assert stable_cf(law, 0.0) == pytest.approx(1.0, abs=1e-15)
    got = np.abs(stable_cf(law, U_GRID))
    np.testing.assert_allclose(got, np.exp(-law.gamma ** 1.4 * np.abs(U_GRID) ** 1.4),
                               rtol=1e-13)


# ---------------------------------------------------------------------------
# small-jump activity

def test_truncated_second_moment_stable_closed_form():
    jumps = StableJumpDensity(2.0, 1.0, 0.7)
    for eta in (1e-3, 0.05, 1.0):
        want = 3.0 * eta ** 1.3 / 1.3
        assert truncated_second_moment(jumps, eta) == pytest.approx(want, rel=1e-8)


def test_small_jump_bound_stable_equality_case():
    jumps = StableJumpDensity(2.0, 1.0, 0.7)
    M = jumps.activity_constant  # (P+Q)/(2-alpha): equality at every eta
    assert check_small_jump_bound(jumps, M, 0.7) is True
    assert check_small_jump_bound(jumps, 2.0 * M, 0.7) is False


def test_small_jump_bound_rejects_gamma_process():
    # zero power-law index: the truncated moment ratio collapses near 0
    grid = np.array([1e-4, 1e-2, 1.0])
    assert check_small_jump_bound(gamma_process_density(), 0.5, 0.5, grid) is False


def test_moment_ratio_stable_constant_at_matching_exponent():
    jumps = StableJumpDensity(2.0, 1.0, 0.7)
    want = jumps.activity_constant
    for eta in (1e-4, 1e-2, 0.3, 1.0):
        assert truncated_moment_ratio(jumps, eta, 0.7) == pytest.approx(want, rel=1e-7)


def test_moment_ratio_stable_off_exponent_trend():
    # ratio = const * eta^(g - alpha): overshooting exponents send it to 0,
    # undershooting ones blow it up
    jumps = StableJumpDensity(1.0, 1.0, 0.9)
    etas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    above = [truncated_moment_ratio(jumps, e, 0.9 + 0.2) for e in etas]
    below = [truncated_moment_ratio(jumps, e, 0.9 - 0.2) for e in etas]
    assert all(a > b for a, b in zip(above, above[1:]))   # vanishes as eta -> 0
    assert all(a < b for a, b in zip(below, below[1:]))   # diverges as eta -> 0


def test_moment_ratio_partition_density_vanishes_along_even_etas():
    # closed-form oracle: sum of width / (2/3) x^{3/2} pieces of the dyadic tower
    dens = partition_density()
    etas = [2.0 ** -(2.0 ** (2 * k)) for k in (1, 2, 3)]

    def exact(eta_2k, k):
        total = 0.0
        for i in range(k, k + 6):
            e_2i = 2.0 ** -(2.0 ** (2 * i))
            e_2i1 = 2.0 ** -(2.0 ** (2 * i + 1))
            e_2i2 = 2.0 ** -(2.0 ** (2 * i + 2))
            total += (e_2i1 - e_2i2) + (2.0 / 3.0) * (e_2i ** 1.5 - e_2i1 ** 1.5)
        return eta_2k ** (0.6 - 2.0) * total

    got = [truncated_moment_ratio(dens, e, 0.6) for e in etas]
    for g, (e, k) in zip(got, [(etas[0], 1), (etas[1], 2), (etas[2], 3)]):
        assert g == pytest.approx(exact(e, k), rel=1e-6)
    assert got[0] > got[1] > got[2]  # tends to 0 along the even subsequence


def test_moment_ratio_oscillating_density_bounded_below():
    dens = oscillating_density(alpha=0.5, beta=1.5)
    # exponent below the upper envelope index: ratio stays bounded away from 0
    vals = [truncated_moment_ratio(dens, eta, 1.4, rtol=1e-3)
            for eta in (1e-2, 1e-3, 1e-4)]
    assert all(v > 1.0 for v in vals)


# ---------------------------------------------------------------------------
# closed-form bounds

def test_picard_cf_bound_values():
    assert picard_cf_bound(0.8, 0.5, 2.0, math.pi / 2.0) == pytest.approx(
        math.exp(-0.8 * 2.0), rel=1e-13)
    assert picard_cf_bound(1.0, 1.0, 1.0, math.pi) == pytest.approx(
        math.exp(-2.0), rel=1e-13)
    with pytest.raises(ValueError):
        picard_cf_bound(1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("M, alpha, t, name", [
    (math.nan, 1.0, 1.0, "M"), (0.0, 1.0, 1.0, "M"), (-1.0, 1.0, 1.0, "M"),
    (1.0, 1.0, math.nan, "t"), (1.0, 1.0, 0.0, "t"),
    (1.0, math.nan, 1.0, "alpha"), (1.0, 2.0, 1.0, "alpha")])
def test_picard_bounds_refuse_a_nan_or_nonpositive_constant_by_name(M, alpha, t, name):
    # a NaN passes a "<= 0" test, so it must not reach the bound's formula
    with pytest.raises(ValueError, match=f"^{name} must"):
        picard_cf_bound(M, alpha, t, 2.0)
    with pytest.raises(ValueError, match=f"^{name} must"):
        picard_derivative_bound(0, t, M, alpha)


def test_picard_cf_bound_dominates_cauchy_cf():
    M = (2.0 / math.pi) / 1.0  # (P+Q)/(2-alpha) for the unit Cauchy density
    u = np.linspace(math.pi / 2.0, 40.0, 200)
    for t in (0.1, 1.0):
        cf = np.abs(levy_khintchine_cf(cauchy_triplet(), t, u))
        assert np.all(cf <= picard_cf_bound(M, 1.0, t, u) + 1e-12)


def test_picard_derivative_bound_values():
    # k=0, alpha=1: 1/2 + (pi / 2tM) e^{-tM}
    for t, M in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3)):
        want = 0.5 + math.pi / (2.0 * t * M) * math.exp(-t * M)
        assert picard_derivative_bound(0, t, M, 1.0) == pytest.approx(want, rel=1e-10)
    assert picard_derivative_bound(0, 1.0, 1.0, 1.0) == pytest.approx(
        0.5 + (math.pi / 2.0) * math.exp(-1.0), rel=1e-12)


def test_picard_derivative_bound_dominates_cauchy_sup():
    # sup of dt/(pi(x^2+dt^2)) is 1/(pi dt)
    for dt in (0.1, 1.0):
        bound = picard_derivative_bound(0, dt, 2.0 / math.pi, 1.0)
        assert 1.0 / (math.pi * dt) <= bound


def test_bias_bound_gaussian():
    g = ModelClass.gaussian_dominant()
    for sigma2, dt in ((1.0, 1.0), (4.0, 0.25)):
        want0 = 1.0 / (2.0 * math.sqrt(sigma2) * math.sqrt(math.pi * dt))
        assert spectral_bias_bound(g, sigma2, 0.0, dt) == pytest.approx(want0, rel=1e-12)
    # sigma2 * dt = 1, m = 3: quadrature oracle for (1/pi) int_3^inf e^{-u^2} du
    oracle, _ = quad(lambda v: math.exp(-v * v) / math.pi, 3.0, np.inf, epsrel=1e-13)
    assert spectral_bias_bound(g, 1.0, 3.0, 1.0) == pytest.approx(oracle, rel=1e-10)
    assert spectral_bias_bound(g, 1.0, 3.0, 1.0) == pytest.approx(6.23e-6, rel=2e-3)


def test_bias_bound_jump():
    pj = ModelClass.pure_jump(1.0, 1.0)
    assert spectral_bias_bound(pj, 0.0, math.pi / 2.0, 1.0) == pytest.approx(
        math.exp(-1.0) / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        spectral_bias_bound(pj, 0.0, 1.0, 1.0)  # m below pi/2
    with pytest.raises(ValueError):
        spectral_bias_bound(ModelClass.mixed(1.0, 1.0), 1.0, 2.0, 1.0)


def test_bias_bound_nonincreasing_in_m():
    g = ModelClass.gaussian_dominant()
    pj = ModelClass.pure_jump(0.7, 0.9)
    ms = np.linspace(0.0, 12.0, 30)
    gv = [spectral_bias_bound(g, 0.5, m, 0.5) for m in ms]
    assert all(a >= b for a, b in zip(gv, gv[1:]))
    ms = np.linspace(math.pi / 2.0, 12.0, 30)
    jv = [spectral_bias_bound(pj, 0.0, m, 0.5) for m in ms]
    assert all(a >= b for a, b in zip(jv, jv[1:]))


def test_stable_density_l2_norm():
    assert stable_density_l2_norm(StableLaw(1.0, 1.0, 0.0, 0.0)) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-14)
    # skew independence
    a = stable_density_l2_norm(StableLaw(1.3, 0.8, 0.5, 0.0))
    b = stable_density_l2_norm(StableLaw(1.3, 0.8, -0.5, 3.0))
    assert a == b
    # quadrature oracle for the 1.7-stable increment law
    law = increment_stable_law(StableJumpDensity(2.0, 1.0, 1.7), 1.0)
    oracle, _ = quad(lambda v: math.exp(-2.0 * law.gamma ** 1.7 * v ** 1.7) / math.pi,
                     0.0, np.inf, epsrel=1e-12)
    assert stable_density_l2_norm(law) == pytest.approx(oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# one spectral tail: each quantity below is one formula, so the identities are exact

SWEEP_JUMPS = [StableJumpDensity(2.0, 1.0, 0.7),
               StableJumpDensity(1.0 / math.pi, 1.0 / math.pi, 1.0),
               StableJumpDensity(2.0, 1.0, 1.7)]


@pytest.mark.parametrize("dt", [0.1, 1.0])
@pytest.mark.parametrize("jumps", SWEEP_JUMPS, ids=["0.7", "1", "1.7"])
def test_stable_norm_is_the_reference_norm_of_the_pure_jump_model(jumps, dt):
    assert stable_density_l2_norm(increment_stable_law(jumps, dt)) == reference_l2_norm(
        LevyTriplet(0.0, 0.0, jumps), dt)


@pytest.mark.parametrize("sigma2, dt, m", [(1.0, 1.0, 0.0), (0.5, 0.1, 3.0), (2.0, 0.3, 1.7),
                                           (4.0, 1.0, 10.0)])
def test_gaussian_bias_bound_is_the_reference_tail(sigma2, dt, m):
    assert spectral_bias_bound(ModelClass.gaussian_dominant(), sigma2, m, dt) == (
        reference_tail_integral(LevyTriplet(0.0, sigma2, None), dt, m))


@pytest.mark.parametrize("alpha, M, dt, m", [(0.7, 1.0, 1.0, math.pi / 2.0),
                                             (1.0, 0.5, 0.1, 4.0), (1.5, 2.0, 0.5, 3.0),
                                             (1.9, 0.3, 1.0, 10.0)])
def test_jump_bias_bound_is_the_tail_of_the_picard_envelope(alpha, M, dt, m):
    tail, _ = quad(lambda u: picard_cf_bound(M, alpha, dt, u), m, np.inf,
                   epsrel=1e-13, epsabs=0.0, limit=200)
    assert spectral_bias_bound(ModelClass.pure_jump(M, alpha), 0.0, m, dt) == pytest.approx(
        tail / math.pi, rel=1e-10)


_DENSITY = StableJumpDensity(1.0, 1.0, 1.0)
_GAUSS = LevyTriplet(0.0, 1.0, None)
_GAUSSIAN_CLASS = ModelClass.gaussian_dominant()
_ONES = ECFGrid(UGrid(1.0, 0.5), np.ones(5, dtype=complex), 100)

# Every numeric parameter of a public function or value object: (call of the value, the
# name its error gives, the rule it gives for nan, inf and -inf, and the values out of its
# range besides these, each with that rule, or a dict of them to their own rules).
_POS, _NONNEG, _FINITE = "be finite and positive", "be finite and nonnegative", "be finite"
_INT, _ALPHA = "be an integer", "lie in (0, 2)"
_AT_MOST_N, _AT_MOST_TRIALS = "be at most 10000000", "be at most 1000000"
_NUMERIC = {
    # models
    "StableJumpDensity-P": (lambda v: StableJumpDensity(v, 1.0, 1.0), "P", _NONNEG, (-1.0,)),
    "StableJumpDensity-Q": (lambda v: StableJumpDensity(1.0, v, 1.0), "Q", _NONNEG, (-1.0,)),
    "StableJumpDensity-alpha": (lambda v: StableJumpDensity(1.0, 1.0, v), "alpha", _ALPHA,
                                (2.0,)),
    "LevyTriplet-b": (lambda v: LevyTriplet(v, 1.0), "b", _FINITE, ()),
    "LevyTriplet-sigma2": (lambda v: LevyTriplet(0.0, v), "sigma2", _NONNEG, (-1.0,)),
    "StableLaw-alpha": (lambda v: StableLaw(v, 1.0, 0.0, 0.0), "alpha", "lie in (0, 2]",
                        (2.5,)),
    "StableLaw-gamma": (lambda v: StableLaw(1.0, v, 0.0, 0.0), "gamma", _POS, (0.0,)),
    "StableLaw-beta": (lambda v: StableLaw(1.0, 1.0, v, 0.0), "beta", "lie in [-1, 1]", (1.5,)),
    "StableLaw-delta": (lambda v: StableLaw(1.0, 1.0, 0.0, v), "delta", _FINITE, ()),
    "ModelClass-M": (lambda v: ModelClass.pure_jump(v, 1.0), "M", _POS, (0.0,)),
    "ModelClass-alpha": (lambda v: ModelClass.mixed(1.0, v), "alpha", _ALPHA, (2.0,)),
    "truncated_second_moment-eta": (lambda v: truncated_second_moment(_DENSITY, v), "eta",
                                    _POS, (0.0,)),
    "truncated_second_moment-rtol": (lambda v: truncated_second_moment(_DENSITY, 0.5, v),
                                     "rtol", _POS, (0.0,)),
    "levy_khintchine_cf": (lambda v: levy_khintchine_cf(_GAUSS, v, [0.5, 1.0]), "t", _POS,
                           (0.0, -1.0)),
    "increment_stable_law": (lambda v: increment_stable_law(_DENSITY, v), "delta_t", _POS,
                             (0.0,)),
    "check_small_jump_bound-M": (lambda v: check_small_jump_bound(_DENSITY, v, 1.0), "M",
                                 _POS, (0.0,)),
    "check_small_jump_bound-alpha": (lambda v: check_small_jump_bound(_DENSITY, 1.0, v),
                                     "alpha", _ALPHA, (2.0,)),
    "check_small_jump_bound-eta_grid": (lambda v: check_small_jump_bound(
        _DENSITY, 1e6, 1.0, eta_grid=[0.5, v]), "eta_grid[1]", "lie in (0, 1]", (0.0, 1.5)),
    "truncated_moment_ratio-eta": (lambda v: truncated_moment_ratio(_DENSITY, v, 1.0), "eta",
                                   "lie in (0, 1]", (0.0, 1.5)),
    "truncated_moment_ratio-gamma_exp": (lambda v: truncated_moment_ratio(_DENSITY, 0.5, v),
                                         "gamma_exp", _ALPHA, (2.0,)),
    "picard_cf_bound-M": (lambda v: picard_cf_bound(v, 1.0, 1.0, 2.0), "M", _POS, (0.0,)),
    "picard_cf_bound-alpha": (lambda v: picard_cf_bound(1.0, v, 1.0, 2.0), "alpha", _ALPHA,
                              (0.0,)),
    "picard_cf_bound-t": (lambda v: picard_cf_bound(1.0, 1.0, v, 2.0), "t", _POS, (0.0,)),
    "picard_derivative_bound-k": (lambda v: picard_derivative_bound(v, 1.0, 1.0, 1.0), "k",
                                  _INT, {-1: "be at least 0", 1.5: _INT}),
    "spectral_bias_bound": (lambda v: spectral_bias_bound(_GAUSSIAN_CLASS, 1.0, 3.0, v),
                            "delta_t", _POS, (0.0, -1.0)),
    "spectral_bias_bound-sigma2": (lambda v: spectral_bias_bound(_GAUSSIAN_CLASS, v, 1.0, 1.0),
                                   "sigma2", _POS, (0.0,)),
    "spectral_bias_bound-m": (lambda v: spectral_bias_bound(_GAUSSIAN_CLASS, 1.0, v, 1.0), "m",
                              _NONNEG, (-1.0,)),
    "spectral_bias_bound-jump-m": (lambda v: spectral_bias_bound(
        ModelClass.pure_jump(1.0, 1.0), 0.0, v, 1.0), "m",
        "lie in [pi/2, inf) in the jump branch", (1.0,)),
    "optimal_cutoff": (lambda v: optimal_cutoff(_GAUSSIAN_CLASS, 1.0, 500.0, v), "delta_t",
                       _POS, (0.0, -1.0)),
    "optimal_cutoff-n": (lambda v: optimal_cutoff(_GAUSSIAN_CLASS, 1.0, v, 1.0), "n",
                         "lie in [2, inf)", (1.5,)),
    "optimal_cutoff-sigma2": (lambda v: optimal_cutoff(_GAUSSIAN_CLASS, v, 500.0, 1.0),
                              "sigma2", _POS, (0.0,)),
    "mixed_cutoff": (lambda v: mixed_cutoff(1.0, 1.0, 1.2, v, 500.0), "delta_t", _POS,
                     (0.0, -1.0)),
    "mixed_cutoff-sigma2": (lambda v: mixed_cutoff(v, 1.0, 1.2, 1.0, 500.0), "sigma2",
                            _NONNEG, (-1.0,)),
    "mixed_cutoff-M": (lambda v: mixed_cutoff(1.0, v, 1.2, 1.0, 500.0), "M", _NONNEG, (-1.0,)),
    "mixed_cutoff-alpha": (lambda v: mixed_cutoff(1.0, 1.0, v, 1.0, 100.0), "alpha", _ALPHA,
                           (3.0,)),
    "mixed_cutoff-n": (lambda v: mixed_cutoff(1.0, 1.0, 1.2, 1.0, v), "n", "lie in (1, inf)",
                       (1.0,)),
    # sampling
    "SeedSpec-master_seed": (lambda v: SeedSpec(v), "master_seed", _INT,
                             {-1: "be at least 0", 2 ** 64: "lie in [0, 2^64)"}),
    "SeedSpec-trial_index": (lambda v: SeedSpec(1, v), "trial_index", _INT,
                             {-1: "be at least 0"}),
    "derive_seed-master_seed": (lambda v: derive_seed(v, 0), "master_seed", _INT,
                                {-1: "be at least 0", 2 ** 64: "lie in [0, 2^64)"}),
    "derive_seed-lane": (lambda v: derive_seed(1, 0, v), "lane[1]", _INT,
                         {-1: "be at least 0", 1.5: _INT, True: _INT}),
    "SeedSpec-generator-substream": (lambda v: SeedSpec(1).generator(v), "substream", _INT,
                                     {-1: "be at least 0", 1.5: _INT, True: _INT}),
    "stable_sample-n": (lambda v: stable_sample(StableLaw(1.0, 1.0, 0.0, 0.0), v, SeedSpec(1)),
                        "n", _INT, {0: "be at least 1"}),
    "stable_sample-alpha": (lambda v: stable_sample(StableLaw(v, 1.0, 0.0, 0.0), 5, SeedSpec(1)),
                            "alpha", "lie in (0, 2]", {2.0: "lie in (0, 2) for the sampler"}),
    "sample_increments-n": (lambda v: sample_increments(_GAUSS, 1.0, v, SeedSpec(1)), "n",
                            _INT, {0: "be at least 1"}),
    # estimator
    "UGrid-restrict": (lambda v: UGrid(1.0, 0.1).restrict(v), "u_max", _POS, (0.0,)),
    "default_u_max": (lambda v: default_u_max(v), "delta_t", _POS, (0.0,)),
    "default_u_grid-delta_t": (lambda v: default_u_grid(v, 50), "delta_t", _POS, (0.0,)),
    "default_u_grid-n": (lambda v: default_u_grid(1.0, v), "n", _INT,
                         {0: "be at least 1", 2.5: _INT}),
    "ECFGrid-n": (lambda v: ECFGrid(_ONES.grid, _ONES.values, v), "n", _INT,
                  {0: "be at least 1"}),
    "threshold_level-kappa": (lambda v: threshold_level(v, 100), "kappa", _NONNEG, (-1.0,)),
    "threshold_level-n": (lambda v: threshold_level(1.0, v), "n", _INT,
                          {0: "be at least 1", -3: "be at least 1"}),
    "spectral_estimate-m": (lambda v: spectral_estimate(_ONES, v, [0.0]), "m", _POS, (0.0,)),
    "default_x_grid-step": (lambda v: default_x_grid(np.array([0.0, 1.0]), v), "step", _POS,
                            (0.0,)),
    "default_x_grid-points": (lambda v: default_x_grid(np.array([0.0, 1.0]), 1.0, v), "points",
                              _INT, {0: "be at least 1", 10 ** 13: "be at most 1000000"}),
    "trapezoid_weights-step": (lambda v: trapezoid_weights(3, v), "step", _POS, (0.0,)),
    # calibration
    "KappaGrid-delta_step": (lambda v: KappaGrid(v), "delta_step", _POS, (0.0,)),
    "KappaGrid-count": (lambda v: KappaGrid(0.05, v), "count", _INT,
                        {2: "be at least 3", 3.5: _INT, 10 ** 13: "be at most 1000000"}),
    # risk
    "reference_cf-delta_t": (lambda v: reference_cf(_GAUSS, v, _ONES.grid), "delta_t", _POS,
                             (0.0,)),
    "reference_tail_integral-u_max": (lambda v: reference_tail_integral(_GAUSS, 1.0, v),
                                      "u_max", _NONNEG, (-1.0,)),
    "cutoff_risk_bound_check-delta_t": (lambda v: cutoff_risk_bound_check(v, 100, trials=2),
                                        "delta_t", _POS, (0.0,)),
    # the work a request asks for is capped where the library takes it, as the CLI's flags are
    "cutoff_risk_bound_check-n": (lambda v: cutoff_risk_bound_check(1.0, v, trials=2), "n",
                                  _INT, {0: "be at least 1", 10 ** 7 + 1: _AT_MOST_N}),
    "cutoff_risk_bound_check-trials": (lambda v: cutoff_risk_bound_check(1.0, 100, trials=v),
                                       "trials", _INT, {0: "be at least 1", 2.5: _INT,
                                                        10 ** 6 + 1: _AT_MOST_TRIALS}),
    "adaptive_risk_bound_check-delta_t": (lambda v: adaptive_risk_bound_check(v, 100, trials=2),
                                          "delta_t", _POS, (0.0,)),
    "adaptive_risk_bound_check-n": (lambda v: adaptive_risk_bound_check(1.0, v, trials=2), "n",
                                    _INT, {0: "be at least 1", -3: "be at least 1",
                                           10 ** 7 + 1: _AT_MOST_N}),
    "adaptive_risk_bound_check-kappa": (lambda v: adaptive_risk_bound_check(
        1.0, 100, kappa=v, trials=2), "kappa", _NONNEG, (-1.0,)),
    "adaptive_risk_bound_check-trials": (lambda v: adaptive_risk_bound_check(
        1.0, 100, trials=v), "trials", _INT, {0: "be at least 1", 2.5: _INT,
                                              10 ** 6 + 1: _AT_MOST_TRIALS}),
    "ExperimentConfig-trials": (lambda v: ExperimentConfig(_GAUSS, 1.0, (50,), trials=v),
                                "trials", _INT,
                                {0: "be at least 1", 10 ** 6 + 1: _AT_MOST_TRIALS}),
    "ExperimentConfig-n_list": (lambda v: ExperimentConfig(_GAUSS, 1.0, (50, v)), "n_list[1]",
                                _INT, {0: "be at least 1", 10 ** 7 + 1: _AT_MOST_N}),
}
_NUMERIC_CASES = [(name, value, out.get(value, rule) if isinstance(out, dict) else rule)
                  for name, (_, _, rule, out) in _NUMERIC.items()
                  for value in (math.nan, math.inf, -math.inf, *out)]


@pytest.mark.parametrize("name, t, rule", _NUMERIC_CASES,
                         ids=[f"{name}-{t!r}" for name, t, _ in _NUMERIC_CASES])
def test_a_time_that_is_not_finite_and_positive_is_named(name, t, rule):
    # each row fails at its own boundary, before any work, naming the parameter and its rule
    call, field = _NUMERIC[name][:2]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must {rule}, got {t!r}')}$"):
        call(t)


_ARRAYS = {  # a public function of an array of frequencies: (call, the name its error gives)
    "stable_cf": (lambda u: stable_cf(StableLaw(1.0, 1.0, 0.0, 0.0), u), "u"),
    "levy_khintchine_cf": (lambda u: levy_khintchine_cf(cauchy_triplet(), 1.0, u), "u"),
    "picard_cf_bound": (lambda u: picard_cf_bound(1.0, 1.0, 1.0, u), "u"),
}


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(_ARRAYS))
def test_an_entry_that_is_not_finite_is_named_by_its_index(name, v):
    call, field = _ARRAYS[name]
    with pytest.raises(ValueError, match=f"^{field} must be finite; value {re.escape(repr(v))} "
                                         r"at index 1$"):
        call([2.0, v, 3.0])
    with pytest.raises(ValueError, match=f"^{field} must be finite; .* at index 0$"):
        call(v)


def test_a_delta_t_whose_stable_scale_underflows_is_named():
    with pytest.raises(ValueError, match=r"delta_t=1e-300 is too small: .* underflows to 0"):
        increment_stable_law(StableJumpDensity(1.0, 0.0, 0.7), 1e-300)


@pytest.mark.parametrize("P, Q, alpha, delta_t", [(1.0, 0.0, 0.3, 1e200), (1.0, 1.0, 1e-300, 1.0),
                                                  (1.0, 1.0, 1e-310, 1.0)])
def test_a_stable_scale_that_overflows_is_named(P, Q, alpha, delta_t):
    # (delta_t C)^(1/alpha) raises OverflowError past the largest double, and is inf
    # where C or 1/alpha already is
    with pytest.raises(ValueError, match=re.escape(
            f"gamma = (delta_t C)^(1/alpha) overflows at delta_t={delta_t!r}, alpha={alpha!r}")):
        increment_stable_law(StableJumpDensity(P, Q, alpha), delta_t)
