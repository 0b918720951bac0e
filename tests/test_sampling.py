import math

import numpy as np
import pytest
from scipy import stats

from levyspec import (CustomJumpDensity, ECFGrid, IncrementSample, LevyTriplet,
                      SeedSpec, SpectralEstimate, StableJumpDensity, StableLaw, UGrid,
                      UnsupportedModelError, cauchy_triplet, derive_seed, ecf,
                      gamma_process_density, levy_khintchine_cf, sample_increments,
                      stable_cf, stable_sample, write_ecf_csv, write_estimate_csv,
                      write_increments_csv)
from levyspec.calibration import write_chi_csv


def hoeffding_band(n: int) -> float:
    return 2.0 * math.sqrt(math.log(n) / n)


def ecf_on(values, grid):
    return ecf(IncrementSample(np.asarray(values, float)), grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_increment_sample_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="at index 2"):
        IncrementSample(np.array([0.1, -0.4, bad, 0.3]))


def test_determinism():
    law = StableLaw(0.7, 2.0, 0.3, -1.0)
    a = stable_sample(law, 1000, SeedSpec(42, 3))
    b = stable_sample(law, 1000, SeedSpec(42, 3))
    np.testing.assert_array_equal(a.values, b.values)
    c = stable_sample(law, 1000, SeedSpec(42, 4))
    assert not np.array_equal(a.values, c.values)


def test_location_equivariance():
    base = StableLaw(1.7, 1.5, -0.4, 0.0)
    shifted = StableLaw(1.7, 1.5, -0.4, 5.0)
    a = stable_sample(base, 500, SeedSpec(7))
    b = stable_sample(shifted, 500, SeedSpec(7))
    np.testing.assert_allclose(b.values - a.values, 5.0, rtol=0, atol=1e-12)


def test_cauchy_kolmogorov_smirnov():
    law = StableLaw(1.0, 1.0, 0.0, 0.0)
    sample = stable_sample(law, 100_000, SeedSpec(2024))
    cdf = lambda x: 0.5 + np.arctan(x) / math.pi
    stat = stats.kstest(sample.values, cdf).statistic
    assert stat < 1.6276 / math.sqrt(sample.n)  # 1% critical value


def test_gaussian_moments():
    trip = LevyTriplet(0.0, 4.0, None)
    n, dt = 100_000, 0.5
    s = sample_increments(trip, dt, n, SeedSpec(11))
    tol = 4.0 * math.sqrt(4.0 * dt / n)
    assert abs(np.mean(s.values)) < tol
    assert np.var(s.values) == pytest.approx(4.0 * dt, rel=0.05)


def test_drift_shifts_values_exactly():
    base = LevyTriplet(0.0, 1.0, StableJumpDensity(1.0, 1.0, 1.5))
    drifted = LevyTriplet(2.0, 1.0, StableJumpDensity(1.0, 1.0, 1.5))
    dt = 0.25
    a = sample_increments(base, dt, 200, SeedSpec(5))
    b = sample_increments(drifted, dt, 200, SeedSpec(5))
    np.testing.assert_allclose(b.values - a.values, 2.0 * dt, atol=1e-14)


@pytest.mark.parametrize("jumps,dt", [
    (StableJumpDensity(1 / math.pi, 1 / math.pi, 1.0), 1.0),
    (StableJumpDensity(2.0, 1.0, 0.7), 1.0),
    (StableJumpDensity(2.0, 1.0, 1.7), 0.1),
    (StableJumpDensity(3.0, 1.0, 1.0), 0.5),  # skewed alpha=1 branch
])
def test_ecf_within_hoeffding_band_of_cf(jumps, dt):
    trip = LevyTriplet(0.0, 0.0, jumps)
    n = 10_000
    s = sample_increments(trip, dt, n, SeedSpec(31337))
    grid = UGrid.make(10.0, 0.05)
    phi_hat = ecf(s, grid)
    phi = levy_khintchine_cf(trip, dt, grid.points)
    assert np.max(np.abs(phi_hat.values - phi)) < hoeffding_band(n)


@pytest.mark.parametrize("law", [
    StableLaw(0.7, 2.0, 1.0 / 3.0, -1.0),
    StableLaw(1.7, 1.5, -0.5, 0.5),
])
def test_skewed_quantiles_match_scipy(law):
    # independent oracle: empirical CDF at scipy's levy_stable quantiles sits
    # within four binomial standard errors of the target probability.
    # (alpha = 1 is excluded: scipy's ppf disagrees with its own rvs there;
    # that branch is covered by the characteristic-function band tests.)
    x = stable_sample(law, 20_000, SeedSpec(314)).values
    dist = stats.levy_stable(law.alpha, law.beta, loc=law.delta, scale=law.gamma)
    for q in (0.05, 0.25, 0.5, 0.75, 0.95):
        emp = np.mean(x <= dist.ppf(q))
        assert abs(emp - q) < 4.0 * math.sqrt(q * (1 - q) / x.size)


def test_mixed_triplet_ecf():
    trip = LevyTriplet(0.5, 1.0, StableJumpDensity(1.0, 0.5, 1.2))
    n, dt = 10_000, 0.5
    s = sample_increments(trip, dt, n, SeedSpec(9))
    grid = UGrid.make(10.0, 0.1)
    phi_hat = ecf(s, grid)
    phi = levy_khintchine_cf(trip, dt, grid.points)
    assert np.max(np.abs(phi_hat.values - phi)) < hoeffding_band(n)


def test_sup_band_holds_in_most_trials():
    # sup over the default grid within the band in >= 95 of 100 seeded trials
    trip = cauchy_triplet()
    n = 10_000
    grid = UGrid.make(10.0, 0.1)
    phi = levy_khintchine_cf(trip, 1.0, grid.points)
    hits = 0
    for trial in range(100):
        s = sample_increments(trip, 1.0, n, SeedSpec(777, trial))
        if np.max(np.abs(ecf(s, grid).values - phi)) < hoeffding_band(n):
            hits += 1
    assert hits >= 95


def test_pairwise_sums_match_doubled_time():
    # sums of consecutive pairs are increments at 2 dt
    trip = cauchy_triplet()
    n, dt = 10_000, 0.5
    s = sample_increments(trip, dt, n, SeedSpec(123))
    pairs = s.values[0::2] + s.values[1::2]
    grid = UGrid.make(10.0, 0.1)
    phi_hat = ecf_on(pairs, grid)
    phi2 = levy_khintchine_cf(trip, 2.0 * dt, grid.points)
    assert np.max(np.abs(phi_hat.values - phi2)) < hoeffding_band(len(pairs))


def test_stream_independence_across_trials():
    trip = LevyTriplet(0.0, 1.0, None)
    n = 10_000
    a = sample_increments(trip, 1.0, n, SeedSpec(55, 0)).values
    b = sample_increments(trip, 1.0, n, SeedSpec(55, 1)).values
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05
    # heavy tails: correlate a bounded transform instead
    ca = np.arctan(sample_increments(cauchy_triplet(), 1.0, n, SeedSpec(55, 0)).values)
    cb = np.arctan(sample_increments(cauchy_triplet(), 1.0, n, SeedSpec(55, 1)).values)
    assert abs(np.corrcoef(ca, cb)[0, 1]) < 0.05


def test_gaussian_and_jump_streams_are_separate():
    # removing the gaussian part must not change the jump draw
    jumps = StableJumpDensity(1.0, 1.0, 1.5)
    with_g = sample_increments(LevyTriplet(0.0, 1.0, jumps), 1.0, 300, SeedSpec(3))
    gauss = sample_increments(LevyTriplet(0.0, 1.0, None), 1.0, 300, SeedSpec(3))
    pure_j = sample_increments(LevyTriplet(0.0, 0.0, jumps), 1.0, 300, SeedSpec(3))
    np.testing.assert_allclose(with_g.values, gauss.values + pure_j.values, atol=1e-12)


def test_custom_jumps_not_samplable():
    trip = LevyTriplet(0.0, 0.0, gamma_process_density())
    with pytest.raises(UnsupportedModelError):
        sample_increments(trip, 1.0, 10, SeedSpec(1))


def test_derive_seed_stable():
    assert derive_seed(99, 0) == derive_seed(99, 0)
    assert derive_seed(99, 0) != derive_seed(99, 1)
    assert 0 <= derive_seed(99, 5) < 2 ** 64


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(0, -2)


def test_write_increments_csv(tmp_path):
    s = sample_increments(cauchy_triplet(), 1.0, 50, SeedSpec(8))
    path = tmp_path / "inc.csv"
    write_increments_csv(s, path, ["model=cauchy"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# model=cauchy"
    assert lines[1] == "index,value"
    assert len(lines) == 52
    got = np.array([float(l.split(",")[1]) for l in lines[2:]])
    np.testing.assert_allclose(got, s.values, rtol=1e-16)


def test_write_increments_csv_bytes_equal_the_per_row_format(tmp_path):
    # three blocks of rows, the last one partial; random bit patterns plus signed
    # zeros, the smallest subnormal and normal, and 1e16 and 1e17 on either side
    # of where %.17g turns to an exponent
    rng = np.random.default_rng(21)
    values = rng.standard_cauchy(2 * 8192 + 3)
    bits = rng.integers(0, 2 ** 64, 4000, dtype=np.uint64).view(np.float64)
    values[:4000] = np.where(np.isfinite(bits), bits, 1.0)
    values[4000:4008] = [0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                         1e16, -1e16, 1e17, 0.1]
    path = tmp_path / "inc.csv"
    write_increments_csv(IncrementSample(values), path, ["a=1", "b"])
    want = "# a=1\n# b\nindex,value\n" + "".join(
        f"{i},{v:.17g}\n" for i, v in enumerate(values))
    assert path.read_bytes() == want.encode()
    # the estimate, ECF and chi writers share that block formatter
    est = SpectralEstimate(values, values[::-1])
    write_estimate_csv(est, path, ["c"])
    want = "# c\nx,f_hat\n" + "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(values, est.values))
    assert path.read_bytes() == want.encode()
    grid = UGrid.make(8.192, 0.001)
    assert grid.points.size > 8192
    cf = np.empty(grid.points.size, dtype=complex)
    cf.real, cf.imag = values[:cf.size], values[-cf.size:]
    write_ecf_csv(ECFGrid(grid, cf, 1), path)
    want = "u,re,im\n" + "".join(f"{u:.17g},{v.real:.17g},{v.imag:.17g}\n"
                                 for u, v in zip(grid.points, cf))
    assert path.read_bytes() == want.encode()
    chis = rng.integers(-50, 50, values.size)
    write_chi_csv(values, chis, path)
    want = "kappa,chi\n" + "".join(f"{k:.17g},{int(c)}\n" for k, c in zip(values, chis))
    assert path.read_bytes() == want.encode()
