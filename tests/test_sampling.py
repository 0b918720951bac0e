import math
import pickle
import random
import re
import warnings

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
from levyspec.models import increment_stable_law
from levyspec.sampling import _cms_standard, _key_block


def hoeffding_band(n: int) -> float:
    return 2.0 * math.sqrt(math.log(n) / n)


def ecf_on(values, grid):
    return ecf(IncrementSample(np.asarray(values, float)), grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_increment_sample_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="at index 2"):
        IncrementSample(np.array([0.1, -0.4, bad, 0.3]))


@pytest.mark.parametrize("sigma2", [0.0, 1.0])
def test_a_non_finite_variate_of_a_valid_law_is_an_arithmetic_error(sigma2):
    # at alpha = 1 + 1e-12 the CMS cosine rounds below 0 for 3 of these 2e5 draws
    trip = LevyTriplet(0.0, sigma2, StableJumpDensity(1.0, 0.0, 1 + 1e-12))
    message = r"^sampling the stable law alpha=1.000000000001, beta=1.0 gave the " \
              r"non-finite variate nan at index 4126$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and numpy warns of nothing
        with pytest.raises(ArithmeticError, match=message):
            sample_increments(trip, 1.0, 200_000, SeedSpec(1))
        with pytest.raises(ArithmeticError, match=message):
            stable_sample(increment_stable_law(trip.jumps, 1.0), 200_000, SeedSpec(1))


@pytest.mark.parametrize("b,sigma2,jumps", [
    (0.0, 1e308, None), (1e308, 1.0, None), (0.0, 1e308, StableJumpDensity(1.0, 0.0, 1.5)),
    (-1e308, 0.0, StableJumpDensity(1.0, 0.0, 1.5))])
def test_an_increment_drift_or_variance_past_the_doubles_is_bad_input(b, sigma2, jumps):
    # not the stable law's numeric failure, which the overflowed sum would suggest
    message = r"^the increment's (drift b|variance sigma2) \* delta_t must be finite, got "
    with pytest.raises(ValueError, match=message):
        sample_increments(LevyTriplet(b, sigma2, jumps), 10.0, 5, SeedSpec(1))


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


def _general_alpha_one(beta, rng, n):
    # the alpha = 1 Chambers-Mallows-Stuck formula with W drawn, as written
    # before the symmetric closed form
    U = (rng.random(n) - 0.5) * math.pi
    W = rng.exponential(1.0, n)
    half_pi = math.pi / 2.0
    return (2.0 / math.pi) * ((half_pi + beta * U) * np.tan(U)
                              - beta * np.log((half_pi * W * np.cos(U))
                                              / (half_pi + beta * U)))


@pytest.mark.parametrize("beta", [0.0, -0.0])
@pytest.mark.parametrize("n", [1, 7, 5000])
def test_symmetric_cauchy_path_has_the_bytes_of_the_general_formula(beta, n):
    for trial in range(5):
        got = _cms_standard(1.0, beta, SeedSpec(606, trial).generator(1), n)
        want = _general_alpha_one(beta, SeedSpec(606, trial).generator(1), n)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 7, 5000])
def test_symmetric_cauchy_path_draws_no_exponential(n):
    rng, twin = SeedSpec(17, 2).generator(1), SeedSpec(17, 2).generator(1)
    _cms_standard(1.0, 0.0, rng, n)
    twin.random(n)
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
    # a skewed law still draws W after U
    _cms_standard(1.0, 0.5, rng, n)
    twin.random(n)
    with pytest.raises(AssertionError):
        np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)


def _out_of_place_increments(triplet, delta_t, n, seed):
    # the sampler's arithmetic before it summed in place: a drift-filled start,
    # then the Gaussian part, then gamma * z (+ the alpha = 1 shift) + delta
    values = np.full(n, triplet.b * delta_t)
    if triplet.sigma2 > 0:
        rng = seed.generator(0)
        values = values + math.sqrt(triplet.sigma2 * delta_t) * rng.standard_normal(n)
    if triplet.jumps is not None:
        law = increment_stable_law(triplet.jumps, delta_t)
        rng = seed.generator(1)
        alpha, beta = law.alpha, law.beta
        if alpha == 1.0:
            z = _general_alpha_one(beta, rng, n)
            jumps = (law.gamma * z + (2.0 / math.pi) * beta * law.gamma * math.log(law.gamma)
                     + law.delta)
        else:
            U = (rng.random(n) - 0.5) * math.pi
            W = rng.exponential(1.0, n)
            theta0 = math.atan(beta * math.tan(math.pi * alpha / 2.0)) / alpha
            s = (np.sin(alpha * (U + theta0))
                 / (math.cos(alpha * theta0) * np.cos(U)) ** (1.0 / alpha))
            t = (np.cos(alpha * theta0 + (alpha - 1.0) * U) / W) ** ((1.0 - alpha) / alpha)
            jumps = law.gamma * (s * t) + law.delta
        values = values + jumps
    return values


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.3, 1.7])
@pytest.mark.parametrize("P,Q", [(1.0, 1.0), (2.0, 1.0), (0.0, 1.5), (1 / math.pi, 1 / math.pi)])
def test_sample_increments_has_the_bytes_of_the_out_of_place_sum(alpha, P, Q):
    jumps = StableJumpDensity(P, Q, alpha)
    for b, sigma2 in [(0.0, 0.0), (-0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (-1.5, 2.0)]:
        for dt in (0.1, 1.0, 0.37):
            for seed in (SeedSpec(1), SeedSpec(20406080, 7), SeedSpec(2 ** 63 + 5, 3)):
                trip = LevyTriplet(b, sigma2, jumps)
                got = sample_increments(trip, dt, 301, seed).values
                assert got.tobytes() == _out_of_place_increments(trip, dt, 301, seed).tobytes()
    gauss = LevyTriplet(0.25, 1.5, None)
    got = sample_increments(gauss, 0.5, 301, SeedSpec(4)).values
    assert got.tobytes() == _out_of_place_increments(gauss, 0.5, 301, SeedSpec(4)).tobytes()


@pytest.mark.parametrize("trip", [cauchy_triplet(), LevyTriplet(0.0, 1.0, None)])
@pytest.mark.parametrize("delta_t", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_sample_increments_rejects_a_delta_t_that_is_not_finite_and_positive(trip, delta_t):
    with pytest.raises(ValueError, match=f"^delta_t must be finite and positive, got {delta_t!r}$"):
        sample_increments(trip, delta_t, 10, SeedSpec(1))
    if trip.jumps is not None:
        with pytest.raises(ValueError, match="^delta_t must be finite and positive"):
            increment_stable_law(trip.jumps, delta_t)


@pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(4), "5", None])
def test_samplers_reject_an_n_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
        sample_increments(cauchy_triplet(), 1.0, n, SeedSpec(1))
    with pytest.raises(ValueError, match="^n must be an integer"):
        stable_sample(StableLaw(1.0, 1.0, 0.0, 0.0), n, SeedSpec(1))


def test_samplers_take_a_numpy_integer_n():
    assert sample_increments(cauchy_triplet(), 1.0, np.int64(5), SeedSpec(1)).n == 5
    assert stable_sample(StableLaw(0.7, 1.0, 0.0, 0.0), np.uint16(3), SeedSpec(1)).n == 3


@pytest.mark.parametrize("args,name", [
    ((1.5,), "master_seed"), ((True,), "master_seed"), (("7",), "master_seed"),
    ((1, 1.5), "trial_index"), ((1, False), "trial_index"), ((1, None), "trial_index"),
])
def test_seed_spec_names_a_field_that_is_not_an_integer(args, name):
    bad = args[-1]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
        SeedSpec(*args)


def test_seed_spec_takes_numpy_integers():
    a = SeedSpec(np.uint64(2 ** 64 - 1), np.int32(3)).generator().random(4)
    b = SeedSpec(2 ** 64 - 1, 3).generator().random(4)
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# the key schedule: a trial's stream is numpy's SeedSequence stream

_RANDOM_MASTERS = random.Random(2029)
_MASTERS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
            *(_RANDOM_MASTERS.getrandbits(64) for _ in range(20))]
_TRIALS = [0, 63, 64, 127, 2 ** 32 - 1, 2 ** 32, 2 ** 70]


def _numpy_stream(master_seed, trial, substream):
    seq = np.random.SeedSequence(master_seed, spawn_key=(trial, substream))
    return np.random.Generator(np.random.Philox(seq))


@pytest.mark.parametrize("master_seed", _MASTERS)
def test_a_trial_stream_is_the_numpy_seed_sequence_stream(master_seed):
    for trial in _TRIALS:
        for substream in (0, 1, 7, 2 ** 33):
            seq = np.random.SeedSequence(master_seed, spawn_key=(trial, substream))
            key = _key_block(master_seed, substream, trial // 64)[trial % 64]
            assert key.tobytes() == seq.generate_state(2, np.uint64).tobytes()
            got = SeedSpec(master_seed, trial).generator(substream)
            oracle = _numpy_stream(master_seed, trial, substream)
            np.testing.assert_equal(got.bit_generator.state, oracle.bit_generator.state)
            for draw in ("random", "exponential", "standard_normal"):
                want = getattr(oracle, draw)(size=8)
                assert getattr(got, draw)(size=8).tobytes() == want.tobytes()


@pytest.mark.parametrize("lane", [(), (0,), (5,), (2 ** 32,), (1, 2), (0, 2 ** 70),
                                  (3, 0, 2 ** 64 - 1), (np.uint8(4), 2 ** 32 - 1, 7)])
@pytest.mark.parametrize("master_seed", [0, 2 ** 32, 2 ** 64 - 1, 20406080])
def test_derive_seed_is_the_numpy_seed_sequence_state(master_seed, lane):
    want = np.random.SeedSequence(master_seed, spawn_key=lane).generate_state(1, np.uint64)
    assert derive_seed(master_seed, *lane) == int(want[0])


def test_a_trial_stream_does_not_depend_on_the_order_of_draws():
    def draws(order):
        return {trial: SeedSpec(11, trial).generator(1).random(16).tobytes() for trial in order}
    _key_block.cache_clear()
    in_order = draws([3, 70])
    late_first = draws([70, 3])
    _key_block.cache_clear()
    cleared = draws([70, 3])
    oracle = {trial: _numpy_stream(11, trial, 1).random(16).tobytes() for trial in (3, 70)}
    assert in_order == late_first == cleared == oracle


def test_the_seed_seq_spawns_and_reads_as_the_numpy_seed_sequence():
    got, oracle = SeedSpec(5, 9).generator(1), _numpy_stream(5, 9, 1)
    seq, want = got.bit_generator.seed_seq, oracle.bit_generator.seed_seq
    for child, twin in zip(seq.spawn(2), want.spawn(2)):
        assert (child.entropy, child.spawn_key) == (twin.entropy, twin.spawn_key)
        assert child.generate_state(4).tobytes() == twin.generate_state(4).tobytes()
    # the count of children spawned carries over to the generator's own spawn
    for child, twin in zip(got.spawn(2), oracle.spawn(2)):
        assert child.random(4).tobytes() == twin.random(4).tobytes()
    assert (seq.entropy, seq.spawn_key, seq.n_children_spawned) == (5, (9, 1), 4)
    assert seq.generate_state(3).tobytes() == want.generate_state(3).tobytes()
    key = seq.generate_state(2, np.uint64)
    key[0] = 0  # a fresh array each time; the cached block stays read-only
    assert seq.generate_state(2, np.uint64).tobytes() == want.generate_state(2, np.uint64).tobytes()
    assert not _key_block(5, 1, 0).flags.writeable
    copy = pickle.loads(pickle.dumps(got))
    assert copy.random(4).tobytes() == got.random(4).tobytes()
