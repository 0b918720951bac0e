import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levyspec import (ECFGrid, IncrementSample, LevyTriplet, ModelClass, SeedSpec,
                      UGrid, adaptive_estimate, cauchy_triplet, default_u_grid, default_u_max,
                      default_x_grid,
                      ecf, levy_khintchine_cf, mixed_cutoff, optimal_cutoff, plancherel_l2,
                      sample_increments, spectral_estimate, threshold_cf,
                      threshold_level, trapezoid_weights, unthresholded_mask)
import levyspec
from levyspec.cli import main
from levyspec.estimator import (_TERMS, _ecf_bins, _ecf_half, _ecf_weights, _invert,
                                _quartiles)


def sample_of(values):
    return IncrementSample(np.asarray(values, dtype=float))


def synthetic_ecf(grid, fn, n=10_000):
    return ECFGrid(grid, np.asarray(fn(grid.points), dtype=complex), n)


def check_ecf_invariants(e: ECFGrid) -> None:
    """An ECF is exactly 1 at u=0, of modulus at most 1, and conjugate-symmetric."""
    k = e.grid.half_count
    v = e.values
    assert v[k] == 1.0, "value at u=0 must be exactly 1"
    assert np.max(np.abs(v)) <= 1.0 + 1e-10, "modulus must not exceed 1"
    assert np.max(np.abs(v[:k][::-1] - np.conj(v[k + 1:]))) <= 1e-12, \
        "conjugate symmetry violated"


# ---------------------------------------------------------------------------
# grids

def test_ugrid_contains_zero_and_symmetric():
    g = UGrid.make(10.0, 0.05)
    pts = g.points
    assert pts[g.half_count] == 0.0
    np.testing.assert_allclose(pts, -pts[::-1], atol=0)
    assert g.u_max == 10.0 and len(pts) == 401


def test_ugrid_validation_and_restrict():
    with pytest.raises(ValueError):
        UGrid(10.0, 0.3)  # not a multiple
    with pytest.raises(ValueError):
        UGrid(-1.0, 0.1)
    g = UGrid.make(100.0)
    assert g.step == 0.1
    r = g.restrict(50.0)
    assert r.u_max == 50.0 and r.step == 0.1
    assert g.restrict(200.0) is g


@pytest.mark.parametrize("n, step", [(1, 2.0), (2, 3.0), (3, 3.5)])
def test_an_empty_cut_names_the_bound_and_the_step(n, step):
    # step > n leaves only u = 0 in [-n, n]; the error is not the "u_max and step must
    # be finite and positive, got 0.0" of a u_max never asked for
    message = re.escape(f"[-{n}, {n}] holds only u = 0: its step {step:g} must be at most n")
    grid = UGrid.make(10.0, step)
    with pytest.raises(ValueError, match=message):
        grid.restrict(float(n))
    with pytest.raises(ValueError, match=message):  # an ECF of n increments
        adaptive_estimate(ECFGrid(grid, np.ones(len(grid.points), dtype=complex), n), 0.1,
                          np.array([0.0]))
    assert grid.restrict(step).u_max == step  # a step of exactly n keeps +-n


@pytest.mark.parametrize("u_max, step", [(math.inf, 0.05), (math.nan, 0.05),
                                         (10.0, math.nan), (10.0, math.inf),
                                         (-1.0, 0.05), (10.0, 0.0)])
def test_ugrid_rejects_non_finite_or_nonpositive_values(u_max, step):
    message = "(u_max|step) must be finite and positive"
    with pytest.raises(ValueError, match=message):
        UGrid.make(u_max, step)
    with pytest.raises(ValueError, match=message):
        UGrid(u_max, step)


def test_ugrid_refuses_a_half_count_past_its_cap_before_any_array():
    # K = 10^8 would ask the ECF for about 70 GB; the cap is checked on the ratio,
    # so no array is built and the smallest step that fits is named
    message = re.escape("u_max=10.0 over step=1e-07 gives 1e+08 frequencies per side, more "
                        "than the 1000000 a grid holds: the smallest step that fits is 1e-05")
    with pytest.raises(ValueError, match=f"^{message}$"):
        UGrid(10.0, 1e-7)
    with pytest.raises(ValueError, match=f"^{message}$"):
        UGrid.make(10.0, 1e-7)
    assert UGrid(10.0, 1e-5).half_count == UGrid.make(10.0, 1e-5).half_count == 10 ** 6


@settings(max_examples=300, deadline=None)
@given(u_max=st.floats(1e-3, 1e4), step=st.floats(1e-3, 10.0), n=st.integers(1, 10 ** 5))
def test_default_u_grid_is_the_grid_made_then_cut_to_n(u_max, step, n):
    # it cuts u_max to n before making the grid, so the size cap sees the grid
    # the estimator uses; below the cap that is the grid made and then cut
    def outcome(make):
        try:
            return make()
        except ValueError as exc:
            return str(exc)
    got = outcome(lambda: default_u_grid(1.0, n, u_max, step))
    if u_max / step < 10 ** 6 + 0.5:
        assert got == outcome(lambda: UGrid.make(u_max, step).restrict(float(n)))
    elif n / step < 10 ** 6 and step <= n:  # past the cap before the cut, within it after
        assert got == UGrid(math.floor(n / step + 1e-9) * step, step)  # restrict's cut


def test_a_u_max_far_past_n_is_cut_before_the_cap():
    assert default_u_grid(1.0, 1000, u_max=1e9, step=1.0) == UGrid(1000.0, 1.0)


def test_default_u_max_rule():
    assert default_u_max(0.1) == 100.0
    assert default_u_max(1.0) == 10.0
    assert default_u_max(0.05) == 100.0
    assert default_u_max(5.0) == 10.0
    # between the endpoints the domain scales like 10/delta
    assert default_u_max(0.5) == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# ECF

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(np.inf, 0.0)])
def test_ecf_grid_rejects_non_finite_values(bad):
    values = np.array([0.5, 0.8, 1.0, 0.8, 0.5], dtype=complex)
    values[3:] = bad
    with pytest.raises(ValueError, match="ECF values must be finite.* at index 3$"):
        ECFGrid(UGrid(2.0, 1.0), values, 10)


def test_ecf_single_observation():
    g = UGrid.make(5.0, 0.05)
    e = ecf(sample_of([1.7]), g)
    np.testing.assert_allclose(e.values, np.exp(1j * g.points * 1.7), atol=5e-14)


def test_ecf_zero_frequency_and_symmetry_exact():
    g = UGrid.make(10.0, 0.1)
    e = ecf(sample_of(np.random.default_rng(0).standard_normal(500)), g)
    k = g.half_count
    assert e.values[k] == 1.0 + 0.0j
    np.testing.assert_array_equal(e.values[:k][::-1], np.conj(e.values[k + 1:]))
    check_ecf_invariants(e)


def test_ecf_symmetric_pair_is_cosine():
    g = UGrid.make(8.0, 0.05)
    e = ecf(sample_of([2.0, -2.0]), g)
    np.testing.assert_allclose(e.values, np.cos(2.0 * g.points), atol=5e-14)


def test_ecf_matches_direct_summation():
    rng = np.random.default_rng(4)
    values = rng.standard_cauchy(3000)
    g = UGrid.make(10.0, 0.05)
    e = ecf(sample_of(values), g)
    direct = np.array([np.mean(np.exp(1j * u * values)) for u in g.points])
    np.testing.assert_allclose(e.values, direct, atol=2e-13)


ECF_FAMILIES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "cauchy": lambda rng, n: rng.standard_cauchy(n),
    "cauchy-x10": lambda rng, n: 10.0 * rng.standard_cauchy(n),
    "uniform-1e6": lambda rng, n: rng.uniform(-1e6, 1e6, n),
    "cauchy-cubed": lambda rng, n: rng.standard_cauchy(n) ** 3,
    "constant": lambda rng, n: np.full(n, 0.37),
    "integer": lambda rng, n: rng.poisson(3.0, n).astype(float),
    "tiny-negative": lambda rng, n: -1e-9 * np.abs(rng.standard_normal(n)),
}


def ecf_longdouble(values, count, step):
    """(1/n) sum_j exp(i k step x_j) for k = 0..count, summed in long double.

    Each phase k*step*x_j is formed and reduced mod 2pi in long double, so only
    the cos/sin of the reduced phase (|error| ~ 1e-16) is taken in double.
    """
    two_pi = 8 * np.arctan(np.longdouble(1))
    x = values.astype(np.longdouble)
    out = np.empty(count + 1, dtype=np.clongdouble)
    for k in range(count + 1):
        theta = (k * np.longdouble(step)) * x
        r = (theta - np.round(theta / two_pi) * two_pi).astype(float)
        out[k] = (np.cos(r).astype(np.longdouble).mean()
                  + 1j * np.sin(r).astype(np.longdouble).mean())
    return out


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no more precise than double here")
@pytest.mark.parametrize("n", [1, 3000, 10_000])  # 10_000: three 4096-sample chunks
@pytest.mark.parametrize("count, step", [(1, 0.1), (160, 0.05), (200, 0.05), (1000, 0.1)],
                         ids=["K1", "K160", "K200", "K1000"])
@pytest.mark.parametrize("family", sorted(ECF_FAMILIES))
def test_ecf_within_rounding_bound_of_long_double_sum(family, count, step, n):
    # Rounding s*x alone moves the phase at u by up to eps*u*|x|, so the bound
    # scales with u_max * mean|x|; direct double summation carries the same term.
    values = ECF_FAMILIES[family](np.random.default_rng([count, n]), n)
    g = UGrid.make(count * step, step)
    e = ecf(sample_of(values), g)
    check_ecf_invariants(e)
    err = np.abs(e.values[count:] - ecf_longdouble(values, count, step)).astype(float)
    bound = 1e-14 + np.finfo(float).eps * g.u_max * np.mean(np.abs(values))
    assert err.max() <= bound


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no more precise than double here")
@given(family=st.sampled_from(sorted(ECF_FAMILIES)), seed=st.integers(0, 2 ** 32 - 1),
       n=st.one_of(st.integers(1, 3 * 4096 + 1), st.sampled_from([4095, 4096, 4097, 8193])),
       count=st.integers(1, 300), step=st.floats(min_value=1e-3, max_value=0.5))
@settings(max_examples=40, deadline=None)
def test_ecf_invariants_and_rounding_bound_over_random_shapes(family, seed, n, count, step):
    # the bound of the long-double test above, over sizes on both sides of the
    # 4096-point chunk, random half-counts and random steps
    values = ECF_FAMILIES[family](np.random.default_rng(seed), n)
    g = UGrid(count * step, step)
    rounding = np.finfo(float).eps * g.u_max * np.mean(np.abs(values))
    if not rounding < 1.0 / math.sqrt(n):  # a draw past the rule: ecf refuses it
        with pytest.raises(ArithmeticError, match="the ECF is rounding noise"):
            ecf(sample_of(values), g)
        return
    e = ecf(sample_of(values), g)
    check_ecf_invariants(e)
    err = np.abs(e.values[count:] - ecf_longdouble(values, count, step)).astype(float)
    assert err.max() <= 1e-14 + rounding


def test_ecf_of_values_whose_phase_overflows_is_finite():
    # step * x overflows for x = +-1.7e308; such a phase is rounding noise, and the
    # kernel must stay finite (no warning, which tier-1 turns into an error) so that
    # ecf's rounding check, not the ECFGrid check, rejects the data
    values = np.array([0.5, 1.7e308, -1.7e308, 1e300])
    g = UGrid.make(10.0, 0.05)
    e = ECFGrid(g, _ecf_half(values, g.half_count, g.step), values.size)
    check_ecf_invariants(e)
    assert np.all(np.isfinite(e.values))
    with pytest.raises(ArithmeticError, match="the ECF is rounding noise"):
        ecf(sample_of(values), g)


def test_ecf_of_rounding_noise_raises_the_clis_error(tmp_path, capsys):
    # N(10^15, 1): eps * u_max * mean|x| = 2.2 on UGrid.make(10.0), far past
    # 1/sqrt(1000); the library call refuses it as levyspec estimate does
    values = np.random.default_rng(8).normal(1e15, 1.0, 1000)
    with pytest.raises(ArithmeticError) as refused:
        ecf(sample_of(values), UGrid.make(10.0))
    data = tmp_path / "far.csv"
    data.write_text("\n".join(f"{v:.17g}" for v in values) + "\n")
    assert main(["estimate", "--data", str(data), "--delta", "1", "--umax", "10",
                 "--out", str(tmp_path / "d.csv")]) == 3
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    assert "1/sqrt(n) = 0.0316228" in str(refused.value)


_ECF_DIGEST = """
import hashlib
import numpy as np
from levyspec import IncrementSample, UGrid, ecf
values = np.random.default_rng(12).standard_cauchy(10_000)
e = ecf(IncrementSample(values), UGrid(100.0, 0.1))
print(hashlib.sha256(e.values.tobytes()).hexdigest())
"""


def test_ecf_bytes_do_not_depend_on_the_blas_thread_count():
    # the ECF makes no BLAS call, so a fresh interpreter gives the same bytes
    # (sample of 10^4, K = 1000) on one BLAS thread and on two
    src = os.path.dirname(os.path.dirname(levyspec.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _ECF_DIGEST], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("size", [4 ** e for e in range(1, 10)])
def test_ecf_weights_match_scipy_bessel_values(size):
    # A[p, k] = eps_p (-1)^(p // 2) J_p(pi k / M) on every rung the tests reach,
    # the smallest z = pi / M included; past 4^6 bins a stride of k, both ends kept
    from scipy.special import jv
    weights = _ecf_weights.__wrapped__(size - 1, size)
    k = np.arange(size) if size <= 4 ** 6 else np.r_[np.arange(0, size, 61), 1, size - 1]
    p = np.arange(_TERMS)[:, None]
    scale = np.where(p == 0, 1.0, 2.0) * np.where(p // 2 % 2, -1.0, 1.0)
    want = scale * jv(p, math.pi * k / size)
    assert weights.shape == (_TERMS, size)
    assert np.max(np.abs(weights[:, k] - want)) <= 1e-15


def test_ecf_weights_are_cached_read_only():
    weights = _ecf_weights(200, _ecf_bins(200))
    assert weights is _ecf_weights(200, _ecf_bins(200))
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0, 0] = 2.0


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no more precise than double here")
@pytest.mark.parametrize("count", [255, 1023])  # z_K = pi K / M reaches 0.996 pi and 0.999 pi
@pytest.mark.parametrize("family", sorted(ECF_FAMILIES))
def test_ecf_within_rounding_bound_at_the_rung_edges(family, count):
    step, n = 0.1, 3000
    assert _ecf_bins(count) == count + 1
    values = ECF_FAMILIES[family](np.random.default_rng([count, n]), n)
    g = UGrid.make(count * step, step)
    e = ecf(sample_of(values), g)
    check_ecf_invariants(e)
    err = np.abs(e.values[count:] - ecf_longdouble(values, count, step)).astype(float)
    assert err.max() <= 1e-14 + np.finfo(float).eps * g.u_max * np.mean(np.abs(values))


def test_ecf_bytes_do_not_depend_on_the_half_count_within_a_rung():
    # K = 300 and K = 1000 share M = 1024 bins, so phi_hat(k step) is the same float
    assert _ecf_bins(300) == _ecf_bins(1000)
    s = sample_of(np.random.default_rng(7).standard_cauchy(3000))
    short = ecf(s, UGrid(300 * 0.1, 0.1)).values[300:]
    long = ecf(s, UGrid(1000 * 0.1, 0.1)).values[1000:1301]
    assert short.tobytes() == long.tobytes()


# ---------------------------------------------------------------------------
# spectral cutoff estimator

def test_spectral_estimate_of_unit_cf_at_zero():
    g = UGrid.make(4.0, 0.05)
    e = synthetic_ecf(g, lambda u: np.ones_like(u))
    est = spectral_estimate(e, 4.0, np.array([0.0]))
    assert est.values[0] == pytest.approx(4.0 / math.pi, rel=1e-14)
    assert est.imag_residual < 1e-15


def test_spectral_estimate_single_point_band_is_zero():
    # 0 < m < step keeps only u = 0, a band of zero width
    g = UGrid.make(4.0, 0.05)
    e = synthetic_ecf(g, lambda u: np.ones_like(u))
    est = spectral_estimate(e, 0.01, np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(est.values, 0.0)


@settings(max_examples=200, deadline=None)
@given(step=st.floats(1e-3, 1.0), count=st.integers(1, 300), j=st.integers(0, 300),
       frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
       x=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_spectral_estimate_inverts_the_points_within_the_cutoff(step, count, j, frac, x, seed):
    # a cutoff m keeps the points k step with |k| <= floor(m / step + 1e-9), byte for
    # byte; a cutoff on a grid point, m = j step, may sit a rounding below it
    rng = np.random.default_rng(seed)
    e = ECFGrid(UGrid(count * step, step), rng.normal(size=2 * count + 1)
                + 1j * rng.normal(size=2 * count + 1), 100)
    m = (j + frac) * step if j < count else e.grid.u_max
    assume(m > 0)
    k = math.floor(m / step + 1e-9)
    want = _invert(np.arange(-k, k + 1) * step, e.values[count - k:count + k + 1],
                   np.array([x]), step)
    est = spectral_estimate(e, m, [x])
    assert est.values.tobytes() == want.real.tobytes()
    assert est.imag_residual == float(np.max(np.abs(want.imag)))


def test_spectral_estimate_dirichlet_kernel_coarse():
    g = UGrid.make(2.0, 0.002)
    e = synthetic_ecf(g, lambda u: np.ones_like(u))
    xs = np.array([-1.5, -0.4, 0.7, 2.0])
    est = spectral_estimate(e, 2.0, xs)
    np.testing.assert_allclose(est.values, np.sin(2.0 * xs) / (math.pi * xs),
                               atol=2e-6)


def test_spectral_estimate_exponential_cf_value_at_zero():
    dt, m = 0.7, 6.0
    g = UGrid.make(m, 0.001)
    e = synthetic_ecf(g, lambda u: np.exp(-dt * np.abs(u)))
    est = spectral_estimate(e, m, np.array([0.0]))
    want = (1.0 - math.exp(-dt * m)) / (math.pi * dt)
    assert est.values[0] == pytest.approx(want, rel=1e-6)


def test_spectral_estimate_domain_error():
    g = UGrid.make(5.0, 0.1)
    e = synthetic_ecf(g, lambda u: np.ones_like(u))
    with pytest.raises(ValueError):
        spectral_estimate(e, 6.0, np.array([0.0]))


@pytest.mark.parametrize("m", [math.nan, 0.0, -1.0])
def test_spectral_estimate_refuses_a_nan_or_nonpositive_cutoff_by_name(m):
    e = synthetic_ecf(UGrid.make(4.0, 0.05), lambda u: np.ones_like(u))
    with pytest.raises(ValueError, match=f"^m must be finite and positive, got {m!r}$"):
        spectral_estimate(e, m, np.array([0.0]))


def test_spectral_estimate_rejects_an_empty_x_grid():
    e = synthetic_ecf(UGrid.make(4.0, 0.05), lambda u: np.ones_like(u))
    with pytest.raises(ValueError, match="the x-grid is empty"):
        spectral_estimate(e, 4.0, np.array([]))


@pytest.mark.parametrize("reach", [math.pi / 0.05 * (1 + 1e-12), 1077.0, math.inf, math.nan])
def test_spectral_estimate_rejects_an_x_grid_past_the_alias_half_period(reach):
    e = synthetic_ecf(UGrid.make(4.0, 0.05), lambda u: np.ones_like(u))
    with pytest.raises(ValueError, match="alias half-period pi/step = 62.83"):
        spectral_estimate(e, 4.0, np.array([0.0, -reach]))


def test_spectral_estimate_accepts_an_x_grid_reaching_the_half_period():
    # x = +-pi/step alias onto each other; the estimate there is the same value.
    e = synthetic_ecf(UGrid.make(4.0, 0.05), lambda u: np.exp(-np.abs(u)))
    half = math.pi / 0.05
    est = spectral_estimate(e, 4.0, np.array([-half, half]))
    assert est.values[0] == pytest.approx(est.values[1], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("values, spread", [
    ([0.0] * 6 + [-40.0, 40.0], 20.0),  # a tied middle half: the std
    ([0.0] * 4 + [0.5], 1.0),  # the std, 0.2, is below 1
    ([3.0] * 5, 1.0),
], ids=["std", "std-below-1", "constant"])
def test_sample_bulk_spread_is_max_of_std_and_1_when_the_iqr_is_0(values, spread):
    # the grid spans +-8 spreads, and its bulk check sits at |median| + 8 spreads
    values = np.array(values)
    edge = math.pi / (abs(float(np.median(values))) + 8.0 * spread)
    x = default_x_grid(values, edge * (1 - 1e-12), points=3)
    assert x.tolist() == [-8.0 * spread, 0.0, 8.0 * spread]
    with pytest.raises(ValueError, match="alias half-period"):
        default_x_grid(values, edge * (1 + 1e-12), points=3)


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(st.lists(st.floats(), min_size=1, max_size=300),
                        st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=300)))
def test_quartiles_are_those_of_np_percentile(values):
    # the bytes of np.percentile's linear rule from one sort, but for the sign of a
    # zero quartile: -0.0 and 0.0 tie, and which comes first is the sort's choice
    values = np.array(values)
    with np.errstate(invalid="ignore"):  # inf - inf
        want = np.percentile(values, [75.0, 50.0, 25.0])
        got = np.array(_quartiles(values))
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert (got[~nan] + 0.0).tobytes() == (want[~nan] + 0.0).tobytes()


def test_spectral_estimate_real_for_symmetric_input():
    trip = cauchy_triplet()
    s = sample_increments(trip, 1.0, 2000, SeedSpec(88))
    g = UGrid.make(10.0, 0.05)
    est = spectral_estimate(ecf(s, g), 10.0, np.linspace(-5, 5, 101))
    assert est.imag_residual <= 1e-8 * np.max(np.abs(est.values))


def test_spectral_estimate_cauchy_pointwise():
    # mean over trials within 3 standard errors of dt/(pi (x^2 + dt^2))
    trip = cauchy_triplet()
    dt, n, trials = 1.0, 2000, 40
    g = UGrid.make(10.0, 0.05)
    xs = np.linspace(-4.0, 4.0, 41)
    fs = np.empty((trials, xs.size))
    for tr in range(trials):
        s = sample_increments(trip, dt, n, SeedSpec(1001, tr))
        fs[tr] = spectral_estimate(ecf(s, g), 10.0, xs).values
    mean = fs.mean(axis=0)
    se = fs.std(axis=0, ddof=1) / math.sqrt(trials)
    truth = dt / (math.pi * (xs ** 2 + dt ** 2))
    # slack beyond 3 SE covers the cutoff bias e^{-m}/pi and quadrature error
    assert np.all(np.abs(mean - truth) <= 3.0 * se + 2e-4)


def invert_longdouble(u, coef, x):
    """sum_k coef_k exp(-i u_k x_j) for each x_j, summed in long double.

    Each phase u_k x_j is formed and reduced mod 2pi in long double, so only
    the cos/sin of the reduced phase (|error| ~ 1e-16) is taken in double.
    """
    two_pi = 8 * np.arctan(np.longdouble(1))
    ul = u.astype(np.longdouble)
    cl = coef.astype(np.clongdouble)
    out = np.empty(x.size, dtype=np.clongdouble)
    rows = max(1, 2 ** 16 // u.size)
    for lo in range(0, x.size, rows):
        theta = x[lo:lo + rows, None].astype(np.longdouble) * ul
        r = (theta - np.rint(theta / two_pi) * two_pi).astype(float)
        out[lo:lo + rows] = (np.cos(r).astype(np.longdouble) @ cl
                             - 1j * (np.sin(r).astype(np.longdouble) @ cl))
    return out


X_GRIDS = {
    "uniform": lambda rng, size: np.linspace(-20.0, 20.0, size),
    "non-uniform": lambda rng, size: np.sort(rng.uniform(-20.0, 20.0, size)),
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no more precise than double here")
@pytest.mark.parametrize("count, size", [
    *[(count, size) for count in (1, 2, 401) for size in (1, 4096, 4097)],
    (16001, 1), (16001, 257),  # criterion 6's band size; fewer x points keep the reference fast
], ids=str)
@pytest.mark.parametrize("kind", sorted(X_GRIDS))
def test_inversion_within_rounding_bound_of_long_double_sum(kind, count, size):
    # A band of ``count`` frequencies from u_0 = -(count // 2) step (the
    # symmetric band spectral_estimate keeps when count is odd; count = 1 is
    # its zero-weight single point) against 1, 4096 and 4097 x points, so the
    # 4096-point table chunks are crossed.  Rounding u*x moves each term's
    # phase by up to eps*u_max*max|x|, so the bound scales with that times the
    # sum of the terms' moduli.
    rng = np.random.default_rng([count, size])
    step = 0.05
    u = (np.arange(count) - count // 2) * step
    phi = rng.uniform(0.0, 1.0, count) * np.exp(2j * math.pi * rng.uniform(size=count))
    x = X_GRIDS[kind](rng, size)
    coef = phi * trapezoid_weights(count, step) / (2.0 * math.pi)
    err = np.abs(_invert(u, phi, x, step) - invert_longdouble(u, coef, x)).astype(float)
    eps = np.finfo(float).eps
    bound = (1e-14 + eps * np.max(np.abs(u)) * np.max(np.abs(x))) * np.sum(np.abs(coef))
    assert err.max() <= bound


# ---------------------------------------------------------------------------
# thresholding

def test_threshold_level_formula():
    level = threshold_level(0.5, 10_000)
    assert level == pytest.approx((1.0 + 0.5 * math.sqrt(math.log(10_000))) / 100.0)
    kappas = np.array([0.0, 0.5, 2.0])
    np.testing.assert_array_equal(threshold_level(kappas, 10_000),
                                  [threshold_level(k, 10_000) for k in kappas])
    assert threshold_level(np.array([]), 10_000).size == 0


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, -1.0])
def test_threshold_spec_rejects_non_finite_or_negative_kappa(kappa):
    # the threshold_level check, reached from every entry point of the rule
    e = synthetic_ecf(UGrid.make(5.0, 0.1), lambda u: np.exp(-np.abs(u)), n=100)
    for call in (lambda: threshold_level(kappa, 100),
                 lambda: threshold_level(np.array([0.0, kappa]), 100),
                 lambda: unthresholded_mask(e, kappa), lambda: threshold_cf(e, kappa),
                 lambda: adaptive_estimate(e, kappa, np.linspace(-1.0, 1.0, 5))):
        with pytest.raises(ValueError, match=r"kappa(\[1\])? must be finite and nonnegative"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -2.0])
def test_threshold_level_names_the_first_bad_kappa_of_an_array(bad):
    kappas = np.array([0.0, 1.0, bad, -1.0, math.inf])
    with pytest.raises(ValueError) as info:
        threshold_level(kappas, 100)
    assert str(info.value) == f"kappa[2] must be finite and nonnegative, got {bad!r}"


def test_threshold_zeroes_everything_when_level_above_one():
    g = UGrid.make(5.0, 0.1)
    e = synthetic_ecf(g, lambda u: np.exp(-np.abs(u)), n=2)
    assert threshold_level(5.0, 2) > 1.0
    out = threshold_cf(e, 5.0)
    np.testing.assert_array_equal(out.values, 0.0)


def test_threshold_keeps_zero_frequency_at_kappa_zero():
    g = UGrid.make(5.0, 0.1)
    e = synthetic_ecf(g, lambda u: np.exp(-3.0 * np.abs(u)), n=4)
    out = threshold_cf(e, 0.0)
    assert out.values[g.half_count] == 1.0


def test_threshold_synthetic_moduli():
    g = UGrid.make(1.0, 1.0)  # three points: -1, 0, 1
    e = ECFGrid(g, np.array([0.01, 1.0, 0.5], dtype=complex), 100)
    kappa = (0.1 * 10.0 - 1.0) / math.sqrt(math.log(100))
    assert threshold_level(kappa, 100) == pytest.approx(0.1)
    out = threshold_cf(e, kappa)
    np.testing.assert_allclose(out.values, [0.0, 1.0, 0.5])


def test_threshold_kept_sets_shrink_with_kappa():
    s = sample_increments(cauchy_triplet(), 1.0, 500, SeedSpec(21))
    e = ecf(s, UGrid.make(10.0, 0.1))
    previous = None
    for kappa in np.linspace(0.0, 5.0, 26):
        kept = np.abs(threshold_cf(e, kappa).values) > 0
        np.testing.assert_array_equal(kept, unthresholded_mask(e, kappa))
        if previous is not None:
            assert np.all(kept <= previous)
        previous = kept


# ---------------------------------------------------------------------------
# adaptive estimator

def test_adaptive_zero_function_for_huge_kappa():
    s = sample_increments(cauchy_triplet(), 1.0, 100, SeedSpec(33))
    est = adaptive_estimate(ecf(s, UGrid.make(10.0, 0.1)), 50.0, np.linspace(-5, 5, 11))
    np.testing.assert_array_equal(est.values, 0.0)


def test_adaptive_equals_cutoff_when_nothing_thresholded():
    # on a narrow grid the ECF stays far above the kappa=0 level, so the
    # threshold is a no-op and the adaptive estimate equals the plain cutoff
    s = sample_increments(cauchy_triplet(), 1.0, 10_000, SeedSpec(44))
    g = UGrid.make(2.0, 0.05)
    e = ecf(s, g)
    assert np.min(np.abs(e.values)) >= threshold_level(0.0, s.n)
    xs = np.linspace(-3, 3, 61)
    a = adaptive_estimate(e, 0.0, xs)
    b = spectral_estimate(e, 2.0, xs)
    np.testing.assert_array_equal(a.values, b.values)


def test_adaptive_domain_intersects_n():
    # grid wider than n collapses to [-n, n]
    s = sample_of(np.linspace(-1, 1, 7))
    g = UGrid.make(10.0, 1.0)
    xs = np.linspace(-2, 2, 9)
    est = adaptive_estimate(ecf(s, g), 0.1, xs)
    want = adaptive_estimate(ecf(s, g.restrict(7.0)), 0.1, xs)
    assert g.restrict(7.0).u_max == 7.0
    np.testing.assert_array_equal(est.values, want.values)


# ---------------------------------------------------------------------------
# cutoffs

def test_optimal_cutoff_gaussian():
    g = ModelClass.gaussian_dominant()
    assert optimal_cutoff(g, 1.0, math.e ** 4, 1.0) == pytest.approx(2.0, rel=1e-12)
    logn = math.log(5000)
    m = optimal_cutoff(g, 0.3, 5000, 0.2)
    assert 0.2 * 0.3 * m * m == pytest.approx(logn, abs=1e-10)
    with pytest.raises(ValueError):
        optimal_cutoff(g, 0.0, 100, 1.0)


def test_optimal_cutoff_pure_jump():
    pj = ModelClass.pure_jump(1.0, 1.0)
    assert optimal_cutoff(pj, 0.0, math.e, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-12)
    # defining equation: exp(-M dt (2 m / pi)^alpha) = 1/n
    M = (2.0 + 1.0) / (2.0 - 0.7)
    pj = ModelClass.pure_jump(M, 0.7)
    n, dt = 10_000.0, 0.1
    m = optimal_cutoff(pj, 0.0, n, dt)
    assert M * dt * (2.0 * m / math.pi) ** 0.7 == pytest.approx(math.log(n), abs=1e-10)
    assert math.exp(-M * dt * (2.0 * m / math.pi) ** 0.7) * n == pytest.approx(1.0, abs=1e-9)


def test_optimal_cutoff_mixed_delegates():
    mc = ModelClass.mixed(1.0, 1.0)
    assert optimal_cutoff(mc, 1.0, 1000.0, 1.0) == pytest.approx(
        mixed_cutoff(1.0, 1.0, 1.0, 1.0, 1000.0), rel=1e-9)


def test_mixed_cutoff_degenerate_branches():
    c_alpha = 2.0 * 1.0 * (2.0 / math.pi)
    assert mixed_cutoff(0.0, 1.0, 1.0, 1.0, 100.0) == pytest.approx(
        math.log(100.0) / c_alpha, rel=1e-12)
    assert mixed_cutoff(2.0, 0.0, 1.0, 0.5, 100.0) == pytest.approx(
        math.sqrt(math.log(100.0) / 1.0), rel=1e-12)


def test_mixed_cutoff_quadratic_oracle():
    # alpha = 1: sigma^2 m^2 + (4/pi) m = log n has a closed-form root
    n = math.e ** 4
    m = mixed_cutoff(1.0, 1.0, 1.0, 1.0, n)
    b = 4.0 / math.pi
    root = (-b + math.sqrt(b * b + 16.0)) / 2.0
    assert m == pytest.approx(root, abs=1e-9)
    # residual of the defining equation
    assert abs(1.0 * m * m + b * m - 4.0) < 1e-10


def test_mixed_cutoff_limits():
    for a in (0.7, 1.0, 1.7):
        c_alpha = 2.0 * 0.8 * (2.0 / math.pi) ** a
        pure = (math.log(5000.0) / (c_alpha * 1.0)) ** (1.0 / a)
        gaps = []
        for s2 in (1e-2, 1e-4, 1e-8):
            gaps.append(abs(mixed_cutoff(s2, 0.8, a, 1.0, 5000.0) - pure) / pure)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6
    gauss = math.sqrt(math.log(5000.0) / 2.0)
    assert abs(mixed_cutoff(2.0, 1e-8, 1.3, 1.0, 5000.0) - gauss) / gauss < 1e-6


def test_mixed_cutoff_domain_errors():
    with pytest.raises(ValueError):
        mixed_cutoff(0.0, 0.0, 1.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        mixed_cutoff(1.0, 1.0, 1.0, 1.0, 1.0)  # log n = 0


# ---------------------------------------------------------------------------
# plancherel

def test_plancherel_identical_inputs():
    g = UGrid.make(10.0, 0.05)
    e = synthetic_ecf(g, lambda u: np.exp(-np.abs(u)))
    assert plancherel_l2(e.values, e.values, g) == 0.0


def test_plancherel_exponential_norm():
    g = UGrid.make(40.0, 0.005)
    e = synthetic_ecf(g, lambda u: np.exp(-np.abs(u)))
    zero = np.zeros(len(g.points), dtype=complex)
    assert plancherel_l2(e.values, zero, g) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-4)


@pytest.mark.parametrize("half_count", [1, 2, 200, 1000])
def test_plancherel_matches_numpy_trapezoid(half_count):
    g = UGrid(0.05 * half_count, 0.05)
    rng = np.random.default_rng(half_count)
    a, b = rng.standard_normal((2, g.points.size)) + 1j * rng.standard_normal((2, g.points.size))
    want = np.trapezoid(np.abs(a - b) ** 2, dx=g.step) / (2.0 * math.pi)
    assert plancherel_l2(a, b, grid=g) == pytest.approx(want, rel=1e-14)


def test_plancherel_takes_the_public_trapezoid_weights_from_a_cached_row():
    g = UGrid(1.0, 0.05)
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((2, g.points.size)) + 1j * rng.standard_normal((2, g.points.size))
    diff = np.abs(a - b) ** 2
    want = float(diff @ trapezoid_weights(diff.size, g.step) / (2.0 * math.pi))
    assert plancherel_l2(a, b, g) == want == plancherel_l2(a, b, g)
    # the cached row is read-only; the public weights stay a fresh, writable array
    weights = trapezoid_weights(diff.size, g.step)
    weights[0] = 7.0
    assert plancherel_l2(a, b, g) == want
    assert trapezoid_weights(diff.size, g.step)[0] == g.step / 2.0


def test_plancherel_grid_mismatch():
    # values on grids of different lengths cannot be subtracted point by point
    g1 = UGrid.make(10.0, 0.05)
    g2 = UGrid.make(10.0, 0.1)
    a = synthetic_ecf(g1, lambda u: np.exp(-np.abs(u)))
    b = synthetic_ecf(g2, lambda u: np.exp(-np.abs(u)))
    with pytest.raises(ValueError, match=r"different shapes, \(401,\) and \(201,\)"):
        plancherel_l2(a.values, b.values, g1)
