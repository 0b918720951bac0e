import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyspec import (ECFGrid, FALLBACK_KAPPA, KappaGrid, NoStabilizationError,
                      SeedSpec, UGrid, calibrate, cauchy_triplet, chi_profile, ecf,
                      euler_characteristic, sample_increments, select_kappa,
                      stabilization_index, unthresholded_mask)
from levyspec.calibration import write_chi_csv
from levyspec.estimator import threshold_level


def synthetic(grid, fn, n):
    return ECFGrid(grid, np.asarray(fn(grid.points), dtype=complex), n)


# ---------------------------------------------------------------------------
# masks

def test_mask_all_false_when_level_above_one():
    g = UGrid.make(5.0, 0.1)
    e = synthetic(g, lambda u: np.exp(-np.abs(u)), n=2)
    mask = unthresholded_mask(e, 10.0)
    assert mask.dtype == bool and mask.shape == e.values.shape
    assert not mask.any()


def test_mask_keeps_zero_frequency_at_kappa_zero():
    g = UGrid.make(5.0, 0.1)
    e = synthetic(g, lambda u: np.exp(-4.0 * np.abs(u)), n=9)
    mask = unthresholded_mask(e, 0.0)
    assert mask[g.half_count]


def test_mask_monotone_on_kappa_grid():
    s = sample_increments(cauchy_triplet(), 1.0, 1000, SeedSpec(17))
    e = ecf(s, UGrid.make(10.0, 0.1))
    kappas = KappaGrid(0.05, 100).kappas
    masks = [unthresholded_mask(e, k) for k in kappas]
    for small, large in zip(masks, masks[1:]):
        assert np.all(large <= small)


# ---------------------------------------------------------------------------
# Euler characteristic

def test_chi_trivials():
    assert euler_characteristic(np.array([], dtype=bool)) == 0
    assert euler_characteristic(np.ones(10, dtype=bool)) == 1
    assert euler_characteristic(np.zeros(10, dtype=bool)) == 0
    assert euler_characteristic(np.array([True, True, False, True])) == 2


@given(st.lists(st.booleans(), max_size=60))
@settings(max_examples=200, deadline=None)
def test_chi_counts_runs(bits):
    arr = np.array(bits, dtype=bool)
    runs = 0
    prev = False
    for b in bits:
        if b and not prev:
            runs += 1
        prev = b
    assert euler_characteristic(arr) == runs


@given(data=st.data(), n=st.integers(min_value=1, max_value=10 ** 7),
       delta_step=st.floats(min_value=0.01, max_value=1.0),
       count=st.integers(min_value=3, max_value=60))
@settings(max_examples=200, deadline=None)
def test_chi_profile_equals_per_kappa_masks(data, n, delta_step, count):
    k = data.draw(st.integers(min_value=1, max_value=40))
    unit = st.floats(min_value=-1.0, max_value=1.0)
    parts = data.draw(st.lists(st.tuples(unit, unit), min_size=2 * k + 1, max_size=2 * k + 1))
    e = ECFGrid(UGrid(k * 0.1, 0.1), np.array([complex(re, im) for re, im in parts]), n)
    kgrid = KappaGrid(delta_step, count)
    kappas, chis = chi_profile(e, kgrid)
    np.testing.assert_array_equal(kappas, kgrid.kappas)
    assert list(chis) == [euler_characteristic(unthresholded_mask(e, kap)) for kap in kappas]


def _on_levels(n, kgrid, picks):
    """ECF values whose moduli are exactly the threshold levels ``picks`` indexes,
    turned by 1, i, -1, -i in turn so that abs() returns each level unrounded."""
    levels = threshold_level(kgrid.kappas, n)
    turns = np.array([1, 1j, -1, -1j])[np.arange(len(picks)) % 4]
    return levels[picks] * turns


@pytest.mark.parametrize("case", ["ties", "plateaus", "levels_above_one", "n_is_one"])
def test_chi_profile_counts_ties_and_plateaus_like_the_masks(case):
    if case == "ties":  # every modulus equals a level, so each point is kept by ">="
        n, kgrid = 100, KappaGrid(0.5, 6)
        values = _on_levels(n, kgrid, [0, 3, 1, 6, 2, 5, 4, 0, 6])
        want = [1, 2, 3, 4, 3, 3, 2]
    elif case == "plateaus":  # runs of equal moduli, on levels and between them
        n, kgrid = 100, KappaGrid(0.5, 6)
        values = _on_levels(n, kgrid, [2, 2, 2, 0, 0, 4, 4, 4, 4, 1, 1])
        values[3:5] *= 0.5
        want = [2, 2, 2, 1, 1, 0, 0]
    elif case == "levels_above_one":  # past kappa = 0 every level exceeds |phi| <= 1
        n, kgrid = 2, KappaGrid(10.0, 3)
        values = np.array([0.3, 1, 1j, -0.9, 0.3, 0.9j, -1, 0.3, 0.3], dtype=complex)
        want = [2, 0, 0, 0]
    else:  # n = 1: log n = 0, so every level is exactly 1
        n, kgrid = 1, KappaGrid(0.05, 100)
        values = np.array([1, 1j, 0.5, -1, 0, -1j, 1, 1, 0.999999999], dtype=complex)
        assert np.all(threshold_level(kgrid.kappas, n) == 1.0)
        want = [3] * 101
    e = ECFGrid(UGrid((len(values) // 2) * 1.0, 1.0), values, n)
    kappas, chis = chi_profile(e, kgrid)
    assert list(chis) == [euler_characteristic(unthresholded_mask(e, kap)) for kap in kappas]
    assert list(chis) == want


# ---------------------------------------------------------------------------
# stabilization rule

def test_stabilization_constant_sequence():
    assert stabilization_index([1, 1, 1, 1]) == 2


def test_stabilization_hand_trace():
    assert stabilization_index([5, 4, 3, 3, 3, 2]) == 4


def test_stabilization_never():
    assert stabilization_index([9, 8, 7, 6, 5, 4, 3, 2, 1]) is None


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=30))
@settings(max_examples=200, deadline=None)
def test_stabilization_matches_bruteforce(chis):
    want = None
    for k in range(2, len(chis)):
        if chis[k] == chis[k - 1] == chis[k - 2]:
            want = k
            break
    assert stabilization_index(chis) == want


# ---------------------------------------------------------------------------
# kappa selection

def test_kappa_grid_rejects_a_top_kappa_that_overflows():
    with pytest.raises(ValueError, match=r"count \* delta_step = 100 \* 1e\+307 overflows"):
        KappaGrid(1e307, 100)
    with pytest.raises(ValueError, match=r"= 10{400} \* 0\.05 overflows"):
        KappaGrid(0.05, 10 ** 400)
    assert KappaGrid(1.7e306, 100).kappas[-1] == 1.7e308


def test_select_kappa_constant_chi_gives_two_steps():
    # noise-free exponential CF: the kept set is one interval at every kappa
    g = UGrid.make(10.0, 0.05)
    e = synthetic(g, lambda u: np.exp(-np.abs(u)), n=10_000)
    grid = KappaGrid(0.05, 100)
    kappas, chis = chi_profile(e, grid)
    assert np.all(chis == 1)
    assert select_kappa(e, grid) == pytest.approx(0.1)


def test_select_kappa_invariant_to_grid_refinement():
    for step in (0.1, 0.05):
        g = UGrid.make(10.0, step)
        e = synthetic(g, lambda u: np.exp(-np.abs(u)), n=10_000)
        assert select_kappa(e) == pytest.approx(0.1)


def test_select_kappa_no_stabilization_raises_with_chis():
    # a strictly decreasing staircase of moduli defeats the three-in-a-row rule
    g = UGrid.make(4.0, 1.0)  # nine points
    n = 100
    sqrt_logn = math.sqrt(math.log(n))
    grid = KappaGrid(0.5, 4)
    # place moduli so each kappa step drops exactly one kept point
    levels = [(1.0 + k * 0.5 * sqrt_logn) / math.sqrt(n) for k in range(6)]
    mods = np.zeros(9)
    mods[4] = 1.0
    mods[0], mods[2], mods[6], mods[8] = levels[1], levels[2], levels[3], levels[4]
    e = ECFGrid(g, mods.astype(complex), n)
    with pytest.raises(NoStabilizationError) as err:
        select_kappa(e, grid)
    assert len(err.value.chis) == 5
    assert FALLBACK_KAPPA == pytest.approx(2.0 * math.sqrt(2.0))


def test_select_kappa_on_real_sample_in_grid_range():
    s = sample_increments(cauchy_triplet(), 1.0, 10_000, SeedSpec(2))
    e = ecf(s, UGrid.make(10.0, 0.05))
    k = select_kappa(e)
    assert 0.0 < k <= 5.0


@given(data=st.data(), n=st.integers(min_value=1, max_value=10 ** 7),
       delta_step=st.floats(min_value=0.01, max_value=1.0),
       count=st.integers(min_value=3, max_value=12))
@settings(max_examples=200, deadline=None)
def test_calibrate_is_select_kappa_or_the_fallback(data, n, delta_step, count):
    # each point is a free value in the unit square or sits on a kappa level, so
    # that chi often keeps changing and both outcomes are drawn
    kgrid = KappaGrid(delta_step, count)
    k = data.draw(st.integers(min_value=1, max_value=20))
    unit = st.floats(min_value=-1.0, max_value=1.0)
    points = data.draw(st.lists(st.one_of(st.tuples(unit, unit), st.integers(0, count)),
                                min_size=2 * k + 1, max_size=2 * k + 1))
    levels = threshold_level(kgrid.kappas, n)
    values = [complex(*p) if isinstance(p, tuple) else complex(levels[p]) for p in points]
    e = ECFGrid(UGrid(k * 0.1, 0.1), np.array(values), n)
    try:
        want = (select_kappa(e, kgrid), False)
    except NoStabilizationError:
        want = (FALLBACK_KAPPA, True)
    assert calibrate(e, kgrid, fallback=True) == want
    if want[1]:
        with pytest.raises(NoStabilizationError) as err:
            calibrate(e, kgrid)
        assert err.value.chis == list(chi_profile(e, kgrid)[1])
    else:
        assert calibrate(e, kgrid) == want


def test_write_chi_csv(tmp_path):
    path = tmp_path / "chi.csv"
    write_chi_csv([0.0, 0.05], [3, 1], path, ["n=100"])
    assert path.read_text() == "# n=100\nkappa,chi\n0,3\n0.050000000000000003,1\n"


def test_write_chi_csv_writes_the_kappas_of_an_integer_step_as_floats(tmp_path):
    # KappaGrid(10**12, 10**6).kappas is an integer array; a kappa cell is %.17g all the same
    path = tmp_path / "chi.csv"
    grid = KappaGrid(10 ** 12, 10 ** 6)
    write_chi_csv(grid.kappas[-2:], [2, 1], path)
    assert path.read_text() == "kappa,chi\n9.99999e+17,2\n1e+18,1\n"
