"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The table-reproduction sweep (criterion 1) runs the full
three-model benchmark at 100 trials and takes on the order of a minute.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from levyspec import (CustomJumpDensity, ECFGrid, ExperimentConfig, LevyTriplet,
                      ModelClass, SeedSpec, StableJumpDensity, UGrid,
                      adaptive_risk_bound_check, cauchy_triplet,
                      check_small_jump_bound, cutoff_risk_bound_check, ecf,
                      gamma_process_density, increment_stable_law,
                      levy_khintchine_cf, mixed_cutoff, optimal_cutoff,
                      oscillating_density, partition_density, picard_cf_bound,
                      picard_derivative_bound, plancherel_l2, relative_l2_risk,
                      sample_increments, spectral_estimate, stable_cf,
                      stable_density_l2_norm, stable_sample, stabilization_index,
                      threshold_cf, truncated_moment_ratio, unthresholded_mask)
from levyspec import StableLaw
from scipy import stats

MASTER_SEED = 20260810

# Benchmark targets: mean relative L2 risk per (alpha, delta, n), published
# for this experiment design (100 trials, auto kappa, domain [-10/dt, 10/dt]).
# Two entries carried a factor-of-ten slip (numbers behind them in CHANGES.md):
# (0.7, 0.1, 500) 5.62e-1 -> 5.62e-2: needs kappa > 5 (grid max), 12x its dt=1 entry
# (1.0, 1.0, 1000) 1.25e-3 -> 1.25e-2: rose with n, 11x below its dt=0.1 entry
TABLE_REFERENCE = {
    (0.7, 0.1): {500: 5.62e-2, 1000: 3.03e-2, 5000: 8.89e-3, 10000: 5.21e-3},
    (0.7, 1.0): {500: 4.70e-2, 1000: 2.59e-2, 5000: 6.95e-3, 10000: 5.10e-3},
    (1.0, 0.1): {500: 2.50e-2, 1000: 1.36e-2, 5000: 3.44e-3, 10000: 1.92e-3},
    (1.0, 1.0): {500: 2.10e-2, 1000: 1.25e-2, 5000: 3.03e-3, 10000: 1.75e-3},
    (1.7, 0.1): {500: 3.16e-2, 1000: 1.70e-2, 5000: 2.37e-3, 10000: 8.48e-4},
    (1.7, 1.0): {500: 3.21e-2, 1000: 1.50e-2, 5000: 1.85e-3, 10000: 8.45e-4},
}

MODELS = {
    0.7: StableJumpDensity(2.0, 1.0, 0.7),
    1.0: StableJumpDensity(1.0 / math.pi, 1.0 / math.pi, 1.0),
    1.7: StableJumpDensity(2.0, 1.0, 1.7),
}


def announce(num: int, description: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {description}{suffix}")
    return ok


# ---------------------------------------------------------------------------

def table_inconsistencies(table) -> list:
    """Entries of a reference table that rise with n or disagree across dt."""
    bad = []
    for (alpha, dt), row in sorted(table.items()):
        ns = sorted(row)
        bad += [("rises in n", alpha, dt, a, b) for a, b in zip(ns, ns[1:])
                if row[b] > row[a]]
    # For a pure-jump stable law X_dt has the law of gamma(dt) * Y plus a shift,
    # and the shift moves only the phase of the CF.  The relative risk thus
    # depends on dt only through the frequency grid and the calibrated kappa,
    # so the dt=0.1 and dt=1 entries must agree within the factor-3 band.
    for alpha in sorted({alpha for alpha, _ in table}):
        short, long = table[(alpha, 0.1)], table[(alpha, 1.0)]
        bad += [("dt ratio", alpha, n, short[n] / long[n]) for n in sorted(short)
                if not 1.0 / 3.0 <= short[n] / long[n] <= 3.0]
    return bad


def test_table_reference_consistency():
    assert table_inconsistencies(TABLE_REFERENCE) == []
    # each factor-of-ten slip the table once held is caught on its own
    for (alpha, dt, n), old in (((0.7, 0.1, 500), 5.62e-1), ((1.0, 1.0, 1000), 1.25e-3)):
        table = {key: dict(row) for key, row in TABLE_REFERENCE.items()}
        table[(alpha, dt)][n] = old
        assert table_inconsistencies(table), (alpha, dt, n)


def test_criterion_1_table_reproduction():
    t0 = time.time()
    failures = []
    cells = {}
    for (alpha, dt), targets in sorted(TABLE_REFERENCE.items()):
        config = ExperimentConfig(LevyTriplet(0.0, 0.0, MODELS[alpha]), dt,
                                  tuple(sorted(targets)), trials=100,
                                  kappa_mode="auto", master_seed=MASTER_SEED)
        reports = relative_l2_risk(config)
        means = {}
        for rep in reports:
            means[rep.n] = rep.mean_relative_risk
            cells[(alpha, dt, rep.n)] = rep
            ref = targets[rep.n]
            ratio = rep.mean_relative_risk / ref
            in_band = 1.0 / 3.0 <= ratio <= 3.0
            note = "ok" if in_band else "OUT OF BAND"
            print(f"  alpha={alpha} dt={dt} n={rep.n:>6}: "
                  f"risk={rep.mean_relative_risk:.3e} (sd {rep.sd_relative_risk:.1e}) "
                  f"kappa={rep.mean_kappa:.2f} ref={ref:.3e} ratio={ratio:5.2f} {note}")
            if not in_band:
                failures.append(((alpha, dt, rep.n), ratio))
        ns = sorted(means)
        row = [means[n] for n in ns]
        if not all(a >= b for a, b in zip(row, row[1:])):
            failures.append(((alpha, dt, "monotone"), row))
        if not means[500] > means[10000]:
            failures.append(((alpha, dt, "strict 500 vs 10000"), row))
    # heavier small-jump activity estimates better: alpha = 1.7 beats 0.7 at
    # (dt=1, n=10^4) within two pooled standard errors
    hi, lo = cells[(1.7, 1.0, 10000)], cells[(0.7, 1.0, 10000)]
    pooled = math.hypot(hi.sd_relative_risk, lo.sd_relative_risk) / math.sqrt(hi.trials)
    if not hi.mean_relative_risk <= lo.mean_relative_risk + 2.0 * pooled:
        failures.append((("alpha ordering at dt=1, n=10000"),
                         (hi.mean_relative_risk, lo.mean_relative_risk)))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 900.0
    announce(1, "table reproduction within factor 3, rows non-increasing in n",
             ok, f"{elapsed:.0f}s")
    assert elapsed < 900.0
    assert not failures, f"cells out of tolerance: {failures}"


def test_criterion_2_cutoff_risk_bound():
    t0 = time.time()
    ok = True
    for dt in (0.1, 1.0):
        for n in (500, 5000):
            rep = cutoff_risk_bound_check(dt, n, trials=100, master_seed=MASTER_SEED)
            ok &= rep.passed
            worst = min(row["margin"] for row in rep.rows)
            print(f"  dt={dt} n={n}: {'ok' if rep.passed else 'VIOLATED'} "
                  f"(worst margin {worst:+.2e})")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    announce(2, "fixed-cutoff risk bound holds at 3 MC standard errors", ok,
             f"{elapsed:.0f}s")
    assert ok


def test_criterion_3_adaptive_risk_bound():
    ok = True
    kappa = 2.0 * math.sqrt(2.0)
    for dt in (0.1, 1.0):
        for n in (500, 5000):
            rep = adaptive_risk_bound_check(dt, n, kappa=kappa, trials=100,
                                            master_seed=MASTER_SEED)
            ok &= rep.passed
            row = rep.rows[0]
            print(f"  dt={dt} n={n}: empirical={row['empirical']:.3e} "
                  f"bound={row['bound']:.3e} {'ok' if rep.passed else 'VIOLATED'}")
    announce(3, "adaptive oracle inequality holds at kappa = 2*sqrt(2)", ok)
    assert ok


def test_criterion_4_cutoff_solvers():
    checks = []
    # gaussian-dominant: dt sigma^2 m*^2 = log n
    m = optimal_cutoff(ModelClass.gaussian_dominant(), 0.7, 5000.0, 0.3)
    checks.append(abs(0.3 * 0.7 * m * m - math.log(5000.0)) < 1e-10)
    # pure jump: exp(-M dt (2 m*/pi)^alpha) = 1/n
    M = 3.0 / 1.3
    m = optimal_cutoff(ModelClass.pure_jump(M, 0.7), 0.0, 1e4, 0.1)
    checks.append(abs(M * 0.1 * (2.0 * m / math.pi) ** 0.7 - math.log(1e4)) < 1e-10)
    checks.append(abs(math.exp(-M * 0.1 * (2.0 * m / math.pi) ** 0.7) - 1e-4) < 1e-10)
    # mixed solver: residual below 1e-10
    for (s2, M2, a) in ((1.0, 1.0, 1.0), (0.3, 2.0, 0.7), (2.0, 0.5, 1.7)):
        c = 2.0 * M2 * (2.0 / math.pi) ** a
        root = mixed_cutoff(s2, M2, a, 1.0, 5000.0)
        checks.append(abs(s2 * root * root + c * root ** a - math.log(5000.0)) < 1e-10)
    # limits: sigma2 -> 0 recovers the jump formula, M -> 0 the gaussian one
    for a in (0.7, 1.0, 1.7):
        c = 2.0 * 0.8 * (2.0 / math.pi) ** a
        pure = (math.log(5000.0) / c) ** (1.0 / a)
        got = mixed_cutoff(1e-8, 0.8, a, 1.0, 5000.0)
        checks.append(abs(got - pure) / pure < 1e-6)
    gauss = math.sqrt(math.log(5000.0) / 2.0)
    got = mixed_cutoff(2.0, 1e-8, 1.3, 1.0, 5000.0)
    checks.append(abs(got - gauss) / gauss < 1e-6)
    ok = all(checks)
    announce(4, "cutoff solvers satisfy their defining equations to 1e-10", ok)
    assert ok


def test_criterion_5_sampler_distributional_correctness():
    # Kolmogorov-Smirnov against the exact arctan CDF at the 1% level
    sample = stable_sample(StableLaw(1.0, 1.0, 0.0, 0.0), 100_000, SeedSpec(MASTER_SEED))
    cdf = lambda x: 0.5 + np.arctan(x) / math.pi
    ks = stats.kstest(sample.values, cdf).statistic
    ks_ok = ks < 1.6276 / math.sqrt(sample.n)
    # ECF within the 2 sqrt(log n / n) band at >= 95% of grid points, 100 seeds
    trip = cauchy_triplet()
    n = 10_000
    grid = UGrid.make(10.0, 0.1)
    phi = levy_khintchine_cf(trip, 1.0, grid.points)
    band = 2.0 * math.sqrt(math.log(n) / n)
    inside = 0
    total = 0
    for trial in range(100):
        s = sample_increments(trip, 1.0, n, SeedSpec(MASTER_SEED, trial))
        inside += int(np.count_nonzero(np.abs(ecf(s, grid).values - phi) < band))
        total += len(grid.points)
    frac = inside / total
    ok = ks_ok and frac >= 0.95
    announce(5, "sampler passes KS at 1% and ECF stays in the Hoeffding band",
             ok, f"KS={ks:.4f}, band fraction={frac:.4f}")
    assert ok


def test_criterion_6_analytic_identities():
    # (a) Plancherel consistency: x-domain norm of the inverted estimate equals
    #     the frequency-domain norm to 1e-6 relative
    # the inverted density has 1/x^2 tails, so the x-window must reach +-160
    # to push the truncated tail mass below the 1e-6 target
    m = 8.0
    grid = UGrid.make(m, 0.001)
    phi = np.exp(-np.abs(grid.points))
    e = ECFGrid(grid, phi.astype(complex), 10_000)
    xs = np.arange(-1280, 1281) * 0.125
    est = spectral_estimate(e, m, xs)
    x_norm = float(np.trapezoid(est.values ** 2, dx=0.125))
    u_norm = plancherel_l2(e.values, np.zeros_like(phi, dtype=complex), grid)
    parseval_rel = abs(x_norm - u_norm) / u_norm
    # (b) Dirichlet kernel identity at 1e-10
    dgrid = UGrid.make(1.0, 2e-5)
    ones = ECFGrid(dgrid, np.ones(len(dgrid.points), dtype=complex), 10)
    dx = np.array([-3.0, -1.0, -0.25, 0.25, 0.5, 1.0, 2.0, 3.0])
    dvals = spectral_estimate(ones, 1.0, dx).values
    dirichlet_err = float(np.max(np.abs(dvals - np.sin(dx) / (math.pi * dx))))
    at_zero = spectral_estimate(ones, 1.0, np.array([0.0])).values[0]
    # (c) stable CF vs direct quadrature of the jump exponent at 1e-6
    cf_err = 0.0
    us = np.array([-5.5, -2.0, -0.7, 0.4, 1.0, 3.1])
    for jumps in MODELS.values():
        custom = CustomJumpDensity(lambda x, j=jumps: float(j(x)), check=False)
        via_quad = levy_khintchine_cf(LevyTriplet(0.0, 0.0, custom), 1.0, us)
        closed = stable_cf(increment_stable_law(jumps, 1.0), us)
        cf_err = max(cf_err, float(np.max(np.abs(via_quad - closed))))
    # (d) ||f||^2 closed form vs quadrature at 1e-8
    norm_err = 0.0
    for jumps in MODELS.values():
        law = increment_stable_law(jumps, 1.0)
        oracle, _ = quad(lambda v: math.exp(-2.0 * law.gamma ** law.alpha * v ** law.alpha) / math.pi,
                         0.0, np.inf, epsrel=1e-12)
        norm_err = max(norm_err, abs(stable_density_l2_norm(law) - oracle) / oracle)
    ok = (parseval_rel < 1e-6 and dirichlet_err < 1e-10
          and at_zero == pytest.approx(1.0 / math.pi, rel=1e-14, abs=0)
          and cf_err < 1e-6 and norm_err < 1e-8)
    announce(6, "Plancherel/Dirichlet/CF/norm identities hold", ok,
             f"parseval={parseval_rel:.1e}, dirichlet={dirichlet_err:.1e}, "
             f"cf={cf_err:.1e}, norm={norm_err:.1e}")
    assert ok


def test_criterion_7_cf_and_density_bounds():
    ok = True
    for jumps in MODELS.values():
        M = jumps.activity_constant
        trip = LevyTriplet(0.0, 0.0, jumps)
        u = np.linspace(math.pi / 2.0, 60.0, 400)
        for dt in (0.1, 1.0):
            cf = np.abs(levy_khintchine_cf(trip, dt, u))
            bound = picard_cf_bound(M, jumps.alpha, dt, u)
            ok &= bool(np.all(cf <= bound + 1e-12))
    # sup of the explicit symmetric 1-stable density vs the derivative bound
    for dt in (0.1, 1.0):
        sup_density = 1.0 / (math.pi * dt)
        ok &= sup_density <= picard_derivative_bound(0, dt, 2.0 / math.pi, 1.0)
    announce(7, "CF and density sup bounds dominate the exact quantities", ok)
    assert ok


def test_criterion_8_calibration_mechanics():
    traces = {
        (1, 1, 1, 1): 2,
        (5, 4, 3, 3, 3, 2): 4,
        (9, 8, 7, 6, 5, 4): None,
        (3, 3, 3): 2,
        (4, 3, 3, 3): 3,
    }
    ok = all(stabilization_index(list(t)) == want for t, want in traces.items())
    # mask monotonicity across a 100-point kappa grid on a real ECF
    s = sample_increments(cauchy_triplet(), 1.0, 2000, SeedSpec(MASTER_SEED))
    e = ecf(s, UGrid.make(10.0, 0.05))
    masks = [unthresholded_mask(e, k) for k in np.linspace(0.0, 5.0, 100)]
    for small, large in zip(masks, masks[1:]):
        ok &= bool(np.all(large <= small))
    announce(8, "kappa stabilization traces exact, masks monotone", ok)
    assert ok


def test_criterion_9_class_membership():
    stable = StableJumpDensity(2.0, 1.0, 0.7)
    M = stable.activity_constant
    ok = check_small_jump_bound(stable, M, 0.7) is True
    ok &= check_small_jump_bound(stable, 2.0 * M, 0.7) is False
    ok &= check_small_jump_bound(gamma_process_density(), 0.5, 0.5,
                                 np.array([1e-4, 1e-2, 1.0])) is False
    # oscillating density: ratio bounded below when the probe exponent is
    # below the upper envelope index
    osc = oscillating_density(alpha=0.5, beta=1.5)
    vals = [truncated_moment_ratio(osc, eta, 1.4, rtol=1e-3)
            for eta in (1e-2, 1e-3, 1e-4)]
    ok &= all(v > 1.0 for v in vals)
    # partition density: ratio along the even dyadic-tower etas vanishes
    part = partition_density()
    etas = [2.0 ** -(2.0 ** (2 * k)) for k in (1, 2, 3)]
    a_k = [truncated_moment_ratio(part, e, 0.6) for e in etas]
    ok &= a_k[0] > a_k[1] > a_k[2]
    announce(9, "class membership checks and moment-ratio behavior", ok,
             f"a_k={a_k[0]:.3f},{a_k[1]:.3f},{a_k[2]:.2e}")
    assert ok
