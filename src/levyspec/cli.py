"""Command-line front end.

Subcommands: sample, estimate, risk-table, calibrate, check-bounds.
Exit codes: 0 success, 1 failed bound check, 2 validation error, 3 numeric
failure, 4 calibration did not stabilize (and --fallback was not given).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .calibration import (FALLBACK_KAPPA, KappaGrid, chi_profile, select_kappa,
                          stabilization_index, write_chi_csv)
from .errors import NoStabilizationError, QuadratureError, UnsupportedModelError
from .estimator import (ECFGrid, UGrid, default_u_max, default_x_grid, ecf,
                        adaptive_estimate, sample_bulk, write_ecf_csv,
                        write_estimate_csv)
from .models import LevyTriplet, StableJumpDensity
from .risk import (ExperimentConfig, adaptive_risk_bound_check,
                   cutoff_risk_bound_check, risk_table, risk_table_csv)
from .sampling import IncrementSample, SeedSpec, sample_increments, write_increments_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_NO_STABILIZATION = 4


def _env_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("LEVYSPEC_SEED")
    return int(env) if env else 0


def _meta(args: argparse.Namespace, command: str, resolved: dict) -> list[str]:
    lines = [f"levyspec {__version__} {command}"]
    lines += [f"{k}={v}" for k, v in resolved.items()]
    if not getattr(args, "no_meta", False):
        lines.append(f"generated={datetime.now(timezone.utc).isoformat()}")
    return lines


def _triplet_from_args(args: argparse.Namespace) -> LevyTriplet:
    jumps = None
    if args.alpha is not None:
        if (args.P or 0.0) + (args.Q or 0.0) <= 0:
            raise ValueError("stable jumps need P + Q > 0")
        jumps = StableJumpDensity(args.P or 0.0, args.Q or 0.0, args.alpha)
    return LevyTriplet(args.b, args.sigma2, jumps)


def read_values_csv(path: str, difference: bool = False) -> np.ndarray:
    """Read one- or two-column numeric CSV; optional header and # comments.

    The body is parsed by ``np.loadtxt`` in C.  Any file it does not parse into
    1 or 2 columns of finite last-column values goes to ``_read_values_loop``,
    which defines the format and raises its line-numbered errors.
    """
    data = _read_values_fast(path)
    if data is None or (difference and data.size < 2):
        return _read_values_loop(path, difference)
    return np.diff(data) if difference else data


def _read_values_fast(path: str) -> np.ndarray | None:
    """The last column read by ``np.loadtxt`` from the first numeric row on, or None."""
    if not os.path.isfile(path):  # a pipe can be read only once, and this opens it twice
        return None
    try:
        with open(path) as fh:
            for skip, raw in enumerate(fh):  # the preamble: blank, # and header lines
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                cells = line.split(",")
                if len(cells) not in (1, 2):
                    return None
                try:
                    float(cells[-1])
                except ValueError:
                    continue  # header row
                break
            else:
                return None
        # The path, not the open file: loadtxt reads a path in large chunks, but
        # pulls one Python line at a time from an open file.
        table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip)
    except ValueError:
        return None
    # At least one row, with the 1 or 2 columns of the first: loadtxt raises on ragged rows.
    values = np.ascontiguousarray(table[:, -1])
    return values if np.isfinite(values).all() else None


def _read_values_loop(path: str, difference: bool = False) -> np.ndarray:
    """The CSV format, one line at a time: one or two columns, the last one read;
    blank lines, # lines and header rows before the first number are skipped."""
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if len(cells) not in (1, 2):
                raise ValueError(f"{path}:{lineno}: expected 1 or 2 columns, got {len(cells)}")
            try:
                value = float(cells[-1])
            except ValueError:
                if not values:
                    continue  # header row before any data
                raise ValueError(f"{path}:{lineno}: non-numeric cell {cells[-1]!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite cell {cells[-1]!r}")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no numeric rows found")
    data = np.asarray(values)
    if difference:
        if data.size < 2:
            raise ValueError(f"{path}: need at least 2 level observations to difference")
        data = np.diff(data)
    return data


# ---------------------------------------------------------------------------
# subcommands

def _cmd_sample(args) -> int:
    seed = _env_seed(args.seed)
    triplet = _triplet_from_args(args)
    sample = sample_increments(triplet, args.delta, args.n, SeedSpec(seed, args.trial))
    meta = _meta(args, "sample", {
        "alpha": args.alpha, "P": args.P, "Q": args.Q, "sigma2": args.sigma2,
        "b": args.b, "delta": args.delta, "n": args.n, "seed": seed,
        "trial": args.trial})
    write_increments_csv(sample, args.out, meta)
    print(f"wrote {args.n} increments to {args.out}")
    return EXIT_OK


def _sample_and_ecf(args, seed: int | None = None) -> tuple[IncrementSample, ECFGrid]:
    """Increments from --data or the model flags, and their ECF on the grid cut to [-n, n]."""
    if args.data:
        values = read_values_csv(args.data, difference=args.difference)
        sample = IncrementSample(args.delta, values, len(values))
    else:
        if args.alpha is None and args.sigma2 == 0.0:
            raise ValueError("need --data or model flags (--alpha/--P/--Q or --sigma2)")
        if args.n is None:
            raise ValueError("model-based estimation needs --n")
        triplet = _triplet_from_args(args)
        sample = sample_increments(triplet, args.delta, args.n, SeedSpec(seed, args.trial))
    u_max = args.umax if args.umax is not None else default_u_max(args.delta)
    grid = UGrid.make(u_max, args.step).restrict(float(sample.n))
    return sample, ecf(sample, grid)


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def _bounded_float(name: str, strict: bool):
    """argparse type of a finite float flag that must be > 0 (strict) or >= 0;
    the error names the flag and the library value ``name`` it sets."""
    def parse(text: str) -> float:
        value = _finite_float(text)
        if value > 0 or (value == 0 and not strict):
            return value
        rule = "positive" if strict else "nonnegative"
        raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {text!r}")
    return parse


_DELTA = _bounded_float("delta_t", strict=True)
_UMAX = _bounded_float("u_max", strict=True)
_STEP = _bounded_float("step", strict=True)
_KAPPA_STEP = _bounded_float("delta_step", strict=True)


def _fixed_kappa(text: str) -> float:
    """A fixed --kappa value: a finite number >= 0."""
    try:
        kappa = float(text)
    except ValueError:
        raise ValueError(f"--kappa must be 'auto' or a number, got {text!r}") from None
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"--kappa must be a finite number >= 0, got {text}")
    return kappa


def _check_bulk_within_half_period(median: float, spread: float, step: float) -> None:
    """The data's bulk, |median| + 8 spread, must lie within pi/step: the inversion
    repeats with period 2 pi/step in x, so mass beyond it would show folded."""
    reach, half_period = abs(median) + 8.0 * spread, math.pi / step
    if not reach <= half_period:
        raise ValueError(
            f"the x-grid must lie within the alias half-period pi/step = {half_period:g} "
            f"and cover the data's bulk, got |median| + 8 IQR = {reach:g} (median "
            f"{median:g}); the inversion repeats with period 2 pi/step in x, so this "
            f"data needs --step <= pi/{reach:g} = {math.pi / reach:.3g}")


def _cmd_estimate(args) -> int:
    seed = _env_seed(args.seed)
    if args.xgrid < 2:
        raise ValueError(f"--xgrid must be at least 2, got {args.xgrid}")
    kgrid = KappaGrid(args.kappa_step, args.kappa_count)
    fixed_kappa = None if args.kappa == "auto" else _fixed_kappa(args.kappa)
    sample, phi_hat = _sample_and_ecf(args, seed)
    median, spread = sample_bulk(sample.values)
    _check_bulk_within_half_period(median, spread, phi_hat.grid.step)
    if fixed_kappa is None:
        try:
            kappa = select_kappa(phi_hat, kgrid)
            kappa_note = f"auto->{kappa:g}"
        except NoStabilizationError:
            if not args.fallback:
                raise
            kappa = FALLBACK_KAPPA
            kappa_note = f"auto->fallback {kappa:g}"
    else:
        kappa = fixed_kappa
        kappa_note = f"{kappa:g}"
    x_grid = default_x_grid(spread, points=args.xgrid)
    est = adaptive_estimate(phi_hat, kappa, x_grid)
    resolved = {"delta": args.delta, "umax": phi_hat.grid.u_max, "step": phi_hat.grid.step,
                "kappa": kappa_note, "n": sample.n, "seed": seed,
                "xgrid": args.xgrid}
    write_estimate_csv(est, args.out, _meta(args, "estimate", resolved))
    ecf_out = args.ecf_out or _derived_path(args.out, "_ecf")
    write_ecf_csv(phi_hat, ecf_out, _meta(args, "estimate", resolved))
    print(f"kappa={kappa:.17g}")
    print(f"wrote density to {args.out} and ECF to {ecf_out}")
    return EXIT_OK


def _derived_path(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}{suffix}{ext or '.csv'}"


def _cmd_risk_table(args) -> int:
    with open(args.config) as fh:
        doc = json.load(fh)
    # one config object, a list of them, or {"experiments": [...]} with no other key
    if isinstance(doc, dict) and "experiments" in doc:
        extra = sorted(set(doc) - {"experiments"})
        if extra:
            raise ValueError(f"unknown document key(s): {', '.join(map(repr, extra))}")
        doc = doc["experiments"]
    elif isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise ValueError(f"a risk-table config is an object or a list of them, got {doc!r}")
    configs = [ExperimentConfig.from_dict(c) for c in doc]
    if args.seed is not None or os.environ.get("LEVYSPEC_SEED"):
        seed = _env_seed(args.seed)
        configs = [replace(c, master_seed=seed) for c in configs]
    reports = risk_table(configs)
    meta = _meta(args, "risk-table", {"config": args.config})
    csv_text = risk_table_csv(reports, meta)
    with open(args.out, "w") as fh:
        fh.write(csv_text)
    print(f"wrote {len(reports)} rows to {args.out}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    kgrid = KappaGrid(args.kappa_step, args.kappa_count)
    _, phi_hat = _sample_and_ecf(args)
    kappas, chis = chi_profile(phi_hat, kgrid)
    meta = _meta(args, "calibrate", {
        "data": args.data, "delta": args.delta, "umax": phi_hat.grid.u_max,
        "step": phi_hat.grid.step, "kappa-step": args.kappa_step,
        "kappa-count": args.kappa_count})
    if args.out:
        write_chi_csv(kappas, chis, args.out, meta)
    else:
        print("kappa,chi")
        for kap, chi in zip(kappas, chis):
            print(f"{kap:.17g},{int(chi)}")
    k = stabilization_index(chis)
    if k is None:
        if not args.fallback:
            raise NoStabilizationError("no stabilization on the kappa grid", chis)
        print(f"kappa={FALLBACK_KAPPA:.17g} (fallback; chi never stabilized)")
        return EXIT_OK
    print(f"kappa={kappas[k]:.17g}")
    return EXIT_OK


def _cmd_check_bounds(args) -> int:
    seed = _env_seed(args.seed)
    if args.which == "thm1":
        report = cutoff_risk_bound_check(args.delta, args.n, trials=args.trials,
                                         master_seed=seed)
    else:
        kappa = args.kappa if args.kappa is not None else FALLBACK_KAPPA
        report = adaptive_risk_bound_check(args.delta, args.n, kappa=kappa,
                                           trials=args.trials, master_seed=seed)
    for row in report.rows:
        at = f"m={row['m']:<6g}" if "m" in row else f"kappa={row['kappa']:g}"
        print(f"{at} empirical={row['empirical']:.6e} bound={row['bound']:.6e} "
              f"margin={row['margin']:+.3e} {'ok' if row['ok'] else 'VIOLATED'}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_finite_float, default=None, help="stable index in (0,2)")
    p.add_argument("--P", type=_finite_float, default=0.0, help="right tail constant")
    p.add_argument("--Q", type=_finite_float, default=0.0, help="left tail constant")
    p.add_argument("--sigma2", type=_finite_float, default=0.0, help="diffusion coefficient")
    p.add_argument("--b", type=_finite_float, default=0.0, help="drift")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="levyspec",
                                 description="Spectral estimation of Levy increment densities")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="simulate increments to CSV")
    _add_model_flags(ps)
    ps.add_argument("--delta", type=_DELTA, required=True, help="sampling rate")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--trial", type=int, default=0)
    ps.add_argument("--out", required=True)
    ps.add_argument("--no-meta", action="store_true")
    ps.set_defaults(func=_cmd_sample)

    pe = sub.add_parser("estimate", help="estimate the increment density")
    pe.add_argument("--data", default=None, help="increments CSV (or levels with --difference)")
    pe.add_argument("--difference", action="store_true",
                    help="difference level observations to increments")
    _add_model_flags(pe)
    pe.add_argument("--n", type=int, default=None, help="sample size when simulating")
    pe.add_argument("--delta", type=_DELTA, required=True)
    pe.add_argument("--umax", type=_UMAX, default=None)
    pe.add_argument("--step", type=_STEP, default=None)
    pe.add_argument("--kappa", default="auto", help="threshold constant or 'auto'")
    pe.add_argument("--kappa-step", type=_KAPPA_STEP, default=0.05)
    pe.add_argument("--kappa-count", type=int, default=100)
    pe.add_argument("--fallback", action="store_true",
                    help="fall back to kappa=2*sqrt(2) when calibration fails")
    pe.add_argument("--xgrid", type=int, default=512, help="number of x points")
    pe.add_argument("--seed", type=int, default=None)
    pe.add_argument("--trial", type=int, default=0)
    pe.add_argument("--out", required=True)
    pe.add_argument("--ecf-out", default=None)
    pe.add_argument("--no-meta", action="store_true")
    pe.set_defaults(func=_cmd_estimate)

    pr = sub.add_parser("risk-table", help="Monte-Carlo relative-risk table")
    pr.add_argument("--config", required=True, help="JSON experiment config")
    pr.add_argument("--out", required=True)
    pr.add_argument("--seed", type=int, default=None, help="override master seed")
    pr.add_argument("--no-meta", action="store_true")
    pr.set_defaults(func=_cmd_risk_table)

    pc = sub.add_parser("calibrate", help="Euler-characteristic kappa selection")
    pc.add_argument("--data", required=True)
    pc.add_argument("--difference", action="store_true")
    pc.add_argument("--delta", type=_DELTA, required=True)
    pc.add_argument("--umax", type=_UMAX, default=None)
    pc.add_argument("--step", type=_STEP, default=None)
    pc.add_argument("--kappa-step", type=_KAPPA_STEP, default=0.05)
    pc.add_argument("--kappa-count", type=int, default=100)
    pc.add_argument("--fallback", action="store_true")
    pc.add_argument("--out", default=None, help="kappa,chi CSV path")
    pc.add_argument("--no-meta", action="store_true")
    pc.set_defaults(func=_cmd_calibrate)

    pb = sub.add_parser("check-bounds", help="empirical risk-bound verification")
    pb.add_argument("--which", choices=("thm1", "thm4"), required=True,
                    help="thm1: fixed-cutoff risk bound; thm4: adaptive oracle bound")
    pb.add_argument("--delta", type=_DELTA, required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--trials", type=int, default=100)
    pb.add_argument("--kappa", type=_bounded_float("kappa", strict=False), default=None,
                    help="thm4 threshold constant")
    pb.add_argument("--seed", type=int, default=None)
    pb.set_defaults(func=_cmd_check_bounds)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NoStabilizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_STABILIZATION
    except (QuadratureError, ArithmeticError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, UnsupportedModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
