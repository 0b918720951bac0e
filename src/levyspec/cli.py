"""Command-line front end.

Subcommands: sample, the one that simulates; estimate and calibrate, which read
--data; risk-table and check-bounds.
Exit codes: 0 success, 1 failed bound check, 2 validation error, 3 numeric
failure or an allocation too large for memory, 4 calibration did not stabilize
(and --fallback was not given).
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
from .calibration import FALLBACK_KAPPA, KappaGrid, calibrate, chi_profile, write_chi_csv
from .errors import NoStabilizationError, QuadratureError, UnsupportedModelError
from .estimator import (ECFGrid, _check_ecf_above_rounding, adaptive_estimate,
                        default_u_grid, default_x_grid, ecf, write_ecf_csv, write_estimate_csv)
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
    """The --seed flag, else LEVYSPEC_SEED, else 0: an integer in [0, 2^64), the
    range of a master seed; an error names the flag or the variable it came from."""
    source, env = "--seed", os.environ.get("LEVYSPEC_SEED")
    if value is None:
        if not env:
            return 0
        try:
            source, value = "LEVYSPEC_SEED", int(env)
        except ValueError:
            raise ValueError(f"LEVYSPEC_SEED must be an integer, got {env!r}") from None
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"{source} must lie in [0, 2^64), got {value}")
    return value


def _meta(args: argparse.Namespace, command: str, resolved: dict) -> list[str]:
    lines = [f"levyspec {__version__} {command}"]
    lines += [f"{k}={v}" for k, v in resolved.items()]
    if not getattr(args, "no_meta", False):
        lines.append(f"generated={datetime.now(timezone.utc).isoformat()}")
    return lines


def _triplet_from_args(args: argparse.Namespace) -> LevyTriplet:
    jumps = StableJumpDensity(args.P, args.Q, args.alpha) if args.alpha is not None else None
    return LevyTriplet(args.b, args.sigma2, jumps)


def read_values_csv(path: str, difference: bool = False) -> np.ndarray:
    """Read one- or two-column numeric CSV; optional header and # comments.

    The body is read by ``read_last_cells`` of ``_kernels.c`` when the native
    kernels load (``_native.library``): one scan per line, a last cell that is
    a plain decimal ``[+-]digits[.digits][(e|E)[+-]digits]`` with spaces or tabs
    around it, parsed in place by ``strtod``, whose end must be the end of that
    match, so no locale, hex, inf or nan gets in.  Both ``strtod`` and ``float``
    round correctly, so they give the same double.  Without the kernels the
    body is parsed by ``np.loadtxt``, also in C.  Any file the fast path does
    not take goes to ``_read_values_loop``, which defines the format and raises
    its line-numbered errors.
    """
    data = _read_values_fast(path)
    if data is None:
        data = _read_values_loop(path)
    if difference and data.size < 2:
        raise ValueError(f"{path}: need at least 2 level observations to difference")
    return np.diff(data) if difference else data


def _read_values_fast(path: str) -> np.ndarray | None:
    """The last cells read by the C reader, or by ``np.loadtxt`` without the
    kernels, from the first numeric row on; None for a file left to the loop."""
    if not os.path.isfile(path):  # a pipe can be read only once, and this opens it twice
        return None
    try:
        with open(path) as fh:
            lineno, _ = next(_data_rows(fh, path))
    except (ValueError, StopIteration):  # StopIteration: no numeric row
        return None
    from . import _native  # at the first read, not at import
    if _native.library() is not None:
        return _native.read_last_cells(path, lineno - 1)
    with open(path, "rb") as fh:  # np.loadtxt strips \x1c-\x1f around a number; float() does not
        raw = fh.read()
    if any(byte in raw for byte in b"\x1c\x1d\x1e\x1f"):
        return None
    try:  # no kernels: np.loadtxt, also C, from the path in large chunks
        table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=lineno - 1)
    except ValueError:
        return None
    # At least one row, with the 1 or 2 columns of the first: loadtxt raises on ragged rows.
    values = np.ascontiguousarray(table[:, -1])
    return values if np.isfinite(values).all() else None


# The whitespace float() strips: that of str.isspace() but for the ASCII separators
# \x1c-\x1f, which float() rejects, so a cell "0\x1f" is not a number.  A literal:
# scanning every code point for it would cost about 85 ms at import.
_BLANKS = ("\t\n\x0b\x0c\r \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
           "\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def _data_rows(fh, path: str):
    """Yield (line number, value) for each row from the first whose last cell is a
    number on.  Blank and # lines are skipped anywhere and rows before that one
    are headers.  A row of other than 1 or 2 cells, a non-numeric last cell after
    the first number and a non-finite one raise, naming the line."""
    started = False
    for lineno, line in enumerate(fh, start=1):
        line = line.strip(_BLANKS)
        if not line or line[0] == "#":
            continue
        first, _, cell = line.rpartition(",")
        if "," in first:
            raise ValueError(f"{path}:{lineno}: expected 1 or 2 columns, got {line.count(',') + 1}")
        try:
            value = float(cell)
        except ValueError:
            if started:
                raise ValueError(f"{path}:{lineno}: non-numeric cell {cell!r}") from None
            continue
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite cell {cell!r}")
        started = True
        yield lineno, value


def _read_values_loop(path: str) -> np.ndarray:
    """The CSV format, one line at a time: the values ``_data_rows`` yields."""
    with open(path) as fh:
        values = [value for _, value in _data_rows(fh, path)]
    if not values:
        raise ValueError(f"{path}: no numeric rows found")
    return np.asarray(values)


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


def _read_and_ecf(args) -> tuple[IncrementSample, ECFGrid]:
    """The increments of --data and their ECF on ``default_u_grid``; an ECF that
    would be rounding noise is an ArithmeticError, raised before it is computed."""
    sample = IncrementSample(read_values_csv(args.data, difference=args.difference))
    grid = default_u_grid(args.delta, sample.n, args.umax, args.step)
    _check_ecf_above_rounding(sample.values, grid.u_max)
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


def _kappa_or_auto(text: str) -> float | str:
    """argparse type of ``estimate --kappa``: 'auto' or a finite number >= 0."""
    if text == "auto":
        return text
    try:
        kappa = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--kappa must be 'auto' or a number, got {text!r}") from None
    if not (math.isfinite(kappa) and kappa >= 0):
        raise argparse.ArgumentTypeError(f"--kappa must be a finite number >= 0, got {text}")
    return kappa


def _cmd_estimate(args) -> int:
    if args.xgrid < 2:
        raise ValueError(f"--xgrid must be at least 2, got {args.xgrid}")
    ecf_out = args.ecf_out or _derived_path(args.out, "_ecf")
    if os.path.realpath(ecf_out) == os.path.realpath(args.out):
        raise ValueError(f"--out {args.out} and --ecf-out {ecf_out} name the same file")
    kgrid = KappaGrid(args.kappa_step, args.kappa_count)
    sample, phi_hat = _read_and_ecf(args)
    x_grid = default_x_grid(sample.values, phi_hat.grid.step, points=args.xgrid)
    if args.kappa == "auto":
        kappa, fell_back = calibrate(phi_hat, kgrid, args.fallback)
        kappa_note = f"auto->{'fallback ' if fell_back else ''}{kappa:g}"
    else:
        kappa, kappa_note = args.kappa, f"{args.kappa:g}"
    est = adaptive_estimate(phi_hat, kappa, x_grid)
    resolved = {"delta": args.delta, "umax": phi_hat.grid.u_max, "step": phi_hat.grid.step,
                "kappa": kappa_note, "n": sample.n, "xgrid": args.xgrid}
    write_estimate_csv(est, args.out, _meta(args, "estimate", resolved))
    try:
        write_ecf_csv(phi_hat, ecf_out, _meta(args, "estimate", resolved))
    except OSError:  # an exit 2 leaves neither file, not a density without its ECF
        os.remove(args.out)
        raise
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
    if not doc:
        raise ValueError("the experiment list is empty: a risk-table config needs at least "
                         "one experiment")
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
    _, phi_hat = _read_and_ecf(args)
    kappas, chis = chi_profile(phi_hat, kgrid)
    if not args.out:  # printed before calibrate, so an exit 4 still shows the profile
        print("kappa,chi")
        for kap, chi in zip(kappas, chis):
            print(f"{kap:.17g},{int(chi)}")
    kappa, fell_back = calibrate(phi_hat, kgrid, args.fallback)
    if args.out:  # written after calibrate, so an exit 4 leaves no file
        write_chi_csv(kappas, chis, args.out, _meta(args, "calibrate", {
            "data": args.data, "delta": args.delta, "umax": phi_hat.grid.u_max,
            "step": phi_hat.grid.step, "kappa-step": args.kappa_step,
            "kappa-count": args.kappa_count}))
    note = " (fallback; chi never stabilized)" if fell_back else ""
    print(f"kappa={kappa:.17g}{note}")
    return EXIT_OK


def _cmd_check_bounds(args) -> int:
    seed = _env_seed(args.seed)
    if args.which == "thm1":
        if args.kappa is not None:
            raise ValueError("--kappa applies to --which thm4 only; thm1 checks fixed cutoffs")
        report = cutoff_risk_bound_check(args.delta, args.n, trials=args.trials,
                                         master_seed=seed)
    else:
        kappa = FALLBACK_KAPPA if args.kappa is None else args.kappa
        report = adaptive_risk_bound_check(args.delta, args.n, kappa=kappa, trials=args.trials,
                                           master_seed=seed)
    for row in report.rows:
        at = f"m={row['m']:<6g}" if "m" in row else f"kappa={row['kappa']:g}"
        print(f"{at} empirical={row['empirical']:.6e} bound={row['bound']:.6e} "
              f"margin={row['margin']:+.3e} {'ok' if row['ok'] else 'VIOLATED'}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser

def _add_calibration_flags(p: argparse.ArgumentParser) -> None:
    """The data, grid and calibration flags that estimate and calibrate share."""
    p.add_argument("--data", required=True,
                   help="increments CSV (or levels with --difference)")
    p.add_argument("--difference", action="store_true",
                   help="difference level observations to increments")
    p.add_argument("--delta", type=_DELTA, required=True, help="sampling rate")
    p.add_argument("--umax", type=_UMAX, default=None)
    p.add_argument("--step", type=_STEP, default=None)
    p.add_argument("--kappa-step", type=_KAPPA_STEP, default=0.05)
    p.add_argument("--kappa-count", type=int, default=100)
    p.add_argument("--fallback", action="store_true",
                   help="fall back to kappa=2*sqrt(2) when calibration fails")
    p.add_argument("--no-meta", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix such as --n must not stand for --no-meta
    ap = argparse.ArgumentParser(prog="levyspec", allow_abbrev=False,
                                 description="Spectral estimation of Levy increment densities")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="simulate increments to CSV", allow_abbrev=False)
    ps.add_argument("--alpha", type=_finite_float, default=None, help="stable index in (0,2)")
    ps.add_argument("--P", type=_finite_float, default=0.0, help="right tail constant")
    ps.add_argument("--Q", type=_finite_float, default=0.0, help="left tail constant")
    ps.add_argument("--sigma2", type=_finite_float, default=0.0, help="diffusion coefficient")
    ps.add_argument("--b", type=_finite_float, default=0.0, help="drift")
    ps.add_argument("--delta", type=_DELTA, required=True, help="sampling rate")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--trial", type=int, default=0)
    ps.add_argument("--out", required=True)
    ps.add_argument("--no-meta", action="store_true")
    ps.set_defaults(func=_cmd_sample)

    pe = sub.add_parser("estimate", help="estimate the increment density", allow_abbrev=False)
    _add_calibration_flags(pe)
    pe.add_argument("--kappa", type=_kappa_or_auto, default="auto",
                    help="threshold constant or 'auto'")
    pe.add_argument("--xgrid", type=int, default=512, help="number of x points")
    pe.add_argument("--out", required=True)
    pe.add_argument("--ecf-out", default=None)
    pe.set_defaults(func=_cmd_estimate)

    pr = sub.add_parser("risk-table", help="Monte-Carlo relative-risk table", allow_abbrev=False)
    pr.add_argument("--config", required=True, help="JSON experiment config")
    pr.add_argument("--out", required=True)
    pr.add_argument("--seed", type=int, default=None, help="override master seed")
    pr.add_argument("--no-meta", action="store_true")
    pr.set_defaults(func=_cmd_risk_table)

    pc = sub.add_parser("calibrate", help="Euler-characteristic kappa selection",
                        allow_abbrev=False)
    _add_calibration_flags(pc)
    pc.add_argument("--out", default=None, help="kappa,chi CSV path")
    pc.set_defaults(func=_cmd_calibrate)

    pb = sub.add_parser("check-bounds", help="empirical risk-bound verification",
                        allow_abbrev=False)
    pb.add_argument("--which", choices=("thm1", "thm4"), required=True,
                    help="thm1: fixed-cutoff risk bound; thm4: adaptive oracle bound")
    pb.add_argument("--delta", type=_DELTA, required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--trials", type=int, default=100)
    pb.add_argument("--kappa", type=_bounded_float("kappa", strict=False), default=None,
                    help="thm4 threshold constant (default 2*sqrt(2)); not with thm1")
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
    except (QuadratureError, ArithmeticError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, UnsupportedModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
