"""Command-line front end.

Subcommands: sample, the one that simulates; estimate and calibrate, which read
--data; risk-table and check-bounds.
Exit codes: 0 success, 1 failed bound check, 2 validation error, 3 numeric
failure or an allocation too large for memory, 4 calibration did not stabilize
(and --fallback was not given).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__
from ._csvio import read_values_csv
from .calibration import FALLBACK_KAPPA, KappaGrid, calibrate, chi_profile, write_chi_csv
from .errors import (NoStabilizationError, QuadratureError, UnsupportedModelError,
                     _require_between, _require_count, _require_finite, _require_nonnegative,
                     _require_positive)
from .estimator import (_MAX_GRID, _MAX_TRIALS, ECFGrid, adaptive_estimate, default_u_grid,
                        default_x_grid, ecf, write_ecf_csv, write_estimate_csv)
from .models import LevyTriplet, StableJumpDensity
from .risk import (ExperimentConfig, adaptive_risk_bound_check,
                   cutoff_risk_bound_check, risk_table, risk_table_csv)
from .sampling import (_MAX_N, IncrementSample, SeedSpec, _require_seed, sample_increments,
                       write_increments_csv)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_NO_STABILIZATION = 4


def _env_seed(value: int | None) -> int:
    """The --seed flag, which the parser has checked, else LEVYSPEC_SEED, else 0;
    an error in the variable names it."""
    if value is not None:
        return value
    env = os.environ.get("LEVYSPEC_SEED")
    if not env:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise ValueError(f"LEVYSPEC_SEED must be an integer, got {env!r}") from None
    return _require_seed("LEVYSPEC_SEED", seed)


def _meta(args: argparse.Namespace, command: str, resolved: dict) -> list[str]:
    lines = [f"levyspec {__version__} {command}"]
    lines += [f"{k}={v}" for k, v in resolved.items()]
    if not getattr(args, "no_meta", False):
        lines.append(f"generated={datetime.now(timezone.utc).isoformat()}")
    return lines


def _triplet_from_args(args: argparse.Namespace) -> LevyTriplet:
    jumps = StableJumpDensity(args.P, args.Q, args.alpha) if args.alpha is not None else None
    return LevyTriplet(args.b, args.sigma2, jumps)


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


@contextlib.contextmanager
def _reading(flag: str, path: str):
    """Refuse an input file that cannot be read, such as a directory, or that is
    not UTF-8 text, as one ValueError naming ``flag`` and ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{flag} {path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise ValueError(f"{flag} {path}: {exc.strerror or exc}") from None


def _read_and_ecf(args) -> tuple[IncrementSample, ECFGrid]:
    """The increments of --data and their ECF on ``default_u_grid``."""
    with _reading("--data", args.data):
        values = read_values_csv(args.data, difference=args.difference)
    sample = IncrementSample(values)
    return sample, ecf(sample, default_u_grid(args.delta, sample.n, args.umax, args.step))


def _cmd_estimate(args) -> int:
    ecf_out = args.ecf_out or _derived_path(args.out, "_ecf")
    _require_distinct_files(("--data", args.data), ("--out", args.out), ("--ecf-out", ecf_out))
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


def _require_distinct_files(*flags: tuple[str, str]) -> None:
    """A ValueError when two of the (flag, path) pairs name one file, so that no
    output overwrites --data, --config or another output.  Paths are compared by their real
    paths and, where they exist, by device and inode, which a hard link shares.
    Neither opens the file, so a pipe such as ``--data <(...)`` is still read once."""
    seen = {}
    for flag, path in flags:
        keys = [os.path.realpath(path)]
        try:
            stat = os.stat(path)
            keys.append((stat.st_dev, stat.st_ino))
        except OSError:  # a file not made yet has no inode
            pass
        for key in keys:
            if key in seen:
                raise ValueError(f"{seen[key]} and {flag} {path} name the same file")
        seen.update(dict.fromkeys(keys, f"{flag} {path}"))


def _derived_path(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}{suffix}{ext or '.csv'}"


def _cmd_risk_table(args) -> int:
    _require_distinct_files(("--config", args.config), ("--out", args.out))
    with _reading("--config", args.config), open(args.config, encoding="utf-8") as fh:
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
    if args.out:
        _require_distinct_files(("--data", args.data), ("--out", args.out))
    kgrid = KappaGrid(args.kappa_step, args.kappa_count)
    _, phi_hat = _read_and_ecf(args)
    kappas, chis = chi_profile(phi_hat, kgrid)
    if not args.out:  # printed before calibrate, so an exit 4 still shows the profile
        write_chi_csv(kappas, chis, sys.stdout)
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

def _flag(require, name: str, *bounds, kind=float):
    """argparse type of a numeric flag that sets the library value ``name``: its text
    as an int (``kind=int``) or a finite float, then ``require(name, value, *bounds)``,
    the library's own check of that value, whose message is the parser's error."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or (kind is float and not math.isfinite(value)):
            noun = "a finite number" if kind is float else "an integer"
            raise argparse.ArgumentTypeError(f"must be {noun}, got {text!r}")
        try:
            return require(name, value, *bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_DELTA = _flag(_require_positive, "delta_t")
_N = _flag(_require_count, "n", 1, _MAX_N, kind=int)
_KAPPA = _flag(_require_nonnegative, "kappa")
_SEED = _flag(_require_seed, "master_seed", kind=int)


def _kappa_or_auto(text: str) -> float | str:
    """argparse type of ``estimate --kappa``: 'auto' or the value of ``_KAPPA``."""
    if text == "auto":
        return text
    try:
        float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be 'auto' or a number, got {text!r}") from None
    return _KAPPA(text)


def _add_calibration_flags(p: argparse.ArgumentParser) -> None:
    """The data, grid and calibration flags that estimate and calibrate share."""
    p.add_argument("--data", required=True,
                   help="increments CSV (or levels with --difference)")
    p.add_argument("--difference", action="store_true",
                   help="difference level observations to increments")
    p.add_argument("--delta", type=_DELTA, required=True, help="sampling rate")
    p.add_argument("--umax", type=_flag(_require_positive, "u_max"), default=None)
    p.add_argument("--step", type=_flag(_require_positive, "step"), default=None)
    p.add_argument("--kappa-step", type=_flag(_require_positive, "delta_step"), default=0.05)
    p.add_argument("--kappa-count", type=_flag(_require_count, "count", 3, _MAX_GRID, kind=int),
                   default=100)
    p.add_argument("--fallback", action="store_true",
                   help="fall back to kappa=2*sqrt(2) when calibration fails")
    p.add_argument("--no-meta", action="store_true")


class _Parser(argparse.ArgumentParser):
    """The parser of levyspec and, as their class, of its subcommands: a refused
    argument raises the ValueError that ``main`` prints as one error line, exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix such as --n must not stand for --no-meta
    ap = _Parser(prog="levyspec", allow_abbrev=False,
                 description="Spectral estimation of Levy increment densities")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="simulate increments to CSV", allow_abbrev=False)
    ps.add_argument("--alpha", type=_flag(_require_between, "alpha", 0, 2), default=None,
                    help="stable index in (0,2)")
    ps.add_argument("--P", type=_flag(_require_nonnegative, "P"), default=0.0,
                    help="right tail constant")
    ps.add_argument("--Q", type=_flag(_require_nonnegative, "Q"), default=0.0,
                    help="left tail constant")
    ps.add_argument("--sigma2", type=_flag(_require_nonnegative, "sigma2"), default=0.0,
                    help="diffusion coefficient")
    ps.add_argument("--b", type=_flag(_require_finite, "b"), default=0.0, help="drift")
    ps.add_argument("--delta", type=_DELTA, required=True, help="sampling rate")
    ps.add_argument("--n", type=_N, required=True)
    ps.add_argument("--seed", type=_SEED, default=None)
    ps.add_argument("--trial", type=_flag(_require_count, "trial_index", 0, kind=int), default=0)
    ps.add_argument("--out", required=True)
    ps.add_argument("--no-meta", action="store_true")
    ps.set_defaults(func=_cmd_sample)

    pe = sub.add_parser("estimate", help="estimate the increment density", allow_abbrev=False)
    _add_calibration_flags(pe)
    pe.add_argument("--kappa", type=_kappa_or_auto, default="auto",
                    help="threshold constant or 'auto'")
    pe.add_argument("--xgrid", type=_flag(_require_count, "points", 2, _MAX_GRID, kind=int),
                    default=512, help="number of x points")
    pe.add_argument("--out", required=True)
    pe.add_argument("--ecf-out", default=None)
    pe.set_defaults(func=_cmd_estimate)

    pr = sub.add_parser("risk-table", help="Monte-Carlo relative-risk table", allow_abbrev=False)
    pr.add_argument("--config", required=True, help="JSON experiment config")
    pr.add_argument("--out", required=True)
    pr.add_argument("--seed", type=_SEED, default=None, help="override master seed")
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
    pb.add_argument("--n", type=_N, required=True)
    pb.add_argument("--trials", type=_flag(_require_count, "trials", 1, _MAX_TRIALS, kind=int),
                    default=100)
    pb.add_argument("--kappa", type=_KAPPA, default=None,
                    help="thm4 threshold constant (default 2*sqrt(2)); not with thm1")
    pb.add_argument("--seed", type=_SEED, default=None)
    pb.set_defaults(func=_cmd_check_bounds)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help exits 0
        return int(exc.code or 0)
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
