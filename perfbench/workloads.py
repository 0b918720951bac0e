"""The three benchmark workloads.

A workload turns the run seed into inputs, splits its work into passes of
operations, and turns each operation's result into plain outputs that are
compared against the outputs recorded from the package itself
(``golden/<workload>.json``, written by ``run.py --record``).

Inputs come from a fixed pool of master seeds per workload, so that every
input a run can draw has recorded outputs; the run seed picks and orders the
pool entries.  An operation is one sweep cell, one bound-check call or one
``estimate`` call; a sweep op times one ``relative_l2_risk`` call, which
yields the four cells of one (alpha, dt) row.

levyspec is passed in as ``L`` rather than imported here, so that the set-up
children can time its import.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BASE_SEED = 20406080  # levyspec's default master seed; pool entry k uses BASE_SEED + k


@dataclass
class Op:
    """One timed call.  ``run`` is timed; ``collect`` turns its raw result
    into comparable outputs, one dict per operation, outside the timed region."""

    timing_key: str
    golden_key: str
    count: int
    run: Callable[[], Any]
    collect: Callable[[Any], list]


def pool_order(seed: int, size: int) -> list[int]:
    return random.Random(seed).sample(range(size), size)


def _call(L, name: str, *args, **kwargs) -> Callable[[], Any]:
    """Call ``L.<name>`` looked up at call time, so a traced run sees the
    wrapped entry point."""
    return lambda: getattr(L, name)(*args, **kwargs)


# ---------------------------------------------------------------------------
# risk_sweep: the acceptance grid of criterion 1 at 20 trials per cell.
# What the paper's tables run, and the only workload where calibration,
# per-trial reference quantities and trial orchestration do real work; many
# small-n ECFs on grids of half-count 1000 (dt 0.1) and 200 (dt 1).  20 trials
# rather than 100 so that a run holds several passes.

SWEEP_ALPHAS = (0.7, 1.0, 1.7)
SWEEP_DTS = (0.1, 1.0)
SWEEP_NS = (500, 1000, 5000, 10000)
SWEEP_TRIALS = 20


def _stable_jumps(L, alpha: float):
    if alpha == 1.0:
        return L.StableJumpDensity(1.0 / math.pi, 1.0 / math.pi, 1.0)
    return L.StableJumpDensity(2.0, 1.0, alpha)


def _sweep_cells(reports) -> list[dict]:
    return [{"n": r.n, "mean_relative_risk": r.mean_relative_risk,
             "mean_kappa": r.mean_kappa, "fallback_count": r.fallback_count}
            for r in reports]


class RiskSweep:
    name = "risk_sweep"
    setup_runs = 5
    pool = 32
    trials_per_pass = len(SWEEP_ALPHAS) * len(SWEEP_DTS) * len(SWEEP_NS) * SWEEP_TRIALS
    params = {"alphas": SWEEP_ALPHAS, "dts": SWEEP_DTS, "ns": SWEEP_NS,
              "trials": SWEEP_TRIALS, "pool": pool, "base_seed": BASE_SEED}

    def build(self, L, seed: int, workdir: Path, index: int | None = None):
        """One pass per pool entry, in the order the seed gives."""
        passes = []
        for entry in pool_order(seed, self.pool):
            ops = []
            for alpha in SWEEP_ALPHAS:
                for dt in SWEEP_DTS:
                    config = L.ExperimentConfig(
                        L.LevyTriplet(0.0, 0.0, _stable_jumps(L, alpha)), dt, SWEEP_NS,
                        trials=SWEEP_TRIALS, kappa_mode="auto",
                        master_seed=BASE_SEED + entry)
                    key = f"{alpha:g}/{dt:g}"
                    ops.append(Op(key, f"{entry}/{key}", len(SWEEP_NS),
                                  _call(L, "relative_l2_risk", config), _sweep_cells))
            passes.append(ops)
        return passes

    def record_passes(self, L, workdir: Path):
        return self.build(L, 0, workdir)


# ---------------------------------------------------------------------------
# bound_checks: criteria 2 and 3 at 50 trials per call.
# Fixed kappa and cutoff, so the ECF runs without calibration: the bypass for
# calibration changes, and the second caller that trial batching must cover.

BOUND_SETTINGS = tuple((dt, n) for dt in (0.1, 1.0) for n in (500, 5000))
BOUND_TRIALS = 50
BOUND_KAPPA = 2.0 * math.sqrt(2.0)


def _bound_rows(report) -> list[dict]:
    rows = [{"at": row["m"] if "m" in row else row["kappa"],
             "empirical": row["empirical"], "bound": row["bound"], "se": row["se"],
             "ok": bool(row["ok"])} for row in report.rows]
    return [{"passed": bool(report.passed), "rows": rows}]


class BoundChecks:
    name = "bound_checks"
    setup_runs = 5
    pool = 32
    trials_per_pass = 2 * len(BOUND_SETTINGS) * BOUND_TRIALS
    params = {"settings": BOUND_SETTINGS, "trials": BOUND_TRIALS, "kappa": BOUND_KAPPA,
              "pool": pool, "base_seed": BASE_SEED}

    def build(self, L, seed: int, workdir: Path, index: int | None = None):
        passes = []
        for entry in pool_order(seed, self.pool):
            master = BASE_SEED + entry
            ops = []
            for dt, n in BOUND_SETTINGS:
                key = f"cutoff/{dt:g}/{n}"
                ops.append(Op(key, f"{entry}/{key}", 1, _call(
                    L, "cutoff_risk_bound_check", dt, n, trials=BOUND_TRIALS,
                    master_seed=master), _bound_rows))
                key = f"adaptive/{dt:g}/{n}"
                ops.append(Op(key, f"{entry}/{key}", 1, _call(
                    L, "adaptive_risk_bound_check", dt, n, kappa=BOUND_KAPPA,
                    trials=BOUND_TRIALS, master_seed=master), _bound_rows))
            passes.append(ops)
        return passes

    def record_passes(self, L, workdir: Path):
        return self.build(L, 0, workdir)


# ---------------------------------------------------------------------------
# estimate_csv: `levyspec estimate` in-process on a 2x10^5-row increments CSV.
# The single-user path: CSV parsing and one large-n, small-K ECF, with no
# sampling or risk work in the timed call, so it bypasses trial batching and
# reference caching.  The CSVs are written at set-up.  2x10^5 rows rather
# than 10^6: a 10^6-row call takes 3-5 s, so a run held only 4-6 of them and
# their median spread by 9% between runs; at 2x10^5 a run holds about 25.

ESTIMATE_ROWS = 2 * 10 ** 5


def _read_columns(path: Path) -> list[list[float]]:
    """Numeric columns of a levyspec CSV, skipping # lines and the header."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return [list(col) for col in zip(*rows)]


class EstimateCsv:
    name = "estimate_csv"
    setup_runs = 5   # one CSV per set-up child; passes cycle over them
    pool = 6
    trials_per_pass = 0
    params = {"rows": ESTIMATE_ROWS, "model": "cauchy_triplet", "delta": 1.0,
              "pool": pool, "base_seed": BASE_SEED}

    def write_input(self, L, path: Path, entry: int) -> None:
        sample = L.sample_increments(L.cauchy_triplet(), 1.0, ESTIMATE_ROWS,
                                     L.SeedSpec(BASE_SEED + entry))
        L.write_increments_csv(sample, path)

    def build(self, L, seed: int, workdir: Path, index: int | None = None):
        """One pass per CSV; set-up child ``index`` writes CSV ``index``."""
        entries = pool_order(seed, self.pool)[:self.setup_runs]
        paths = [workdir / f"increments_{entry}.csv" for entry in entries]
        if index is not None:
            self.write_input(L, paths[index], entries[index])
        return [[self._op(L, entry, path)] for entry, path in zip(entries, paths)]

    def record_passes(self, L, workdir: Path):
        """Writes each pool entry's CSV just before its pass runs."""
        for entry in range(self.pool):
            path = workdir / f"increments_{entry}.csv"
            self.write_input(L, path, entry)
            yield [self._op(L, entry, path)]
            path.unlink()

    def _op(self, L, entry: int, data: Path) -> Op:
        out = data.with_name(f"density_{entry}.csv")
        argv = ["estimate", "--data", str(data), "--delta", "1", "--kappa", "auto",
                "--no-meta", "--out", str(out)]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = L.cli.main(argv)
            return rc, buf.getvalue()

        def collect(raw):
            rc, stdout = raw
            kappa = next((float(line[len("kappa="):]) for line in stdout.splitlines()
                          if line.startswith("kappa=")), math.nan)
            x, f_hat = _read_columns(out)
            u, re, im = _read_columns(out.with_name(f"density_{entry}_ecf.csv"))
            return [{"rc": rc, "kappa": kappa, "x": x, "f_hat": f_hat,
                     "u": u, "re": re, "im": im}]

        return Op("estimate", str(entry), 1, run, collect)


WORKLOADS = {w.name: w for w in (RiskSweep(), EstimateCsv(), BoundChecks())}
