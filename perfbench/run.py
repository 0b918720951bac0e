"""levyspec benchmark: one workload, one seed, a fixed measuring time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload risk_sweep --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``risk_sweep``,
``estimate_csv`` and ``bound_checks``.  Everything runs in this process on the
package in ``src/``, with BLAS threads capped at the number of usable cores;
set-up alone is repeated in fresh child processes, because a second import in
one process costs nothing.

With ``--trace 0`` the run times passes of the workload's operations for
``--seconds`` and reports the end-to-end metrics: ``setup_s`` (median set-up
time), ``pass_s`` (one pass, from each operation's median time) and
``peak_rss_mb``.  The two times are in reference-normalized seconds: each
measured time is divided by that of a fixed reference computation timed right
next to it, then scaled back to seconds (``reference.py``), because the
host's speed drifts by more than the bounds.  Wall-clock figures are printed
beside them.  With ``--trace 1`` it runs
each pass untraced and then again with every layer of ``spec.json`` wrapped
(``tracer.py``), and reports per-layer calls, self times, shares and counters;
the traced outputs must equal the untraced ones.
Every operation's outputs are checked against the outputs recorded from the
package (``golden/``) within the tolerances of ``spec.json``.  Human-readable
lines come first; the last line of standard output is the JSON result.

    python3 perfbench/run.py --record [WORKLOAD ...]

re-records the expected outputs from the current code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "levyspec"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ECF_HALF_COUNTS = (160, 200, 1000)  # grid half-counts K that the workloads use

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402
from reference import (NOMINAL_S, SETUP_NOMINAL_S, SETUP_REFERENCE,  # noqa: E402
                       HostReference)


def fail(message: str, code: int = 1):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def cap_blas_threads() -> tuple[int, int]:
    """Cap BLAS threads at the usable cores (or a tighter cap already set)."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in BLAS_VARS:
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    cap = max(cap, 1)
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return nproc, cap


def require_package() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        fail("no levyspec package at src/levyspec; run from a checkout", 2)


def load_levyspec():
    require_package()
    sys.path.insert(0, str(ROOT / "src"))
    import levyspec
    import levyspec.cli  # noqa: F401  (estimate_csv drives levyspec.cli.main)
    if Path(levyspec.__file__).resolve().parent != PACKAGE.resolve():
        fail(f"imported levyspec from {levyspec.__file__}, not from this checkout", 2)
    return levyspec


def cache_sizes() -> str:
    """L1d/L2/L3 sizes from glibc sysconf (cpuid on x86; reads no files)."""
    try:
        import ctypes
        libc = ctypes.CDLL(None)
        sizes = [libc.sysconf(code) for code in (188, 191, 194)]
    except (OSError, AttributeError):
        return "unknown"
    return " ".join(f"{name}={size // 1024}KiB" if size > 0 else f"{name}=unknown"
                    for name, size in zip(("l1d", "l2", "l3"), sizes))


# ---------------------------------------------------------------------------
# output checks

def mismatches(got, want, tol: dict, field: str = "") -> list[str]:
    """Fields of ``got`` that are non-finite or outside tolerance of ``want``."""
    import numpy as np
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{field or 'output'}: fields differ"]
        return [m for key in want for m in mismatches(got[key], want[key], tol, key)]
    if isinstance(want, list) and want and isinstance(want[0], dict):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{field}: {len(got)} entries, expected {len(want)}"]
        return [m for g, w in zip(got, want) for m in mismatches(g, w, tol, field)]
    g = np.asarray(got, dtype=float)
    w = np.asarray(want, dtype=float)
    if g.shape != w.shape:
        return [f"{field}: shape {g.shape}, expected {w.shape}"]
    if not np.isfinite(g).all():
        return [f"{field}: non-finite value"]
    t = tol.get(field)
    if t is None:
        ok = np.array_equal(g, w)
    else:
        ok = bool(np.all(np.abs(g - w) <= t["atol"] + t["rtol"] * np.abs(w)))
    if ok:
        return []
    worst = float(np.max(np.abs(g - w))) if g.size else 0.0
    return [f"{field}: off by up to {worst:.3e}"]


def golden_path(name: str) -> Path:
    return HERE / "golden" / f"{name}.json"


def load_golden(workload) -> dict:
    path = golden_path(workload.name)
    if not path.is_file():
        fail(f"missing {path.relative_to(ROOT)}; record it with --record")
    doc = json.loads(path.read_text())
    if doc["params"] != json.loads(json.dumps(workload.params)):
        fail(f"{path.relative_to(ROOT)} was recorded with other parameters")
    return doc["outputs"]


# ---------------------------------------------------------------------------
# timed operations

class Result:
    """Per op run: timing key, seconds, collected outputs (None on error), and
    seconds over the mean time of the reference runs just before and after
    (None without a reference)."""

    def __init__(self):
        self.records: list[tuple[str, float, list | None, float | None]] = []
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_ref: float | None = None

    def run_op(self, op, golden, tol, ref: HostReference | None = None) -> None:
        perf = time.perf_counter
        start = perf()
        if ref is not None and self.last_ref is None:
            self.last_ref = ref.seconds()
        t0 = perf()
        try:
            raw = op.run()
            seconds = perf() - t0
            outputs = op.collect(raw)
        except Exception:
            seconds = perf() - t0
            outputs = None
            self.problems.append(f"{op.golden_key}: raised\n{traceback.format_exc()}")
        ratio = None
        if ref is not None:
            ref_after = ref.seconds()
            ratio = seconds / (0.5 * (self.last_ref + ref_after))
            self.last_ref = ref_after
        self.records.append((op.timing_key, seconds, outputs, ratio))
        self.attempted += op.count
        want = golden[op.golden_key]
        if outputs is None:
            self.failed += op.count
        elif len(outputs) != len(want):
            self.failed += op.count
            self.problems.append(f"{op.golden_key}: {len(outputs)} outputs, "
                                 f"expected {len(want)}")
        else:
            for got, exp in zip(outputs, want):
                bad = mismatches(got, exp, tol)
                if bad:
                    self.failed += 1
                    self.problems.append(f"{op.golden_key}: " + "; ".join(bad))
        self.wall += perf() - start


def run_ops(passes, golden, tol, budget: float, ref: HostReference,
            tracer: Tracer | None = None) -> tuple[Result, Result | None]:
    """Run the ops of the passes in order, cycling, for about ``budget`` seconds.

    The run stops before an op that would likely end past the budget, judged
    by the longest op so far, but always completes the first pass, so that
    every timing key has a time.  With a tracer, each op runs untraced and
    then again traced, so that both see the same machine conditions.  Only
    the untraced runs time the reference.
    """
    perf = time.perf_counter
    ops = [op for pass_ops in passes for op in pass_ops]
    plain = Result()
    traced = Result() if tracer is not None else None
    longest = 0.0
    start = perf()
    j = 0
    while j < len(passes[0]) or perf() - start + longest <= budget:
        op_start = perf()
        op = ops[j % len(ops)]
        plain.run_op(op, golden, tol, ref)
        if tracer is not None:
            tracer.install()
            try:
                traced.run_op(op, golden, tol)
            finally:
                tracer.uninstall()
        longest = max(longest, perf() - op_start)
        j += 1
    return plain, traced


def by_timing_key(res: Result, field: int) -> dict[str, list[float]]:
    """Field 1 (seconds) or 3 (reference ratio) of each op, per timing key."""
    out: dict[str, list[float]] = {}
    for entry in res.records:
        out.setdefault(entry[0], []).append(entry[field])
    return out


def pass_seconds(res: Result) -> float:
    """Wall time of one pass: each op's fastest time in the run, summed."""
    return sum(min(v) for v in by_timing_key(res, 1).values())


def pass_normalized(res: Result) -> float:
    """Time of one pass in reference units, scaled by ``NOMINAL_S``: each op's
    median ratio to its neighbouring reference runs, summed.

    On a shared 2-vCPU x86_64 KVM guest, wall-clock medians of whole runs of
    the same code moved by 30% between sets of runs, and per-op minima by
    25%; a call's ratio to the reference timed next to it moved far less.
    """
    return NOMINAL_S * sum(statistics.median(v) for v in by_timing_key(res, 3).values())


# ---------------------------------------------------------------------------
# modes

def setup_child(args) -> None:
    t0 = time.perf_counter()
    L = load_levyspec()
    WORKLOADS[args.workload].build(L, args.seed, Path(args.workdir), args.setup_child)
    print(time.perf_counter() - t0)


def child_seconds(cmd: list[str], what: str) -> float:
    """The seconds a fresh child process prints as its last line."""
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{what} exited with {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_setup_children(args, workload, workdir: Path) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh processes, and the set-up reference's seconds
    before the first, between each two and after the last."""
    refs = [child_seconds([sys.executable, "-c", SETUP_REFERENCE], "set-up reference")]
    setups = []
    for index in range(workload.setup_runs):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(index),
               "--workload", workload.name, "--seed", str(args.seed),
               "--workdir", str(workdir)]
        setups.append(child_seconds(cmd, f"set-up {index}"))
        refs.append(child_seconds([sys.executable, "-c", SETUP_REFERENCE],
                                  "set-up reference"))
    return setups, refs


def record(names: list[str]) -> None:
    L = load_levyspec()
    workdir = ROOT / ".bench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or list(WORKLOADS):
            workload = WORKLOADS[name]
            outputs = {}
            t0 = time.perf_counter()
            for ops in workload.record_passes(L, workdir):
                for op in ops:
                    outputs[op.golden_key] = op.collect(op.run())
                    for got in outputs[op.golden_key]:
                        if mismatches(got, got, {}):
                            fail(f"{name} {op.golden_key}: non-finite output")
            golden_path(name).parent.mkdir(exist_ok=True)
            golden_path(name).write_text(json.dumps(
                {"workload": name, "levyspec_version": L.__version__,
                 "params": workload.params, "outputs": outputs}, indent=None) + "\n")
            print(f"recorded {len(outputs)} ops of {name} in "
                  f"{time.perf_counter() - t0:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def layer_metrics(tracer: Tracer, wall: float, ops: int) -> dict[str, tuple[float, str]]:
    stats = tracer.stats
    count = tracer.counters.get  # .get leaves the defaultdict unchanged
    m: dict[str, tuple[float, str]] = {}
    for layer, st in stats.items():
        m[f"{layer}.calls"] = (st.calls, "count")
        m[f"{layer}.self_s"] = (st.self_s, "s")
        m[f"{layer}.share"] = (st.self_s / wall, "fraction")

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    m["estimator.ecf.pairs"] = (count("ecf.pairs", 0), "count")
    for k in ECF_HALF_COUNTS:
        m[f"estimator.ecf.ns_per_pair.k{k}"] = (
            ratio(count(f"ecf.self_s.k{k}", 0.0), count(f"ecf.pairs.k{k}", 0), 1e9), "ns")
    m["estimator.ecf.calls_per_op"] = (ratio(stats["estimator.ecf"].calls, ops), "calls/op")
    m["calibration.fallbacks"] = (count("calibration.fallbacks", 0), "count")
    m["calibration.fallback_ratio"] = (
        ratio(count("calibration.fallbacks", 0), stats["calibration"].calls), "fraction")
    m["sampling.values"] = (count("sampling.values", 0), "count")
    m["sampling.ns_per_value"] = (
        ratio(stats["sampling"].self_s, count("sampling.values", 0), 1e9), "ns")
    m["risk.reference.calls_per_cell"] = (
        ratio(stats["risk.reference"].calls, ops), "calls/op")
    m["estimator.threshold.kept_frac"] = (
        ratio(count("threshold.kept", 0), count("threshold.points", 0)), "fraction")
    m["cli.read.rows"] = (count("read.rows", 0), "count")
    m["cli.read.ns_per_row"] = (
        ratio(stats["cli.read"].self_s, count("read.rows", 0), 1e9), "ns")
    m["cli.write.bytes"] = (count("write.bytes", 0), "bytes")
    return m


def check_contract(metrics: dict[str, tuple[float, str]], section: str) -> None:
    """The reported metrics must be exactly those BENCHMARK.json lists."""
    declared = {m["name"]: m["unit"]
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if declared != reported:
        missing = sorted(declared.keys() - reported.keys())
        extra = sorted(reported.keys() - declared.keys())
        fail(f"metrics differ from BENCHMARK.json {section}: missing {missing}, "
             f"extra {extra}, or units differ")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", nargs="*", metavar="WORKLOAD", default=None,
                    help="re-record the expected outputs from the current code")
    ap.add_argument("--setup-child", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    nproc, blas_threads = cap_blas_threads()
    if args.setup_child is not None:
        setup_child(args)
        return 0
    if args.record is not None:
        record(args.record)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    require_package()

    workload = WORKLOADS[args.workload]
    spec = json.loads((HERE / "spec.json").read_text())
    tol = spec["tolerance"].get(workload.name, {})
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, setup_refs = run_setup_children(args, workload, workdir)
        L = load_levyspec()
        import numpy
        import scipy
        passes = workload.build(L, args.seed, workdir)
        golden = load_golden(workload)

        print(f"levyspec benchmark: workload={workload.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"machine: {platform.machine()} nproc={nproc} {cache_sizes()} "
              f"python={platform.python_version()} numpy={numpy.__version__} "
              f"scipy={scipy.__version__} blas_threads={blas_threads} "
              "(single process; no wall-clock scaling is measured)")
        print(f"set-up: {len(setups)} fresh processes, " + ", ".join(f"{t:.3f}" for t in setups)
              + " s; set-up reference before, between and after: "
              + ", ".join(f"{r:.3f}" for r in setup_refs) + " s")

        tracer = None
        if args.trace:
            tracer = Tracer({name: layer["functions"]
                             for name, layer in spec["layers"].items()})
        plain, traced = run_ops(passes, golden, tol, args.seconds, HostReference(),
                                   tracer)
        runs = [plain] if traced is None else [plain, traced]

        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        problems = [p for r in runs for p in r.problems]
        for line in problems[:20]:
            print(f"FAILED {line}", file=sys.stderr)
        correct = failed == 0

        pass_wall = pass_seconds(plain)
        ratios = by_timing_key(plain, 3)
        print(f"timed: {len(plain.records)} operations ({len(plain.records) / len(passes[0]):.1f} "
              f"passes) in {plain.wall:.2f} s, with a reference "
              f"run before and after each operation (nominal {NOMINAL_S * 1e3:g} ms)")
        for key, times in by_timing_key(plain, 1).items():
            print(f"  {key:<20} min {min(times):.4f} s  median "
                  f"{statistics.median(times):.4f} s  median ratio "
                  f"{statistics.median(ratios[key]):.3f}  over {len(times)}")

        if args.trace == 0:
            import resource
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_s = SETUP_NOMINAL_S * statistics.median(
                t / (0.5 * (setup_refs[i] + setup_refs[i + 1])) for i, t in enumerate(setups))
            pass_s = pass_normalized(plain)
            metrics = {"setup_s": (setup_s, "s"),
                       "pass_s": (pass_s, "s"),
                       "peak_rss_mb": (peak_mb, "MB")}
            check_contract(metrics, "end_to_end")
            trials = workload.trials_per_pass
            print("setup_s and pass_s are in reference-normalized seconds: measured time "
                  f"over the neighbouring references' times {SETUP_NOMINAL_S:g} s and "
                  f"{NOMINAL_S:g} s")
            print(f"setup_s       {setup_s:.4f} s (median of {len(setups)}; "
                  f"wall median {statistics.median(setups):.4f} s)")
            print(f"pass_s        {pass_s:.4f} s (one pass = "
                  f"{sum(op.count for op in passes[0])} operations; wall, from "
                  f"fastest times, {pass_wall:.4f} s)")
            print("trials_per_s  " + (f"{trials / pass_s:.2f} trials/s (wall "
                                      f"{trials / pass_wall:.2f})" if trials
                                      else "n/a (no Monte-Carlo trials)"))
            print("estimate_s    " + (f"{pass_s:.4f} s (wall {pass_wall:.4f})"
                                      if workload.name == "estimate_csv"
                                      else "n/a (no estimate calls)"))
            print(f"peak_rss_mb   {peak_mb:.1f} MB")
        else:
            for name, layer in spec["layers"].items():
                if workload.name in layer["expected_on"] and tracer.stats[name].calls == 0:
                    fail(f"layer {name} recorded no calls on {workload.name}; "
                         f"were {layer['functions']} renamed?")
            same = [r[2] for r in plain.records] == [r[2] for r in traced.records]
            if not same:
                print("FAILED traced outputs differ from untraced outputs", file=sys.stderr)
                correct = False
            metrics = layer_metrics(tracer, traced.wall, traced.attempted)
            attributed = sum(st.self_s for st in tracer.stats.values())
            metrics["trace.wall_s"] = (traced.wall, "s")
            metrics["trace.unattributed_s"] = (traced.wall - attributed, "s")
            metrics["trace.overhead_frac"] = (
                pass_seconds(traced) / pass_wall - 1.0, "fraction")
            check_contract(metrics, "per_layer")
            print(f"traced: the same {len(traced.records)} operations, each right after "
                  f"its untraced run, {traced.wall:.3f} s; outputs "
                  + ("identical" if same else "DIFFER"))
            print("patched namespaces: " + ", ".join(
                f"{t.split(':')[1]}x{n}" for t, n in tracer.namespaces.items()))
            for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
                print(f"  {name:<22} calls {st.calls:>8}  self {st.self_s:9.4f} s  "
                      f"share {st.self_s / traced.wall:7.2%}")
            print(f"  {'(unattributed)':<22} {'':>14}  self "
                  f"{metrics['trace.unattributed_s'][0]:9.4f} s  share "
                  f"{metrics['trace.unattributed_s'][0] / traced.wall:7.2%}")
            ks = sorted(int(k[len("ecf.pairs.k"):]) for k in tracer.counters
                        if k.startswith("ecf.pairs.k"))
            other = sorted(set(ks) - set(ECF_HALF_COUNTS))
            print(f"  ECF grid half-counts seen: {ks}" + (
                f"; {other} fall outside ECF_HALF_COUNTS and ns_per_pair" if other else ""))
        print(f"failed_frac   {failed / attempted:.4g} ({failed} of {attempted} "
              "operations failed)")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": {name: {"value": value, "unit": unit}
                                      for name, (value, unit) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
