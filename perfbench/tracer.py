"""Outside-in layer tracer for the levyspec benchmark.

Each layer is a set of levyspec functions.  ``Tracer.install`` replaces every
listed function in every ``levyspec`` module namespace that holds it (the
defining module and each module that imported it by name), so calls between
modules are seen too.  A layer's self time is the wall time of its calls minus
the time spent in nested traced calls; the time the benchmark spends outside
any layer, together with the tracer's own bookkeeping, is the unattributed
remainder.  Counters are computed from each call's arguments and result, so
they are exact counts, not samples.

Standard library only, so importing it adds nothing to the traced process.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict


class LayerStats:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


# per-function counter hooks: (tracer, self_s, args, kwargs, result, error)

def _count_ecf(tr, self_s, args, kwargs, result, error):
    if result is None:
        return
    k = result.grid.half_count
    pairs = result.n * (k + 1)
    tr.counters["ecf.pairs"] += pairs
    tr.counters[f"ecf.pairs.k{k}"] += pairs
    tr.counters[f"ecf.self_s.k{k}"] += self_s


def _count_select_kappa(tr, self_s, args, kwargs, result, error):
    if error is not None and type(error).__name__ == "NoStabilizationError":
        tr.counters["calibration.fallbacks"] += 1


def _count_sample(tr, self_s, args, kwargs, result, error):
    if result is not None:
        tr.counters["sampling.values"] += result.n


def _count_threshold(tr, self_s, args, kwargs, result, error):
    if result is not None:
        vals = result.values
        tr.counters["threshold.kept"] += int((vals != 0).sum())
        tr.counters["threshold.points"] += vals.size


def _count_read(tr, self_s, args, kwargs, result, error):
    if result is not None:
        tr.counters["read.rows"] += len(result)


def _count_write(tr, self_s, args, kwargs, result, error):
    if error is None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        tr.counters["write.bytes"] += os.path.getsize(path)


HOOKS = {
    "ecf": _count_ecf,
    "select_kappa": _count_select_kappa,
    "sample_increments": _count_sample,
    "threshold_cf": _count_threshold,
    "read_values_csv": _count_read,
    "write_estimate_csv": _count_write,
    "write_ecf_csv": _count_write,
}


class Tracer:
    """Wraps the functions of each layer; ``layers`` maps a layer name to
    targets written ``"module:function"``."""

    def __init__(self, layers: dict[str, list[str]]):
        self.layers = layers
        self.stats = {name: LayerStats() for name in layers}
        self.counters: defaultdict[str, float] = defaultdict(int)
        self.namespaces: dict[str, int] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, targets in self.layers.items():
            for target in targets:
                modname, fname = target.split(":")
                original = getattr(importlib.import_module(modname), fname, None)
                if not callable(original):
                    raise LookupError(f"layer {layer}: {target} does not exist")
                wrapper = self._wrap(self.stats[layer], fname, original)
                holders = 0
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name != "levyspec" and not name.startswith("levyspec."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))
                            holders += 1
                self.namespaces[target] = holders

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, stats: LayerStats, fname: str, fn):
        stack = self._stack
        hook = HOOKS.get(fname)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            result = error = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                own = perf() - t0 - stack.pop()
                stats.calls += 1
                stats.self_s += own
                if hook is not None:
                    hook(self, own, args, kwargs, result, error)
                if stack:
                    # the hook's time is charged to neither this call nor its
                    # caller, so it lands in the unattributed remainder
                    stack[-1] += perf() - t0

        return traced
