"""Fixed reference computations that measure how fast the host runs now.

On a shared host the same code runs at speeds that drift by a third or more
in phases lasting seconds to minutes, with CPU time equal to wall time, so
no choice of run length or statistic over wall-clock times alone makes two
sets of runs agree.  The benchmark therefore times this reference right
next to each timed call and reports the call's time in units of it, scaled
back to seconds by ``NOMINAL_S``: "seconds on a host where the reference
takes ``NOMINAL_S``".  The reference does not touch levyspec, so a change to
the package moves only the numerator.

The in-process reference, ``HostReference``, has three parts that mirror
what the workloads do: a small-array phase-product loop (the ECF at small
n), passes over an 8 MB complex array (the ECF at large n) and parsing
decimal text (the CSV reader).  Inputs are fixed; the result is discarded.

Set-up is mostly a fresh interpreter loading libraries, which tracks the
in-process reference poorly, so set-up times are taken in units of
``SETUP_REFERENCE`` instead: a fresh interpreter importing numpy and the
scipy modules levyspec imports at this commit, scaled by
``SETUP_NOMINAL_S``.  The list is fixed here, so a change that stops
importing one of them shows as a gain.
"""

from __future__ import annotations

import time

# fastest times of the references on a quiet 2-vCPU x86_64 host, rounded
NOMINAL_S = 0.025
SETUP_NOMINAL_S = 0.5
SETUP_REFERENCE = ("import time; t0 = time.perf_counter(); "
                   "import numpy, scipy.integrate, scipy.special; "
                   "print(time.perf_counter() - t0)")


class HostReference:
    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(97531)
        self.small = np.exp(0.01j * rng.standard_cauchy(2_000))
        self.large = np.exp(0.01j * rng.standard_cauchy(500_000))
        self.text = [str(float(v)) for v in rng.standard_normal(10_000)]

    def seconds(self) -> float:
        """Wall time of one reference run."""
        import numpy as np
        perf = time.perf_counter
        t0 = perf()
        prod = np.ones_like(self.small)
        for _ in range(1_500):
            np.multiply(prod, self.small, out=prod)
            prod.mean()
        prod = self.large.copy()
        for _ in range(4):
            np.multiply(prod, self.large, out=prod)
            prod.mean()
        sum([float(s) for s in self.text])
        return perf() - t0
