"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark was written on a two-vCPU virtual machine whose speed drifts:
over a minute the same item can take twice as long as a minute before, with
no steal time, because the host's cores are shared. Wall times of whole runs
of unchanged code then spread by 0.2 to 0.3 (quartile distance over median),
more than any change this benchmark is meant to show.

`Reference` runs a fixed unit of plain Python and numpy work, none of it
chiralkit, in short bursts between items, so that about `share` of the run's
time is spent on it and it sees the same slow and fast phases as the items
(they last from under a second to about a minute). A factor is the mean time
of a unit over its nominal time on that machine at its usual speed. Dividing
a wall time by the factor measured next to it gives *reference seconds*: the
time the work would have taken at the nominal speed. Since the unit does not
depend on chiralkit, a change to chiralkit cannot move it.

The unit has four parts of similar length, because items slow down in
different ways: interpreter-bound work (`py`), many small LAPACK calls
(`lapack`), cache-resident BLAS (`blas`) and array arithmetic that stays in
L2 (`vec`). Every part works on at most 128 KiB, so the items run before it
hardly change how long it takes; a pass over a larger array did (it ran at
twice its nominal time between items).
"""

from __future__ import annotations

import time

import numpy as np

# Median seconds per part on the development machine (see README.md); they
# set the scale of a reference second and never change between versions.
NOMINAL = {"py": 5.5e-4, "lapack": 5.4e-4, "blas": 4.1e-4, "vec": 4.2e-4}


class Reference:
    def __init__(self, share: float) -> None:
        rng = np.random.Generator(np.random.Philox(key=0x5EF))
        a4 = rng.standard_normal((4, 4))
        self._h4 = a4 + a4.T
        self._c4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._m64 = rng.standard_normal((64, 64))
        self._v = rng.standard_normal(1 << 14)  # 128 KiB
        self._parts = {
            "py": self._py,
            "lapack": self._lapack,
            "blas": self._blas,
            "vec": self._vec,
        }
        self.share = share
        self._debt = 0.0
        self.units = 0
        self.totals = dict.fromkeys(self._parts, 0.0)

    # the four parts of one unit ------------------------------------------

    @staticmethod
    def _py() -> int:
        acc, table = 0, {}
        for i in range(3000):
            table[i & 63] = acc
            acc = (acc + i * i) % 1_000_003
        return acc

    def _lapack(self) -> None:
        for _ in range(12):
            np.linalg.eigh(self._h4)
            np.linalg.svd(self._c4)

    def _blas(self) -> None:
        m = self._m64
        for _ in range(30):
            m @ m

    def _vec(self) -> None:
        v = self._v
        for _ in range(14):
            (v * 1.0001 + v).sum()

    # ----------------------------------------------------------------------

    def unit(self) -> float:
        """Run one unit; return its wall time."""
        total = 0.0
        for name, part in self._parts.items():
            t0 = time.perf_counter()
            part()
            dt = time.perf_counter() - t0
            self.totals[name] += dt
            total += dt
        self.units += 1
        return total

    def run_for(self, seconds: float) -> None:
        """Run whole units for about `seconds`."""
        end = time.perf_counter() + seconds
        while True:
            self.unit()
            if time.perf_counter() >= end:
                return

    def owe(self, seconds: float) -> float | None:
        """Account for `seconds` of measured work: run units until the
        reference has had `share` of the time since the last call. Returns
        the factor of this burst, or None if it ran no unit."""
        self._debt += self.share * seconds
        burst, units = 0.0, 0
        while self._debt > 0.0:
            dt = self.unit()
            self._debt -= dt
            burst += dt
            units += 1
        return burst / units / sum(NOMINAL.values()) if units else None

    def sample(self) -> float:
        """Run one unit; return its factor."""
        return self.unit() / sum(NOMINAL.values())

    def reset(self) -> None:
        self._debt = 0.0
        self.units = 0
        self.totals = dict.fromkeys(self._parts, 0.0)

    def part_factors(self) -> dict[str, float]:
        return {k: self.totals[k] / self.units / NOMINAL[k] for k in self.totals}

    def factor(self) -> float:
        """Mean unit time over the nominal unit time since the last reset."""
        return sum(self.totals.values()) / self.units / sum(NOMINAL.values())
