"""Host speed reference for the end-to-end timings.

The host shares its cores with other tenants, and its speed for
interpreted exact arithmetic drifts by a third or more between runs a few
minutes apart; that drift would swamp most changes to the package.  Each
run therefore times a fixed reference kernel between items and reports
its times as they would read on a host where the kernel takes
`REFERENCE_MS`: every time is multiplied, and every rate divided, by
`REFERENCE_MS` over the median kernel time.  The kernel lives here,
outside the package, so that no change to the package moves it.  It
mixes plain integer bytecode with row reduction over `fractions.Fraction`:
alone, the first swung less than the package's workloads as the host
sped up and slowed down, and the second more; together they tracked
both `verify_stream` and `criteria_stream` to within 3-5% over windows
of 20 s.

The scaling cannot see a slowdown that the package inflicts on the whole
process, such as a busy background thread, so the report line keeps the
raw times next to the scaled ones.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REFERENCE_MS = 10.0
SAMPLE_EVERY_S = 0.5

_rng = random.Random(5)
_MATRICES = tuple(
    tuple(tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(6))
          for _ in range(6))
    for _ in range(6)
)


def kernel() -> list:
    """An integer loop, then the reduced row echelon form of six fixed
    6 x 6 rational matrices; about 10 ms in all."""
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    out = [acc]
    for m in _MATRICES:
        rows = [list(r) for r in m]
        top = 0
        for c in range(6):
            p = next((r for r in range(top, 6) if rows[r][c] != 0), None)
            if p is None:
                continue
            rows[top], rows[p] = rows[p], rows[top]
            pivot = rows[top][c]
            rows[top] = [x / pivot for x in rows[top]]
            for r in range(6):
                if r != top and rows[r][c] != 0:
                    f = rows[r][c]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
            top += 1
        out.append(rows)
    return out


class Speed:
    """Kernel timings of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_MS / (1000.0 * statistics.median(self.samples))
