"""How fast the machine runs right now, from a fixed pure-Python workload.

On a shared host the speed a process gets drifts by a third or more,
in spells of seconds to minutes.  The benchmark pins itself and its
children to one CPU, times `work()` just before and just after every
operation, and reports the operation's time scaled to a machine on which
`work()` takes `REFERENCE_S`.  Nothing here imports knotfog, so a change
to knotfog cannot move the scale.

Set-up time is scaled instead by the start of a bare interpreter
(`python -c pass`), which tracked the start-and-import of `knotfog.cli`
to 3% in 10 s blocks where the polynomial task tracked it to 6%.

`work()` multiplies polynomials held as lists of big integers, as
knotfog's `laurent` module does.  In a four-minute test on a 2-vCPU VM,
the 15 s block medians of an `alexander_polynomial` call moved by 38%
(interquartile range over median) as measured and by 2.4% scaled by
this task, and those of a `satellite-tree` CLI request by 32% and 3.8%.
A dict-and-recursion task tracked them half as well (5.3% and 7.0%), an
allocation-heavy one a quarter as well.
"""

from __future__ import annotations

import statistics
import time

# About the median of `sample()` on a 2-vCPU x86-64 VM with CPython 3.11;
# only its constancy matters.
REFERENCE_S = 0.003
# About the median time to start and end `python -c pass` there.
START_REFERENCE_S = 0.05

_A = [(i * 7919) ** 3 for i in range(60)]
_B = [(i * 104729) ** 2 - 5 for i in range(60)]


def work() -> list[int]:
    """Six schoolbook products of two 60-term polynomials whose
    coefficients have up to 17 digits."""
    for _ in range(6):
        out = [0] * (len(_A) + len(_B) - 1)
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                out[i + j] += x * y
    return out


def sample() -> float:
    """Seconds for one `work()`."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class Scaler:
    """Scales each operation by the probes taken on either side of it.

    Call `scaled` right after an operation ends: it takes the probes
    that follow the operation, which also precede the next one.
    `reference` is the probe's time on the reference machine.
    """

    def __init__(self, per_side: int, probe=sample, reference: float = REFERENCE_S):
        self.per_side, self.probe, self.reference = per_side, probe, reference
        self.recent = self._probes()

    def _probes(self) -> list[float]:
        return [self.probe() for _ in range(self.per_side)]

    def scaled(self, seconds: float) -> float:
        before, self.recent = self.recent, self._probes()
        return seconds * self.reference / statistics.median(before + self.recent)
