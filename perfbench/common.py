"""Pieces shared by the three workloads.

- ``Op``: one operation of a workload, with the check on its output.
- ``Tracer`` / ``NO_TRACE``: spans around the benchmark's calls into the
  package's public functions, kept in memory.
- The paper's closed form, written out here a second time so that the
  checks do not trust the package to check itself.
- Small statistics helpers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

OK = "ok"
#: Outcome that matches a defect of the package documented at the commit
#: that defined this benchmark (see README.md); it breaks the contract but
#: is expected, so it lowers ``ok_frac`` without marking the run incorrect.
DEFECT = "defect"
FAILED = "failed"


@dataclass
class Op:
    """One operation: ``run(call)`` does the program's work, ``check(out)``
    returns ``(outcome, detail)`` and ``verdicts(out)`` the
    ``(is_quantum_domain, degenerate)`` pairs of its non-marginal verdicts."""

    kind: str
    run: Callable[[Callable], Any]
    check: Callable[[Any], tuple[str, str]]
    verdicts: Callable[[Any], list] = field(default=lambda out: [])


# --- tracing -----------------------------------------------------------------


class _NoTrace:
    """Pass-through used when tracing is off: no record, one extra call."""

    op_id = 0

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def open(self, name):
        return None

    def close(self, idx):
        pass


NO_TRACE = _NoTrace()


class Tracer:
    """Records spans ``(name, start, end, parent, op_id)`` in memory.

    ``call`` wraps one call into the package; ``open``/``close`` bracket
    the benchmark's own operation and check spans.  ``counts`` collects
    counters attributed to the innermost open span.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.op_id = 0
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, key: str) -> None:
        where = f"{self.current()}:{key}"
        self.counts[where] = self.counts.get(where, 0) + 1

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


# --- the paper's closed form ---------------------------------------------------


def paper_bound(B: float, p_plus: float) -> float:
    """F_c(p) = (1 + sqrt(B (2p - 1)^2 + 1 - B)) / 2."""
    return 0.5 * (1.0 + math.sqrt(B * (2.0 * p_plus - 1.0) ** 2 + 1.0 - B))


def paper_rhs(B: float, slope: float) -> float:
    """Balanced-mean threshold of the two-state test at chord slope ``slope``."""
    return 0.5 * (1.0 + math.sqrt((1.0 - B) * (B - slope * slope) / B))


def paper_B(gamma: float, gamma_prime: float) -> float:
    return (1.0 - gamma_prime**2) * gamma**2


# --- machine-speed probe ---------------------------------------------------------

#: Median time of the probe loop on the reference machine.  Reported times
#: are scaled to it: raw time x PROBE_NOMINAL_S / (median probe of the run).
#: On a shared host the speed of a fixed loop drifts by up to 2x over
#: seconds to minutes; the scaling cancels that drift between runs, and not
#: the program's own changes, because the probe runs none of its code.
PROBE_NOMINAL_S = 0.0016
PROBE_LOOPS = 20_000
PROBE_REPEATS = 5


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: median of a few repeats."""
    runs = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc = 0
        for k in range(PROBE_LOOPS):
            acc += k * k
        runs.append(time.perf_counter() - start)
    return sorted(runs)[PROBE_REPEATS // 2]


# --- statistics ---------------------------------------------------------------


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default) of sorted data."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it, never below 50."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n))
