"""End-to-end verification pipelines for three experiment families.

Three ways the two-state test gets used in practice: binary coherent
states through a lossy channel (photon detection after displacement),
teleportation of a pair of superposed coherent states probed at a fixed
relative angle, and storage of squeezed light, where the pair of probe
states is a squeezed state and its phase-rotated copy and the rotation
angle is scanned for the tightest benchmark.

The storage pipeline ships with four embedded benchmark records taken
from real squeezed-light storage and teleportation experiments.  Those
records are reported in dB pairs whose published summary numbers mix two
readings of the same formulas (mean fidelity from input variances,
overlaps from raw output variances), so the analysis exposes an explicit
``mode``: ``as_published`` reproduces the summary numbers literally,
``pure_target`` re-derives everything from the nearest pure squeezed
target instead.  Neither is silently preferred; every report quotes the
other mode's headline in its notes.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .criterion import (
    FidelityPair,
    OverlapPair,
    Verdict,
    _bound,
    _refine,
    _Value,
    qd_criterion,
    total_nonorthogonality,
)
from .gaussian import (
    DET_TOL,
    SqueezingRecord,
    _input_overlap_sq,
    _overlap_fits,
    _target_overlap_sq,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AS_PUBLISHED",
    "PURE_TARGET",
    "TELEPORT_NONORTH",
    "CoherentTask",
    "coherent_task_overlaps",
    "coherent_verify",
    "estimate_fidelity_from_clicks",
    "teleport_two_state_check",
    "StorageRecord",
    "StorageReport",
    "BENCHMARK_RECORDS",
    "squeezed_storage_analysis",
    "benchmark_table",
]

AS_PUBLISHED = "as_published"
PURE_TARGET = "pure_target"

# Two superposed coherent states probed at relative angle pi/4 share
# overlap 1/sqrt(2) both before and after an ideal channel, so the
# benchmark parameter is (1 - 1/2) * (1/2).
TELEPORT_NONORTH = 0.25

MIN_THETA_POINTS = 64


class CoherentTask(_Value):
    """Binary coherent probe |+alpha>, |-alpha> through transmission eta."""

    alpha: float
    eta: float

    def __init__(self, alpha: float, eta: float) -> None:
        self.__dict__.update(alpha=alpha, eta=eta)
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be positive")
        if not math.isfinite(self.alpha * self.alpha):
            raise ValueError(f"alpha {self.alpha!r} is too large: alpha**2 overflows")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1]")


def coherent_task_overlaps(t: CoherentTask) -> OverlapPair:
    """Input and target overlaps for a binary coherent probe.

    The inputs overlap at e**(-2 alpha**2); the targets are the
    attenuated pair at amplitude sqrt(eta) * alpha, overlapping at
    e**(-2 eta alpha**2).
    """
    return OverlapPair(
        math.exp(-2.0 * t.alpha**2),
        math.exp(-2.0 * t.eta * t.alpha**2),
    )


def coherent_verify(t: CoherentTask, f: FidelityPair) -> Verdict:
    """Run the quantum-domain test for a binary coherent probe.

    ``f`` holds the two measured target fidelities; operationally each is
    the vacuum-outcome frequency of threshold detection applied after
    displacing the channel output back by the expected target amplitude.
    """
    return qd_criterion(f, total_nonorthogonality(coherent_task_overlaps(t)))


def estimate_fidelity_from_clicks(
    n_trials: int, n_vacuum: int, confidence: float = 0.95
) -> tuple[float, tuple[float, float]]:
    """Point estimate and exact binomial interval for a fidelity frequency.

    ``n_vacuum`` counts the no-click outcomes among ``n_trials`` rounds of
    displaced threshold detection; the interval is two-sided
    Clopper-Pearson at the given confidence.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= n_vacuum <= n_trials:
        raise ValueError("vacuum count must lie in [0, n_trials]")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must lie in (0, 1)")
    from scipy.special import betaincinv

    tail = 0.5 * (1.0 - confidence)
    k, n = n_vacuum, n_trials
    low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, tail))
    high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - tail))
    return k / n, (low, high)


def teleport_two_state_check(f: FidelityPair) -> Verdict:
    """Quantum-domain test at the fixed pi/4 two-state working point."""
    return qd_criterion(f, TELEPORT_NONORTH)


class StorageRecord(_Value):
    """Measured squeezing of one storage run: state in, state out."""

    label: str
    input_state: SqueezingRecord
    output_state: SqueezingRecord

    def __init__(
        self, label: str, input_state: SqueezingRecord, output_state: SqueezingRecord
    ) -> None:
        self.__dict__.update(label=label, input_state=input_state, output_state=output_state)
        # The storage scan's one gate: its per-angle algebra checks nothing.
        # Every analysis scans the overlap of the input, which must be a
        # physical state, with its rotated copy and, in the pure_target mode
        # or in the note on it, the overlap of the output's nearest pure
        # squeezed target.
        x, y = self.input_state.linear_pair
        if x * y < 1.0 - DET_TOL:
            raise ValueError(
                f"input squeezing_db {self.input_state.squeezing_db!r} and "
                f"antisqueezing_db {self.input_state.antisqueezing_db!r} give a "
                f"variance product {x * y!r} below 1: the input state is unphysical"
            )
        if not _overlap_fits(x, y, physical=True):
            raise ValueError(
                f"input squeezing_db {self.input_state.squeezing_db!r} and "
                f"antisqueezing_db {self.input_state.antisqueezing_db!r} "
                f"overflow the overlap algebra"
            )
        if not _overlap_fits(*self.output_state.pure_target_pair, physical=False):
            raise ValueError(
                f"output squeezing_db {self.output_state.squeezing_db!r} and "
                f"antisqueezing_db {self.output_state.antisqueezing_db!r} overflow "
                f"the overlap algebra of their nearest pure squeezed target"
            )


class StorageReport(_Value):
    """Full benchmark scan for one storage record.

    Curves are sampled on ``thetas``; ``rhs_min`` is the benchmark floor
    after local refinement around the best grid point, ``theta_min`` its
    location, and ``verdict`` the test at that angle.  ``a`` and ``b``
    are the (equal) fidelities credited to the two probe states under the
    report's ``mode``.
    """

    label: str
    mode: str
    a: float
    b: float
    thetas: np.ndarray
    gamma_sq: np.ndarray
    gamma_prime_sq: np.ndarray
    B: np.ndarray
    rhs: np.ndarray
    theta_min: float
    rhs_min: float
    lhs: float
    verdict: Verdict
    notes: tuple[str, ...]

    # compared and hashed by identity, as its curves are arrays
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        label: str,
        mode: str,
        a: float,
        b: float,
        thetas: np.ndarray,
        gamma_sq: np.ndarray,
        gamma_prime_sq: np.ndarray,
        B: np.ndarray,
        rhs: np.ndarray,
        theta_min: float,
        rhs_min: float,
        lhs: float,
        verdict: Verdict,
        notes: tuple[str, ...],
    ) -> None:
        self.__dict__.update(
            label=label, mode=mode, a=a, b=b, thetas=thetas, gamma_sq=gamma_sq,
            gamma_prime_sq=gamma_prime_sq, B=B, rhs=rhs, theta_min=theta_min,
            rhs_min=rhs_min, lhs=lhs, verdict=verdict, notes=notes,
        )


BENCHMARK_RECORDS: tuple[StorageRecord, ...] = (
    StorageRecord("storage-2dB", SqueezingRecord(-2.0, 6.0), SqueezingRecord(-0.07, 0.49)),
    StorageRecord("storage-1.2dB", SqueezingRecord(-1.24, 4.1), SqueezingRecord(-0.16, 0.90)),
    StorageRecord("storage-1.9dB", SqueezingRecord(-1.86, 5.38), SqueezingRecord(-0.21, 1.32)),
    StorageRecord("teleport-6dB", SqueezingRecord(-6.2, 12.0), SqueezingRecord(-0.8, 12.4)),
)


def _mode_inputs(rec: StorageRecord, mode: str) -> tuple[float, tuple[float, float]]:
    """Per-mode shared fidelity and the variance pair behind gamma_prime.

    Each mode credits one state's 2 / (1 + sqrt(x y)): as_published the
    input's, pure_target the output's projection onto its nearest pure
    target.  That fidelity is undefined (above 1) when the state's variances
    fall below the floor x y = 1 by more than rounding, as the records'
    tolerances allow.
    """
    out = rec.output_state
    if mode == AS_PUBLISHED:
        name, state, target = "input", rec.input_state, out.linear_pair
    elif mode == PURE_TARGET:
        name, state, target = "output", out, out.pure_target_pair
    else:
        raise ValueError(f"unknown mode {mode!r}")
    x, y = state.linear_pair
    fid = 2.0 / (1.0 + math.sqrt(x * y))
    if fid > 1.0:
        raise ValueError(
            f"mode {mode} is undefined for this record: {name} squeezing_db "
            f"{state.squeezing_db!r} and antisqueezing_db {state.antisqueezing_db!r} give "
            f"a variance product {x * y!r} below 1, so its fidelity 2/(1 + sqrt(product)) "
            f"would be {fid!r}, above 1"
        )
    return fid, target


def _overlaps(input_pair, target_pair, cos2t, sqrt, maximum, minimum):
    # (gamma_sq, gamma_prime_sq, B) at cos2t = cos(2 theta), either in numpy
    # on arrays or in math on one angle, which gives the same bits.  Where
    # gamma_sq is exactly 1 (theta = 0, or equal variances) it can round to
    # 1 + 2**-52, which would lift B above 1 under a vanishing gamma_prime_sq.
    g_sq = minimum(_input_overlap_sq(*input_pair, cos2t, sqrt), 1.0)
    gp_sq = _target_overlap_sq(*target_pair, cos2t, sqrt)
    return g_sq, gp_sq, maximum((1.0 - gp_sq) * g_sq, 0.0)


def _curves(input_pair, target_pair, thetas):
    """Return ``(gamma_sq, gamma_prime_sq, B, rhs)`` at angle(s) ``thetas``."""
    import numpy as np

    cos2t = np.cos(2.0 * np.asarray(thetas))
    g_sq, gp_sq, nonorth = _overlaps(
        input_pair, target_pair, cos2t, np.sqrt, np.maximum, np.minimum
    )
    return g_sq, gp_sq, nonorth, _bound(nonorth, 0.5, np.sqrt)


def _nonorth_at(input_pair, target_pair, theta: float) -> float:
    """B at one angle in scalar math: ``float(_curves(...)[2])`` to the bit."""
    return _overlaps(input_pair, target_pair, math.cos(2.0 * theta), math.sqrt, max, min)[2]


def _floor_at(input_pair, target_pair, theta: float) -> float:
    """The benchmark at one angle in scalar math: ``float(_curves(...)[3])``."""
    return _bound(_nonorth_at(input_pair, target_pair, theta), 0.5)


def squeezed_storage_analysis(
    rec: StorageRecord, theta_points: int = 256, mode: str = AS_PUBLISHED
) -> StorageReport:
    """Scan the rotation angle and benchmark one storage record.

    The probe pair is the recorded squeezed input and its copy rotated by
    theta; both are credited the same fidelity (the record carries no
    per-state split), so the chord is flat and the benchmark reduces to
    (1 + sqrt(1 - B(theta))) / 2.  The scan covers [0, pi/2], which is a
    full period of every curve involved.
    """
    import numpy as np

    if theta_points < MIN_THETA_POINTS:
        raise ValueError(f"need at least {MIN_THETA_POINTS} grid points")
    thetas = np.linspace(0.0, 0.5 * math.pi, theta_points)
    input_pair = rec.input_state.linear_pair
    fid, target_pair = _mode_inputs(rec, mode)
    g_sq, gp_sq, nonorth, rhs = _curves(input_pair, target_pair, thetas)

    k = int(np.argmin(rhs))
    x, fx = _refine(
        functools.partial(_floor_at, input_pair, target_pair),
        float(thetas[max(k - 1, 0)]), float(thetas[min(k + 1, theta_points - 1)]),
        thetas[k], rhs[k],
    )
    theta_min, rhs_min = float(x), float(fx)
    if math.cos(2.0 * theta_min) == 1.0:
        # the curves see theta only through cos 2 theta, so such an angle
        # computes the theta = 0 floor; report the angle where it holds
        theta_min = 0.0

    pair = FidelityPair(fid, fid)
    verdict = qd_criterion(pair, _nonorth_at(input_pair, target_pair, theta_min))

    notes = [_alternate_note(rec, thetas, mode)]
    if theta_min < 1e-6:
        notes.append(
            "benchmark floor sits at zero rotation, where the two probe "
            "states coincide; the pair stays distinguishable there only "
            "through the recorded output asymmetry"
        )
    return StorageReport(
        label=rec.label,
        mode=mode,
        a=fid,
        b=fid,
        thetas=thetas,
        gamma_sq=g_sq,
        gamma_prime_sq=gp_sq,
        B=nonorth,
        rhs=rhs,
        theta_min=theta_min,
        rhs_min=rhs_min,
        lhs=pair.mean,
        verdict=verdict,
        notes=tuple(notes),
    )


def _alternate_note(rec: StorageRecord, thetas: np.ndarray, mode: str) -> str:
    import numpy as np

    other = PURE_TARGET if mode == AS_PUBLISHED else AS_PUBLISHED
    try:
        fid, target_pair = _mode_inputs(rec, other)
    except ValueError as exc:  # an output below the floor leaves pure_target undefined
        return str(exc)
    rhs = _curves(rec.input_state.linear_pair, target_pair, thetas)[3]
    k = int(np.argmin(rhs))
    return (
        f"mode {other}: mean fidelity {fid:.6f}, benchmark floor "
        f"{float(rhs[k]):.6f} near rotation {float(thetas[k]):.6f}"
    )


def benchmark_table(
    theta_points: int = 256, mode: str = AS_PUBLISHED
) -> tuple[StorageReport, ...]:
    """Analyse the four embedded benchmark records."""
    return tuple(
        squeezed_storage_analysis(rec, theta_points, mode)
        for rec in BENCHMARK_RECORDS
    )
