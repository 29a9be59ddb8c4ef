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

import math
from dataclasses import dataclass

import numpy as np

from .criterion import (
    FidelityPair,
    OverlapPair,
    Verdict,
    _bound,
    _refine,
    qd_criterion,
    total_nonorthogonality,
)
from .gaussian import (
    SqueezingRecord,
    input_overlap_sq,
    optimal_target_squeezing,
    target_overlap_sq,
)

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


@dataclass(frozen=True)
class CoherentTask:
    """Binary coherent probe |+alpha>, |-alpha> through transmission eta."""

    alpha: float
    eta: float

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class StorageRecord:
    """Measured squeezing of one storage run: state in, state out."""

    label: str
    input_state: SqueezingRecord
    output_state: SqueezingRecord


@dataclass(frozen=True, eq=False)
class StorageReport:
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


BENCHMARK_RECORDS: tuple[StorageRecord, ...] = (
    StorageRecord("storage-2dB", SqueezingRecord(-2.0, 6.0), SqueezingRecord(-0.07, 0.49)),
    StorageRecord("storage-1.2dB", SqueezingRecord(-1.24, 4.1), SqueezingRecord(-0.16, 0.90)),
    StorageRecord("storage-1.9dB", SqueezingRecord(-1.86, 5.38), SqueezingRecord(-0.21, 1.32)),
    StorageRecord("teleport-6dB", SqueezingRecord(-6.2, 12.0), SqueezingRecord(-0.8, 12.4)),
)


def _mode_inputs(rec: StorageRecord, mode: str) -> tuple[float, tuple[float, float]]:
    """Per-mode shared fidelity and the variance pair behind gamma_prime."""
    x_out, y_out = rec.output_state.linear_pair
    if mode == AS_PUBLISHED:
        (x, y), target = rec.input_state.linear_pair, (x_out, y_out)
    elif mode == PURE_TARGET:
        r = optimal_target_squeezing(x_out, y_out)
        (x, y), target = (x_out, y_out), (math.exp(2.0 * r), math.exp(-2.0 * r))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return 2.0 / (1.0 + math.sqrt(x * y)), target


def _curves(input_pair, target_pair, thetas):
    """Return ``(gamma_sq, gamma_prime_sq, B, rhs)`` at angle(s) ``thetas``."""
    g_sq = input_overlap_sq(*input_pair, thetas)
    gp_sq = target_overlap_sq(*target_pair, thetas)
    nonorth = np.maximum((1.0 - gp_sq) * g_sq, 0.0)
    return g_sq, gp_sq, nonorth, _bound(nonorth, 0.5, np.sqrt)


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
    if theta_points < MIN_THETA_POINTS:
        raise ValueError(f"need at least {MIN_THETA_POINTS} grid points")
    thetas = np.linspace(0.0, 0.5 * math.pi, theta_points)
    input_pair = rec.input_state.linear_pair
    fid, target_pair = _mode_inputs(rec, mode)
    g_sq, gp_sq, nonorth, rhs = _curves(input_pair, target_pair, thetas)

    k = int(np.argmin(rhs))
    x, fx = _refine(
        lambda t: float(_curves(input_pair, target_pair, t)[3]),
        float(thetas[max(k - 1, 0)]), float(thetas[min(k + 1, theta_points - 1)]),
        thetas[k], rhs[k],
    )
    theta_min, rhs_min = float(x), float(fx)

    pair = FidelityPair(fid, fid)
    verdict = qd_criterion(pair, float(_curves(input_pair, target_pair, theta_min)[2]))

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
    other = PURE_TARGET if mode == AS_PUBLISHED else AS_PUBLISHED
    fid, target_pair = _mode_inputs(rec, other)
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
