"""Quantum-domain decision logic for two-state transformation benchmarks.

A channel that admits a measure-and-prepare model (measure the input with
some POVM, then prepare a fresh output that depends only on the outcome)
can never preserve entanglement.  For a pair of non-orthogonal test inputs
with overlap ``gamma`` and a pair of reference targets with overlap
``gamma_prime``, the best average transformation fidelity any such scheme
can reach is a closed-form bound that depends on the two overlaps only
through a single parameter

    B = (1 - gamma_prime**2) * gamma**2

called here the total non-orthogonality of the task.  Beating the bound
with measured fidelities certifies that the channel acts outside the
measure-and-prepare set, i.e. in the quantum domain.

The bound as a function of the prior weight ``p_plus`` of the first input,

    F_c(p_plus) = (1 + sqrt(B * (2*p_plus - 1)**2 + 1 - B)) / 2,

is convex, so a pair of measured fidelities (a, b) beats it for some prior
exactly when the straight chord from (0, a) to (1, b) rises above the
tangent line of matching slope, which requires the chord to be no steeper
than the bound ever gets.  Working that out gives the closed-form test
implemented by :func:`qd_criterion`; :func:`qd_criterion_numeric`
evaluates the same geometry by direct maximisation over the prior (the
gap is concave, so one bounded Brent search plus the endpoint p_plus = 1
finds its peak) and is used as a cross-check.  Neither verdict makes a
numpy call.  The criterion is sufficient only: failing it proves nothing
about the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "OverlapPair",
    "FidelityPair",
    "Verdict",
    "CLOSED_FORM",
    "NUMERIC_SUP",
    "total_nonorthogonality",
    "classical_fidelity_bound",
    "tangency_prior",
    "legendre_conjugate",
    "qd_criterion",
    "qd_criterion_numeric",
    "boundary_curve",
]

CLOSED_FORM = "closed_form"
NUMERIC_SUP = "numeric_sup"

#: Default width of the band around lhs == rhs inside which a verdict is
#: flagged as marginal (numerically too close to call).
BOUNDARY_TOL = 1e-9


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAXFUN = 500
_XATOL = 1e-12


def _sign(x: float) -> float:
    # np.sign(x) + (x == 0): the direction of a step, +1 when x is zero.
    return -1.0 if x < 0.0 else 1.0


def _minimize_bounded(func, lo: float, hi: float) -> tuple[float, float]:
    """Minimise ``func`` on [lo, hi] by Brent's bounded method (fminbound).

    Golden-section steps with parabolic interpolation, stopping once the
    bracket is within ``_XATOL / 3`` plus a relative ``sqrt(eps)`` term of
    the current best point, or after 500 evaluations.  Step for step the
    same iteration as scipy's ``minimize_scalar(method="bounded")`` with
    ``xatol=1e-12``, so it returns the same ``(x, f(x))`` to the last bit
    without importing scipy.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf, fx


def _refine(func, lo: float, hi: float, x0: float, f0: float) -> tuple[float, float]:
    """Refine the grid minimum ``(x0, f0)`` of ``func`` on [lo, hi] by Brent,
    keeping the grid point unless the refined value is no higher."""
    x, fx = _minimize_bounded(func, lo, hi)
    return (x, fx) if fx <= f0 else (x0, f0)


@dataclass(frozen=True)
class OverlapPair:
    """Overlap moduli of the two inputs and of the two reference targets."""

    gamma: float
    gamma_prime: float

    def __post_init__(self) -> None:
        _check_unit("gamma", self.gamma)
        _check_unit("gamma_prime", self.gamma_prime)


@dataclass(frozen=True)
class FidelityPair:
    """Measured target fidelities of the two transformed inputs.

    ``a`` belongs to the state carrying prior weight ``1 - p_plus``, ``b``
    to the one carrying ``p_plus``; the chord slope used throughout is
    ``b - a``.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        _check_unit("a", self.a)
        _check_unit("b", self.b)

    @property
    def mean(self) -> float:
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class Verdict:
    """Outcome of the quantum-domain test.

    ``lhs`` is the balanced mean fidelity (a + b) / 2 and ``rhs`` the
    benchmark value it must exceed.  When the inputs are degenerate (the
    bound cannot be beaten for any prior) ``degenerate`` carries the
    reason; ``rhs`` is then NaN if the closed formula turns complex, but
    stays finite when only the tangent construction leaves the admissible
    prior range.  ``marginal`` flags verdicts within the boundary
    tolerance, ``swapped`` records that a > b was relabelled internally.
    """

    is_quantum_domain: bool
    lhs: float
    rhs: float
    method: str
    marginal: bool = False
    swapped: bool = False
    degenerate: str | None = None


def total_nonorthogonality(t: OverlapPair) -> float:
    """Collapse an overlap pair into the single benchmark parameter B."""
    return (1.0 - t.gamma_prime**2) * t.gamma**2


def _bound(B, p_plus, sqrt=math.sqrt):
    # F_c(p_plus), scalar or, with np.sqrt, array.
    bias = 2.0 * p_plus - 1.0
    return 0.5 * (1.0 + sqrt(B * bias * bias + 1.0 - B))


def _chord_bound(B, room, sqrt=math.sqrt):
    # (1 + sqrt((1 - B) * room / B)) / 2 at room = B - slope**2 >= 0 and B > 0. Dividing
    # first makes a flat chord (room == B) give _bound(B, 0.5) to the last bit.
    return 0.5 * (1.0 + sqrt((1.0 - B) * (room / B)))


def classical_fidelity_bound(B: float, p_plus: float) -> float:
    """Best average fidelity any measure-and-prepare scheme can reach.

    ``p_plus`` is the prior weight of the first input.  The value is
    (1 + K) / 2 with K = sqrt(B * (2*p_plus - 1)**2 + 1 - B), lying in
    [1/2, 1].
    """
    _check_unit("B", B)
    return _bound(B, _check_unit("p_plus", p_plus))


def tangency_prior(B: float, slope: float) -> float:
    """Prior at which the bound's derivative equals ``slope``.

    Only slopes with slope**2 < B admit a tangent point; otherwise a
    ValueError is raised and the caller should treat the configuration as
    degenerate (see :func:`qd_criterion`).  The bound's derivative covers
    only [-B, B] on the physical prior range, so for B < |slope| <
    sqrt(B) the returned value lies outside [0, 1].
    """
    B = float(B)
    if not (0.0 < B <= 1.0):
        raise ValueError(f"B must lie in (0, 1], got {B!r}")
    if slope * slope >= B:
        raise ValueError(
            f"slope {slope!r} lies outside the open tangency range for B={B!r}"
        )
    return 0.5 * (1.0 + slope * math.sqrt((1.0 - B) / (B * (B - slope * slope))))


def legendre_conjugate(B: float, lam: float) -> float:
    """Convex conjugate of the fidelity bound on the prior range [1/2, 1].

    Returns the extreme value of ``lam * p_plus - F_c(p_plus)`` over
    p_plus in [1/2, 1], which for the convex bound is attained at the
    tangency prior when ``lam`` sits inside the derivative range [0, B]
    and at an endpoint otherwise.  Its negative is the intercept of the
    slope-``lam`` tangent line at p_plus = 0, the quantity the chord test
    in :func:`qd_criterion` compares against.
    """
    B = float(B)
    if not (0.0 < B <= 1.0):
        raise ValueError(f"B must lie in (0, 1], got {B!r}")
    lam = float(lam)
    if lam <= 0.0:
        return 0.5 * lam - _bound(B, 0.5)
    if lam >= B:
        return lam - 1.0
    p0 = tangency_prior(B, lam)
    return lam * p0 - _bound(B, p0)


_DEGENERATE_ZERO_B = (
    "benchmark parameter B is zero: the bound is identically 1 and cannot be exceeded"
)
_DEGENERATE_SLOPE = (
    "fidelity slope exceeds the benchmark slope range: no prior can beat the bound"
)
_DEGENERATE_TANGENT = (
    "fidelity slope exceeds the bound's derivative range: the tangent prior falls "
    "outside [0, 1], so no prior can beat the bound"
)


def _degeneracy(B: float, slope: float) -> str | None:
    """The reason no prior can beat the bound at ``B`` and ``slope``, or None."""
    if B == 0.0:
        return _DEGENERATE_ZERO_B
    if slope * slope >= B:
        return _DEGENERATE_SLOPE
    if slope > B:
        return _DEGENERATE_TANGENT
    return None


def _ordered(f: FidelityPair) -> tuple[float, float, bool]:
    if f.a > f.b:
        return f.b, f.a, True
    return f.a, f.b, False


def qd_criterion(f: FidelityPair, B: float) -> Verdict:
    """Closed-form quantum-domain test for a fidelity pair at parameter B.

    The verdict is true when (a + b) / 2 exceeds
    (1 + sqrt((1 - B) * (B - (b - a)**2) / B)) / 2 and the chord slope
    |b - a| stays within the bound's derivative range [-B, B], so that the
    tangent construction behind the formula lands at an admissible prior.
    For slopes between B and sqrt(B) the formula is still real and is
    reported as ``rhs``, but the tangent point sits outside [0, 1]: the
    chord-bound gap is then monotone in the prior and peaks at an endpoint
    where the bound reaches 1, so the verdict is a degenerate false.
    Steeper chords (slope**2 >= B) and B = 0 are likewise degenerate false
    verdicts rather than errors, with ``rhs`` NaN since the formula turns
    complex there.
    """
    _check_unit("B", B)
    a, b, swapped = _ordered(f)
    lhs = f.mean
    slope = b - a
    degenerate = _degeneracy(B, slope)
    if slope * slope >= B:  # the formula turns complex; this includes B == 0
        return Verdict(
            False, lhs, math.nan, CLOSED_FORM, swapped=swapped, degenerate=degenerate
        )
    rhs = _chord_bound(B, B - slope * slope)
    return Verdict(
        degenerate is None and lhs > rhs, lhs, rhs, CLOSED_FORM,
        marginal=abs(lhs - rhs) <= BOUNDARY_TOL, swapped=swapped, degenerate=degenerate,
    )


def qd_criterion_numeric(f: FidelityPair, B: float) -> Verdict:
    """Same test evaluated by direct maximisation over the prior.

    Maximises ``chord(p) - F_c(p)`` over p_plus in [0, 1] by one bounded
    Brent search, which the concave gap makes reliable.  Brent never
    evaluates its bracket ends, so p_plus = 1 is checked too: the gap peaks
    there for B = 0 and for slopes beyond the bound's derivative range, and
    never at p_plus = 0 alone since a <= b once ordered.  Must agree with
    :func:`qd_criterion` away from the boundary; kept as an independent
    evaluation path.
    """
    _check_unit("B", B)
    a, b, swapped = _ordered(f)
    lhs = f.mean
    slope = b - a
    neg_gap = lambda p: _bound(B, p) - (a + slope * p)  # noqa: E731
    sup = -min(neg_gap(1.0), _minimize_bounded(neg_gap, 0.0, 1.0)[1])
    return Verdict(
        sup > 0.0, lhs, lhs - sup, NUMERIC_SUP,
        marginal=abs(sup) <= BOUNDARY_TOL, swapped=swapped,
        degenerate=_degeneracy(B, slope),
    )


def boundary_curve(B: float, n_points: int) -> np.ndarray:
    """Sample the classical-quantum boundary in the (a, b) fidelity square.

    The locus (a + b) / 2 = rhs is parameterised by the chord slope
    s = b - a running over [-sqrt(B), sqrt(B)]; the symmetric point
    a = b = classical_fidelity_bound(B, 0.5) is always a row, to the last
    bit.  Returns an (n_points, 2) array of (a, b) rows clipped to [0, 1].
    """
    import numpy as np

    B = float(B)
    if not (0.0 < B < 1.0):
        raise ValueError(f"B must lie in (0, 1) for a boundary curve, got {B!r}")
    n_points = int(n_points)
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    root = math.sqrt(B)
    s = np.linspace(-root, root, n_points)
    s[int(np.argmin(np.abs(s)))] = 0.0
    mid = _chord_bound(B, np.clip(B - s * s, 0.0, None), np.sqrt)
    a = np.clip(mid - 0.5 * s, 0.0, 1.0)
    b = np.clip(mid + 0.5 * s, 0.0, 1.0)
    return np.column_stack([a, b])
