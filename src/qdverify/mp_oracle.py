"""Brute-force optimisation over measure-and-prepare schemes.

The two test inputs span a two-dimensional subspace, and for a binary
ensemble the relevant POVM elements can be taken from the single Bloch
plane containing both states.  Each element is described by a weight
(its trace) and an angle in that plane; with the preparation for each
outcome chosen optimally, the average fidelity of the whole scheme is

    (1 + sum_k (w_k / 2) * sqrt(payoff(angle_k))) / 2,

where the payoff is a smooth loop over the angle.  Maximising this over
all weighted angle sets subject to POVM completeness reproduces, to
numerical precision, the closed form in :mod:`qdverify.criterion`; the
search here exists to verify that closed form rather than to be fast.

The tangent construction used in that verification pairs the payoff loop
with an affine function of the angle whose square dominates the loop
everywhere and touches it at angles 0 and pi; the gap between the two has
the closed form exposed as :func:`tangency_residual`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criterion import _check_unit, _refine

__all__ = [
    "EnsembleParams",
    "CQScheme",
    "ensemble_params",
    "element_contribution",
    "angle_payoff_sq",
    "payoff_tangent",
    "tangency_residual",
    "scheme_fidelity",
    "optimize_scheme",
    "random_scheme_search",
]

#: POVM completeness residuals larger than this are rejected.
COMPLETENESS_TOL = 1e-8
#: Largest number of POVM elements in a randomly drawn scheme.
_MAX_ELEMENTS = 6


@dataclass(frozen=True)
class EnsembleParams:
    """Geometry of a weighted two-state ensemble in its Bloch plane.

    ``bias`` is the prior imbalance p_plus - p_minus.  ``diff_norm`` is
    the Bloch-vector length of the weighted state difference, and
    ``axis_angle`` its direction; together they fix the reference frame
    in which POVM element angles are measured.
    """

    bias: float
    diff_norm: float
    axis_angle: float

    @property
    def axis_cos(self) -> float:
        return math.cos(self.axis_angle)

    @property
    def axis_sin(self) -> float:
        return math.sin(self.axis_angle)


@dataclass(frozen=True)
class CQScheme:
    """A weighted set of Bloch-plane POVM elements.

    Weights are element traces; a valid scheme satisfies the three
    completeness constraints (weights summing to 2 and both plane moments
    vanishing in the ensemble frame), checked by ``completeness_residuals``.
    """

    weights: tuple[float, ...]
    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.angles):
            raise ValueError("weights and angles must have equal length")
        if not self.weights:
            raise ValueError("a scheme needs at least one element")
        if any(w < -1e-12 for w in self.weights):
            raise ValueError("weights must be non-negative")

    def completeness_residuals(self, ep: EnsembleParams) -> tuple[float, float, float]:
        w = np.asarray(self.weights)
        shifted = np.asarray(self.angles) + ep.axis_angle
        return (
            float(w.sum() - 2.0),
            float(np.dot(w, np.cos(shifted))),
            float(np.dot(w, np.sin(shifted))),
        )


def ensemble_params(gamma: float, p_plus: float) -> EnsembleParams:
    gamma = _check_unit("gamma", gamma)
    p_plus = _check_unit("p_plus", p_plus)
    bias = 2.0 * p_plus - 1.0
    x = bias * gamma
    y = math.sqrt(max(1.0 - gamma * gamma, 0.0))
    norm = math.hypot(x, y)
    if norm == 0.0:
        raise ValueError(
            "identical inputs with a balanced prior leave the ensemble frame undefined"
        )
    return EnsembleParams(bias, norm, math.atan2(y, x))


def element_contribution(prob_mass: float, diff_mass: float, target_overlap: float) -> float:
    """Largest eigenvalue contributed by one POVM outcome.

    ``prob_mass`` is the total probability routed through the element and
    ``diff_mass`` the signed prior-weighted difference it picks up; the
    optimal preparation for the outcome recovers the top eigenvalue of
    the associated target mixture,
    (prob + sqrt(prob**2 * t**2 + diff**2 * (1 - t**2))) / 2.
    """
    t = _check_unit("target_overlap", target_overlap)
    if prob_mass < abs(diff_mass):
        raise ValueError("prob_mass must dominate |diff_mass|")
    if diff_mass != diff_mass:  # NaN guard
        raise ValueError("diff_mass must be a number")
    return 0.5 * (
        prob_mass
        + math.sqrt(prob_mass**2 * t * t + diff_mass**2 * (1.0 - t * t))
    )


def _skew(ep: EnsembleParams, gamma: float) -> float:
    # Coefficient of the out-of-axis term in the payoff: it vanishes for
    # orthogonal or identical inputs and for extreme priors.
    return (1.0 - ep.bias**2) * gamma * math.sqrt(max(1.0 - gamma * gamma, 0.0))


def angle_payoff_sq(ep: EnsembleParams, gamma: float, gamma_prime: float, phi):
    """Squared per-unit-weight payoff of a projective element at ``phi``.

    Accepts a scalar or array angle.  The square root of this quantity,
    weighted by half the element trace, is the element's contribution to
    the scheme fidelity in :func:`scheme_fidelity`.
    """
    t2 = gamma_prime * gamma_prime
    P = ep.bias
    G = ep.diff_norm
    skew = _skew(ep, gamma)
    c = np.cos(phi)
    s = np.sin(phi)
    return (1.0 - t2) * (P + G * c) ** 2 + (t2 / G**2) * (G + P * c - skew * s) ** 2


def payoff_tangent(ep: EnsembleParams, gamma: float, gamma_prime: float, phi):
    """Affine majorant whose square touches the payoff at angles 0 and pi."""
    t2 = gamma_prime * gamma_prime
    P = ep.bias
    G = ep.diff_norm
    K = math.sqrt(t2 + (1.0 - t2) * G * G)
    skew = _skew(ep, gamma)
    return K + (K * K * P * np.cos(phi) - t2 * skew * np.sin(phi)) / (G * K)


def tangency_residual(ep: EnsembleParams, gamma: float, gamma_prime: float, phi):
    """Closed form for payoff_tangent**2 - angle_payoff_sq.

    The gap factorises as a non-negative constant times sin(phi)**2, which
    is what makes angles 0 and pi the touching points; it is identically
    zero for orthogonal inputs, identical targets, or extreme priors.
    """
    t2 = gamma_prime * gamma_prime
    P = ep.bias
    G = ep.diff_norm
    K2 = t2 + (1.0 - t2) * G * G
    bracket = (1.0 - t2) * G * G + t2 * (1.0 - (1.0 - P * P) * gamma * gamma)
    scale = (1.0 - t2) * (1.0 - P * P) * (1.0 - gamma * gamma) * bracket / K2
    return scale * np.sin(phi) ** 2


def scheme_fidelity(
    scheme: CQScheme,
    gamma: float,
    gamma_prime: float,
    p_plus: float,
) -> float:
    """Average fidelity of a scheme with optimal per-outcome preparations."""
    _check_unit("gamma_prime", gamma_prime)
    ep = ensemble_params(gamma, p_plus)
    residuals = scheme.completeness_residuals(ep)
    if any(abs(r) > COMPLETENESS_TOL for r in residuals):
        raise ValueError(
            f"scheme violates POVM completeness: residuals {residuals!r}"
        )
    w = np.asarray(scheme.weights)
    payoff = np.sqrt(angle_payoff_sq(ep, gamma, gamma_prime, np.asarray(scheme.angles)))
    return 0.5 * (1.0 + float(np.dot(w, payoff)) / 2.0)


def _projective_value(ep, gamma, gamma_prime, phi):
    # Equal-weight antipodal pair {phi, phi + pi}: the only single-angle
    # family that satisfies completeness automatically.
    forward = np.sqrt(angle_payoff_sq(ep, gamma, gamma_prime, phi))
    backward = np.sqrt(angle_payoff_sq(ep, gamma, gamma_prime, phi + math.pi))
    return 0.5 * (1.0 + 0.5 * (forward + backward))


def random_scheme_search(
    gamma: float,
    gamma_prime: float,
    p_plus: float,
    *,
    n_schemes: int = 64,
    seed: int = 7,
) -> tuple[CQScheme | None, float]:
    """Best fidelity over randomly drawn multi-element schemes.

    Draws weighted angle sets, restores the two moment constraints by a
    least-squares correction on the best-conditioned pair of weights,
    drops any draw that would need a negative weight, and rescales to the
    completeness sum.  Deterministic for a fixed seed.  Returns
    ``(None, -inf)`` when every draw is rejected.
    """
    ep = ensemble_params(gamma, p_plus)
    rng = np.random.default_rng(seed)
    best_value = -math.inf
    best_scheme = None
    for _ in range(n_schemes):
        k = int(rng.integers(2, _MAX_ELEMENTS + 1))
        angles = rng.uniform(0.0, 2.0 * math.pi, k)
        weights = rng.uniform(0.2, 1.0, k)
        shifted = angles + ep.axis_angle
        u = np.column_stack([np.cos(shifted), np.sin(shifted)])
        moment = weights @ u
        # Pick the pair of elements whose directions are least collinear.
        pair, pair_det = None, 0.0
        for i in range(k):
            for j in range(i + 1, k):
                det = abs(math.sin(shifted[j] - shifted[i]))
                if det > pair_det:
                    pair, pair_det = (i, j), det
        if pair is None or pair_det < 1e-6:
            continue
        i, j = pair
        basis = u[[i, j]].T
        delta, *_ = np.linalg.lstsq(basis, -moment, rcond=None)
        weights[i] += delta[0]
        weights[j] += delta[1]
        if np.any(weights < 0.0):
            continue
        total = weights.sum()
        # A near-zero sum happens for near-antipodal pairs whose corrected
        # weights collapse; rescaling would amplify roundoff into a real
        # constraint violation, so such draws are rejected like any other.
        if total < 1e-6:
            continue
        weights *= 2.0 / total
        scheme = CQScheme(tuple(weights), tuple(angles))
        if max(abs(r) for r in scheme.completeness_residuals(ep)) > COMPLETENESS_TOL:
            continue
        value = scheme_fidelity(scheme, gamma, gamma_prime, p_plus)
        if value > best_value:
            best_value, best_scheme = value, scheme
    return best_scheme, best_value


def optimize_scheme(
    gamma: float,
    gamma_prime: float,
    p_plus: float,
    resolution: int = 4096,
    *,
    n_random: int = 64,
    seed: int = 7,
) -> tuple[CQScheme, float]:
    """Search measure-and-prepare schemes for the best average fidelity.

    Scans the antipodal projective family on an angle grid of the given
    resolution with bounded refinement around the best point, then tries
    randomly drawn multi-element schemes, and returns the best scheme
    found with its fidelity.  The result should match the closed-form
    bound to well below 1e-6; any excess beyond 1e-9 indicates a bug.
    """
    resolution = int(resolution)
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    _check_unit("gamma_prime", gamma_prime)
    ep = ensemble_params(gamma, p_plus)

    phis = np.linspace(0.0, math.pi, resolution, endpoint=False)
    values = _projective_value(ep, gamma, gamma_prime, phis)
    k = int(np.argmax(values))
    step = math.pi / resolution
    x, fx = _refine(
        lambda phi: -_projective_value(ep, gamma, gamma_prime, phi),
        phis[k] - step, phis[k] + step, phis[k], -values[k],
    )
    best_phi, best_value = float(x), float(-fx)
    best_scheme = CQScheme((1.0, 1.0), (best_phi, best_phi + math.pi))

    if n_random > 0:
        rand_scheme, rand_value = random_scheme_search(
            gamma, gamma_prime, p_plus,
            n_schemes=n_random, seed=seed,
        )
        if rand_scheme is not None and rand_value > best_value:
            best_scheme, best_value = rand_scheme, rand_value
    return best_scheme, best_value
