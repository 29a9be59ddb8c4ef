"""Brute-force optimisation over measure-and-prepare schemes.

The two test inputs span a two-dimensional subspace, and for a binary
ensemble the relevant POVM elements can be taken from the single Bloch
plane containing both states.  Each element is described by a weight
(its trace) and an angle in that plane; with the preparation for each
outcome chosen optimally, the average fidelity of the whole scheme is

    (1 + sum_k (w_k / 2) * sqrt(payoff(angle_k))) / 2,

where the payoff is a smooth loop over the angle.  Maximising this over
all weighted angle sets subject to POVM completeness reproduces, to
numerical precision, the closed form in :mod:`qdverify.criterion`.  The
search shares no formula with it and is still cheap: the grid's trigonometry
is cached per resolution, and refinement and random draws run in scalar math.

The tangent construction used in that verification pairs the payoff loop
with an affine function of the angle whose square dominates the loop
everywhere and touches it at angles 0 and pi; the gap between the two has
the closed form exposed as :func:`tangency_residual`.

Each function that needs numpy imports it itself, so that the command line
can load this module without it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .criterion import _check_unit, _refine

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EnsembleParams",
    "CQScheme",
    "ensemble_params",
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
        if not all(math.isfinite(a) for a in self.angles):
            raise ValueError(f"angles must be finite, got {self.angles!r}")
        if not all(-1e-12 <= w < math.inf for w in self.weights):
            raise ValueError(f"weights must be finite and non-negative, got {self.weights!r}")

    def completeness_residuals(self, ep: EnsembleParams) -> tuple[float, float, float]:
        w, shifted = self.weights, [a + ep.axis_angle for a in self.angles]
        return (sum(w) - 2.0, _dot(w, map(math.cos, shifted)), _dot(w, map(math.sin, shifted)))


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


def _skew(ep: EnsembleParams, gamma: float) -> float:
    # Coefficient of the out-of-axis term in the payoff: it vanishes for
    # orthogonal or identical inputs and for extreme priors.
    return (1.0 - ep.bias**2) * gamma * math.sqrt(max(1.0 - gamma * gamma, 0.0))


def _payoff_coeffs(ep: EnsembleParams, gamma: float, gamma_prime: float) -> tuple:
    t2 = gamma_prime * gamma_prime
    return (1.0 - t2, ep.bias, ep.diff_norm, t2 / ep.diff_norm**2, _skew(ep, gamma))


def _payoff_sq_cs(coeffs: tuple, c, s):
    # The payoff from the cosine and sine of the angle, scalar or array.  Keep
    # ``** 2``: a scalar one goes through libm pow, which rounds apart from
    # ``x * x`` on about 1 argument in 1000, and the refined bits depend on it.
    a, P, G, b, skew = coeffs
    return a * (P + G * c) ** 2 + b * (G + P * c - skew * s) ** 2


def _dot(x, y) -> float:
    return sum(map(operator.mul, x, y))


def _scheme_value(coeffs: tuple, weights, angles) -> float:
    # (1 + sum_k (w_k / 2) sqrt(payoff_k)) / 2, summed in element order
    roots = (math.sqrt(_payoff_sq_cs(coeffs, math.cos(a), math.sin(a))) for a in angles)
    return 0.5 * (1.0 + _dot(weights, roots) / 2.0)


def angle_payoff_sq(ep: EnsembleParams, gamma: float, gamma_prime: float, phi):
    """Squared per-unit-weight payoff of a projective element at ``phi``.

    Accepts a scalar or array angle.  The square root of this quantity,
    weighted by half the element trace, is the element's contribution to
    the scheme fidelity in :func:`scheme_fidelity`.
    """
    import numpy as np

    return _payoff_sq_cs(_payoff_coeffs(ep, gamma, gamma_prime), np.cos(phi), np.sin(phi))


def payoff_tangent(ep: EnsembleParams, gamma: float, gamma_prime: float, phi):
    """Affine majorant whose square touches the payoff at angles 0 and pi."""
    import numpy as np

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
    import numpy as np

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
    if not all(abs(r) <= COMPLETENESS_TOL for r in residuals):  # NaN fails too
        raise ValueError(f"scheme violates POVM completeness: residuals {residuals!r}")
    return _scheme_value(_payoff_coeffs(ep, gamma, gamma_prime), scheme.weights, scheme.angles)


def _pair_value(coeffs: tuple, c, s, c_back, s_back, sqrt=math.sqrt):
    # Equal-weight antipodal pair {phi, phi + pi}: the only single-angle
    # family that satisfies completeness automatically.  Takes the cosine and
    # sine at both angles, scalars or, with np.sqrt, arrays.
    forward = sqrt(_payoff_sq_cs(coeffs, c, s))
    return 0.5 * (1.0 + 0.5 * (forward + sqrt(_payoff_sq_cs(coeffs, c_back, s_back))))


def _pair_at(coeffs: tuple, phi: float) -> float:
    back = phi + math.pi
    return _pair_value(coeffs, math.cos(phi), math.sin(phi), math.cos(back), math.sin(back))


@functools.lru_cache(maxsize=2)
def _grid(resolution: int) -> tuple[np.ndarray, ...]:
    import numpy as np

    # The scan angles over [0, pi) and the cosine and sine at each angle and its
    # antipode, read-only; -cos(phi) would round apart from cos(phi + pi).
    phis = np.linspace(0.0, math.pi, resolution, endpoint=False)
    grid = (phis, np.cos(phis), np.sin(phis), np.cos(phis + math.pi), np.sin(phis + math.pi))
    for arr in grid:
        arr.setflags(write=False)
    return grid


def random_scheme_search(
    gamma: float,
    gamma_prime: float,
    p_plus: float,
    *,
    n_schemes: int = 64,
    seed: int = 7,
) -> tuple[CQScheme | None, float]:
    """Best fidelity over randomly drawn multi-element schemes.

    Draws weighted angle sets, restores the two moment constraints by an
    exact correction on the best-conditioned pair of weights, drops any
    draw that would need a negative weight, and rescales to the
    completeness sum.  Deterministic for a fixed seed.  Returns
    ``(None, -inf)`` when every draw is rejected.
    """
    import numpy as np

    ep = ensemble_params(gamma, p_plus)
    coeffs = _payoff_coeffs(ep, gamma, gamma_prime)
    rng = np.random.default_rng(seed)
    best_value, best = -math.inf, None
    for _ in range(n_schemes):
        k = int(rng.integers(2, _MAX_ELEMENTS + 1))
        angles = rng.uniform(0.0, 2.0 * math.pi, k).tolist()
        weights = rng.uniform(0.2, 1.0, k).tolist()
        shifted = [a + ep.axis_angle for a in angles]
        cs, sn = [math.cos(t) for t in shifted], [math.sin(t) for t in shifted]
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
        # Cancel the moment (mx, my) along elements i and j by Cramer's rule;
        # the determinant is sin(shifted[j] - shifted[i]), of size >= 1e-6.
        mx, my = _dot(weights, cs), _dot(weights, sn)
        det = cs[i] * sn[j] - cs[j] * sn[i]
        weights[i] += (my * cs[j] - mx * sn[j]) / det
        weights[j] += (mx * sn[i] - my * cs[i]) / det
        if min(weights) < 0.0:
            continue
        total = sum(weights)
        # A near-zero sum happens for near-antipodal pairs whose corrected
        # weights collapse; rescaling would amplify roundoff into a real
        # constraint violation, so such draws are rejected like any other.
        if total < 1e-6:
            continue
        weights = [w * (2.0 / total) for w in weights]
        residuals = (sum(weights) - 2.0, _dot(weights, cs), _dot(weights, sn))
        if not all(abs(r) <= COMPLETENESS_TOL for r in residuals):
            continue
        value = _scheme_value(coeffs, weights, angles)
        if value > best_value:
            best_value, best = value, (weights, angles)
    return (None if best is None else CQScheme(*map(tuple, best))), best_value


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
    import numpy as np

    resolution = int(resolution)
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    _check_unit("gamma_prime", gamma_prime)
    coeffs = _payoff_coeffs(ensemble_params(gamma, p_plus), gamma, gamma_prime)

    phis, *trig = _grid(resolution)
    values = _pair_value(coeffs, *trig, sqrt=np.sqrt)
    k = int(np.argmax(values))
    step = math.pi / resolution
    phi_k = float(phis[k])
    best_phi, neg_value = _refine(
        lambda phi: -_pair_at(coeffs, phi), phi_k - step, phi_k + step, phi_k, -float(values[k])
    )
    best_scheme, best_value = CQScheme((1.0, 1.0), (best_phi, best_phi + math.pi)), -neg_value

    if n_random > 0:
        rand_scheme, rand_value = random_scheme_search(
            gamma, gamma_prime, p_plus,
            n_schemes=n_random, seed=seed,
        )
        if rand_scheme is not None and rand_value > best_value:
            best_scheme, best_value = rand_scheme, rand_value
    return best_scheme, best_value
