import math
import warnings

import numpy as np
import pytest

from qdverify.fock_oracle import quadrature_moments_fock, squeezed_thermal, uhlmann_fock
from qdverify.quadrature_bounds import (
    QuadratureMoments,
    optimal_bound_squeezing,
    squeezed_vacuum_bound,
)

VACUUM = QuadratureMoments(0.0, 0.0, 0.25, 0.25)


def test_moment_validation():
    with pytest.raises(ValueError):
        QuadratureMoments(0.0, math.nan, 0.25, 0.25)
    with pytest.raises(ValueError):
        QuadratureMoments(1.0, 0.0, 0.5, 0.25)  # second moment below mean squared


def test_uncertainty_warning():
    with pytest.warns(UserWarning):
        QuadratureMoments(0.0, 0.0, 0.2, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        QuadratureMoments(0.0, 0.0, 0.25, 0.25)
        QuadratureMoments(2.0, 0.0, 4.26, 0.25)


def test_centered():
    q = QuadratureMoments(0.5, -0.2, 0.6, 0.3).centered()
    assert q.m1 == 0.0 and q.m2 == 0.0
    assert q.s1 == pytest.approx(0.35)
    assert q.s2 == pytest.approx(0.26)


def test_bound_requires_centered_moments():
    with pytest.raises(ValueError, match="centered"):
        squeezed_vacuum_bound(QuadratureMoments(0.1, 0.0, 0.3, 0.3), 0.0)


def test_vacuum_saturates_at_zero_squeezing():
    assert squeezed_vacuum_bound(VACUUM, 0.0) == pytest.approx(1.0)


def test_thermal_example():
    # nbar = 0.1 thermal: both second moments 1.2 / 4, true vacuum weight 1 / 1.1
    q = QuadratureMoments(0.0, 0.0, 0.3, 0.3)
    bound = squeezed_vacuum_bound(q, 0.0)
    assert bound == pytest.approx(0.9)
    assert bound <= 1.0 / 1.1


def test_matched_squeezed_vacuum_saturates():
    for r in (-0.5, 0.2, 0.7):
        q = QuadratureMoments(0.0, 0.0, math.exp(2.0 * r) / 4.0, math.exp(-2.0 * r) / 4.0)
        assert squeezed_vacuum_bound(q, r) == pytest.approx(1.0, abs=1e-12)


def test_optimal_bound_squeezing():
    q = QuadratureMoments(0.0, 0.0, 0.5, 0.125)
    r = optimal_bound_squeezing(q)
    assert r == pytest.approx(0.34657359027997264)
    best = squeezed_vacuum_bound(q, r)
    assert best == pytest.approx(1.5 - 2.0 * math.sqrt(q.s1 * q.s2), abs=1e-12)
    for dr in (-0.05, 0.05):
        assert squeezed_vacuum_bound(q, r + dr) < best


def test_optimal_bound_squeezing_needs_positive_moments():
    with pytest.warns(UserWarning):
        degenerate = QuadratureMoments(0.0, 0.0, 0.25, 0.0)
    with pytest.raises(ValueError):
        optimal_bound_squeezing(degenerate)


def test_matched_mixed_state_identity():
    # second-moment product 1.1 / 16 puts the optimised bound at the
    # frozen value (3 - 2 * sqrt(1.1)) / 2
    s1 = 0.3
    s2 = 1.1 / 16.0 / s1
    q = QuadratureMoments(0.0, 0.0, s1, s2)
    best = squeezed_vacuum_bound(q, optimal_bound_squeezing(q))
    assert best == pytest.approx(0.9755955759149242, abs=1e-12)


def test_bound_may_certify_nothing():
    hot = QuadratureMoments(0.0, 0.0, 2.0, 2.0)
    assert squeezed_vacuum_bound(hot, 0.0) < 0.0


def test_bound_sound_against_exact_projections():
    rng = np.random.default_rng(14)
    dim = 100
    targets = {r: squeezed_thermal(r, 0.0, 0.0, dim) for r in (-0.4, 0.0, 0.3)}
    for _ in range(5):
        state = squeezed_thermal(
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(0.0, 0.8)),
            float(rng.uniform(0.0, math.pi)),
            dim,
        )
        m1, m2, s1, s2 = quadrature_moments_fock(state)
        q = QuadratureMoments(m1, m2, s1, s2).centered()
        for r, target in targets.items():
            truth = uhlmann_fock(state, target) ** 2
            assert squeezed_vacuum_bound(q, r) <= truth + 1e-9
