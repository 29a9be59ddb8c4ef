"""Checks for the scheme-level search against a direct matrix route.

The reference implementation below rebuilds everything from 2x2 linear
algebra: real state vectors in the plane spanned by the two inputs, POVM
elements from their Bloch angles, and the best preparation for each
outcome from an eigenvalue problem.  It shares no code with the module
under test.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdverify
from qdverify.criterion import OverlapPair, classical_fidelity_bound, total_nonorthogonality
from qdverify.mp_oracle import (
    COMPLETENESS_TOL,
    CQScheme,
    _grid,
    _pair_at,
    _pair_value,
    _payoff_coeffs,
    angle_payoff_sq,
    ensemble_params,
    optimize_scheme,
    payoff_tangent,
    random_scheme_search,
    scheme_fidelity,
    tangency_residual,
)

_SZ = np.diag([1.0, -1.0])
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])

ROOT2INV = 1.0 / math.sqrt(2.0)


def _ket(overlap, sign):
    return np.array(
        [math.sqrt((1.0 + overlap) / 2.0), sign * math.sqrt((1.0 - overlap) / 2.0)]
    )


def _matrix_value(gamma, gamma_prime, p_plus, weights, angles):
    """Scheme fidelity from explicit matrices, used as a reference."""
    phi0 = math.atan2(math.sqrt(1.0 - gamma * gamma), (2.0 * p_plus - 1.0) * gamma)
    targets = [np.outer(_ket(gamma_prime, s), _ket(gamma_prime, s)) for s in (1, -1)]
    inputs = [np.outer(_ket(gamma, s), _ket(gamma, s)) for s in (1, -1)]
    priors = (p_plus, 1.0 - p_plus)
    total = 0.0
    closure = np.zeros((2, 2))
    for w, phi in zip(weights, angles):
        chi = phi + phi0
        element = 0.5 * w * (np.eye(2) + math.cos(chi) * _SZ + math.sin(chi) * _SX)
        closure += element
        mix = sum(
            pr * np.trace(rho @ element) * tgt
            for pr, rho, tgt in zip(priors, inputs, targets)
        )
        total += float(np.linalg.eigvalsh(mix)[-1])
    assert np.allclose(closure, np.eye(2), atol=1e-8)
    return total


def _quarter_turn_scheme(ep):
    angles = tuple((k * math.pi / 2.0 - ep.axis_angle) % (2.0 * math.pi) for k in range(4))
    return CQScheme((0.5, 0.5, 0.5, 0.5), angles)


def test_ensemble_params_geometry():
    ep = ensemble_params(ROOT2INV, 0.75)
    assert ep.bias == pytest.approx(0.5)
    assert ep.diff_norm == pytest.approx(0.7905694150420949)
    assert ep.diff_norm * math.cos(ep.axis_angle) == pytest.approx(0.5 * ROOT2INV)
    assert ep.diff_norm * math.sin(ep.axis_angle) == pytest.approx(ROOT2INV)


def test_ensemble_params_undefined_frame():
    with pytest.raises(ValueError):
        ensemble_params(1.0, 0.5)


@pytest.mark.parametrize(
    "gamma, gamma_prime, p_plus, phi, expected",
    [
        (ROOT2INV, ROOT2INV, 0.5, math.pi / 3.0, 0.13762756430420567),
        (ROOT2INV, ROOT2INV, 0.5, 0.0, 0.75),
        (0.6, 0.8, 0.3, 0.7, 0.0871843091485087),
    ],
)
def test_payoff_frozen_values(gamma, gamma_prime, p_plus, phi, expected):
    ep = ensemble_params(gamma, p_plus)
    assert angle_payoff_sq(ep, gamma, gamma_prime, phi) == pytest.approx(
        expected, abs=1e-12
    )


def test_scheme_fidelity_matches_matrix_route():
    triples = [(ROOT2INV, ROOT2INV, 0.5), (0.6, 0.8, 0.3), (0.3, 0.7, 0.62)]
    for gamma, gamma_prime, p_plus in triples:
        ep = ensemble_params(gamma, p_plus)
        scheme = _quarter_turn_scheme(ep)
        mine = scheme_fidelity(scheme, gamma, gamma_prime, p_plus)
        ref = _matrix_value(gamma, gamma_prime, p_plus, scheme.weights, scheme.angles)
        assert mine == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize(
    "gamma, gamma_prime, p_plus, expected",
    [
        (ROOT2INV, ROOT2INV, 0.5, 0.8932830462427465),
        (0.6, 0.8, 0.3, 0.9428920703507914),
        (0.3, 0.7, 0.62, 0.9243810643940227),
    ],
)
def test_quarter_turn_scheme_frozen(gamma, gamma_prime, p_plus, expected):
    ep = ensemble_params(gamma, p_plus)
    scheme = _quarter_turn_scheme(ep)
    assert scheme_fidelity(scheme, gamma, gamma_prime, p_plus) == pytest.approx(
        expected, abs=1e-12
    )


def test_random_schemes_match_matrix_route():
    gamma, gamma_prime, p_plus = 0.5, 0.6, 0.7
    for seed in (1, 5, 11):
        scheme, value = random_scheme_search(
            gamma, gamma_prime, p_plus, n_schemes=40, seed=seed
        )
        assert scheme is not None
        ref = _matrix_value(gamma, gamma_prime, p_plus, scheme.weights, scheme.angles)
        assert value == pytest.approx(ref, abs=1e-10)


def test_aligned_projective_pair_reaches_bound():
    # An equal-weight antipodal pair along the ensemble axis is optimal,
    # so its fidelity must equal the closed-form bound exactly.
    for gamma, gamma_prime, p_plus in [
        (ROOT2INV, ROOT2INV, 0.5),
        (0.9, 0.0, 0.5),
        (0.3, 0.7, 0.62),
        (0.5, 0.95, 0.85),
    ]:
        pair = CQScheme((1.0, 1.0), (0.0, math.pi))
        value = scheme_fidelity(pair, gamma, gamma_prime, p_plus)
        B = total_nonorthogonality(OverlapPair(gamma, gamma_prime))
        assert value == pytest.approx(classical_fidelity_bound(B, p_plus), abs=1e-12)


def test_optimize_scheme_finds_the_bound():
    rng = np.random.default_rng(9)
    for _ in range(10):
        gamma = rng.uniform(0.1, 0.95)
        gamma_prime = rng.uniform(0.0, 0.95)
        p_plus = rng.uniform(0.1, 0.9)
        scheme, value = optimize_scheme(gamma, gamma_prime, p_plus, resolution=2048)
        B = total_nonorthogonality(OverlapPair(gamma, gamma_prime))
        closed = classical_fidelity_bound(B, p_plus)
        assert value == pytest.approx(closed, abs=1e-6)
        assert value <= closed + 1e-9
        residuals = scheme.completeness_residuals(ensemble_params(gamma, p_plus))
        assert max(abs(r) for r in residuals) <= COMPLETENESS_TOL


def test_random_search_never_beats_bound():
    rng = np.random.default_rng(13)
    for seed in range(8):
        gamma = rng.uniform(0.1, 0.95)
        gamma_prime = rng.uniform(0.0, 0.95)
        p_plus = rng.uniform(0.05, 0.95)
        B = total_nonorthogonality(OverlapPair(gamma, gamma_prime))
        closed = classical_fidelity_bound(B, p_plus)
        _, value = random_scheme_search(
            gamma, gamma_prime, p_plus, n_schemes=50, seed=seed
        )
        assert value <= closed + 1e-9


def test_tangent_majorises_payoff():
    rng = np.random.default_rng(3)
    phis = np.linspace(0.0, 2.0 * math.pi, 181)
    for _ in range(60):
        gamma = rng.uniform(0.05, 0.99)
        gamma_prime = rng.uniform(0.0, 0.99)
        p_plus = rng.uniform(0.05, 0.95)
        ep = ensemble_params(gamma, p_plus)
        gap = payoff_tangent(ep, gamma, gamma_prime, phis) ** 2 - angle_payoff_sq(
            ep, gamma, gamma_prime, phis
        )
        assert np.min(gap) >= -1e-12
        closed = tangency_residual(ep, gamma, gamma_prime, phis)
        assert np.max(np.abs(gap - closed)) <= 1e-10


def test_residual_is_a_sine_squared_profile():
    ep = ensemble_params(0.6, 0.7)
    phis = np.linspace(0.0, 2.0 * math.pi, 97)
    res = tangency_residual(ep, 0.6, 0.8, phis)
    peak = tangency_residual(ep, 0.6, 0.8, math.pi / 2.0)
    assert np.allclose(res, peak * np.sin(phis) ** 2, atol=1e-14)
    assert tangency_residual(ep, 0.6, 0.8, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert tangency_residual(ep, 0.6, 0.8, math.pi) == pytest.approx(0.0, abs=1e-15)


def test_incomplete_scheme_rejected():
    ep = ensemble_params(0.5, 0.5)
    bad = CQScheme((1.0, 0.5), (-ep.axis_angle, math.pi - ep.axis_angle))
    with pytest.raises(ValueError, match="completeness"):
        scheme_fidelity(bad, 0.5, 0.6, 0.5)


def test_scheme_validation():
    with pytest.raises(ValueError):
        CQScheme((1.0,), (0.0, 1.0))
    with pytest.raises(ValueError):
        CQScheme((), ())
    with pytest.raises(ValueError):
        CQScheme((1.0, -0.5), (0.0, 1.0))


def test_splitting_an_element_changes_nothing():
    gamma, gamma_prime, p_plus = 0.6, 0.8, 0.3
    ep = ensemble_params(gamma, p_plus)
    base = _quarter_turn_scheme(ep)
    w = base.weights
    split = CQScheme(
        (0.2 * w[0], 0.8 * w[0]) + w[1:], (base.angles[0], base.angles[0]) + base.angles[1:]
    )
    assert scheme_fidelity(split, gamma, gamma_prime, p_plus) == pytest.approx(
        scheme_fidelity(base, gamma, gamma_prime, p_plus), abs=1e-14
    )


@pytest.mark.parametrize(
    "weights, angles, name",
    [
        ((math.nan, 1.0), (0.0, math.pi), "weights"),
        ((1.0, math.inf), (0.0, math.pi), "weights"),
        ((1.0, 1.0), (math.nan, math.pi), "angles"),
        ((1.0, 1.0), (0.0, -math.inf), "angles"),
    ],
)
def test_scheme_rejects_non_finite_entries_by_name(weights, angles, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        CQScheme(weights, angles)


def test_nan_completeness_residual_is_a_violation(monkeypatch):
    ep = ensemble_params(0.5, 0.5)
    pair = CQScheme((1.0, 1.0), (-ep.axis_angle, math.pi - ep.axis_angle))
    assert scheme_fidelity(pair, 0.5, 0.6, 0.5) > 0.5
    monkeypatch.setattr(
        CQScheme, "completeness_residuals", lambda self, ep: (0.0, math.nan, 0.0)
    )
    with pytest.raises(ValueError, match="completeness"):
        scheme_fidelity(pair, 0.5, 0.6, 0.5)


# (gamma, gamma_prime, p_plus, seed) -> float.hex of the value and both angles,
# at (resolution, n_random) = (2048, 16) and at the defaults (4096, 64)
FROZEN_SEARCH = [
    ((0.5, 0.6, 0.7, 7),
     ("0x1.ee2d239be6cccp-1", "0x1.2b41deecd0047p-27", "0x1.921fb556f6ef7p+1"),
     ("0x1.ee2d239be6cccp-1", "-0x1.6d1f328aae764p-26", "0x1.921fb5169eeb3p+1")),
    ((0.3, 0.7, 0.62, 1),
     ("0x1.fa66e9d3172ebp-1", "-0x1.d004c3eca7277p-27", "0x1.921fb52742854p+1"),
     ("0x1.fa66e9d3172ecp-1", "-0x1.6787115da1369p-27", "0x1.921fb52dca607p+1")),
    ((0.9, 0.1, 0.2, 99),
     ("0x1.b29c6817dd698p-1", "-0x1.ca8d9c03087fcp-29", "0x1.921fb53d189b1p+1"),
     ("0x1.b29c6817dd698p-1", "0x1.d03b59ba097ccp-26", "0x1.921fb57e4a3cbp+1")),
    ((0.15, 0.9, 0.5, 12345),
     ("0x1.ff73c44ab987fp-1", "0x1.9d37d4fc53f64p-28", "0x1.921fb5512c902p+1"),
     ("0x1.ff73c44ab987fp-1", "0x1.52848d10e21f7p-31", "0x1.921fb54595561p+1")),
    ((0.707, 0.707, 0.5, 3),
     ("0x1.ddb3d77b4c8bfp-1", "0x1.9b64cfc625824p-26", "0x1.921fb577af6b8p+1"),
     ("0x1.ddb3d77b4c8bep-1", "0x1.2f2367a0406f5p-38", "0x1.921fb544452fcp+1")),
    ((0.62, 0.05, 0.88, 4242),
     ("0x1.ea5a742ede6f2p-1", "-0x1.2dc076efa005bp-26", "0x1.921fb51e8ac2ap+1"),
     ("0x1.ea5a742ede6f2p-1", "0x1.fe62127058815p-35", "0x1.921fb54462b7ap+1")),
    # squaring the payoff terms as x * x in place of x ** 2 moves this value
    ((0.5567007555908142, 0.1594333016119748, 0.7766750544516685, 28692),
     ("0x1.e39a1274c53a6p-1", "-0x1.092bd88a5db52p-29", "0x1.921fb5401e222p+1"),
     ("0x1.e39a1274c53a6p-1", "-0x1.53e5dd8f6883dp-27", "0x1.921fb52f0473ap+1")),
]


@pytest.mark.parametrize("args, small, default", FROZEN_SEARCH)
def test_optimize_scheme_frozen_bits(args, small, default):
    *point, seed = args
    for expected, kwargs in ((small, dict(resolution=2048, n_random=16)), (default, {})):
        scheme, value = optimize_scheme(*point, seed=seed, **kwargs)
        assert scheme.weights == (1.0, 1.0)
        assert (value.hex(), *(a.hex() for a in scheme.angles)) == expected


def _numpy_pair_value(ep, gamma, gamma_prime, phi):
    # the antipodal pair on arrays or numpy scalars, with the payoff written out
    t2 = gamma_prime * gamma_prime
    P, G = ep.bias, ep.diff_norm
    skew = (1.0 - P**2) * gamma * math.sqrt(max(1.0 - gamma * gamma, 0.0))

    def payoff(c, s):
        return (1.0 - t2) * (P + G * c) ** 2 + (t2 / G**2) * (G + P * c - skew * s) ** 2

    forward = np.sqrt(payoff(np.cos(phi), np.sin(phi)))
    backward = np.sqrt(payoff(np.cos(phi + math.pi), np.sin(phi + math.pi)))
    return 0.5 * (1.0 + 0.5 * (forward + backward))


@pytest.mark.parametrize(
    "gamma, gamma_prime, p_plus", [(ROOT2INV, ROOT2INV, 0.5), (0.6, 0.8, 0.3), (0.93, 0.02, 0.81)]
)
def test_pair_value_keeps_the_bits_of_the_numpy_route(gamma, gamma_prime, p_plus):
    ep = ensemble_params(gamma, p_plus)
    phis, *trig = _grid(2048)
    coeffs = _payoff_coeffs(ep, gamma, gamma_prime)
    grid = _pair_value(coeffs, *trig, sqrt=np.sqrt)
    assert np.array_equal(grid, _numpy_pair_value(ep, gamma, gamma_prime, phis))
    scalar = np.array([_pair_at(coeffs, phi) for phi in phis.tolist()])
    numpy_scalar = [_numpy_pair_value(ep, gamma, gamma_prime, phi) for phi in phis]
    assert np.array_equal(scalar, numpy_scalar)
    # A scalar x ** 2 goes through libm pow, an array one through x * x, and
    # the two round apart on about 1 in 1000 arguments: the scalar and the
    # array route may then differ in the last bit.
    assert np.max(np.abs(scalar - grid) / np.spacing(grid)) <= 1.0
    assert np.count_nonzero(scalar != grid) <= 10


def test_grid_is_cached_and_read_only():
    first = _grid(2048)
    assert _grid(2048) is first
    for arr in first:
        assert arr.shape == (2048,) and not arr.flags.writeable


def test_scheme_search_calls_no_linear_algebra(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("lstsq", "solve", "inv", "pinv", "det", "svd", "eig", "eigh", "norm"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    optimize_scheme(0.5, 0.6, 0.7, resolution=2048, n_random=16, seed=3)
    scheme, _ = random_scheme_search(0.5, 0.6, 0.7, n_schemes=40, seed=5)
    assert scheme is not None


# (gamma, gamma_prime, p_plus, seed) -> float.hex of the best value and of its
# angles over 40 draws: the draws come from random.Random, whose stream Python
# keeps fixed across versions, so these hold on every supported Python
FROZEN_RANDOM = [
    ((0.5, 0.6, 0.7, 5),
     ("0x1.eb31edac8dd72p-1",
      ("0x1.8a79c6d21986ap+2", "0x1.8f270ed9858e4p+1", "0x1.4e28840361c9bp+1"))),
    ((0.3, 0.7, 0.62, 1234567),
     ("0x1.f7c05e05b5cc4p-1",
      ("0x1.993df26e8d6cdp+1", "0x1.8c75c697dca64p+2", "0x1.8c8ac4b42f778p-1"))),
]


@pytest.mark.parametrize("args, expected", FROZEN_RANDOM)
def test_random_scheme_search_frozen_bits(args, expected):
    *point, seed = args
    scheme, value = random_scheme_search(*point, n_schemes=40, seed=seed)
    assert (value.hex(), tuple(a.hex() for a in scheme.angles)) == expected


@pytest.mark.parametrize("seed", [-1, -7, 1.5, 3.0, "3", None])
def test_scheme_searches_reject_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        random_scheme_search(0.5, 0.6, 0.7, n_schemes=4, seed=seed)
    for n_random in (0, 16):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            optimize_scheme(0.5, 0.6, 0.7, resolution=64, n_random=n_random, seed=seed)


def test_seed_takes_any_integer_type():
    # random.Random(-s) would draw what random.Random(s) draws, so a negative
    # seed is refused above rather than folded; integer types all agree
    want = random_scheme_search(0.5, 0.6, 0.7, n_schemes=8, seed=3)
    assert random_scheme_search(0.5, 0.6, 0.7, n_schemes=8, seed=np.int64(3)) == want
    assert random_scheme_search(0.5, 0.6, 0.7, n_schemes=8, seed=2**70)[1] > 0.5


def test_scheme_search_leaves_numpy_random_unloaded():
    # numpy.random costs several MB of memory in a fresh process; the grid
    # scan needs numpy itself, the random draws nothing beyond the stdlib
    code = (
        "import sys\n"
        "from qdverify.mp_oracle import optimize_scheme, random_scheme_search\n"
        "optimize_scheme(0.5, 0.6, 0.7, resolution=2048, n_random=16, seed=3)\n"
        "random_scheme_search(0.5, 0.6, 0.7, n_schemes=40, seed=5)\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(qdverify.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.split() == ["True", "False"]


def test_optimize_scheme_resolution_floor():
    with pytest.raises(ValueError):
        optimize_scheme(0.5, 0.5, 0.5, resolution=8)
