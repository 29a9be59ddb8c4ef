import math
import warnings

import numpy as np
import pytest

from qdverify.fock_oracle import (
    DEFAULT_DIM,
    DROPPED_WEIGHT,
    FockDensity,
    _squeeze_basis,
    coherent_fock,
    destroy,
    quadrature_moments_fock,
    squeeze_matrix,
    squeezed_thermal,
    thermal_fock,
    uhlmann_fock,
)
from qdverify.gaussian import CovMat2, GaussianState, rotate_cov, uhlmann_fidelity_gaussian


def _dense(state):
    """The density matrix V diag(w) V^H a state holds as its spectrum."""
    return (state.vectors * state.weights) @ state.vectors.conj().T


def test_destroy_matrix_elements():
    a = destroy(4)
    expected = np.zeros((4, 4))
    for n in range(1, 4):
        expected[n - 1, n] = math.sqrt(n)
    assert np.array_equal(a, expected)


def test_thermal_zero_is_vacuum():
    vac = thermal_fock(0.0, 12)
    expected = np.zeros((12, 12))
    expected[0, 0] = 1.0
    assert np.allclose(_dense(vac), expected)


def test_thermal_moments():
    m1, m2, s1, s2 = quadrature_moments_fock(thermal_fock(0.5, 100))
    assert m1 == pytest.approx(0.0, abs=1e-12)
    assert m2 == pytest.approx(0.0, abs=1e-12)
    assert s1 == pytest.approx(0.5, abs=1e-9)
    assert s2 == pytest.approx(0.5, abs=1e-9)


def test_coherent_moments():
    m1, m2, s1, s2 = quadrature_moments_fock(coherent_fock(1.2, 80))
    assert m1 == pytest.approx(1.2, abs=1e-10)
    assert m2 == pytest.approx(0.0, abs=1e-10)
    assert s1 == pytest.approx(0.25 + 1.44, abs=1e-9)
    assert s2 == pytest.approx(0.25, abs=1e-9)

    m1, m2, _, _ = quadrature_moments_fock(coherent_fock(0.5 + 0.3j, 80))
    assert m1 == pytest.approx(0.5, abs=1e-10)
    assert m2 == pytest.approx(0.3, abs=1e-10)


def test_squeezed_thermal_moments():
    state = squeezed_thermal(0.3, 0.2)
    m1, m2, s1, s2 = quadrature_moments_fock(state)
    scale = (2.0 * 0.2 + 1.0) / 4.0
    assert m1 == pytest.approx(0.0, abs=1e-10)
    assert s1 == pytest.approx(scale * math.exp(0.6), abs=1e-8)
    assert s2 == pytest.approx(scale * math.exp(-0.6), abs=1e-8)

    # a quarter turn swaps the two quadratures
    _, _, t1, t2 = quadrature_moments_fock(squeezed_thermal(0.3, 0.2, math.pi / 2.0))
    assert t1 == pytest.approx(s2, abs=1e-8)
    assert t2 == pytest.approx(s1, abs=1e-8)


def test_rotation_matches_covariance_action():
    r, nbar, theta = 0.25, 0.1, 0.6
    _, _, s1, s2 = quadrature_moments_fock(squeezed_thermal(r, nbar, theta))
    scale = 2.0 * nbar + 1.0
    x = scale * math.exp(2.0 * r)
    y = scale * math.exp(-2.0 * r)
    c, s = math.cos(theta), math.sin(theta)
    assert s1 == pytest.approx((c * c * x + s * s * y) / 4.0, abs=1e-8)
    assert s2 == pytest.approx((s * s * x + c * c * y) / 4.0, abs=1e-8)


def test_squeeze_scales_vacuum_variance():
    s = squeeze_matrix(0.4, 80)
    vac = np.zeros(80)
    vac[0] = 1.0
    amps = s @ vac
    state = FockDensity([1.0], amps[:, None])
    _, _, s1, s2 = quadrature_moments_fock(state)
    assert s1 == pytest.approx(math.exp(0.8) / 4.0, abs=1e-8)
    assert s2 == pytest.approx(math.exp(-0.8) / 4.0, abs=1e-8)


def test_uhlmann_coherent_pair():
    f = uhlmann_fock(coherent_fock(1.0, 40), coherent_fock(-1.0, 40))
    assert f == pytest.approx(math.exp(-2.0), abs=1e-8)


def test_uhlmann_vacuum_against_coherent():
    f = uhlmann_fock(thermal_fock(0.0, 40), coherent_fock(0.8, 40))
    assert f == pytest.approx(math.exp(-0.32), abs=1e-9)


def test_uhlmann_identical_mixed_state():
    state = squeezed_thermal(0.2, 0.3)
    assert uhlmann_fock(state, state) == pytest.approx(1.0, abs=1e-9)


def test_uhlmann_dimension_mismatch():
    with pytest.raises(ValueError):
        uhlmann_fock(thermal_fock(0.1, 30), thermal_fock(0.1, 40))


def test_truncation_deficit_rejected():
    with pytest.raises(ValueError):
        squeezed_thermal(1.5, 0.0, dim=10)


def test_density_validation():
    with pytest.raises(ValueError):
        FockDensity([0.5, 0.5], [[1.0, 0.1], [0.0, 1.0]])  # not orthonormal
    with pytest.raises(ValueError):
        FockDensity([0.7, 0.2], np.eye(2))  # trace deficit
    with pytest.raises(ValueError):
        FockDensity([0.5, 0.5 + 1e-9], np.eye(2))  # trace excess
    FockDensity([0.5, 0.5 + 1e-15], np.eye(2))  # rounding above a trace of 1 is accepted
    with pytest.raises(ValueError):
        FockDensity([1.5, -0.5], np.eye(2))  # negative weight
    with pytest.raises(ValueError):
        FockDensity(np.full(2, 0.5), np.eye(3)[:, :1])  # one vector for two weights


def _count_calls(monkeypatch, *names):
    calls = []
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_uhlmann_reuses_each_states_decomposition(monkeypatch):
    mixed = squeezed_thermal(0.3, 0.2, 0.4, 60)
    other = squeezed_thermal(-0.2, 0.5, 1.1, 60)
    pure = squeezed_thermal(0.4, 0.0, 0.0, 60)
    calls = _count_calls(monkeypatch, "eigh", "eigvalsh", "svd")
    for pair in ((mixed, pure), (pure, mixed), (pure, pure), (mixed, other)):
        uhlmann_fock(*pair)
        # no eigensolve: one singular value decomposition of the stored spectra
        assert calls == ["svd"]
        calls.clear()


def test_constructors_decompose_nothing(monkeypatch):
    squeeze_matrix(0.0, DEFAULT_DIM)  # the squeeze basis is decomposed once per dim
    calls = _count_calls(monkeypatch, "eigh", "eigvalsh", "svd")
    coherent_fock(0.5 + 0.3j)
    thermal_fock(0.3)
    squeezed_thermal(0.3, 0.2, 0.4)
    assert calls == []


def test_pure_state_keeps_only_its_top_vector():
    pure = [
        squeezed_thermal(0.4, 0.0, 0.0, 60),
        thermal_fock(0.0, 60),
        coherent_fock(0.8 - 0.2j, 60),
        FockDensity([1.0, -1e-12], np.eye(60)[:, :2]),  # the rounding weight is dropped
    ]
    for state in pure:
        assert state.weights.shape == (1,) and state.vectors.shape == (60, 1)
    assert pure[-1].weights[0] == 1.0
    state = squeezed_thermal(0.4, 0.3, 0.0, 60)
    assert state.weights.shape == (41,) and state.vectors.shape == (60, 41)


def _geometric(nbar, dim):
    return np.array([nbar**n / (1.0 + nbar) ** (n + 1) for n in range(dim)])


@pytest.mark.parametrize("order", ["descending", "ascending", "shuffled"])
@pytest.mark.parametrize("nbar", [1e-6, 0.3, 1.0])
def test_density_drops_exactly_the_lightest_columns(order, nbar):
    dim = 120
    w = _geometric(nbar, dim)
    w[-3:] = [0.0, -1e-12, 0.0]  # rounding noise below zero is always dropped
    perm = {
        "descending": np.arange(dim),
        "ascending": np.arange(dim)[::-1],  # the order eigh returns
        "shuffled": np.random.default_rng(0).permutation(dim),
    }[order]
    re, im = np.random.default_rng(1).normal(size=(2, dim, dim))
    v = np.linalg.qr(re + 1j * im)[0]
    w, v = w[perm], v[:, perm]
    state = FockDensity(w, v)
    kept = np.array([k for k in range(dim) if w[k] in state.weights])
    dropped = np.setdiff1d(np.arange(dim), kept)
    # the kept columns in their input order, each with its own weight
    assert np.array_equal(state.weights, w[kept])
    assert np.array_equal(state.vectors, v[:, kept])
    # the dropped ones are the lightest, as many as fit in DROPPED_WEIGHT
    assert w[dropped].max() <= w[kept].min()
    assert w[dropped][w[dropped] > 0.0].sum() <= DROPPED_WEIGHT
    assert w[dropped][w[dropped] > 0.0].sum() + w[kept].min() > DROPPED_WEIGHT
    if order == "descending":  # the rank a thermal spectrum keeps is a prefix
        assert np.array_equal(kept, np.arange(kept.size))


@pytest.mark.parametrize("bad", [math.nan, 0.1], ids=["nan", "skewed"])
def test_density_still_checks_every_kept_column(bad):
    w = np.append(_geometric(0.3, 40), 0.0)
    v = np.eye(41)
    v[0, 30] = bad  # level 30 has weight ~2e-20, far above DROPPED_WEIGHT
    with pytest.raises(ValueError, match="orthonormal"):
        FockDensity(w, v)


def _full_rank_fidelity(args, dim):
    # every column of phase * S with its geometric weight, none dropped
    x = []
    for r, nbar, theta in args:
        v = np.exp(-1j * theta * np.arange(dim))[:, None] * squeeze_matrix(r, dim)
        x.append((np.sqrt(_geometric(nbar, dim)), v))
    (s1, v1), (s2, v2) = x
    return float(np.linalg.svd(s1[:, None] * (v1.conj().T @ v2) * s2, compute_uv=False).sum())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dropped_columns_lower_the_fidelity_by_at_most_twice_their_root(seed):
    # F(p, s) - F(p_k, s_k) lies in [0, sqrt(d_p) + sqrt(d_s)], up to rounding
    rng = np.random.default_rng(seed)
    for nbar_pair in ((0.0, 1e-6), (1e-6, 1.0), (1.0, 0.0), (1.0, 1.0), None, None):
        nbars = nbar_pair or rng.uniform(0.0, 1.0, size=2)
        args = [
            (float(rng.uniform(-R_MAX, R_MAX)), float(nbar), float(rng.uniform(0.0, math.pi)))
            for nbar in nbars
        ]
        cut = uhlmann_fock(*(squeezed_thermal(*a) for a in args))
        gap = _full_rank_fidelity(args, DEFAULT_DIM) - cut
        assert -1e-15 <= gap <= 2.0 * math.sqrt(DROPPED_WEIGHT)


@pytest.mark.parametrize("r", [-0.7, 0.05, 0.4, 0.7])
def test_parity_split_squeeze_matches_full_exponential(r):
    from scipy.linalg import expm

    dim = 120
    s = squeeze_matrix(r, dim)
    a = destroy(dim)
    assert np.max(np.abs(s - expm(0.5 * r * (a.T @ a.T - a @ a)))) < 1e-13
    assert np.max(np.abs(s @ s.T - np.eye(dim))) < 1e-13


SQUEEZE_RS = [-0.9, -0.2, 0.0, 0.3, 1.1]
SQUEEZE_DIMS = [2, 3, 8, 61, 120]


def _split_expm(r, dim):
    # the dense generator from two ladder-operator products, exponentiated per parity
    from scipy.linalg import expm

    a = destroy(dim)
    gen = 0.5 * r * (a.T @ a.T - a @ a)
    dense = np.zeros((dim, dim))
    for parity in (slice(0, None, 2), slice(1, None, 2)):
        dense[parity, parity] = expm(gen[parity, parity])
    return dense


@pytest.mark.parametrize("dim", SQUEEZE_DIMS)
@pytest.mark.parametrize("r", SQUEEZE_RS)
def test_banded_squeeze_generator_keeps_every_bit(monkeypatch, r, dim):
    # each parity block of the dense generator is D (-i T) D^H with D = diag(i**j),
    # so its entries' magnitudes are the T whose eigenbasis builds the unitary
    seen, eigh = [], np.linalg.eigh

    def recorded(t):
        seen.append(t.copy())
        return eigh(t)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    _squeeze_basis.cache_clear()
    s = squeeze_matrix(r, dim)
    a = destroy(dim)
    gen = 0.5 * (a.T @ a.T - a @ a)
    assert len(seen) == 2
    for parity, t in zip((slice(0, None, 2), slice(1, None, 2)), seen):
        assert np.array_equal(t, np.abs(gen[parity, parity]))
    # up to 2.4e-13 apart at dim 120, which is expm's own error (1.7e-13 against
    # a 40-digit exponential, where S is within 6e-15)
    assert np.max(np.abs(s - _split_expm(r, dim))) < 5e-13


@pytest.mark.parametrize("dim", SQUEEZE_DIMS)
@pytest.mark.parametrize("r", SQUEEZE_RS)
def test_squeeze_matrix_obeys_the_group_law(r, dim):
    # the split expm misses this by up to 2.2e-13 at dim 120
    for b in (0.4, -0.7):
        s = squeeze_matrix(r, dim) @ squeeze_matrix(b, dim)
        assert np.max(np.abs(s - squeeze_matrix(r + b, dim))) < 5e-14


@pytest.mark.parametrize(
    "r, dim", [(r, dim) for r in SQUEEZE_RS for dim in SQUEEZE_DIMS] + [(-0.9, 1000), (1.1, 1000)]
)
def test_squeeze_matrix_inverse_is_its_transpose(r, dim):
    # S(-r) = S(r)^T = S(r)^-1; the split expm misses the last by 4.8e-13 at dim
    # 120 and by 1.1e-11 at dim 1000
    s = squeeze_matrix(r, dim)
    assert np.max(np.abs(squeeze_matrix(-r, dim) - s.T)) < 5e-14
    assert np.max(np.abs(s @ s.T - np.eye(dim))) < 1e-13


def test_squeeze_basis_is_decomposed_once_per_dim(monkeypatch):
    _squeeze_basis.cache_clear()
    calls = _count_calls(monkeypatch, "eigh", "eigvalsh", "svd")
    squeeze_matrix(0.3, 50)
    assert calls == ["eigh", "eigh"]  # one per parity block
    squeeze_matrix(-0.6, 50)
    squeezed_thermal(0.2, 0.1, 0.4, 50)
    assert calls == ["eigh", "eigh"]
    # the cache hands the same arrays to every caller, so none may be written
    assert [arr.flags.writeable for block in _squeeze_basis(50) for arr in block] == [False] * 6


def _full_rank_density(dim, seed):
    # weight on every level, the top one included, where the truncated a a^dag is zero
    re, im = np.random.default_rng(seed).normal(size=(2, dim, dim))
    m = (re + 1j * im) @ (re - 1j * im).T
    return FockDensity(*np.linalg.eigh(m / np.trace(m).real))


@pytest.mark.parametrize(
    "state",
    [
        squeezed_thermal(0.3, 0.2, 0.6),
        coherent_fock(0.5 + 0.3j, 80),
        thermal_fock(0.5, 60),
        _full_rank_density(5, 0),
    ],
)
def test_moments_match_dense_traces(state):
    a = destroy(state.dim).astype(complex)
    x1 = 0.5 * (a + a.conj().T)
    x2 = (a - a.conj().T) / 2j
    m = _dense(state)
    dense = [np.trace(m @ x).real for x in (x1, x2)]
    dense += [np.trace(m @ x @ x).real for x in (x1, x2)]
    assert np.max(np.abs(np.subtract(quadrature_moments_fock(state), dense))) < 1e-13


def test_density_matrix_is_a_private_read_only_copy():
    weights, vectors = np.array([0.75, 0.25]), np.eye(2)
    state = FockDensity(weights, vectors)
    weights[0], vectors[0, 0] = 0.0, 0.0
    assert state.weights[0] == 0.75 and state.vectors[0, 0] == 1.0
    with pytest.raises(ValueError):
        state.weights[0] = 0.5
    with pytest.raises(ValueError):
        state.vectors[0, 0] = 0.5


R_MAX = 6.0 * math.log(10.0) / 20.0  # 6 dB, the range oracle-check draws from


def _draw(rng, nbar):
    r = float(rng.uniform(-R_MAX, R_MAX))
    theta = float(rng.uniform(0.0, math.pi))
    base = CovMat2.diagonal(
        (2.0 * nbar + 1.0) * math.exp(2.0 * r), (2.0 * nbar + 1.0) * math.exp(-2.0 * r)
    )
    return squeezed_thermal(r, nbar, theta), GaussianState(rotate_cov(base, theta))


@pytest.mark.parametrize("seed", [0, 1])
def test_uhlmann_is_symmetric_and_one_on_the_diagonal(seed):
    rng = np.random.default_rng(seed)
    states = [_draw(rng, nbar)[0] for nbar in (0.0, 0.0, 1e-6, 0.3, 0.9)]
    states.append(coherent_fock(complex(*rng.normal(size=2))))
    for i, a in enumerate(states):
        assert abs(uhlmann_fock(a, a) - 1.0) < 1e-13
        for b in states[i + 1:]:
            assert abs(uhlmann_fock(a, b) - uhlmann_fock(b, a)) < 1e-13


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("log_nbar", [(-7.0, -3.0), (-3.0, 0.0)], ids=["near_pure", "mixed"])
def test_uhlmann_matches_gaussian_fidelity(seed, log_nbar):
    # nbar stays above zero: with one exactly pure operand the closed form takes
    # sqrt((det C1 - 1)(det C2 - 1)) with det C1 - 1 rounding noise, which alone
    # moves it by ~5e-9 against a mixed partner
    rng = np.random.default_rng(seed)
    for _ in range(20):
        (f1, g1), (f2, g2) = (_draw(rng, float(10.0 ** rng.uniform(*log_nbar))) for _ in "ab")
        assert abs(uhlmann_fock(f1, f2) - uhlmann_fidelity_gaussian(g1, g2)) < 1e-13


@pytest.mark.parametrize(
    "build, args, message",
    [
        pytest.param(coherent_fock, (0.5, 1), "dim must", id="coherent-dim1"),
        pytest.param(coherent_fock, (0.5, 0), "dim must", id="coherent-dim0"),
        pytest.param(thermal_fock, (0.1, 0), "dim must", id="thermal-dim0"),
        pytest.param(squeezed_thermal, (0.1, 0.1, 0.0, 1), "dim must", id="squeezed-dim1"),
        pytest.param(coherent_fock, (math.inf,), "alpha must", id="coherent-inf"),
        pytest.param(coherent_fock, (complex(0.5, math.nan),), "alpha must", id="coherent-nan"),
        pytest.param(thermal_fock, (math.nan,), "nbar must", id="thermal-nan"),
        pytest.param(thermal_fock, (math.inf,), "nbar must", id="thermal-inf"),
        pytest.param(squeezed_thermal, (math.nan, 0.1), "r must", id="squeezed-r-nan"),
        pytest.param(squeezed_thermal, (0.1, math.inf), "nbar must", id="squeezed-nbar-inf"),
        pytest.param(squeezed_thermal, (0.1, 0.1, -math.inf), "theta must", id="squeezed-theta"),
        pytest.param(squeeze_matrix, (math.nan, 10), "r must", id="squeeze-matrix-r-nan"),
        pytest.param(squeeze_matrix, (math.inf, 10), "r must", id="squeeze-matrix-r-inf"),
        pytest.param(squeeze_matrix, (0.3, 0), "dim must", id="squeeze-matrix-dim0"),
        pytest.param(squeeze_matrix, (0.3, 1), "dim must", id="squeeze-matrix-dim1"),
        pytest.param(FockDensity, ([], np.zeros((0, 0))), r"\(0, 0\)", id="density-empty"),
        pytest.param(FockDensity, ([0.5, 0.5], np.eye(3)), r"\(3, 3\)", id="density-shapes"),
        pytest.param(FockDensity, ([math.nan], [[1.0]]), "weights must", id="density-nan-weight"),
        pytest.param(
            FockDensity, ([1.0], [[math.nan], [0.0]]), "orthonormal", id="density-nan-vector"
        ),
        pytest.param(
            FockDensity, ([0.5, 0.5], [[1.0, 0.1], [0.0, 1.0]]), "orthonormal", id="density-skewed"
        ),
    ],
)
def test_constructors_reject_bad_arguments_by_name(build, args, message):
    with pytest.raises(ValueError, match=message):
        build(*args)


@pytest.mark.parametrize("alpha", [1e10, 1e200, 30.0, complex(1.7e308, 1.7e308)])
def test_coherent_beyond_the_truncation_is_rejected(alpha):
    # the amplitudes stay finite on the way: no overflow, no NaN trace
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"alpha=.*dim=120"):
            coherent_fock(alpha, 120)


def _coherent_from_vacuum(alpha, dim):
    # amplitudes recursed upward from exp(-|alpha|^2 / 2) at n = 0
    amps = np.empty(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) * abs(alpha))
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps / math.sqrt(float(np.vdot(amps, amps).real))


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, -1.0, 3 + 2j])
def test_coherent_amplitudes_match_the_vacuum_recursion(alpha):
    vector = coherent_fock(alpha, 120).vectors[:, 0]
    assert np.max(np.abs(vector - _coherent_from_vacuum(alpha, 120))) <= 1e-15
    if abs(alpha) <= 1.0:  # the recursion starts at level 0 or 1: the same bits
        assert np.array_equal(vector, _coherent_from_vacuum(alpha, 120))


def test_coherent_far_beyond_the_underflow_of_its_vacuum_amplitude():
    # exp(-39**2 / 2) underflows to 0, the peak level 1521 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        state = coherent_fock(39.0, 1900)
    populations = state.weights[0] * np.abs(state.vectors[:, 0]) ** 2
    assert abs(populations @ np.arange(1900) / 1521.0 - 1.0) <= 1e-9
    with pytest.raises(ValueError, match=r"alpha=39.0 needs more than dim=1500"):
        coherent_fock(39.0, 1500)
