import math

import numpy as np
import pytest

from qdverify.gaussian import (
    CovMat2,
    GaussianState,
    SqueezingRecord,
    db_to_linear,
    input_overlap_sq,
    optimal_target_squeezing,
    pure_target_projection,
    rotate_cov,
    target_overlap_sq,
    uhlmann_fidelity_gaussian,
)


def _random_physical_cov(rng):
    v1 = rng.uniform(0.3, 3.0)
    v2 = rng.uniform(1.0 / v1 + 0.01, 4.0 / v1 + 1.0)
    return rotate_cov(CovMat2.diagonal(v1, v2), rng.uniform(0.0, math.pi))


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-2.0) == pytest.approx(0.6309573444801932)
    assert db_to_linear(6.0) == pytest.approx(3.9810717055349722)


def test_rotate_cov_quarter_turn():
    rotated = rotate_cov(CovMat2.diagonal(2.0, 0.5), math.pi / 4.0)
    assert rotated.c11 == pytest.approx(1.25)
    assert rotated.c22 == pytest.approx(1.25)
    assert rotated.c12 == pytest.approx(-0.75)


def test_rotate_cov_preserves_determinant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = _random_physical_cov(rng)
        theta = rng.uniform(-math.pi, math.pi)
        assert rotate_cov(c, theta).det == pytest.approx(c.det, rel=1e-12)


def test_rotate_cov_full_turn_is_identity():
    c = CovMat2(1.7, 0.4, 1.1)
    back = rotate_cov(c, 2.0 * math.pi)
    assert back.c11 == pytest.approx(c.c11)
    assert back.c12 == pytest.approx(c.c12)
    assert back.c22 == pytest.approx(c.c22)


def test_covmat_validation():
    with pytest.raises(ValueError):
        CovMat2(0.5, 0.0, 0.5)  # det 0.25, below the vacuum floor
    with pytest.raises(ValueError):
        CovMat2(-1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        CovMat2(math.inf, 0.0, 1.0)
    # finite entries whose determinant is not: inf, and inf - inf = nan
    for entries in ((1e200, 0.0, 1e200), (1e200, 1e200, 1e200)):
        with pytest.raises(ValueError, match="determinant .* not finite"):
            CovMat2(*entries)


def test_uhlmann_identical_states():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = GaussianState(_random_physical_cov(rng), rng.normal(), rng.normal())
        assert uhlmann_fidelity_gaussian(g, g) == pytest.approx(1.0, abs=1e-12)


def test_uhlmann_frozen_values():
    sq = GaussianState(CovMat2.diagonal(2.0, 0.5))
    vac = GaussianState(CovMat2.diagonal(1.0, 1.0))
    assert uhlmann_fidelity_gaussian(sq, vac) == pytest.approx(0.9709835434146468)

    th2 = GaussianState(CovMat2.diagonal(2.0, 2.0))
    th3 = GaussianState(CovMat2.diagonal(3.0, 3.0))
    assert uhlmann_fidelity_gaussian(th2, th3) == pytest.approx(0.9756630355021699)

    mixed = uhlmann_fidelity_gaussian(
        GaussianState(CovMat2.diagonal(2.0, 0.5), 0.4, -0.2),
        GaussianState(CovMat2(1.5, 0.3, 1.1), 0.1, 0.3),
    )
    assert mixed == pytest.approx(0.7547731919075688)


def test_uhlmann_displaced_vacua():
    # Two coherent states one mean unit apart overlap at exp(-1/2).
    vac = CovMat2.diagonal(1.0, 1.0)
    f = uhlmann_fidelity_gaussian(GaussianState(vac, 1.0, 0.0), GaussianState(vac, 0.0, 0.0))
    assert f == pytest.approx(math.exp(-0.5))


def _linear_algebra_fidelity(g1, g2):
    # The same closed form through numpy's 2x2 det and solve, a route that
    # shares none of the scalar algebra under test.
    total = np.array(
        [[g1.cov.c11 + g2.cov.c11, g1.cov.c12 + g2.cov.c12],
         [g1.cov.c12 + g2.cov.c12, g1.cov.c22 + g2.cov.c22]]
    )
    big = float(np.linalg.det(total))
    small = max((g1.cov.det - 1.0) * (g2.cov.det - 1.0), 0.0)
    fid = math.sqrt(2.0 * (math.sqrt(big + small) + math.sqrt(small)) / big)
    diff = np.array([g1.mean1 - g2.mean1, g1.mean2 - g2.mean2])
    fid *= math.exp(-float(diff @ np.linalg.solve(total, diff)))
    return min(fid, 1.0)


def test_uhlmann_matches_the_linear_algebra_route():
    rng = np.random.default_rng(40)
    for i in range(400):
        means = rng.normal(size=4).tolist() if i % 2 else [0.0] * 4
        g1 = GaussianState(_random_physical_cov(rng), *means[:2])
        g2 = GaussianState(_random_physical_cov(rng), *means[2:])
        want = _linear_algebra_fidelity(g1, g2)
        assert abs(uhlmann_fidelity_gaussian(g1, g2) - want) <= 1e-15


def test_uhlmann_calls_no_linear_algebra(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in np.linalg.__all__:
        if name != "LinAlgError":
            monkeypatch.setattr(np.linalg, name, forbidden)
    rng = np.random.default_rng(41)
    g1 = GaussianState(_random_physical_cov(rng), 0.3, -0.2)
    g2 = GaussianState(_random_physical_cov(rng), -0.1, 0.4)
    assert 0.0 < uhlmann_fidelity_gaussian(g1, g2) < 1.0


def test_uhlmann_rejects_a_covariance_sum_that_overflows():
    wide = GaussianState(CovMat2.diagonal(1e308, 1.0))
    with pytest.raises(ValueError, match="finite"):
        uhlmann_fidelity_gaussian(wide, wide)


def test_uhlmann_symmetric_in_arguments():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g1 = GaussianState(_random_physical_cov(rng), rng.normal(), rng.normal())
        g2 = GaussianState(_random_physical_cov(rng), rng.normal(), rng.normal())
        assert uhlmann_fidelity_gaussian(g1, g2) == pytest.approx(
            uhlmann_fidelity_gaussian(g2, g1), abs=1e-12
        )


def test_input_overlap_frozen():
    x = db_to_linear(-2.0)
    y = db_to_linear(6.0)
    assert input_overlap_sq(x, y, math.pi / 2.0) == pytest.approx(0.5985104777980788)
    assert math.sqrt(input_overlap_sq(x, y, math.pi / 2.0)) == pytest.approx(
        0.7736345893237186
    )
    assert input_overlap_sq(x, y, 0.0) == pytest.approx(1.0)


def test_input_overlap_matches_uhlmann_squared():
    assert input_overlap_sq(1.2, 1.9, 0.8) == pytest.approx(
        0.9812505266234607, abs=1e-12
    )
    rng = np.random.default_rng(21)
    for _ in range(40):
        x = rng.uniform(0.4, 3.0)
        y = rng.uniform(1.0 / x + 1e-6, 4.0)
        theta = rng.uniform(0.0, math.pi / 2.0)
        direct = GaussianState(CovMat2.diagonal(x, y))
        turned = GaussianState(rotate_cov(CovMat2.diagonal(x, y), theta))
        assert input_overlap_sq(x, y, theta) == pytest.approx(
            uhlmann_fidelity_gaussian(direct, turned) ** 2, abs=1e-10
        )


def test_target_overlap_pure_case_matches_input_formula():
    # At unit variance product the two overlap formulas describe the same
    # pure-state geometry and must coincide.
    for r in (0.0, 0.2, 0.55):
        x, y = math.exp(2.0 * r), math.exp(-2.0 * r)
        thetas = np.linspace(0.0, math.pi / 2.0, 31)
        assert np.allclose(
            target_overlap_sq(x, y, thetas), input_overlap_sq(x, y, thetas), atol=1e-12
        )


def test_target_overlap_frozen():
    assert target_overlap_sq(0.984, 1.119, 0.0) == pytest.approx(0.975645509140141)
    x = db_to_linear(-0.07)
    y = db_to_linear(0.49)
    assert target_overlap_sq(x, y, 0.0) == pytest.approx(0.9755425998648275)


def test_pure_target_projection_frozen():
    assert pure_target_projection(1.2, 1.4, 0.1) == pytest.approx(0.8628676315684308)


def test_pure_target_projection_matches_uhlmann():
    rng = np.random.default_rng(30)
    for _ in range(30):
        x = rng.uniform(0.4, 2.5)
        y = rng.uniform(1.0 / x, 3.0)
        r = rng.uniform(-0.6, 0.6)
        state = GaussianState(CovMat2.diagonal(x, y))
        target = GaussianState(CovMat2.diagonal(math.exp(2.0 * r), math.exp(-2.0 * r)))
        assert pure_target_projection(x, y, r) == pytest.approx(
            uhlmann_fidelity_gaussian(state, target) ** 2, abs=1e-12
        )


def test_optimal_target_squeezing():
    r = optimal_target_squeezing(1.2, 1.4)
    assert r == pytest.approx(0.25 * math.log(1.2 / 1.4))
    best = pure_target_projection(1.2, 1.4, r)
    assert best == pytest.approx(0.8710239402399179)
    assert best == pytest.approx(2.0 / (1.0 + math.sqrt(1.2 * 1.4)), abs=1e-14)
    for dr in (-0.05, 0.05):
        assert pure_target_projection(1.2, 1.4, r + dr) < best
    assert optimal_target_squeezing(0.984, 1.119) == pytest.approx(
        -0.032141202814917946
    )


def test_variance_validation():
    with pytest.raises(ValueError):
        pure_target_projection(-1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        input_overlap_sq(0.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        optimal_target_squeezing(1.0, 0.0)


def test_squeezing_record():
    rec = SqueezingRecord(-2.0, 6.0)
    v1, v2 = rec.linear_pair
    assert v1 == pytest.approx(0.6309573444801932)
    assert v2 == pytest.approx(3.9810717055349722)
    # product 10**-0.1, below shot noise
    with pytest.raises(ValueError, match=(
        r"^squeezing_db -3.0 and antisqueezing_db 2.0 give a variance product "
        r"0.79\d* below 1: record is unphysical$"
    )):
        SqueezingRecord(-3.0, 2.0)


@pytest.mark.parametrize("field", ["squeezing_db", "antisqueezing_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 4000.0])
def test_squeezing_record_rejects_non_finite_db(field, value):
    kwargs = {"squeezing_db": -2.0, "antisqueezing_db": 6.0, field: value}
    with pytest.raises(ValueError, match=field):
        SqueezingRecord(**kwargs)
