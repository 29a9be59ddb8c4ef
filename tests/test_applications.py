import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdverify.applications import (
    AS_PUBLISHED,
    BENCHMARK_RECORDS,
    PURE_TARGET,
    CoherentTask,
    StorageRecord,
    benchmark_table,
    coherent_task_overlaps,
    coherent_verify,
    estimate_fidelity_from_clicks,
    squeezed_storage_analysis,
    teleport_two_state_check,
)
from qdverify.criterion import FidelityPair
from qdverify.gaussian import SqueezingRecord

# Frozen outputs of an independent scan (2e6 grid points plus golden-section
# refinement, plain math module arithmetic).
PUBLISHED_LHS = (
    0.7737263596937138,
    0.8368366694299801,
    0.800100865354912,
    0.6780018175072835,
)
PUBLISHED_RHS_MIN = (
    0.993847800406367,
    0.9890198073283554,
    0.9832933726828696,
    0.7998917249081091,
)
PURE_TARGET_LHS = (
    0.9758275662119866,
    0.9574279227355463,
    0.9361900809368345,
    0.4165023249836311,
)
PURE_TARGET_RHS_MIN = (
    0.9996894635830685,
    0.9985284751140036,
    0.9974744838772487,
    0.9738090036597041,
)


def test_coherent_task_overlaps():
    t = CoherentTask(1.0, 0.5)
    pair = coherent_task_overlaps(t)
    assert pair.gamma == pytest.approx(0.1353352832366127)
    assert pair.gamma_prime == pytest.approx(0.36787944117144233)


def test_coherent_task_validation():
    with pytest.raises(ValueError):
        CoherentTask(0.0, 0.5)
    with pytest.raises(ValueError):
        CoherentTask(1.0, 0.0)
    with pytest.raises(ValueError):
        CoherentTask(1.0, 1.2)


@pytest.mark.parametrize("alpha", [1e155, 1e200, 1.7e308])
def test_coherent_task_rejects_alpha_whose_square_overflows(alpha):
    with pytest.raises(ValueError, match="alpha"):
        CoherentTask(alpha, 0.5)


def test_coherent_task_keeps_large_finite_alpha():
    # alpha**2 = 1e308 is still finite: both overlaps underflow to zero
    pair = coherent_task_overlaps(CoherentTask(1e154, 0.5))
    assert (pair.gamma, pair.gamma_prime) == (0.0, 0.0)


def test_coherent_verify():
    t = CoherentTask(1.0, 0.5)
    v = coherent_verify(t, FidelityPair(0.99, 0.99))
    assert v.rhs == pytest.approx(0.9960249775182526)
    assert not v.is_quantum_domain
    assert coherent_verify(t, FidelityPair(0.999, 0.999)).is_quantum_domain


@pytest.mark.parametrize(
    "n, k, low, high",
    [
        (100, 100, 0.9637833073548236, 1.0),
        (1000, 970, 0.9574485975299709, 0.9796695143168903),
        (50, 0, 0.0, 0.07112173646419767),
        (20, 17, 0.6210731734546862, 0.9679290628145363),
    ],
)
def test_click_interval_frozen(n, k, low, high):
    # expectations from a bisection on the exact binomial tail sums
    point, (lo, hi) = estimate_fidelity_from_clicks(n, k)
    assert point == pytest.approx(k / n)
    assert lo == pytest.approx(low, abs=1e-10)
    assert hi == pytest.approx(high, abs=1e-10)


def test_click_interval_validation():
    with pytest.raises(ValueError):
        estimate_fidelity_from_clicks(0, 0)
    with pytest.raises(ValueError):
        estimate_fidelity_from_clicks(10, 11)
    with pytest.raises(ValueError):
        estimate_fidelity_from_clicks(10, 5, confidence=1.0)


def test_teleport_working_point():
    v = teleport_two_state_check(FidelityPair(0.82, 0.82))
    assert v.rhs == pytest.approx(0.9330127018922193)
    assert not v.is_quantum_domain
    assert teleport_two_state_check(FidelityPair(0.95, 0.95)).is_quantum_domain
    steep = teleport_two_state_check(FidelityPair(0.2, 0.8))
    assert steep.degenerate is not None


def test_benchmark_record_labels():
    labels = [rec.label for rec in BENCHMARK_RECORDS]
    assert labels == ["storage-2dB", "storage-1.2dB", "storage-1.9dB", "teleport-6dB"]


def test_storage_analysis_as_published():
    rep = squeezed_storage_analysis(BENCHMARK_RECORDS[0])
    assert rep.mode == AS_PUBLISHED
    assert rep.a == rep.b
    assert rep.lhs == pytest.approx(PUBLISHED_LHS[0], abs=1e-12)
    assert rep.rhs_min == pytest.approx(PUBLISHED_RHS_MIN[0], abs=1e-9)
    assert abs(rep.theta_min) < 1e-3
    assert not rep.verdict.is_quantum_domain


def test_storage_curves_are_consistent():
    rep = squeezed_storage_analysis(BENCHMARK_RECORDS[1], theta_points=128)
    assert len(rep.thetas) == 128
    assert rep.thetas[0] == 0.0
    assert rep.thetas[-1] == pytest.approx(math.pi / 2.0)
    recombined = np.maximum((1.0 - rep.gamma_prime_sq) * rep.gamma_sq, 0.0)
    assert np.allclose(rep.B, recombined, atol=1e-15)
    assert np.allclose(rep.rhs, 0.5 * (1.0 + np.sqrt(1.0 - rep.B)), atol=1e-15)
    # the floor over the scan is never above any sampled value
    assert rep.rhs_min <= float(np.min(rep.rhs)) + 1e-12


def test_storage_benchmark_floor_rises_with_rotation():
    for rec in BENCHMARK_RECORDS:
        rep = squeezed_storage_analysis(rec)
        assert np.all(np.diff(rep.rhs) >= -1e-12)


def test_storage_notes():
    rep = squeezed_storage_analysis(BENCHMARK_RECORDS[0])
    assert rep.notes[0].startswith("mode pure_target:")
    assert len(rep.notes) == 2  # the floor sits at zero rotation

    alt = squeezed_storage_analysis(BENCHMARK_RECORDS[0], mode=PURE_TARGET)
    assert alt.notes[0].startswith("mode as_published:")


def test_storage_analysis_pure_target():
    rep = squeezed_storage_analysis(BENCHMARK_RECORDS[0], mode=PURE_TARGET)
    assert rep.lhs == pytest.approx(PURE_TARGET_LHS[0], abs=1e-12)
    assert rep.rhs_min == pytest.approx(PURE_TARGET_RHS_MIN[0], abs=1e-9)
    assert rep.theta_min == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert not rep.verdict.is_quantum_domain


def test_storage_pure_target_interior_minimum():
    rep = squeezed_storage_analysis(BENCHMARK_RECORDS[3], mode=PURE_TARGET)
    assert rep.theta_min == pytest.approx(0.5744222715670682, abs=1e-6)
    assert rep.rhs_min == pytest.approx(0.9738090036597041, abs=1e-10)


@pytest.mark.parametrize("mode, lhs, rhs_min", [
    (AS_PUBLISHED, PUBLISHED_LHS, PUBLISHED_RHS_MIN),
    (PURE_TARGET, PURE_TARGET_LHS, PURE_TARGET_RHS_MIN),
])
def test_benchmark_table_frozen(mode, lhs, rhs_min):
    reports = benchmark_table(mode=mode)
    assert len(reports) == 4
    for rep, want_lhs, want_rhs in zip(reports, lhs, rhs_min):
        assert rep.lhs == pytest.approx(want_lhs, abs=1e-12)
        assert rep.rhs_min == pytest.approx(want_rhs, abs=1e-9)
        assert not rep.verdict.is_quantum_domain


# A squeezing record whose antisqueezing at least cancels its squeezing in dB,
# so that its variance product is at least 1.
SQUEEZING = st.builds(
    lambda sq, excess: SqueezingRecord(sq, excess - sq),
    st.floats(-10.0, 0.0), st.floats(0.0, 15.0),
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(SQUEEZING, SQUEEZING)
def test_storage_verdict_rhs_is_the_reported_floor(state_in, state_out):
    rec = StorageRecord("session", state_in, state_out)
    for mode in (AS_PUBLISHED, PURE_TARGET):
        rep = squeezed_storage_analysis(rec, mode=mode)
        if rep.verdict.degenerate is None:
            assert rep.verdict.rhs == rep.rhs_min
        else:  # B is zero at the floor, so the verdict is degenerate with no rhs
            assert math.isnan(rep.verdict.rhs) and rep.rhs_min == 1.0


def test_storage_validation():
    rec = StorageRecord(
        "session", SqueezingRecord(-1.0, 3.0), SqueezingRecord(-0.1, 0.5)
    )
    with pytest.raises(ValueError):
        squeezed_storage_analysis(rec, mode="folklore")
    with pytest.raises(ValueError):
        squeezed_storage_analysis(rec, theta_points=32)
