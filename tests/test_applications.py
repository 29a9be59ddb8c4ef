import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdverify.applications import (
    AS_PUBLISHED,
    BENCHMARK_RECORDS,
    PURE_TARGET,
    CoherentTask,
    StorageRecord,
    _curves,
    _floor_at,
    _grid,
    _mode_inputs,
    _nonorth_at,
    benchmark_table,
    coherent_task_overlaps,
    coherent_verify,
    estimate_fidelity_from_clicks,
    squeezed_storage_analysis,
    teleport_two_state_check,
)
from qdverify import gaussian
from qdverify.criterion import FidelityPair
from qdverify.gaussian import SqueezingRecord, db_to_linear, input_overlap_sq, target_overlap_sq

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


def test_storage_grid_is_cached_and_read_only():
    first = _grid(128)
    assert _grid(128) is first
    for arr in first:
        assert arr.shape == (128,) and not arr.flags.writeable


def test_storage_reports_share_the_grid_but_not_the_curves():
    one, other = (squeezed_storage_analysis(BENCHMARK_RECORDS[1], 128) for _ in range(2))
    assert one.thetas is other.thetas
    with pytest.raises(ValueError, match="read-only"):
        one.thetas[0] = 1.0
    for name in ("gamma_sq", "gamma_prime_sq", "B", "rhs"):
        mine, theirs = getattr(one, name), getattr(other, name)
        assert mine.flags.writeable and mine.shape == (128,)
        assert np.array_equal(mine, theirs) and not np.shares_memory(mine, theirs)
        assert not np.shares_memory(mine, one.thetas)


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


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(SQUEEZING, SQUEEZING, st.sampled_from([AS_PUBLISHED, PURE_TARGET]),
       st.floats(0.0, 0.5 * math.pi))
def test_scalar_storage_objective_keeps_the_bits_of_the_numpy_curves(
    state_in, state_out, mode, theta
):
    # the storage refinement evaluates its objective in math; it must agree
    # with the numpy curves bit for bit, or the refined floor would move
    rec = StorageRecord("session", state_in, state_out)
    input_pair, target_pair = rec.input_state.linear_pair, _mode_inputs(rec, mode)[1]
    curves = _curves(input_pair, target_pair, theta)
    assert _floor_at(input_pair, target_pair, theta).hex() == float(curves[3]).hex()
    assert _nonorth_at(input_pair, target_pair, theta).hex() == float(curves[2]).hex()


# label -> mode -> theta_points -> (theta_min.hex(), rhs_min.hex()), captured
# from the scan whose Brent objective ran through the numpy curves
FROZEN_FLOORS = {
    "storage-2dB": {
        AS_PUBLISHED: {256: ("0x1.6077c7fe5c318p-24", "0x1.fcd99e6fe4cdbp-1"),
                       4096: ("0x0.0p+0", "0x1.fcd99e6fe4cdbp-1")},
        PURE_TARGET: {256: ("0x1.921fb54442d18p+0", "0x1.ffd74c207d78dp-1"),
                      4096: ("0x1.921fb54442d18p+0", "0x1.ffd74c207d78dp-1")},
    },
    "storage-1.2dB": {
        AS_PUBLISHED: {256: ("0x1.4e071ef1f8ad2p-23", "0x1.fa60cddf249cap-1"),
                       4096: ("0x1.753ee8221ffe6p-23", "0x1.fa60cddf249cap-1")},
        PURE_TARGET: {256: ("0x1.921fb4ac9b981p+0", "0x1.ff3f1fd17a920p-1"),
                      4096: ("0x1.921fb491ef666p+0", "0x1.ff3f1fd17a920p-1")},
    },
    "storage-1.9dB": {
        AS_PUBLISHED: {256: ("0x1.63d319ac01d10p-25", "0x1.f7723a9c17ca4p-1"),
                       4096: ("0x0.0p+0", "0x1.f7723a9c17ca4p-1")},
        PURE_TARGET: {256: ("0x1.921fb4d2d49ebp+0", "0x1.feb4f9bdb1cc6p-1"),
                      4096: ("0x1.921fb4cb2708bp+0", "0x1.feb4f9bdb1cc6p-1")},
    },
    "teleport-6dB": {
        AS_PUBLISHED: {256: ("0x0.0p+0", "0x1.998b687da488bp-1"),
                       4096: ("0x0.0p+0", "0x1.998b687da488bp-1")},
        PURE_TARGET: {256: ("0x1.261aaae8f3ee0p-1", "0x1.f29717fe899cap-1"),
                      4096: ("0x1.261aacd13f580p-1", "0x1.f29717fe899cap-1")},
    },
}


@pytest.mark.parametrize("theta_points", [256, 4096])
@pytest.mark.parametrize("mode", [AS_PUBLISHED, PURE_TARGET])
def test_storage_floor_frozen_bits(mode, theta_points):
    for rec in BENCHMARK_RECORDS:
        rep = squeezed_storage_analysis(rec, theta_points, mode)
        want = FROZEN_FLOORS[rec.label][mode][theta_points]
        assert (rep.theta_min.hex(), rep.rhs_min.hex()) == want, rec.label


def _reference(input_pair, target_pair, cos2t):
    """``(gamma_sq, gamma_prime_sq, B, floor)`` to 50 digits at cos(2 theta).

    The pairs and ``cos2t`` are taken as exact.  Every step is written with
    positive terms (the input overlap's root difference rationalised), so
    50 working digits give far more than double precision at any dB value.
    """
    with mpmath.workdps(50):
        c = mpmath.mpf(cos2t)

        def spread(x, y):
            x, y = mpmath.mpf(x), mpmath.mpf(y)
            return ((x * x + y * y) * (1 - c) + 2 * x * y * (1 + c)) / 2

        x, y = input_pair
        p, s = mpmath.mpf(x) * mpmath.mpf(y), spread(x, y)
        g_sq = 2 / ((s + 1) / (mpmath.sqrt(p * p + s + 1) + p) + 1)
        gp_sq = 2 / mpmath.sqrt(2 + spread(*target_pair))
        nonorth = max((1 - gp_sq) * g_sq, 0)
        return g_sq, gp_sq, nonorth, (1 + mpmath.sqrt(1 - nonorth)) / 2


def _reference_floor_at(input_pair, target_pair, theta):
    with mpmath.workdps(50):
        return _reference(input_pair, target_pair, mpmath.cos(2 * mpmath.mpf(theta)))[3]


def _ulps(value, exact, scale=None):
    """|value - exact| in units in the last place of ``scale`` (default exact)."""
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(value) - exact)) / math.ulp(float(scale or exact))


@pytest.mark.parametrize("theta_points", [256, 4096])
@pytest.mark.parametrize("mode", [AS_PUBLISHED, PURE_TARGET])
def test_storage_floor_pins_lie_within_an_ulp_of_the_50_digit_floor(mode, theta_points):
    for rec in BENCHMARK_RECORDS:
        theta, rhs = (float.fromhex(v) for v in FROZEN_FLOORS[rec.label][mode][theta_points])
        exact = _reference_floor_at(rec.input_state.linear_pair, _mode_inputs(rec, mode)[1], theta)
        assert _ulps(rhs, exact) <= 1.0, rec.label


# Squeezing records far past any lab, in dB: the per-angle algebra must not
# cancel anywhere the records' gate lets a pair through.
WIDE_SQUEEZING = st.builds(
    lambda sq, excess: SqueezingRecord(sq, excess - sq),
    st.floats(-150.0, 0.0), st.floats(0.0, 300.0),
)
ANGLES = st.one_of(st.sampled_from([0.0, 0.5 * math.pi]), st.floats(0.0, 1e-6),
                   st.floats(0.0, 0.5 * math.pi))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(WIDE_SQUEEZING, WIDE_SQUEEZING, st.sampled_from([AS_PUBLISHED, PURE_TARGET]), ANGLES)
def test_storage_curves_lie_within_4_ulp_of_the_50_digit_reference(
    state_in, state_out, mode, theta
):
    rec = StorageRecord("session", state_in, state_out)
    try:
        target_pair = _mode_inputs(rec, mode)[1]
    except ValueError:  # an output that rounds below the floor: mode undefined
        return
    input_pair = rec.input_state.linear_pair
    g_sq, gp_sq, nonorth, floor = (float(v) for v in _curves(input_pair, target_pair, theta))
    # the reference takes the cosine that the scan itself uses
    ref = _reference(input_pair, target_pair, math.cos(2.0 * theta))
    assert _ulps(g_sq, ref[0]) <= 4.0
    assert _ulps(gp_sq, ref[1]) <= 4.0
    # B = gamma_sq (1 - gamma_prime_sq), whose second factor cancels as
    # gamma_prime_sq nears 1: its error is counted in ulps of gamma_sq
    assert _ulps(nonorth, ref[2], scale=ref[0]) <= 4.0
    # the floor's own step, from the B it is given; near B = 1 it magnifies
    # B's error, which the line above bounds
    with mpmath.workdps(50):
        assert _ulps(floor, (1 + mpmath.sqrt(1 - mpmath.mpf(nonorth))) / 2) <= 4.0


# nearly pure inputs squeezed hard, against mixed outputs: the records whose
# floor sits lowest, where a cancelling overlap turned into a false "yes"
PURE_INPUT = st.builds(
    lambda sq, excess: SqueezingRecord(sq, excess - sq),
    st.floats(-100.0, 0.0), st.floats(0.0, 3.0),
)
MIXED_OUTPUT = st.builds(
    lambda sq, excess: SqueezingRecord(sq, excess - sq),
    st.floats(-20.0, 0.0), st.floats(0.0, 30.0),
)
# its input overlap is exactly 1 at theta = 0, where a difference-of-squares
# spread cancels; the floor there read 0.94292 and certified a = 0.95984
DEEP_RECORD = StorageRecord(
    "deep", SqueezingRecord(-84.2838210663373, 84.9817962454766),
    SqueezingRecord(-7.40771573989719, 9.839240478885376),
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(PURE_INPUT, MIXED_OUTPUT, st.sampled_from([AS_PUBLISHED, PURE_TARGET]))
@example(DEEP_RECORD.input_state, DEEP_RECORD.output_state, AS_PUBLISHED)
def test_no_yes_verdict_where_the_50_digit_floor_reaches_the_fidelity(
    state_in, state_out, mode
):
    rec = StorageRecord("session", state_in, state_out)
    try:
        rep = squeezed_storage_analysis(rec, 64, mode)
    except ValueError:  # a credited state that rounds below the floor
        return
    if rep.verdict.is_quantum_domain:
        # at the angle whose cosine the scan used: below theta ~ 1e-8,
        # cos(2 theta) rounds to 1 and the algebra sees theta = 0
        exact = _reference(
            rec.input_state.linear_pair, _mode_inputs(rec, mode)[1],
            math.cos(2.0 * rep.theta_min),
        )[3]
        assert rep.lhs > exact


def test_theta_min_is_zero_where_its_cosine_rounds_to_one():
    # refinement stopped at theta ~ 3.2e-9, where cos(2 theta) rounds to 1 and
    # the scan computes the theta = 0 floor; the 50-digit floor at 3.2e-9
    # itself is 0.971578, above lhs
    rec = StorageRecord("deep", SqueezingRecord(-84.0, 84.5), SqueezingRecord(0.0, 2.0))
    rep = squeezed_storage_analysis(rec, 64, AS_PUBLISHED)
    assert rep.theta_min == 0.0
    assert rep.rhs_min == 0.9689395394271055 and rep.verdict.is_quantum_domain
    exact = _reference_floor_at(
        rec.input_state.linear_pair, _mode_inputs(rec, AS_PUBLISHED)[1], rep.theta_min
    )
    assert _ulps(rep.rhs_min, exact) <= 1.0


# an output record inside the tolerance below the variance floor: its
# pure_target fidelity 2/(1 + sqrt(xy)) would exceed 1
BELOW_FLOOR = StorageRecord(
    "below-floor", SqueezingRecord(-2.0, 6.0), SqueezingRecord(-3.0, 2.999999)
)


def test_pure_target_is_undefined_below_the_variance_floor():
    x, y = BELOW_FLOOR.output_state.linear_pair
    assert 1.0 - 1e-6 <= x * y < 1.0
    with pytest.raises(ValueError, match="squeezing_db -3.0 and antisqueezing_db 2.999999"):
        squeezed_storage_analysis(BELOW_FLOOR, 64, PURE_TARGET)
    # the default mode still reports, and its note says why the other mode is
    # undefined instead of quoting a fidelity above 1
    rep = squeezed_storage_analysis(BELOW_FLOOR, 64)
    assert rep.notes[0].startswith("mode pure_target is undefined for this record")
    assert "below 1" in rep.notes[0] and "mean fidelity" not in rep.notes[0]


def _other_mode_note(rec, mode, theta_points):
    # the note as a full scan in the other mode reads it, or that mode's refusal
    other = PURE_TARGET if mode == AS_PUBLISHED else AS_PUBLISHED
    try:
        rep = squeezed_storage_analysis(rec, theta_points, other)
    except ValueError as exc:
        return str(exc)
    k = int(np.argmin(rep.rhs))
    return (
        f"mode {other}: mean fidelity {rep.a:.6f}, benchmark floor "
        f"{rep.rhs[k]:.6f} near rotation {rep.thetas[k]:.6f}"
    )


@pytest.mark.parametrize("theta_points", [64, 256])
@pytest.mark.parametrize("mode", [AS_PUBLISHED, PURE_TARGET])
@pytest.mark.parametrize("rec", [*BENCHMARK_RECORDS, BELOW_FLOOR], ids=lambda rec: rec.label)
def test_storage_note_reads_the_other_mode(rec, mode, theta_points):
    try:
        rep = squeezed_storage_analysis(rec, theta_points, mode)
    except ValueError:  # the below-floor output leaves pure_target undefined
        assert rec is BELOW_FLOOR and mode == PURE_TARGET
        return
    assert rep.notes[0] == _other_mode_note(rec, mode, theta_points)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(SQUEEZING, SQUEEZING, st.sampled_from([AS_PUBLISHED, PURE_TARGET]))
def test_storage_note_reads_the_other_mode_on_sampled_records(state_in, state_out, mode):
    rec = StorageRecord("session", state_in, state_out)
    rep = squeezed_storage_analysis(rec, 64, mode)
    assert rep.notes[0] == _other_mode_note(rec, mode, 64)


def test_storage_record_refuses_an_input_below_the_physical_floor():
    # the record's own tolerance is 1e-6; an input must meet 1 - DET_TOL
    state = SqueezingRecord(-3.0, 2.9999999)
    x, y = state.linear_pair
    assert 1.0 - 1e-6 <= x * y < 1.0 - gaussian.DET_TOL
    with pytest.raises(ValueError, match=(
        r"^input squeezing_db -3.0 and antisqueezing_db 2.9999999 give a variance "
        r"product 0.9999999769741493 below 1: the input state is unphysical$"
    )):
        StorageRecord("lab", state, SqueezingRecord(-0.07, 0.49))
    StorageRecord("lab", SqueezingRecord(-0.07, 0.49), state)  # fine as an output


def test_as_published_is_undefined_for_an_input_just_below_the_floor():
    # inside DET_TOL below 1, the input passes the record but its fidelity
    # 2/(1 + sqrt(xy)) would exceed 1
    rec = StorageRecord("lab", SqueezingRecord(-3.0, 2.99999999999), SqueezingRecord(-0.07, 0.49))
    x, y = rec.input_state.linear_pair
    assert 1.0 - gaussian.DET_TOL <= x * y < 1.0
    with pytest.raises(ValueError, match=(
        "^mode as_published is undefined for this record: input squeezing_db -3.0 "
        "and antisqueezing_db 2.99999999999 give"
    )):
        squeezed_storage_analysis(rec, 64)
    rep = squeezed_storage_analysis(rec, 64, PURE_TARGET)
    assert rep.notes[0].startswith("mode as_published is undefined for this record")
    assert "mean fidelity" not in rep.notes[0]


def test_pure_target_keeps_an_output_that_rounds_below_the_floor():
    # -d and +d dB give a product one ulp below 1 and a fidelity of exactly 1
    rec = StorageRecord("pure", SqueezingRecord(0.0, 0.0), SqueezingRecord(-1.6875, 1.6875))
    x, y = rec.output_state.linear_pair
    assert x * y < 1.0
    assert squeezed_storage_analysis(rec, 64, PURE_TARGET).a == 1.0


def test_the_storage_scan_checks_no_variances(monkeypatch):
    # StorageRecord is the one gate: the per-angle algebra trusts its pairs
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    check = gaussian._check_variances
    monkeypatch.setattr(gaussian, "_check_variances", counting)
    for mode in (AS_PUBLISHED, PURE_TARGET):
        for rec in (*BENCHMARK_RECORDS, BELOW_FLOOR):
            try:
                squeezed_storage_analysis(rec, 64, mode)
            except ValueError:
                pass  # BELOW_FLOOR in pure_target; its refusal is tested above
        benchmark_table(64, mode)
    assert calls == []
    input_overlap_sq(1.0, 1.0, 0.3)  # the public helpers still check, once
    assert len(calls) == 1


def _last_accepted(make, lo, hi):
    # The largest float in [lo, hi) for which make(value) raises no ValueError,
    # when that holds below one edge and fails above it.
    def accepts(value):
        try:
            make(value)
        except ValueError:
            return False
        return True

    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    return lo


def test_squeezing_record_rejects_exactly_the_pairs_whose_overlap_overflows():
    # The rotation spread peaks at the end of the storage scan, theta = pi/2;
    # the record must stop where numpy would first overflow there.
    edge = _last_accepted(lambda db: SqueezingRecord(3.0, db), 1500.0, 1600.0)
    assert edge == pytest.approx(1539.7684278212637, abs=1e-9)
    beyond = math.nextafter(edge, math.inf)
    with pytest.raises(ValueError, match="antisqueezing_db .* overflow the overlap algebra"):
        SqueezingRecord(3.0, beyond)
    thetas = np.linspace(0.0, 0.5 * math.pi, 64)
    with np.errstate(over="raise"):
        at_edge = target_overlap_sq(*SqueezingRecord(3.0, edge).linear_pair, thetas)
        assert np.isfinite(at_edge).all()
        with pytest.raises(FloatingPointError):
            target_overlap_sq(db_to_linear(3.0), db_to_linear(beyond), thetas)


def test_storage_record_rejects_exactly_the_inputs_whose_overlap_overflows():
    # The input overlap adds (x * y)**2 to the rotation spread, so its edge
    # lies below the record's own; numpy first overflows at theta = pi/2.
    out = SqueezingRecord(3.0, 6.0)
    edge = _last_accepted(lambda db: StorageRecord("lab", SqueezingRecord(3.0, db), out),
                          1500.0, 1600.0)
    assert edge == pytest.approx(1537.78696383104, abs=1e-9)
    beyond = math.nextafter(edge, math.inf)
    SqueezingRecord(3.0, beyond)  # fine as a record, not as an input
    with pytest.raises(ValueError, match="input squeezing_db .* overflow the overlap algebra"):
        StorageRecord("lab", SqueezingRecord(3.0, beyond), out)
    thetas = np.linspace(0.0, 0.5 * math.pi, 64)
    with np.errstate(over="raise"):
        at_edge = input_overlap_sq(db_to_linear(3.0), db_to_linear(edge), thetas)
        assert np.isfinite(at_edge).all()
        with pytest.raises(FloatingPointError):
            input_overlap_sq(db_to_linear(3.0), db_to_linear(beyond), thetas)


def test_storage_record_rejects_an_output_whose_pure_target_overflows():
    # Just below 1 in variance product, the nearest pure target is a little
    # more squeezed than the record, so only its overlap overflows.
    edge = _last_accepted(lambda db: SqueezingRecord(-db - 1e-6, db), 1500.0, 1600.0)
    output = SqueezingRecord(-edge - 1e-6, edge)
    thetas = np.linspace(0.0, 0.5 * math.pi, 64)
    with np.errstate(over="raise"):
        assert np.isfinite(target_overlap_sq(*output.linear_pair, thetas)).all()
        with pytest.raises(FloatingPointError):
            target_overlap_sq(*output.pure_target_pair, thetas)
    with pytest.raises(ValueError, match="output squeezing_db .* nearest pure squeezed target"):
        StorageRecord("lab", SqueezingRecord(-3.0, 6.0), output)


def test_storage_validation():
    rec = StorageRecord(
        "session", SqueezingRecord(-1.0, 3.0), SqueezingRecord(-0.1, 0.5)
    )
    with pytest.raises(ValueError):
        squeezed_storage_analysis(rec, mode="folklore")
    with pytest.raises(ValueError):
        squeezed_storage_analysis(rec, theta_points=32)
