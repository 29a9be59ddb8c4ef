import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdverify.applications import (
    AS_PUBLISHED,
    BENCHMARK_RECORDS,
    PURE_TARGET,
    _curves,
    _mode_inputs,
)
import qdverify.criterion as criterion
from qdverify.criterion import (
    _DEGENERATE_SLOPE,
    CLOSED_FORM,
    NUMERIC_SUP,
    FidelityPair,
    OverlapPair,
    _bound,
    _minimize_bounded,
    boundary_curve,
    classical_fidelity_bound,
    legendre_conjugate,
    qd_criterion,
    qd_criterion_numeric,
    tangency_prior,
    total_nonorthogonality,
)
from qdverify.cli import AGREEMENT_TOL
from qdverify.mp_oracle import _pair_at, _payoff_coeffs, ensemble_params

# Values computed independently from the defining formulas (exact binomial
# of square roots, long-double grid sweeps), frozen here.
RHS_FLAT_B025 = 0.9330127018922193
RHS_SLOPED_B025 = 0.8464101615137753
BOUND_B025_P075 = 0.9506939094329987
SUP_GAP_082_B025 = -0.11301270189221935
TANGENT_PRIOR_B025_S02 = 0.8779644730092273
HELSTROM_G09 = 0.7179449471770336


def test_bound_examples():
    assert classical_fidelity_bound(0.25, 0.5) == pytest.approx(RHS_FLAT_B025)
    assert classical_fidelity_bound(0.25, 0.75) == pytest.approx(BOUND_B025_P075)
    assert classical_fidelity_bound(0.25, 1.0) == pytest.approx(1.0)


def test_bound_symmetric_in_prior():
    rng = np.random.default_rng(5)
    for _ in range(50):
        B = rng.uniform(0.0, 1.0)
        p = rng.uniform(0.0, 1.0)
        assert classical_fidelity_bound(B, p) == pytest.approx(
            classical_fidelity_bound(B, 1.0 - p), abs=1e-14
        )


def test_bound_convex_in_prior():
    rng = np.random.default_rng(6)
    for _ in range(200):
        B = rng.uniform(0.01, 1.0)
        p1, p2 = rng.uniform(0.0, 1.0, 2)
        t = rng.uniform(0.0, 1.0)
        mix = classical_fidelity_bound(B, t * p1 + (1.0 - t) * p2)
        chord = t * classical_fidelity_bound(B, p1) + (1.0 - t) * classical_fidelity_bound(B, p2)
        assert mix <= chord + 1e-12


def test_bound_range_and_endpoints():
    for B in (0.05, 0.3, 0.7, 1.0):
        assert classical_fidelity_bound(B, 0.0) == pytest.approx(1.0)
        assert classical_fidelity_bound(B, 1.0) == pytest.approx(1.0)
        floor = 0.5 * (1.0 + math.sqrt(1.0 - B))
        assert classical_fidelity_bound(B, 0.5) == pytest.approx(floor)


def test_total_nonorthogonality():
    assert total_nonorthogonality(OverlapPair(0.8, 0.6)) == pytest.approx(0.4096)
    assert total_nonorthogonality(OverlapPair(1.0, 0.0)) == pytest.approx(1.0)
    assert total_nonorthogonality(OverlapPair(0.0, 0.5)) == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        OverlapPair(1.2, 0.5)
    with pytest.raises(ValueError):
        OverlapPair(0.5, -0.1)
    with pytest.raises(ValueError):
        FidelityPair(-0.01, 0.5)
    with pytest.raises(ValueError):
        FidelityPair(0.5, 1.01)
    with pytest.raises(ValueError):
        classical_fidelity_bound(0.5, 1.5)
    with pytest.raises(ValueError):
        classical_fidelity_bound(1.1, 0.5)


def test_flat_chord_verdicts():
    fail = qd_criterion(FidelityPair(0.82, 0.82), 0.25)
    assert not fail.is_quantum_domain
    assert fail.lhs == pytest.approx(0.82)
    assert fail.rhs == pytest.approx(RHS_FLAT_B025)
    assert fail.method == CLOSED_FORM
    assert not fail.marginal
    assert not fail.swapped
    assert fail.degenerate is None

    ok = qd_criterion(FidelityPair(0.95, 0.95), 0.25)
    assert ok.is_quantum_domain
    assert ok.rhs == pytest.approx(RHS_FLAT_B025)


def test_sloped_chord_verdict():
    v = qd_criterion(FidelityPair(0.6, 0.9), 0.25)
    assert v.rhs == pytest.approx(RHS_SLOPED_B025)
    assert v.lhs == pytest.approx(0.75)
    assert not v.is_quantum_domain
    # slope 0.3 already exceeds the derivative range [-B, B] = [-0.25, 0.25],
    # so this pair could never be certified regardless of lhs
    assert v.degenerate


def test_chord_steeper_than_derivative_range_never_certifies():
    # slope 0.3 with B = 0.16: the closed formula is still real (0.3 < 0.4 =
    # sqrt(B)) but the tangent prior lies beyond p_plus = 1.  The mean can sit
    # above the reported rhs and the verdict must still be false, because the
    # chord-bound gap peaks at p_plus = 1 where the bound reaches 1.
    v = qd_criterion(FidelityPair(0.69, 0.99), 0.16)
    assert v.lhs == pytest.approx(0.84)
    assert v.lhs > v.rhs
    assert not v.is_quantum_domain
    assert v.degenerate
    assert not math.isnan(v.rhs)

    n = qd_criterion_numeric(FidelityPair(0.69, 0.99), 0.16)
    assert not n.is_quantum_domain
    assert n.degenerate == v.degenerate
    # best gap sits at p_plus = 1: sup = b - 1, so the numeric rhs is
    # lhs + 1 - b
    assert (n.lhs - n.rhs) == pytest.approx(0.99 - 1.0, abs=1e-9)

    # slope == B exactly is still inside the derivative range: the tangent
    # prior is exactly 1, so the pair is not degenerate
    assert qd_criterion(FidelityPair(0.5, 0.75), 0.25).degenerate is None
    assert tangency_prior(0.25, 0.25) == 1.0


def test_swapped_pair_gives_same_benchmark():
    fwd = qd_criterion(FidelityPair(0.6, 0.9), 0.25)
    rev = qd_criterion(FidelityPair(0.9, 0.6), 0.25)
    assert rev.swapped and not fwd.swapped
    assert rev.rhs == pytest.approx(fwd.rhs)
    assert rev.is_quantum_domain == fwd.is_quantum_domain


def test_zero_nonorthogonality_is_degenerate():
    v = qd_criterion(FidelityPair(0.99, 0.99), 0.0)
    assert not v.is_quantum_domain
    assert math.isnan(v.rhs)
    assert v.degenerate
    # the gap peaks at p_plus = 1 with a sup of exactly 0: a tie, not a pass
    n = qd_criterion_numeric(FidelityPair(0.75, 1.0), 0.0)
    assert n.lhs == n.rhs
    assert not n.is_quantum_domain
    assert n.marginal


def test_steep_chord_is_degenerate():
    # slope 0.7 with B = 0.25: the chord is steeper than the bound anywhere
    v = qd_criterion(FidelityPair(0.2, 0.9), 0.25)
    assert not v.is_quantum_domain
    assert math.isnan(v.rhs)
    assert v.degenerate
    # inclusive at slope**2 == B
    v = qd_criterion(FidelityPair(0.25, 0.75), 0.25)
    assert v.degenerate == _DEGENERATE_SLOPE


@pytest.mark.parametrize("check", [qd_criterion, qd_criterion_numeric])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_marginal_band_includes_its_edge(monkeypatch, check, sign):
    # A margin of exactly BOUNDARY_TOL is marginal.  The shipped 1e-9 has
    # bits down to 2**-82, while lhs and rhs lie in [1/4, 1] whenever they
    # are that close, so their exact difference is a multiple of 2**-54 and
    # never equals it; a dyadic tolerance lets a float margin hit the edge.
    tol = 2.0**-30
    monkeypatch.setattr(criterion, "BOUNDARY_TOL", tol)
    a = 0.75 + sign * tol  # rhs is exactly 0.75 for a flat chord at B = 0.75
    v = check(FidelityPair(a, a), 0.75)
    assert v.rhs == 0.75 and v.lhs - v.rhs == sign * tol
    assert v.marginal
    assert v.is_quantum_domain == (sign > 0.0)
    out = math.nextafter(a, sign * math.inf)
    assert not check(FidelityPair(out, out), 0.75).marginal


def test_marginal_flag():
    on_the_line = qd_criterion(FidelityPair(RHS_FLAT_B025, RHS_FLAT_B025), 0.25)
    assert on_the_line.marginal
    # an exact tie is classical: the mean must strictly beat the benchmark
    tie = qd_criterion(FidelityPair(0.75, 0.75), 0.75)
    assert tie.lhs == tie.rhs == 0.75
    assert tie.is_quantum_domain is False
    assert tie.marginal
    clear = qd_criterion(FidelityPair(0.95, 0.95), 0.25)
    assert not clear.marginal


def test_numeric_path_examples():
    v = qd_criterion_numeric(FidelityPair(0.82, 0.82), 0.25)
    assert v.method == NUMERIC_SUP
    assert not v.is_quantum_domain
    assert v.rhs == pytest.approx(RHS_FLAT_B025, abs=1e-9)
    assert (v.lhs - v.rhs) == pytest.approx(SUP_GAP_082_B025, abs=1e-9)


def test_numeric_agrees_with_closed_form():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(400):
        a, b = rng.uniform(0.0, 1.0, 2)
        B = rng.uniform(1e-4, 1.0)
        closed = qd_criterion(FidelityPair(a, b), B)
        numeric = qd_criterion_numeric(FidelityPair(a, b), B)
        if closed.degenerate is not None:
            assert numeric.degenerate == closed.degenerate
            assert not numeric.is_quantum_domain
            continue
        if abs(closed.lhs - closed.rhs) < 1e-6:
            continue
        assert numeric.is_quantum_domain == closed.is_quantum_domain
        assert numeric.rhs == pytest.approx(closed.rhs, abs=1e-7)
        checked += 1
    assert checked > 200


SCALAR_CASES = [(0.95, 0.95, 0.25), (0.6, 0.9, 0.25), (0.69, 0.99, 0.16),
                (0.2, 0.9, 0.25), (0.99, 0.99, 0.0), (0.9, 0.8, 1.0)]


def test_scalar_verdicts_make_no_numpy_call():
    # A fresh interpreter in which numpy cannot be imported: a numpy call in
    # either verdict, or a module-level numpy import anywhere in the package,
    # fails the run.  Its verdicts must be those of this process, bit for bit.
    src = str(Path(criterion.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from qdverify.criterion import FidelityPair, qd_criterion, qd_criterion_numeric\n"
        f"for a, b, B in {SCALAR_CASES!r}:\n"
        "    f = FidelityPair(a, b)\n"
        "    print(repr((qd_criterion(f, B), qd_criterion_numeric(f, B))))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    verdicts = [
        (qd_criterion(FidelityPair(a, b), B), qd_criterion_numeric(FidelityPair(a, b), B))
        for a, b, B in SCALAR_CASES
    ]
    assert run.stdout.splitlines() == [repr(pair) for pair in verdicts]
    assert all(closed.degenerate == numeric.degenerate for closed, numeric in verdicts)


def test_tangency_prior_example():
    p0 = tangency_prior(0.25, 0.2)
    assert p0 == pytest.approx(TANGENT_PRIOR_B025_S02)
    h = 1e-6
    slope = (
        classical_fidelity_bound(0.25, p0 + h) - classical_fidelity_bound(0.25, p0 - h)
    ) / (2.0 * h)
    assert slope == pytest.approx(0.2, abs=1e-6)
    # at B = 1 the bound's kink sits at p_plus = 1/2 for every inner slope
    assert tangency_prior(1.0, 0.5) == 0.5


def test_tangency_prior_validation():
    with pytest.raises(ValueError):
        tangency_prior(0.25, 0.5)
    with pytest.raises(ValueError):
        tangency_prior(0.25, -0.6)
    with pytest.raises(ValueError):
        tangency_prior(0.0, 0.0)


@pytest.mark.parametrize(
    "lam, expected",
    [
        (0.0, -0.9330127018922193),
        (0.1, -0.8742640687119293),
        (0.2, -0.7968626966596887),
        (0.25, -0.75),
        (0.3, -0.7),
    ],
)
def test_legendre_conjugate_frozen(lam, expected):
    assert legendre_conjugate(0.25, lam) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("B", [0.25, 0.5, 0.685162315268617, 0.7133686602286315, 1.0])
def test_legendre_conjugate_at_the_top_of_the_derivative_range(B):
    # lam == B is the endpoint p_plus = 1, where the conjugate is B - 1
    # exactly; the tangency prior there rounds to just below 1 (and at B = 1
    # does not exist), so the interior formula would miss that value
    assert legendre_conjugate(B, B) == B - 1.0


def test_legendre_conjugate_matches_grid():
    rng = np.random.default_rng(23)
    ps = np.linspace(0.5, 1.0, 20001)
    for _ in range(25):
        B = rng.uniform(0.05, 1.0)
        lam = rng.uniform(-0.2, 1.2)
        bound = 0.5 * (1.0 + np.sqrt(B * (2.0 * ps - 1.0) ** 2 + 1.0 - B))
        grid = float(np.max(lam * ps - bound))
        assert legendre_conjugate(B, lam) == pytest.approx(grid, abs=1e-7)


def test_legendre_support_line_minorises_bound():
    # The support line of slope lam sits below the convex bound and touches
    # it at the point where the conjugate's extremum is attained.
    ps = np.linspace(0.5, 1.0, 2001)
    for B, lam in [(0.3, 0.1), (0.8, 0.5), (0.25, 0.2)]:
        intercept = -legendre_conjugate(B, lam)
        bound = 0.5 * (1.0 + np.sqrt(B * (2.0 * ps - 1.0) ** 2 + 1.0 - B))
        line = lam * ps + intercept
        assert np.all(line <= bound + 1e-12)
        p0 = tangency_prior(B, lam)
        touch = lam * p0 + intercept
        assert touch == pytest.approx(classical_fidelity_bound(B, p0), abs=1e-12)

    # beyond the derivative range the support point is the endpoint p_plus = 1
    intercept = -legendre_conjugate(0.3, 0.5)
    bound = 0.5 * (1.0 + np.sqrt(0.3 * (2.0 * ps - 1.0) ** 2 + 0.7))
    line = 0.5 * ps + intercept
    assert np.all(line <= bound + 1e-12)
    assert line[-1] == pytest.approx(1.0, abs=1e-12)


def test_helstrom_special_case():
    # Orthogonal targets turn the task into plain discrimination, so the
    # bound collapses to the best guessing probability for overlap gamma.
    gamma = 0.9
    guess = 0.5 * (1.0 + math.sqrt(1.0 - gamma * gamma))
    assert classical_fidelity_bound(gamma * gamma, 0.5) == pytest.approx(guess)
    assert classical_fidelity_bound(0.81, 0.5) == pytest.approx(HELSTROM_G09)


def test_boundary_curve_shape():
    curve = boundary_curve(0.5, 101)
    assert curve.shape == (101, 2)
    assert np.all(curve >= 0.0) and np.all(curve <= 1.0)
    mid = 0.5 * (1.0 + math.sqrt(0.5))
    k = int(np.argmin(np.abs(curve[:, 1] - curve[:, 0])))
    assert curve[k, 0] == mid and curve[k, 1] == mid


def test_boundary_curve_lies_on_the_boundary():
    curve = boundary_curve(0.5, 41)
    for a, b in curve:
        if (b - a) ** 2 >= 0.5 - 1e-9:
            continue
        v = qd_criterion(FidelityPair(float(a), float(b)), 0.5)
        assert v.marginal


def test_boundary_curve_validation():
    with pytest.raises(ValueError):
        boundary_curve(0.0, 10)
    with pytest.raises(ValueError):
        boundary_curve(1.0, 10)
    with pytest.raises(ValueError):
        boundary_curve(0.5, 1)


def _scipy_bounded(func, lo, hi):
    minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return res.x, res.fun


def _same_bits(ours, theirs):
    return [float(v).hex() for v in ours] == [float(v).hex() for v in theirs]


def _gap_objective(a, b, B):
    return lambda p: -(a + (b - a) * p - _bound(B, p))


def test_minimize_bounded_matches_scipy_on_numeric_sup():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = sorted(rng.uniform(0.0, 1.0, 2))
        func = _gap_objective(a, b, rng.uniform(0.01, 1.0))
        for lo, hi in (sorted(rng.uniform(0.0, 1.0, 2)), (0.0, 1.0)):
            assert _same_bits(
                _minimize_bounded(func, lo, hi), _scipy_bounded(func, lo, hi)
            )


def test_minimize_bounded_matches_scipy_on_storage_scan():
    rng = np.random.default_rng(12)
    for rec in BENCHMARK_RECORDS:
        for mode in (AS_PUBLISHED, PURE_TARGET):
            input_pair = rec.input_state.linear_pair
            target_pair = _mode_inputs(rec, mode)[1]
            func = lambda t: _curves(input_pair, target_pair, t)[3]  # noqa: E731
            for _ in range(10):
                lo, hi = sorted(rng.uniform(0.0, 0.5 * math.pi, 2))
                assert _same_bits(
                    _minimize_bounded(func, lo, hi), _scipy_bounded(func, lo, hi)
                )


def test_minimize_bounded_matches_scipy_on_scheme_search():
    rng = np.random.default_rng(13)
    for _ in range(100):
        gamma, gamma_prime, p_plus = rng.uniform(0.05, 0.95, 3)
        coeffs = _payoff_coeffs(ensemble_params(gamma, p_plus), gamma, gamma_prime)
        func = lambda phi: -_pair_at(coeffs, phi)  # noqa: E731
        centre = rng.uniform(0.0, math.pi)
        step = math.pi / int(rng.choice([16, 512, 4096]))
        lo, hi = centre - step, centre + step
        assert _same_bits(_minimize_bounded(func, lo, hi), _scipy_bounded(func, lo, hi))


def test_minimize_bounded_matches_scipy_at_an_edge():
    # slope between B and sqrt(B): the gap rises monotonically to p_plus = 1
    func = _gap_objective(0.3, 0.9, 0.5)
    lo, hi = 254.0 / 255.0, 1.0
    x, fx = _minimize_bounded(func, lo, hi)
    assert 0.0 < hi - x < 1e-7  # within the sqrt(eps)-relative tolerance of hi
    assert _same_bits((x, fx), _scipy_bounded(func, lo, hi))


def _reference_minimize_bounded(func, lo, hi):
    # the loop as first ported from scipy, with sign(rat) * max(|rat|, tol1)
    # written out, kept here to pin that every rewrite takes the same steps
    sqrt_eps, golden_ratio = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))

    def sign(x):
        return -1.0 if x < 0.0 else 1.0

    a, b = lo, hi
    fulc = a + golden_ratio * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + 1e-12 / 3.0
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
                    rat = tol1 * sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_ratio * e
        x = xf + sign(rat) * max(abs(rat), tol1)
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
        tol1 = sqrt_eps * abs(xf) + 1e-12 / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def _steps(minimize, func, lo, hi):
    # every point the search evaluates, and its result, as bits
    seen = []

    def logged(x):
        seen.append(x.hex())
        return func(x)

    return seen, [v.hex() for v in minimize(logged, lo, hi)]


def _objectives(rng):
    c, k, w = rng.uniform(-2.0, 2.0), rng.uniform(0.1, 10.0), rng.uniform(0.5, 20.0)
    yield lambda x: k * (x - c) ** 2
    yield lambda x: abs(x - c)
    yield lambda x: math.sin(w * x + c)
    yield lambda x: (x - c) ** 4 - k * x
    yield lambda x: math.floor(w * x) * c  # piecewise flat
    yield lambda x: 0.0  # flat
    yield lambda x: 0.0 * (x - c)  # flat, signed zeros
    yield lambda x: math.nan  # NaN everywhere
    yield lambda x: math.nan if x > c else (x - c) ** 2  # NaN on one side
    yield lambda x: math.nan if int(x * 1e6) % 3 == 0 else math.cos(w * x)  # NaN here and there


def test_minimize_bounded_takes_the_reference_steps():
    rng = random.Random(29)
    for _ in range(60):
        lo = rng.uniform(-3.0, 1.0)
        hi = lo + rng.choice([1e-9, 1e-3, 0.5, 4.0])
        for func in _objectives(rng):
            assert _steps(_minimize_bounded, func, lo, hi) == _steps(
                _reference_minimize_bounded, func, lo, hi
            )


def test_minimize_bounded_stops_at_500_evaluations():
    # the V of |x| over +-1e300 would need about 1500 golden steps to close
    calls = []
    x, fx = _minimize_bounded(lambda x: calls.append(x) or abs(x), -1e300, 1e300)
    assert len(calls) == 500
    assert x in calls and fx == abs(x) == min(map(abs, calls))


unit = st.floats(0.0, 1.0)
PROPERTY = settings(derandomize=True, max_examples=400, deadline=None, database=None)


def _bits(v):
    return (v.is_quantum_domain, v.lhs.hex(), float(v.rhs).hex(), v.marginal, v.degenerate)


@PROPERTY
@given(a=unit, b=unit, B=unit)
def test_closed_form_and_numeric_sup_name_the_same_degeneracy(a, b, B):
    f = FidelityPair(a, b)
    assert qd_criterion(f, B).degenerate == qd_criterion_numeric(f, B).degenerate


@PROPERTY
@given(a=unit, b=unit, B=unit)
def test_swapping_a_and_b_changes_only_the_swapped_flag(a, b, B):
    for check in (qd_criterion, qd_criterion_numeric):
        v, w = check(FidelityPair(a, b), B), check(FidelityPair(b, a), B)
        assert _bits(v) == _bits(w)
        assert (v.swapped != w.swapped) == (a != b)
        assert not (v.swapped and w.swapped)


@PROPERTY
@given(a=st.floats(0.5, 1.0), b=st.floats(0.5, 1.0), B=unit, da=unit, db=unit)
def test_pass_region_is_an_upper_set(a, b, B, da, db):
    # the chord, and with it the sup of the gap, rises with either fidelity
    v = qd_criterion(FidelityPair(a, b), B)
    higher = FidelityPair(a + (1.0 - a) * da, b + (1.0 - b) * db)
    if v.is_quantum_domain and not v.marginal:
        assert qd_criterion(higher, B).is_quantum_domain


@PROPERTY
@given(a=unit, b=unit, B=unit)
def test_closed_form_and_numeric_sup_agree_away_from_the_boundary(a, b, B):
    f = FidelityPair(a, b)
    v, w = qd_criterion(f, B), qd_criterion_numeric(f, B)
    if v.degenerate is None:
        assert abs(v.rhs - w.rhs) <= AGREEMENT_TOL
    margin = w.lhs - w.rhs if v.degenerate else v.lhs - v.rhs
    if abs(margin) > AGREEMENT_TOL:
        assert v.is_quantum_domain == w.is_quantum_domain


_FINE_PRIORS = np.linspace(0.0, 1.0, 1025)


@PROPERTY
@given(a=unit, b=unit, B=unit)
def test_numeric_sup_reaches_a_fine_grid(a, b, B):
    # the concave gap's sup from one Brent search plus p_plus = 1 is never
    # below its best value on a 1025-point grid; at B = 1 the bound has a
    # kink at p_plus = 1/2 that Brent approaches only to ~1e-8
    lo, hi = min(a, b), max(a, b)
    v = qd_criterion_numeric(FidelityPair(a, b), B)
    gaps = lo + (hi - lo) * _FINE_PRIORS - _bound(B, _FINE_PRIORS, np.sqrt)
    assert v.lhs - v.rhs >= float(gaps.max()) - (1e-15 if B <= 1.0 - 1e-6 else 1e-8)


@PROPERTY
@given(B=st.floats(1e-3, 1.0, exclude_max=True), n_points=st.integers(2, 400))
def test_boundary_curve_rows_sit_on_the_benchmark(B, n_points):
    for a, b in boundary_curve(B, n_points):
        if (b - a) ** 2 > 0.99 * B:  # the benchmark's slope diverges at the ends
            continue
        v = qd_criterion(FidelityPair(float(a), float(b)), B)
        assert abs(0.5 * (a + b) - v.rhs) <= 1e-12
