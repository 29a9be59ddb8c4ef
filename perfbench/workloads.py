"""The three workloads.

Each workload is a fixed deck of operation kinds, dealt again on every
pass with fresh seeded parameters: ``pass_ops(i)`` depends only on the
seed and ``i``, so a run's mix is the same whatever the seed, and a
traced rerun replays exactly the operations of an untraced one.  Why each
workload exists, and which layers it loads or bypasses, is in README.md.
"""

from __future__ import annotations

import math
import os
import random

import numpy as np

from cases import (
    MODES,
    agreement,
    bad_empty_oracle,
    bad_flag_conflict,
    bad_nan_db,
    bad_record_list,
    bad_record_null,
    check_closed_form,
    check_storage,
    check_table,
    cli_boundary,
    cli_coherent,
    cli_criterion,
    cli_oracle_check,
    cli_squeezed,
    cli_table1,
    coherent_case,
    criterion_case,
    criterion_case_at,
    run_inprocess,
    run_subprocess,
    squeezing_record,
    verdict_pairs,
)
from common import FAILED, OK, Op, paper_B, paper_bound

from qdverify.applications import (
    CoherentTask,
    benchmark_table,
    coherent_verify,
    estimate_fidelity_from_clicks,
    squeezed_storage_analysis,
    teleport_two_state_check,
)
from qdverify.criterion import (
    FidelityPair,
    OverlapPair,
    boundary_curve,
    classical_fidelity_bound,
    qd_criterion,
    qd_criterion_numeric,
    total_nonorthogonality,
)


def _rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def _checked(err: str | None) -> tuple[str, str]:
    return (FAILED, err) if err else (OK, "")


def _cli_op(case, runner, span: str) -> Op:
    case.write_files()
    return Op(span, lambda call: call(span, runner, case.argv), case.judge, case.verdicts)


class CliCold:
    """Fresh ``python -m qdverify.cli`` processes, one at a time.

    Of the 14 slots, 3 hit a documented defect (list record, null field,
    empty oracle-check) and 2 more are malformed inputs the CLI rejects.
    """

    name = "cli_cold"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def _path(self, i: int, slot: int, ext: str) -> str:
        return os.path.join(self.workdir, f"p{i}-s{slot}.{ext}")

    def cases(self, i: int) -> list:
        rng = _rng(self.seed, i)
        mode, other = MODES[i % 2], MODES[(i + 1) % 2]
        return [
            cli_criterion(rng, False),
            cli_squeezed(rng, mode, None),
            bad_record_list(self._path(i, 2, "json")),
            cli_coherent(rng),
            cli_boundary(rng, self._path(i, 4, "csv")),
            cli_criterion(rng, True),
            bad_record_null(rng, self._path(i, 6, "json")),
            cli_squeezed(rng, other, self._path(i, 7, "json")),
            cli_table1(rng.choice(MODES)),
            bad_nan_db(rng),
            cli_oracle_check(rng.randrange(1 << 16)),
            bad_empty_oracle(),
            cli_criterion(rng, False),
            bad_flag_conflict(rng),
        ]

    def pass_ops(self, i: int, runner=run_subprocess) -> list[Op]:
        # Spanned per subcommand, with malformed inputs apart.
        return [
            _cli_op(case, runner, f"cli.{case.sub}" if case.expect == 0 else f"cli.malformed.{case.sub}")
            for case in self.cases(i)
        ]

    def warm(self) -> None:
        """Nothing to warm: every operation starts a fresh interpreter."""


# Per-pass deck of decision_stream: kind -> count.
CRITERION_CLASSES = (
    ("pass", 7), ("fail", 7), ("near", 4), ("marginal", 1),
    ("zero_B", 1), ("slope", 2), ("tangent", 2),
)


class DecisionStream:
    """Lab-style decisions through the public API in one warm process."""

    name = "decision_stream"

    def __init__(self, seed: int, workdir: str) -> None:
        from scipy.special import betainc

        from qdverify import cli

        self.seed = seed
        self.main = cli.main
        self.tol = cli.AGREEMENT_TOL
        self.betainc = betainc

    def pass_ops(self, i: int) -> list[Op]:
        rng = _rng(self.seed, i)
        ops = [self._criterion(rng, cls) for cls, n in CRITERION_CLASSES for _ in range(n)]
        ops += [self._coherent(rng) for _ in range(6)]
        ops += [self._teleport(rng) for _ in range(4)]
        ops += [self._boundary(rng, n) for n in (200, 200, 10_000)]
        ops += [self._squeezed(rng, n) for n in (256, 256, 256, 4096)]
        ops.append(self._table(MODES[i % 2]))
        ops += [self._clicks(rng, edge=(j == 0)) for j in range(4)]
        ops += [
            _cli_op(case, self._main, "cli.main")
            for case in (cli_criterion(rng, False), cli_coherent(rng),
                         cli_table1(MODES[i % 2]), cli_boundary(rng, None))
        ]
        rng.shuffle(ops)
        return ops

    def warm(self) -> None:
        for op in self.pass_ops(-1):
            op.check(op.run(lambda name, fn, *a, **k: fn(*a, **k)))

    def _main(self, argv):
        return run_inprocess(self.main, argv)

    def _criterion(self, rng, cls: str) -> Op:
        case = criterion_case(rng, cls)

        def run(call):
            f = FidelityPair(case.a, case.b)
            return (call("criterion.qd_criterion", qd_criterion, f, case.B),
                    call("criterion.qd_criterion_numeric", qd_criterion_numeric, f, case.B))

        def check(out):
            closed, numeric = out
            err = check_closed_form(case, closed)
            if err is None and not agreement(closed, numeric, self.tol):
                err = f"closed form {closed} and numeric sup {numeric} disagree"
            return _checked(err)
        return Op("criterion", run, check, lambda out: verdict_pairs(out[0]))

    def _coherent(self, rng) -> Op:
        alpha, eta, case = coherent_case(rng)

        def run(call):
            return call("applications.coherent_verify", coherent_verify,
                        CoherentTask(alpha, eta), FidelityPair(case.a, case.b))
        return Op("coherent", run, lambda v: _checked(check_closed_form(case, v)), verdict_pairs)

    def _teleport(self, rng) -> Op:
        case = None
        while case is None:
            case = criterion_case_at(rng, 0.25)

        def run(call):
            return call("applications.teleport_two_state_check", teleport_two_state_check,
                        FidelityPair(case.a, case.b))
        return Op("teleport", run, lambda v: _checked(check_closed_form(case, v)), verdict_pairs)

    def _boundary(self, rng, n: int) -> Op:
        B = rng.uniform(0.05, 0.95)

        def check(curve):
            if curve.shape != (n, 2):
                return FAILED, f"curve shape {curve.shape}"
            a, b = curve[:, 0], curve[:, 1]
            s = b - a
            room = B - s * s
            # Away from the slope ends, where sqrt(B - s^2) amplifies roundoff.
            away = room > 1e-6
            want = 0.5 * (1.0 + np.sqrt((1.0 - B) * room[away] / B))
            if np.max(np.abs(0.5 * (a + b)[away] - want), initial=0.0) > 1e-12:
                return FAILED, "boundary point off the closed-form threshold"
            sym = 0.5 * (1.0 + math.sqrt(1.0 - B))
            if not np.any((np.abs(a - sym) <= 1e-12) & (np.abs(b - sym) <= 1e-12)):
                return FAILED, "symmetric boundary point missing"
            return OK, ""
        return Op(f"boundary_{n}", lambda call: call("criterion.boundary_curve", boundary_curve, B, n), check)

    def _squeezed(self, rng, points: int) -> Op:
        rec, mode = squeezing_record(rng, "lab"), rng.choice(MODES)

        def run(call):
            return call("applications.squeezed_storage_analysis", squeezed_storage_analysis,
                        rec, points, mode)
        return Op(f"squeezed_{points}", run,
                  lambda rep: _checked(check_storage(rec, mode, points, rep)),
                  lambda rep: verdict_pairs(rep.verdict))

    def _table(self, mode: str) -> Op:
        def run(call):
            return call("applications.benchmark_table", benchmark_table, 256, mode)
        return Op("table", run, lambda reps: _checked(check_table(reps, 256, mode)),
                  lambda reps: verdict_pairs(*(r.verdict for r in reps)))

    def _clicks(self, rng, edge: bool) -> Op:
        n = rng.randrange(20, 20_001)
        k = rng.choice((0, n)) if edge else round(n * rng.uniform(0.3, 0.99))
        conf = rng.choice((0.9, 0.95, 0.99))

        def check(out):
            p, (low, high) = out
            tail = 0.5 * (1.0 - conf)
            if p != k / n or not (0.0 <= low <= p <= high <= 1.0):
                return FAILED, f"estimate {out} for {k}/{n}"
            # Clopper-Pearson ends solve P(X >= k | low) = P(X <= k | high) = tail.
            if k > 0 and abs(self.betainc(k, n - k + 1, low) - tail) > 1e-8:
                return FAILED, f"lower end {low!r} misses the binomial tail"
            if k < n and abs(self.betainc(k + 1, n - k, high) - (1.0 - tail)) > 1e-8:
                return FAILED, f"upper end {high!r} misses the binomial tail"
            return OK, ""
        return Op("clicks", lambda call: call("applications.estimate_fidelity_from_clicks",
                                              estimate_fidelity_from_clicks, n, k, conf), check)


class OracleCrosscheck:
    """The three oracle cross-check families at the acceptance-test sizes."""

    name = "oracle_crosscheck"
    DIM = 120
    #: Pure squeezed-vacuum targets shared by every bank operation.
    BANK_R = tuple(float(r) for r in np.linspace(-0.7, 0.7, 20))
    TARGETS_PER_STATE = 2

    def __init__(self, seed: int, workdir: str) -> None:
        from qdverify import cli, fock_oracle, gaussian, mp_oracle, quadrature_bounds

        self.seed = seed
        self.scheme_tol = cli.SCHEME_SUITE_TOL
        self.fock_tol = cli.FOCK_SUITE_TOL
        self.fo, self.g, self.mp, self.qb = fock_oracle, gaussian, mp_oracle, quadrature_bounds
        self.bank = [fock_oracle.squeezed_thermal(r, 0.0, 0.0, self.DIM) for r in self.BANK_R]

    def pass_ops(self, i: int) -> list[Op]:
        rng = _rng(self.seed, i)
        ops = [self._scheme(rng) for _ in range(12)]
        ops += [self._fresh_pair(rng) for _ in range(2)]
        ops += [self._bank_state(rng) for _ in range(3)]
        rng.shuffle(ops)
        return ops

    def warm(self) -> None:
        for op in self.pass_ops(-1)[:6]:
            op.check(op.run(lambda name, fn, *a, **k: fn(*a, **k)))

    def _scheme(self, rng) -> Op:
        g, gp, p = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        seed = rng.randrange(1 << 16)

        def run(call):
            B = total_nonorthogonality(OverlapPair(g, gp))
            closed = call("criterion.classical_fidelity_bound", classical_fidelity_bound, B, p)
            _, found = call("mp_oracle.optimize_scheme", self.mp.optimize_scheme, g, gp, p,
                            resolution=2048, n_random=16, seed=seed)
            return closed, found

        def check(out):
            closed, found = out
            if abs(closed - paper_bound(paper_B(g, gp), p)) > 1e-12:
                return FAILED, f"bound {closed!r} differs from the closed form"
            if abs(closed - found) > self.scheme_tol or found > closed + 1e-9:
                return FAILED, f"scheme search {found!r} vs bound {closed!r}"
            return OK, ""
        return Op("scheme", run, check)

    def _draw_state(self, rng, r_max: float) -> tuple[float, float, float]:
        return rng.uniform(-r_max, r_max), rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi)

    def _fresh_pair(self, rng) -> Op:
        r_max = 6.0 * math.log(10.0) / 20.0
        params = [self._draw_state(rng, r_max) for _ in range(2)]
        g = self.g

        def run(call):
            states, gaussians = [], []
            for r, nbar, theta in params:
                states.append(call("fock_oracle.squeezed_thermal", self.fo.squeezed_thermal,
                                   r, nbar, theta, self.DIM))
                base = g.CovMat2.diagonal((2.0 * nbar + 1.0) * math.exp(2.0 * r),
                                          (2.0 * nbar + 1.0) * math.exp(-2.0 * r))
                gaussians.append(g.GaussianState(g.rotate_cov(base, theta)))
            closed = call("gaussian.uhlmann_fidelity_gaussian", g.uhlmann_fidelity_gaussian,
                          *gaussians)
            direct = call("fock_oracle.uhlmann_fock_mixed", self.fo.uhlmann_fock, *states)
            return closed, direct

        def check(out):
            closed, direct = out
            if abs(closed - direct) > self.fock_tol:
                return FAILED, f"Gaussian {closed!r} vs Fock {direct!r}"
            return OK, ""
        return Op("fresh_pair", run, check)

    def _bank_state(self, rng) -> Op:
        r, nbar, theta = self._draw_state(rng, 0.69)
        picks = rng.sample(range(len(self.bank)), self.TARGETS_PER_STATE)

        def run(call):
            state = call("fock_oracle.squeezed_thermal", self.fo.squeezed_thermal,
                         r, nbar, theta, self.DIM)
            m = call("fock_oracle.quadrature_moments_fock", self.fo.quadrature_moments_fock, state)
            q = self.qb.QuadratureMoments(*m).centered()
            pairs = []
            for t in picks:
                bound = call("quadrature_bounds.squeezed_vacuum_bound",
                             self.qb.squeezed_vacuum_bound, q, self.BANK_R[t])
                truth = call("fock_oracle.uhlmann_fock_pure", self.fo.uhlmann_fock,
                             state, self.bank[t]) ** 2
                pairs.append((bound, truth))
            return pairs

        def check(pairs):
            worst = max(bound - truth for bound, truth in pairs)
            if worst > 1e-9:
                return FAILED, f"quadrature bound exceeds the Fock truth by {worst!r}"
            return OK, ""
        return Op("bank_state", run, check)


WORKLOADS = {w.name: w for w in (CliCold, DecisionStream, OracleCrosscheck)}
