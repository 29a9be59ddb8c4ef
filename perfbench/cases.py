"""Seeded inputs and their checks, shared by the workloads.

``criterion_case`` draws a fidelity pair of a chosen class (clear pass,
clear fail, near the boundary, or one of the three degenerate classes),
placed by the paper's closed form in :mod:`common`, not by the package.
Each ``cli_*`` / ``bad_*`` function builds one ``qdverify`` command line
with the exit code the CLI contract promises and a check that compares
the report with the library called in-process.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from common import DEFECT, FAILED, OK, paper_B, paper_bound, paper_rhs

from qdverify.applications import (
    AS_PUBLISHED,
    PURE_TARGET,
    CoherentTask,
    StorageRecord,
    benchmark_table,
    coherent_verify,
    squeezed_storage_analysis,
)
from qdverify.criterion import FidelityPair, boundary_curve, qd_criterion
from qdverify.gaussian import SqueezingRecord

DEGENERATE_CLASSES = ("zero_B", "slope", "tangent")
MODES = (AS_PUBLISHED, PURE_TARGET)


# --- criterion inputs ------------------------------------------------------------


@dataclass(frozen=True)
class CriterionCase:
    a: float
    b: float
    B: float
    cls: str
    #: Verdict the closed form must give, None when within the marginal band.
    expect: bool | None


def criterion_case(rng, cls: str) -> CriterionCase:
    """Draw a fidelity pair of class ``cls`` for a random B."""
    for _ in range(1000):
        if cls == "zero_B":
            B, s = 0.0, rng.uniform(-0.4, 0.4)
            lhs = rng.uniform(0.5 + abs(s) / 2, 1.0 - abs(s) / 2)
        elif cls == "slope":
            B = rng.uniform(0.05, 0.8)
            s = math.sqrt(B) + rng.uniform(0.0, 0.3)
            lhs = rng.uniform(s / 2, 1.0 - s / 2)
        elif cls == "tangent":
            B = rng.uniform(0.05, 0.6)
            s = B + rng.uniform(0.05, 0.95) * (math.sqrt(B) - B)
            lhs = rng.uniform(s / 2, 1.0 - s / 2)
        else:
            B = rng.uniform(0.05, 0.95)
            s = rng.uniform(0.0, 0.9) * B
            rhs = paper_rhs(B, s)
            if cls == "pass":
                lhs = rhs + rng.uniform(1e-3, 0.05)
            elif cls == "fail":
                lhs = rhs - rng.uniform(1e-3, 0.2)
            elif cls == "near":
                lhs = rhs + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -6.0)
            elif cls == "marginal":
                lhs = rhs + rng.uniform(-1e-10, 1e-10)
            else:
                raise ValueError(f"unknown criterion class {cls!r}")
        if rng.random() < 0.5:
            s = -s
        a, b = lhs - s / 2, lhs + s / 2
        if 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0:
            break
    else:
        raise RuntimeError(f"could not draw a {cls} case")
    if cls in DEGENERATE_CLASSES:
        expect = False
    elif cls == "marginal":
        expect = None
    else:
        expect = 0.5 * (a + b) > paper_rhs(B, b - a)
    return CriterionCase(a, b, B, cls, expect)


def check_closed_form(case: CriterionCase, v) -> str | None:
    """Closed-form verdict against the class it was drawn from."""
    if (v.degenerate is not None) != (case.cls in DEGENERATE_CLASSES):
        return f"degenerate={v.degenerate!r} for class {case.cls}"
    if case.expect is not None and not v.marginal and v.is_quantum_domain != case.expect:
        return f"verdict {v.is_quantum_domain} for class {case.cls}, expected {case.expect}"
    if case.cls not in ("zero_B", "slope"):
        want = paper_rhs(case.B, case.b - case.a)
        if abs(v.rhs - want) > 1e-12:
            return f"rhs {v.rhs!r} vs closed form {want!r}"
    return None


def agreement(closed, numeric, tol: float) -> bool:
    """The agreement rule the ``criterion`` subcommand applies."""
    if closed.degenerate is not None:
        return not numeric.is_quantum_domain
    return abs(closed.rhs - numeric.rhs) <= tol and (
        closed.is_quantum_domain == numeric.is_quantum_domain
        or closed.marginal
        or numeric.marginal
    )


def verdict_pairs(*verdicts) -> list:
    return [(v.is_quantum_domain, v.degenerate) for v in verdicts if not v.marginal]


def coherent_case(rng):
    """Binary coherent probe and a fidelity pair clearly on one side."""
    while True:
        alpha, eta = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
        B = paper_B(math.exp(-2.0 * alpha**2), math.exp(-2.0 * eta * alpha**2))
        case = criterion_case_at(rng, B)
        if case is not None:
            return alpha, eta, case


def criterion_case_at(rng, B: float) -> CriterionCase | None:
    """Clear pass or fail at a given B, or None if none fits the unit square."""
    if B <= 0.0:
        return None
    s = rng.uniform(-0.9, 0.9) * B
    rhs = paper_rhs(B, s)
    passes = rng.random() < 0.5
    lhs = rhs + (1.0 if passes else -1.0) * rng.uniform(1e-3, 0.05)
    a, b = lhs - s / 2, lhs + s / 2
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        return None
    return CriterionCase(a, b, B, "pass" if passes else "fail", passes)


def squeezing_record(rng, label: str) -> StorageRecord:
    """A physical storage record: squeezed input, degraded output, in dB."""
    x_in = rng.uniform(-6.5, -1.0)
    x_out = rng.uniform(x_in, 0.0)
    return StorageRecord(
        label,
        SqueezingRecord(x_in, -x_in + rng.uniform(0.5, 6.0)),
        SqueezingRecord(x_out, -x_out + rng.uniform(0.1, 12.0)),
    )


def check_storage(rec: StorageRecord, mode: str, theta_points: int, rep) -> str | None:
    """Internal consistency of one storage scan."""
    if rep.thetas.shape != (theta_points,) or rep.rhs.shape != (theta_points,):
        return "curve shapes do not match theta_points"
    if not (0.5 <= rep.rhs_min <= float(rep.rhs.min()) + 1e-15):
        return f"rhs_min {rep.rhs_min!r} above the grid minimum"
    src = rec.input_state if mode == AS_PUBLISHED else rec.output_state
    x, y = src.linear_pair
    fid = 2.0 / (1.0 + math.sqrt(x * y))
    if abs(rep.lhs - fid) > 1e-12:
        return f"lhs {rep.lhs!r} vs {fid!r}"
    v = rep.verdict
    if abs(v.rhs - rep.rhs_min) > 1e-9:
        return f"verdict rhs {v.rhs!r} vs rhs_min {rep.rhs_min!r}"
    if not v.marginal and v.is_quantum_domain != (rep.lhs > rep.rhs_min):
        return "verdict disagrees with lhs > rhs_min"
    return None


#: ``benchmark_table`` rows in ``as_published`` mode at 256 points, as the
#: acceptance tests freeze them: lhs to two places, rhs_min to 1e-3.
TABLE_LHS = (0.77, 0.84, 0.80, 0.68)
TABLE_RHS = (0.994, 0.989, 0.983, 0.800)


def check_table(reports, theta_points: int, mode: str) -> str | None:
    if len(reports) != 4:
        return f"{len(reports)} table rows"
    if mode == AS_PUBLISHED and theta_points == 256:
        for rep, lhs, rhs in zip(reports, TABLE_LHS, TABLE_RHS):
            if abs(rep.lhs - lhs) > 0.005 or abs(rep.rhs_min - rhs) > 1e-3:
                return f"row {rep.label}: lhs {rep.lhs!r} rhs_min {rep.rhs_min!r}"
            if rep.verdict.is_quantum_domain:
                return f"row {rep.label} passes; the frozen table fails all rows"
    return None


# --- CLI cases ---------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_subprocess(argv: list[str]) -> CliResult:
    """One fresh ``python -m qdverify.cli`` process."""
    p = subprocess.run(
        [sys.executable, "-m", "qdverify.cli", *argv],
        capture_output=True, text=True, timeout=60, check=False,
    )
    return CliResult(p.returncode, p.stdout, p.stderr)


def run_inprocess(main: Callable, argv: list[str]) -> CliResult:
    """``cli.main(argv)`` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass
class CliCase:
    sub: str
    argv: list[str]
    #: Exit code the CLI contract promises: 0 for an analysis, 2 for bad input.
    expect: int
    #: For exit 0: compares the parsed report with the library; returns
    #: ``(error or None, non-marginal verdict pairs)``.
    reference: Callable[[dict], tuple[str | None, list]] | None = None
    #: For a known defect: recognises the documented wrong outcome.
    defect: Callable[[CliResult], bool] | None = None
    files: dict[str, str] | None = None

    def write_files(self) -> None:
        for path, text in (self.files or {}).items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

    def judge(self, res: CliResult) -> tuple[str, str]:
        if res.code == self.expect:
            if self.expect == 2:
                if res.err.startswith("error:") and "Traceback" not in res.err:
                    return OK, ""
                return FAILED, f"exit 2 without a clean error line: {res.err[-200:]!r}"
            try:
                report = json.loads(res.out)
            except json.JSONDecodeError as exc:
                return FAILED, f"report is not JSON: {exc}"
            err, _ = self.reference(report)
            return (FAILED, err) if err else (OK, "")
        if self.defect is not None and self.defect(res):
            return DEFECT, f"exit {res.code}, contract says {self.expect}"
        return FAILED, f"exit {res.code}, expected {self.expect}: {res.err[-300:]!r}"

    def verdicts(self, res: CliResult) -> list:
        if res.code != 0 or self.expect != 0:
            return []
        return self.reference(json.loads(res.out))[1]


def _f(x: float) -> str:
    return repr(float(x))


def _same_verdict(d: dict, v) -> bool:
    rhs = None if math.isnan(v.rhs) else v.rhs
    return (
        d["is_quantum_domain"] == v.is_quantum_domain
        and d["degenerate"] == v.degenerate
        and d["marginal"] == v.marginal
        and d["swapped"] == v.swapped
        and d["rhs"] == rhs
    )


def _verdict_ref(v, case: CriterionCase):
    def ref(report: dict):
        d = report["verdict"]
        if not _same_verdict(d, v):
            return f"report verdict {d} differs from library {v}", []
        err = check_closed_form(case, v)
        if err:
            return err, []
        check = report.get("numeric_check")
        if check is not None and not check["agrees"]:
            return "numeric check disagrees", []
        return None, verdict_pairs(v)
    return ref


def cli_criterion(rng, with_overlaps: bool) -> CliCase:
    """``--B`` with a case of any class, or the overlap pair with ``--p-plus``."""
    if not with_overlaps:
        case = criterion_case(rng, rng.choice(("pass", "fail", "pass", "fail", "slope", "tangent")))
        v = qd_criterion(FidelityPair(case.a, case.b), case.B)
        argv = ["criterion", "--a", _f(case.a), "--b", _f(case.b), "--B", _f(case.B)]
        return CliCase("criterion", argv, 0, _verdict_ref(v, case))
    while True:
        gamma, gamma_p = rng.uniform(0.3, 1.0), rng.uniform(0.0, 0.9)
        case = criterion_case_at(rng, paper_B(gamma, gamma_p))
        if case is not None:
            break
    p_plus = rng.uniform(0.0, 1.0)
    v = qd_criterion(FidelityPair(case.a, case.b), case.B)
    argv = ["criterion", "--a", _f(case.a), "--b", _f(case.b),
            "--gamma", _f(gamma), "--gamma-prime", _f(gamma_p), "--p-plus", _f(p_plus)]
    verdict_ref = _verdict_ref(v, case)

    def ref(report: dict):
        value = report["fixed_prior_bound"]["value"]
        if abs(value - paper_bound(case.B, p_plus)) > 1e-12:
            return f"fixed-prior bound {value!r} vs closed form", []
        return verdict_ref(report)
    return CliCase("criterion", argv, 0, ref)


def cli_coherent(rng) -> CliCase:
    alpha, eta, case = coherent_case(rng)
    v = coherent_verify(CoherentTask(alpha, eta), FidelityPair(case.a, case.b))
    argv = ["coherent", "--alpha", _f(alpha), "--eta", _f(eta),
            "--a", _f(case.a), "--b", _f(case.b)]
    return CliCase("coherent", argv, 0, _verdict_ref(v, case))


def cli_boundary(rng, curve_path: str | None) -> CliCase:
    B = rng.uniform(0.05, 0.95)
    points = 200
    argv = ["boundary", "--B", _f(B), "--points", str(points)]
    if curve_path:
        argv += ["--curve-out", curve_path]

    def ref(report: dict):
        curve = boundary_curve(B, points)
        if report["curve"]["a"] != curve[:, 0].tolist() or report["curve"]["b"] != curve[:, 1].tolist():
            return "boundary curve differs from the library", []
        if curve_path:
            with open(curve_path, encoding="utf-8") as fh:
                rows = fh.read().splitlines()
            if rows[0] != "a,b" or len(rows) != points + 1:
                return f"curve CSV has {len(rows)} lines", []
        return None, []
    return CliCase("boundary", argv, 0, ref)


def cli_squeezed(rng, mode: str, record_path: str | None) -> CliCase:
    rec = squeezing_record(rng, "lab")
    points = 256
    files = None
    if record_path:
        data = {"label": rec.label,
                "X_db": rec.input_state.squeezing_db, "Y_db": rec.input_state.antisqueezing_db,
                "Xp_db": rec.output_state.squeezing_db, "Yp_db": rec.output_state.antisqueezing_db,
                "mode": mode}
        files = {record_path: json.dumps(data)}
        argv = ["squeezed", "--record", record_path]
    else:
        argv = ["squeezed", "--label", rec.label,
                "--squeezing-in-db", _f(rec.input_state.squeezing_db),
                "--antisqueezing-in-db", _f(rec.input_state.antisqueezing_db),
                "--squeezing-out-db", _f(rec.output_state.squeezing_db),
                "--antisqueezing-out-db", _f(rec.output_state.antisqueezing_db),
                "--mode", mode]
    argv += ["--theta-points", str(points)]

    def ref(report: dict):
        rep = squeezed_storage_analysis(rec, points, mode)
        err = check_storage(rec, mode, points, rep)
        if err:
            return err, []
        if report["inputs"]["mode"] != mode or report["rhs_min"] != rep.rhs_min:
            return "squeezed report differs from the library", []
        if not _same_verdict(report["verdict"], rep.verdict):
            return "squeezed verdict differs from the library", []
        return None, verdict_pairs(rep.verdict)
    return CliCase("squeezed", argv, 0, ref, files=files)


def cli_table1(mode: str) -> CliCase:
    points = 256

    def ref(report: dict):
        reps = benchmark_table(points, mode)
        err = check_table(reps, points, mode)
        if err:
            return err, []
        rows = report["rows"]
        if [r["is_quantum_domain"] for r in rows] != [r.verdict.is_quantum_domain for r in reps]:
            return "table1 verdicts differ from the library", []
        if [r["rhs_min"] for r in rows] != [r.rhs_min for r in reps]:
            return "table1 rhs_min differs from the library", []
        return None, verdict_pairs(*(r.verdict for r in reps))
    return CliCase("table1", ["table1", "--theta-points", str(points), "--mode", mode], 0, ref)


def cli_oracle_check(seed: int) -> CliCase:
    argv = ["oracle-check", "--grid-size", "2", "--resolution", "512",
            "--random-schemes", "8", "--pairs", "2", "--dim", "80", "--seed", str(seed)]

    def ref(report: dict):
        if report["passed"] is not True:
            return "oracle-check did not pass", []
        if any(s["cases"] < 1 for s in report["suites"]):
            return "an oracle suite checked nothing", []
        return None, []
    return CliCase("oracle-check", argv, 0, ref)


# Malformed inputs.  The contract says each exits 2 with an "error:" line.
# The first, second and fourth break it at the commit that defined this
# benchmark; ``defect`` recognises exactly that documented outcome.


def _type_error_exit(res: CliResult) -> bool:
    return res.code == 1 and "TypeError" in res.err


def _passes_empty(res: CliResult) -> bool:
    try:
        return res.code == 0 and json.loads(res.out)["passed"] is True
    except (json.JSONDecodeError, KeyError, TypeError):
        return False


def bad_record_list(record_path: str) -> CliCase:
    return CliCase("squeezed", ["squeezed", "--record", record_path], 2,
                   defect=_type_error_exit, files={record_path: "[-2.0, 6.0, -0.07, 0.49]"})


def bad_record_null(rng, record_path: str) -> CliCase:
    data = {"label": "lab", "X_db": -2.0, "Y_db": 6.0, "Xp_db": -0.07, "Yp_db": 0.49}
    data[rng.choice(("X_db", "Y_db", "Xp_db", "Yp_db"))] = None
    return CliCase("squeezed", ["squeezed", "--record", record_path], 2,
                   defect=_type_error_exit, files={record_path: json.dumps(data)})


def bad_nan_db(rng) -> CliCase:
    flags = ["--squeezing-in-db", "-2.0", "--antisqueezing-in-db", "6.0",
             "--squeezing-out-db", "-0.07", "--antisqueezing-out-db", "0.49"]
    flags[2 * rng.randrange(4) + 1] = "nan"
    return CliCase("squeezed", ["squeezed", *flags], 2)


def bad_empty_oracle() -> CliCase:
    return CliCase("oracle-check", ["oracle-check", "--grid-size", "0", "--pairs", "0"], 2,
                   defect=_passes_empty)


def bad_flag_conflict(rng) -> CliCase:
    return CliCase("criterion", ["criterion", "--a", "0.9", "--b", "0.9",
                                 "--B", _f(rng.uniform(0.1, 0.9)),
                                 "--gamma", _f(rng.uniform(0.1, 0.9))], 2)
