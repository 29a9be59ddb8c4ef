"""Command-line front end.

Every command emits one structured JSON report on stdout (or to the file
named by ``--out``): keys in fixed order, UTF-8, no timestamps, tool
version included, so identical inputs give byte-identical reports.
Curve-producing commands also accept ``--curve-out`` for a plot-ready
CSV (header row, ``.`` decimal, LF endings).

Exit codes: 0 for a completed analysis whatever the verdict, 2 for
invalid input, 3 when an internal cross-check disagrees beyond
tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import math
import os
import random
import stat
import sys
from pathlib import Path

from . import __version__

# criterion, applications, mp_oracle and fock_oracle stay imported here, at the
# top: perfbench's import table (`import_metrics` in perfbench/run.py) reads
# each of them from the modules that `import qdverify.cli` loads, and stops
# with a KeyError on one that is missing.  The two oracles import numpy only
# when they run.
from .applications import (
    AS_PUBLISHED,
    PURE_TARGET,
    CoherentTask,
    StorageRecord,
    StorageReport,
    benchmark_table,
    coherent_task_overlaps,
    coherent_verify,
    squeezed_storage_analysis,
)
from .criterion import (
    FidelityPair,
    OverlapPair,
    Verdict,
    boundary_curve,
    classical_fidelity_bound,
    qd_criterion,
    qd_criterion_numeric,
    total_nonorthogonality,
)
from .fock_oracle import DEFAULT_DIM, coherent_fock, squeezed_thermal, uhlmann_fock
from .gaussian import (
    CovMat2,
    GaussianState,
    SqueezingRecord,
    rotate_cov,
    uhlmann_fidelity_gaussian,
)
from .mp_oracle import optimize_scheme

__all__ = ["main", "build_parser"]

AGREEMENT_TOL = 1e-6
SCHEME_SUITE_TOL = 1e-6
FOCK_SUITE_TOL = 1e-4
COHERENT_SUITE_TOL = 1e-6
#: Largest sample or grid count a size flag accepts; larger counts would
#: only fail to allocate.
MAX_SAMPLES = 10**6
#: Fock truncations ``oracle-check --dim`` accepts.
DIM_RANGE = (2, 1000)


def _verdict_dict(v: Verdict) -> dict:
    return {
        "is_quantum_domain": bool(v.is_quantum_domain),
        "lhs": float(v.lhs),
        "rhs": None if math.isnan(v.rhs) else float(v.rhs),
        "method": v.method,
        "marginal": bool(v.marginal),
        "swapped": bool(v.swapped),
        "degenerate": v.degenerate,
    }


def _report_head(command: str) -> dict:
    return {"tool": "qdverify", "version": __version__, "command": command}


def _nonorth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--B", type=float, default=None,
        help="nonorthogonality parameter (1 - gamma_prime**2) * gamma**2",
    )
    p.add_argument("--gamma", type=float, default=None, help="input-pair overlap")
    p.add_argument(
        "--gamma-prime", type=float, default=None, help="target-pair overlap"
    )


def _resolve_nonorth(args: argparse.Namespace) -> tuple[float, float | None, float | None]:
    have_overlaps = args.gamma is not None or args.gamma_prime is not None
    if args.B is not None:
        if have_overlaps:
            raise ValueError("give --B or the overlap pair, not both")
        return float(args.B), None, None
    if args.gamma is None or args.gamma_prime is None:
        raise ValueError("need --B, or both --gamma and --gamma-prime")
    pair = OverlapPair(args.gamma, args.gamma_prime)
    return total_nonorthogonality(pair), args.gamma, args.gamma_prime


def _check_count(flag: str, value: int, lo: int | None = None, hi: int | None = None) -> None:
    if lo is not None and value < lo:
        raise ValueError(f"{flag} must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{flag} must be at most {hi}, got {value}")


def _tolerance(args: argparse.Namespace, default: float) -> float:
    tol = args.tolerance
    if tol is None:
        return default
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tolerance must be a finite number >= 0, got {tol!r}")
    return tol


def _cmd_criterion(args: argparse.Namespace) -> tuple[dict, None, int]:
    nonorth, gamma, gamma_prime = _resolve_nonorth(args)
    pair = FidelityPair(args.a, args.b)
    verdict = qd_criterion(pair, nonorth)
    numeric = qd_criterion_numeric(pair, nonorth)
    tol = _tolerance(args, AGREEMENT_TOL)

    if verdict.degenerate is not None:
        agrees = not numeric.is_quantum_domain
    else:
        agrees = abs(verdict.rhs - numeric.rhs) <= tol and (
            verdict.is_quantum_domain == numeric.is_quantum_domain
            or verdict.marginal
            or numeric.marginal
        )

    report = _report_head("criterion")
    report["inputs"] = {
        "a": float(args.a),
        "b": float(args.b),
        "B": None if args.B is None else float(args.B),
        "gamma": gamma,
        "gamma_prime": gamma_prime,
        "p_plus": args.p_plus,
        "tolerance": tol,
    }
    report["nonorthogonality"] = float(nonorth)
    report["verdict"] = _verdict_dict(verdict)
    report["numeric_check"] = {
        "rhs": None if math.isnan(numeric.rhs) else float(numeric.rhs),
        "is_quantum_domain": bool(numeric.is_quantum_domain),
        "tolerance": tol,
        "agrees": bool(agrees),
    }
    if args.p_plus is not None:
        report["fixed_prior_bound"] = {
            "p_plus": float(args.p_plus),
            "value": classical_fidelity_bound(nonorth, args.p_plus),
        }
    return report, None, 0 if agrees else 3


def _cmd_boundary(args: argparse.Namespace) -> tuple[dict, dict, int]:
    nonorth, gamma, gamma_prime = _resolve_nonorth(args)
    _check_count("--points", args.points, hi=MAX_SAMPLES)
    curve = boundary_curve(nonorth, args.points)
    report = _report_head("boundary")
    report["inputs"] = {
        "B": None if args.B is None else float(args.B),
        "gamma": gamma,
        "gamma_prime": gamma_prime,
        "points": int(args.points),
    }
    report["nonorthogonality"] = float(nonorth)
    report["symmetric_point"] = classical_fidelity_bound(nonorth, 0.5)
    report["curve"] = {"a": curve[:, 0].tolist(), "b": curve[:, 1].tolist()}
    return report, report["curve"], 0


def _cmd_coherent(args: argparse.Namespace) -> tuple[dict, None, int]:
    task = CoherentTask(args.alpha, args.eta)
    overlaps = coherent_task_overlaps(task)
    verdict = coherent_verify(task, FidelityPair(args.a, args.b))
    report = _report_head("coherent")
    report["inputs"] = {
        "alpha": float(args.alpha),
        "eta": float(args.eta),
        "a": float(args.a),
        "b": float(args.b),
    }
    report["gamma"] = overlaps.gamma
    report["gamma_prime"] = overlaps.gamma_prime
    report["nonorthogonality"] = float(total_nonorthogonality(overlaps))
    report["verdict"] = _verdict_dict(verdict)
    return report, None, 0


def _record_field(data: dict, key: str):
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"record file is missing key {key!r}") from None


def _record_db(data: dict, key: str) -> float:
    value = _record_field(data, key)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        if number and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer literal beyond the float range
        pass
    raise ValueError(f"record field {key!r} must be a finite number, got {value!r}")


_RECORD_KEYS = ("label", "X_db", "Y_db", "Xp_db", "Yp_db", "mode")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, raising KeyError on a repeated key.

    ``json.loads`` would otherwise keep the last value without a word.
    """
    data = {}
    for key, value in pairs:
        if key in data:
            raise KeyError(key)
        data[key] = value
    return data


def _read_record(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"record file {path!r} is not UTF-8 text: {exc}") from None
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except KeyError as exc:
        raise ValueError(f"record file {path!r} repeats key {exc.args[0]!r}") from None
    except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
        raise ValueError(f"record file {path!r} does not parse as JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"record file must hold a JSON object, got {type(data).__name__}")
    unknown = [key for key in data if key not in _RECORD_KEYS]
    if unknown:
        raise ValueError(
            f"unknown record file keys: {', '.join(map(repr, unknown))}; "
            f"accepted keys: {', '.join(map(repr, _RECORD_KEYS))}"
        )
    return data


def _load_record(args: argparse.Namespace) -> tuple[StorageRecord, str]:
    if args.record is not None:
        data = _read_record(args.record)
        label = _record_field(data, "label")
        if not isinstance(label, str):
            raise ValueError(f"record field 'label' must be a string, got {label!r}")
        rec = StorageRecord(
            label,
            SqueezingRecord(_record_db(data, "X_db"), _record_db(data, "Y_db")),
            SqueezingRecord(_record_db(data, "Xp_db"), _record_db(data, "Yp_db")),
        )
        mode = data.get("mode", AS_PUBLISHED)
        if mode not in (AS_PUBLISHED, PURE_TARGET):
            raise ValueError(f"unknown mode {mode!r} in record file")
        return rec, args.mode or mode
    direct = (args.sq_in, args.antisq_in, args.sq_out, args.antisq_out)
    if any(v is None for v in direct):
        raise ValueError(
            "need --record, or all four of --squeezing-in-db "
            "--antisqueezing-in-db --squeezing-out-db --antisqueezing-out-db"
        )
    rec = StorageRecord(
        args.label,
        SqueezingRecord(args.sq_in, args.antisq_in),
        SqueezingRecord(args.sq_out, args.antisq_out),
    )
    return rec, args.mode or AS_PUBLISHED


def _headline(rep: StorageReport) -> dict:
    return {
        "a": float(rep.a),
        "b": float(rep.b),
        "lhs": float(rep.lhs),
        "theta_min": float(rep.theta_min),
        "rhs_min": float(rep.rhs_min),
    }


def _cmd_squeezed(args: argparse.Namespace) -> tuple[dict, dict, int]:
    rec, mode = _load_record(args)
    _check_count("--theta-points", args.theta_points, hi=MAX_SAMPLES)
    rep = squeezed_storage_analysis(rec, args.theta_points, mode)
    report = _report_head("squeezed")
    report["inputs"] = {
        "label": rec.label,
        "X_db": rec.input_state.squeezing_db,
        "Y_db": rec.input_state.antisqueezing_db,
        "Xp_db": rec.output_state.squeezing_db,
        "Yp_db": rec.output_state.antisqueezing_db,
        "mode": mode,
        "theta_points": int(args.theta_points),
    }
    report.update(_headline(rep))
    report["verdict"] = _verdict_dict(rep.verdict)
    report["notes"] = list(rep.notes)
    report["curves"] = {
        "theta": rep.thetas.tolist(),
        "gamma_sq": rep.gamma_sq.tolist(),
        "gamma_prime_sq": rep.gamma_prime_sq.tolist(),
        "nonorthogonality": rep.B.tolist(),
        "benchmark": rep.rhs.tolist(),
    }
    return report, report["curves"], 0


def _cmd_table1(args: argparse.Namespace) -> tuple[dict, None, int]:
    _check_count("--theta-points", args.theta_points, hi=MAX_SAMPLES)
    reports = benchmark_table(args.theta_points, args.mode)
    report = _report_head("table1")
    report["inputs"] = {
        "theta_points": int(args.theta_points),
        "mode": args.mode,
    }
    report["rows"] = [
        {
            "label": rep.label,
            **_headline(rep),
            "is_quantum_domain": bool(rep.verdict.is_quantum_domain),
        }
        for rep in reports
    ]
    return report, None, 0


def _suite(name: str, cases: int, worst: float, tol: float) -> dict:
    return {
        "name": name,
        "cases": cases,
        "max_abs_diff": worst,
        "tolerance": tol,
        "passed": worst <= tol,
    }


def _scheme_suite(args: argparse.Namespace, tol: float) -> dict:
    import numpy as np

    values = np.linspace(0.1, 0.9, args.grid_size)
    worst = 0.0
    cases = 0
    for gamma in values:
        for gamma_prime in values:
            nonorth = total_nonorthogonality(OverlapPair(gamma, gamma_prime))
            for p_plus in values:
                closed = classical_fidelity_bound(nonorth, float(p_plus))
                _, found = optimize_scheme(
                    float(gamma),
                    float(gamma_prime),
                    float(p_plus),
                    resolution=args.resolution,
                    n_random=args.random_schemes,
                    seed=args.seed,
                )
                worst = max(worst, abs(closed - found))
                cases += 1
    return _suite("closed_form_vs_scheme_search", cases, worst, tol)


def _fock_suite(args: argparse.Namespace, tol: float) -> dict:
    rng = random.Random(args.seed)
    r_max = 6.0 * math.log(10.0) / 20.0
    worst = 0.0
    for _ in range(args.pairs):
        states = []
        gaussians = []
        for _ in range(2):
            r = rng.uniform(-r_max, r_max)
            nbar = rng.uniform(0.0, 1.0)
            theta = rng.uniform(0.0, math.pi)
            states.append(squeezed_thermal(r, nbar, theta, args.dim))
            base = CovMat2.diagonal(
                (2.0 * nbar + 1.0) * math.exp(2.0 * r),
                (2.0 * nbar + 1.0) * math.exp(-2.0 * r),
            )
            gaussians.append(GaussianState(rotate_cov(base, theta)))
        closed = uhlmann_fidelity_gaussian(gaussians[0], gaussians[1])
        direct = uhlmann_fock(states[0], states[1])
        worst = max(worst, abs(closed - direct))
    return _suite("gaussian_vs_fock", args.pairs, worst, tol)


def _coherent_suite(tol: float) -> dict:
    exact = coherent_task_overlaps(CoherentTask(1.0, 1.0)).gamma
    vac = CovMat2.diagonal(1.0, 1.0)
    closed = uhlmann_fidelity_gaussian(
        GaussianState(vac, 1.0, 0.0), GaussianState(vac, -1.0, 0.0)
    )
    direct = uhlmann_fock(coherent_fock(1.0, 40), coherent_fock(-1.0, 40))
    worst = max(abs(closed - exact), abs(direct - exact))
    return _suite("coherent_overlap", 2, worst, tol)


def _cmd_oracle_check(args: argparse.Namespace) -> tuple[dict, None, int]:
    _check_count("--grid-size", args.grid_size, 1, MAX_SAMPLES)
    _check_count("--pairs", args.pairs, 1)
    _check_count("--random-schemes", args.random_schemes, 0)
    _check_count("--resolution", args.resolution, hi=MAX_SAMPLES)
    _check_count("--dim", args.dim, *DIM_RANGE)
    _check_count("--seed", args.seed, 0)
    suites = [
        _scheme_suite(args, _tolerance(args, SCHEME_SUITE_TOL)),
        _fock_suite(args, _tolerance(args, FOCK_SUITE_TOL)),
        _coherent_suite(_tolerance(args, COHERENT_SUITE_TOL)),
    ]
    passed = all(s["passed"] for s in suites)
    report = _report_head("oracle-check")
    report["inputs"] = {
        "grid_size": int(args.grid_size),
        "resolution": int(args.resolution),
        "random_schemes": int(args.random_schemes),
        "pairs": int(args.pairs),
        "dim": int(args.dim),
        "seed": int(args.seed),
        "tolerance": args.tolerance,
    }
    report["suites"] = suites
    report["passed"] = passed
    return report, None, 0 if passed else 3


def _criterion_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True, help="first measured fidelity")
    p.add_argument("--b", type=float, required=True, help="second measured fidelity")
    _nonorth_flags(p)
    p.add_argument(
        "--p-plus", type=float, default=None,
        help="also report the fixed-prior bound at this prior",
    )
    p.add_argument(
        "--tolerance", type=float, default=None,
        help=f"closed-form vs numeric agreement tolerance (default {AGREEMENT_TOL})",
    )


def _boundary_flags(p: argparse.ArgumentParser) -> None:
    _nonorth_flags(p)
    p.add_argument("--points", type=int, default=200, help="number of samples")
    p.add_argument("--curve-out", default=None, help="also write the curve as CSV")


def _coherent_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True, help="probe amplitude")
    p.add_argument("--eta", type=float, required=True, help="channel transmission")
    p.add_argument("--a", type=float, required=True, help="first measured fidelity")
    p.add_argument("--b", type=float, required=True, help="second measured fidelity")


def _squeezed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--record", default=None, help="JSON record file")
    p.add_argument("--label", default="session", help="label when giving dB flags")
    p.add_argument("--squeezing-in-db", dest="sq_in", type=float, default=None)
    p.add_argument("--antisqueezing-in-db", dest="antisq_in", type=float, default=None)
    p.add_argument("--squeezing-out-db", dest="sq_out", type=float, default=None)
    p.add_argument("--antisqueezing-out-db", dest="antisq_out", type=float, default=None)
    p.add_argument(
        "--mode", choices=[AS_PUBLISHED, PURE_TARGET], default=None,
        help="overrides the record file's mode",
    )
    p.add_argument("--theta-points", type=int, default=256)
    p.add_argument("--curve-out", default=None, help="also write the scan as CSV")


def _table1_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta-points", type=int, default=256)
    p.add_argument("--mode", choices=[AS_PUBLISHED, PURE_TARGET], default=AS_PUBLISHED)


def _oracle_check_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-size", type=int, default=3, help="per-axis scheme grid")
    p.add_argument("--resolution", type=int, default=2048)
    p.add_argument("--random-schemes", type=int, default=16)
    p.add_argument("--pairs", type=int, default=10, help="random state pairs")
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--tolerance", type=float, default=None,
        help="override every suite tolerance",
    )


#: Each subcommand once, in help order: its help line, the function that adds
#: its flags (``--out`` is added after them), and its handler.
_COMMANDS = {
    "criterion": (
        "run the two-state test on explicit numbers", _criterion_flags, _cmd_criterion,
    ),
    "boundary": ("sample the pass/fail boundary curve", _boundary_flags, _cmd_boundary),
    "coherent": ("binary coherent-state pipeline", _coherent_flags, _cmd_coherent),
    "squeezed": ("squeezed-storage benchmark scan", _squeezed_flags, _cmd_squeezed),
    "table1": (
        "analyse the four embedded benchmark records", _table1_flags, _cmd_table1,
    ),
    "oracle-check": (
        "cross-validate closed forms against the numerical oracles",
        _oracle_check_flags,
        _cmd_oracle_check,
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``qdverify`` parser, with the subparser of ``command`` or of every subcommand.

    Each subparser is a whole ``ArgumentParser``, so ``main`` registers only
    the one it invokes: two parsers per call instead of seven.  With ``None``
    all six are registered, for the top-level help, the "invalid choice"
    error and a missing subcommand.  A one-subcommand parser still names all
    six in its usage line (the ``metavar``), so an error that prints the
    top-level usage, such as an unrecognized flag, reads as the full
    parser's; the full parser gets no ``metavar``, which would change the
    "invalid choice" and "required" errors.  Nothing is cached across calls:
    the warm benchmark keeps a record per operation, so a faster call there
    reads as more memory until that record goes (ROADMAP item 1).
    """
    if command is None:
        names, metavar = _COMMANDS, None
    elif command in _COMMANDS:
        names, metavar = [command], "{" + ",".join(_COMMANDS) + "}"
    else:
        raise ValueError(
            f"unknown subcommand {command!r}; expected one of: {', '.join(_COMMANDS)}"
        )
    parser = argparse.ArgumentParser(
        prog="qdverify",
        description="decide from fidelity data whether a channel beats "
        "every measure-and-prepare strategy",
    )
    parser.add_argument(
        "--version", action="version", version=f"qdverify {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        summary, add_flags, _ = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        add_flags(p)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def _csv_text(columns: dict) -> str:
    import csv  # only --curve-out writes CSV

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*columns.values()))
    return buf.getvalue()


def _write_all(files: list[tuple[str, str, str]]) -> None:
    """Write each (flag, path, text) so that a refused or failed write changes no file.

    Every path is checked before anything is created.  An empty path, a
    directory, a regular file without write permission, and a regular file
    or new path that an earlier flag already names (symlinks resolved; the
    second text would replace the first) are refused.  Each text bound for a
    regular file, or a new one, then goes to a fresh file beside it, and the
    targets are replaced only once every text is written.  A replaced file
    keeps its permission bits, and a new one gets 0o666 minus the umask.  A
    device or pipe such as /dev/stdout cannot be replaced, so it is written
    in place, after them, and may be named twice.  Errors name the flag or
    the path given.
    """
    named, to_stage, in_place = {}, [], []
    for flag, path, text in files:
        if not path:
            raise ValueError(f"{flag} needs a file path, got ''")
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if os.path.exists(path):
            if not os.path.isfile(path):
                in_place.append((path, text))
                continue
            if not os.access(path, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            mode = stat.S_IMODE(os.stat(path).st_mode)
        else:
            mode = None
        real = os.path.realpath(path)
        if real in named:
            raise ValueError(f"{flag} {path!r} and {named[real]} name the same file")
        named[real] = f"{flag} {path!r}"
        to_stage.append((path, real, text, mode))
    staged = []
    try:
        for path, real, text, mode in to_stage:
            tmp = f"{real}.{os.urandom(4).hex()}.tmp"
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            staged.append((tmp, real))
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                if mode is not None:
                    os.chmod(tmp, mode)
                fh.write(text)
        for tmp, real in staged:
            os.replace(tmp, real)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise
    for path, text in in_place:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _, _, handler = _COMMANDS[args.command]
        report, curve, code = handler(args)
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
        files = []
        if getattr(args, "curve_out", None) is not None:
            files.append(("--curve-out", args.curve_out, _csv_text(curve)))
        if args.out is not None:
            files.append(("--out", args.out, text))
        _write_all(files)
        if args.out is None:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
