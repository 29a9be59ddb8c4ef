import argparse
import io
import json
import math
import os
import stat
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdverify
from qdverify import cli
from qdverify.cli import DIM_RANGE, MAX_SAMPLES, main
from qdverify.criterion import OverlapPair, classical_fidelity_bound
from qdverify.gaussian import SqueezingRecord

RECORD = {
    "label": "bench",
    "X_db": -2.0,
    "Y_db": 6.0,
    "Xp_db": -0.07,
    "Yp_db": 0.49,
    "mode": "as_published",
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured


def test_criterion_report(capsys):
    code, cap = _run(capsys, ["criterion", "--a", "0.95", "--b", "0.95", "--B", "0.25"])
    assert code == 0
    report = json.loads(cap.out)
    assert report["tool"] == "qdverify"
    assert report["command"] == "criterion"
    assert report["nonorthogonality"] == pytest.approx(0.25)
    assert report["verdict"]["is_quantum_domain"] is True
    assert report["verdict"]["rhs"] == pytest.approx(0.9330127018922193)
    assert report["numeric_check"]["agrees"] is True


def test_criterion_overlap_flags(capsys):
    code, cap = _run(
        capsys,
        ["criterion", "--a", "0.9", "--b", "0.9", "--gamma", "0.8", "--gamma-prime", "0.6"],
    )
    assert code == 0
    report = json.loads(cap.out)
    assert report["nonorthogonality"] == pytest.approx(0.4096)
    assert report["inputs"]["gamma"] == pytest.approx(0.8)


def test_criterion_flag_conflicts(capsys):
    code, cap = _run(
        capsys,
        ["criterion", "--a", "0.9", "--b", "0.9", "--B", "0.2", "--gamma", "0.5"],
    )
    assert code == 2
    assert "error:" in cap.err

    code, cap = _run(capsys, ["criterion", "--a", "0.9", "--b", "0.9"])
    assert code == 2
    assert "error:" in cap.err


def test_criterion_degenerate_report(capsys):
    code, cap = _run(capsys, ["criterion", "--a", "0.2", "--b", "0.9", "--B", "0.25"])
    assert code == 0
    report = json.loads(cap.out)
    assert report["verdict"]["rhs"] is None
    assert report["verdict"]["is_quantum_domain"] is False
    assert report["verdict"]["degenerate"]
    assert report["numeric_check"]["agrees"] is True


def test_criterion_fixed_prior(capsys):
    code, cap = _run(
        capsys,
        ["criterion", "--a", "0.9", "--b", "0.9", "--B", "0.25", "--p-plus", "0.75"],
    )
    assert code == 0
    report = json.loads(cap.out)
    assert report["fixed_prior_bound"]["value"] == pytest.approx(0.9506939094329987)


def test_criterion_invalid_input(capsys):
    code, cap = _run(capsys, ["criterion", "--a", "1.5", "--b", "0.9", "--B", "0.25"])
    assert code == 2
    assert "error:" in cap.err


def test_reports_are_byte_stable(tmp_path, capsys):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    argv = ["criterion", "--a", "0.95", "--b", "0.95", "--B", "0.25"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    cap = capsys.readouterr()
    assert cap.out == ""
    assert first.read_bytes() == second.read_bytes()


def test_boundary_report_and_csv(tmp_path, capsys):
    curve_file = tmp_path / "curve.csv"
    code, cap = _run(
        capsys,
        ["boundary", "--B", "0.5", "--points", "11", "--curve-out", str(curve_file)],
    )
    assert code == 0
    report = json.loads(cap.out)
    assert report["symmetric_point"] == pytest.approx(0.8535533905932737)
    assert len(report["curve"]["a"]) == 11
    assert len(report["curve"]["b"]) == 11

    raw = curve_file.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "a,b"
    assert len(lines) == 12


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(2, 60),
)
def test_symmetric_point_is_the_flat_chord_row_of_the_curve(nonorth, points):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["boundary", f"--B={nonorth!r}", f"--points={points}"]) == 0
    report = json.loads(out.getvalue())
    curve = report["curve"]
    # Below B of about 1e-32 every row rounds to a == b; the flat chord's row
    # is the highest of them.
    flat = max(a for a, b in zip(curve["a"], curve["b"]) if a == b)
    assert flat == classical_fidelity_bound(nonorth, 0.5) == report["symmetric_point"]


def test_coherent_command(capsys):
    code, cap = _run(
        capsys,
        ["coherent", "--alpha", "1", "--eta", "0.5", "--a", "0.99", "--b", "0.99"],
    )
    assert code == 0
    report = json.loads(cap.out)
    assert report["gamma"] == pytest.approx(math.exp(-2.0))
    assert report["nonorthogonality"] == pytest.approx(0.01583688671206782)
    assert report["verdict"]["rhs"] == pytest.approx(0.9960249775182526)
    assert report["verdict"]["is_quantum_domain"] is False


@pytest.mark.parametrize("alpha", ["1e155", "1e200"])
def test_coherent_rejects_alpha_whose_square_overflows(capsys, alpha):
    code, cap = _run(
        capsys, ["coherent", "--alpha", alpha, "--eta", "0.5", "--a", "0.9", "--b", "0.9"]
    )
    assert code == 2
    assert cap.err.startswith("error:") and "alpha" in cap.err
    assert cap.out == ""


def test_squeezed_record_file(tmp_path, capsys):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(RECORD), encoding="utf-8")
    code, cap = _run(capsys, ["squeezed", "--record", str(path), "--theta-points", "64"])
    assert code == 0
    report = json.loads(cap.out)
    assert report["inputs"]["label"] == "bench"
    assert report["inputs"]["mode"] == "as_published"
    assert report["lhs"] == pytest.approx(0.7737263596937138, abs=1e-12)
    assert report["rhs_min"] == pytest.approx(0.993847800406367, abs=1e-6)
    assert report["verdict"]["is_quantum_domain"] is False
    assert len(report["curves"]["theta"]) == 64


def test_squeezed_mode_flag_overrides_record(tmp_path, capsys):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(RECORD), encoding="utf-8")
    code, cap = _run(
        capsys,
        ["squeezed", "--record", str(path), "--mode", "pure_target", "--theta-points", "64"],
    )
    assert code == 0
    report = json.loads(cap.out)
    assert report["inputs"]["mode"] == "pure_target"
    assert report["a"] == pytest.approx(0.9758275662119866, abs=1e-12)


def test_squeezed_missing_record_key(tmp_path, capsys):
    partial = {k: v for k, v in RECORD.items() if k != "Y_db"}
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(partial), encoding="utf-8")
    code, cap = _run(capsys, ["squeezed", "--record", str(path)])
    assert code == 2
    assert "missing key" in cap.err


def test_squeezed_record_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "rec.json"
    path.write_text("[-2.0, 6.0, -0.07, 0.49]", encoding="utf-8")
    code, cap = _run(capsys, ["squeezed", "--record", str(path)])
    assert code == 2
    assert cap.err.startswith("error:") and "JSON object" in cap.err


@pytest.mark.parametrize("key", ["X_db", "Y_db", "Xp_db", "Yp_db"])
@pytest.mark.parametrize("value", [None, "-2.0", True, math.nan, 10**400])
def test_squeezed_record_fields_must_be_finite_numbers(tmp_path, capsys, key, value):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({**RECORD, key: value}), encoding="utf-8")
    code, cap = _run(capsys, ["squeezed", "--record", str(path)])
    assert code == 2
    assert cap.err.startswith("error:") and repr(key) in cap.err


@pytest.mark.parametrize("label", [None, 5, ["bench"], {"name": "bench"}])
def test_squeezed_record_label_must_be_a_string(tmp_path, capsys, label):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({**RECORD, "label": label}), encoding="utf-8")
    code, cap = _run(capsys, ["squeezed", "--record", str(path)])
    assert code == 2
    assert cap.err.startswith("error:") and "'label'" in cap.err
    assert cap.out == ""


@pytest.mark.parametrize("extra", [{"mdoe": "pure_target"}, {"Xdb": -2.0, "note": "x"}])
def test_squeezed_record_refuses_unknown_keys(tmp_path, capsys, extra):
    # a misspelled key used to be ignored, and the record analysed as_published
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({**RECORD, **extra}), encoding="utf-8")
    code, cap = _run(capsys, ["squeezed", "--record", str(path), "--theta-points", "64"])
    assert code == 2 and cap.out == ""
    assert cap.err == (
        f"error: unknown record file keys: {', '.join(map(repr, extra))}; accepted keys: "
        "'label', 'X_db', 'Y_db', 'Xp_db', 'Yp_db', 'mode'\n"
    )


@pytest.mark.parametrize("mode", [None, "", "PURE_TARGET", 1])
@pytest.mark.parametrize("flag", [[], ["--mode", "pure_target"]])
def test_squeezed_record_mode_must_name_a_mode(tmp_path, capsys, mode, flag):
    # a null or empty mode used to fall back to as_published
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({**RECORD, "mode": mode}), encoding="utf-8")
    code, cap = _run(capsys, ["squeezed", "--record", str(path), "--theta-points", "64", *flag])
    assert code == 2 and cap.out == ""
    assert cap.err == f"error: unknown mode {mode!r} in record file\n"


@pytest.mark.parametrize("raw, why", [
    (b"label: bench\n", "does not parse as JSON: Expecting value"),
    (b'{"label": "bench",}', "does not parse as JSON: Expecting property name"),
    (b"[" * 100_000, "does not parse as JSON: maximum recursion depth exceeded"),
    (b'{"X_db": 1' + b"0" * 5000 + b"}", "does not parse as JSON: Exceeds the limit"),
    (json.dumps(RECORD).encode("utf-16"), "is not UTF-8 text: 'utf-8' codec can't decode"),
    (b'{"label": "b\xe9nch"}', "is not UTF-8 text: 'utf-8' codec can't decode"),
], ids=["yaml", "trailing-comma", "too-deep", "too-many-digits", "utf-16", "latin-1"])
def test_squeezed_record_that_is_not_utf8_json_names_the_file(tmp_path, capsys, raw, why):
    path = tmp_path / "rec.json"
    path.write_bytes(raw)
    code, cap = _run(capsys, ["squeezed", "--record", str(path)])
    assert code == 2 and cap.out == ""
    assert cap.err.startswith(f"error: record file {str(path)!r} {why}")
    assert len(cap.err.splitlines()) == 1


@pytest.mark.parametrize("raw, key", [
    ('{"label": "bench", "X_db": -2.0, "Y_db": 6.0, "Xp_db": -0.07, "Yp_db": 0.49, '
     '"mode": "pure_target", "mode": "as_published", "X_db": -1.0}', "mode"),
    ('{"label": "bench", "X_db": -2.0, "Y_db": 6.0, "Xp_db": -0.07, "Yp_db": 0.49, '
     '"X_db": -1.0}', "X_db"),
], ids=["mode-then-X_db", "X_db"])
def test_squeezed_record_refuses_a_repeated_key(tmp_path, capsys, raw, key):
    # json.loads keeps the last value, so the first record used to exit 0,
    # analysed as_published at X_db -1.0
    path = tmp_path / "rec.json"
    path.write_text(raw, encoding="utf-8")
    code, cap = _run(capsys, ["squeezed", "--record", str(path), "--theta-points", "64"])
    assert code == 2 and cap.out == ""
    assert cap.err == f"error: record file {str(path)!r} repeats key {key!r}\n"


def test_squeezed_direct_flags(capsys):
    code, cap = _run(
        capsys,
        [
            "squeezed",
            "--label", "lab-run",
            "--squeezing-in-db", "-2",
            "--antisqueezing-in-db", "6",
            "--squeezing-out-db", "-0.07",
            "--antisqueezing-out-db", "0.49",
            "--theta-points", "64",
        ],
    )
    assert code == 0
    report = json.loads(cap.out)
    assert report["inputs"]["label"] == "lab-run"
    assert report["lhs"] == pytest.approx(0.7737263596937138, abs=1e-12)


def test_squeezed_incomplete_flags(capsys):
    code, cap = _run(capsys, ["squeezed", "--squeezing-in-db", "-2"])
    assert code == 2
    assert "error:" in cap.err


# a negative dB in exponent form, as repr writes a small one ("-1e-05"), or
# with a trailing point: argparse alone reads only -5 and -.5 as numbers and
# refused these with "expected one argument"
@pytest.mark.parametrize("value", ["-5e-1", "-1e-05", "-5.", "-5E-1"])
def test_squeezed_reads_a_negative_exponent_as_a_value(capsys, value):
    tail = [*SQUEEZED_FLAG_ARGV[3:], "--theta-points", "64"]
    code, cap = _run(capsys, ["squeezed", "--squeezing-in-db", value, *tail])
    assert (code, cap.err) == (0, "")
    assert json.loads(cap.out)["inputs"]["X_db"] == float(value)
    assert _run(capsys, ["squeezed", f"--squeezing-in-db={value}", *tail]) == (code, cap)


def test_coherent_negative_alpha_in_exponent_form_reaches_the_library(capsys):
    code, cap = _run(capsys, ["coherent", "--alpha", "-1e0", "--eta", "0.5", "--a", "0.9",
                              "--b", "0.9"])
    assert (code, cap.out, cap.err) == (2, "", "error: alpha must be positive\n")


def test_squeezed_curve_csv(tmp_path, capsys):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(RECORD), encoding="utf-8")
    curve_file = tmp_path / "scan.csv"
    code, _ = _run(
        capsys,
        [
            "squeezed", "--record", str(path),
            "--theta-points", "64", "--curve-out", str(curve_file),
        ],
    )
    assert code == 0
    lines = curve_file.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "theta,gamma_sq,gamma_prime_sq,nonorthogonality,benchmark"
    assert len(lines) == 65


def test_table_command(capsys):
    code, cap = _run(capsys, ["table1"])
    assert code == 0
    report = json.loads(cap.out)
    rows = report["rows"]
    assert [r["label"] for r in rows] == [
        "storage-2dB", "storage-1.2dB", "storage-1.9dB", "teleport-6dB",
    ]
    expected_lhs = (0.7737263596937138, 0.8368366694299801, 0.800100865354912, 0.6780018175072835)
    expected_rhs = (0.993847800406367, 0.9890198073283554, 0.9832933726828696, 0.7998917249081091)
    for row, lhs, rhs in zip(rows, expected_lhs, expected_rhs):
        assert row["lhs"] == pytest.approx(lhs, abs=1e-12)
        assert row["rhs_min"] == pytest.approx(rhs, abs=1e-9)
        assert abs(row["theta_min"]) < 1e-3
        assert row["is_quantum_domain"] is False


def test_table_pure_target_mode(capsys):
    code, cap = _run(capsys, ["table1", "--mode", "pure_target"])
    assert code == 0
    rows = json.loads(cap.out)["rows"]
    assert rows[0]["a"] == pytest.approx(0.9758275662119866, abs=1e-12)
    assert rows[3]["rhs_min"] == pytest.approx(0.9738090036597041, abs=1e-9)


def test_oracle_check_passes(capsys):
    code, cap = _run(
        capsys,
        [
            "oracle-check",
            "--grid-size", "2", "--resolution", "1024",
            "--random-schemes", "4", "--pairs", "2",
        ],
    )
    assert code == 0
    report = json.loads(cap.out)
    assert report["passed"] is True
    assert [s["passed"] for s in report["suites"]] == [True, True, True]


def test_oracle_check_impossible_tolerance(capsys):
    code, cap = _run(
        capsys,
        [
            "oracle-check",
            "--grid-size", "2", "--resolution", "1024",
            "--random-schemes", "2", "--pairs", "1",
            "--tolerance", "1e-16",
        ],
    )
    assert code == 3
    report = json.loads(cap.out)
    assert report["passed"] is False


@pytest.mark.parametrize(
    "flags", [["--grid-size", "0"], ["--pairs", "0"], ["--grid-size", "0", "--pairs", "0"]]
)
def test_oracle_check_rejects_empty_suites(capsys, flags):
    code, cap = _run(capsys, ["oracle-check", *flags])
    assert code == 2
    assert cap.err.startswith("error:")
    assert cap.out == ""


CRITERION_ARGV = ["criterion", "--a", "0.93", "--b", "0.95", "--B", "0.25"]
SMALL_ORACLE_ARGV = ["oracle-check", "--grid-size", "1", "--pairs", "1", "--dim", "80"]


@pytest.mark.parametrize("base", [CRITERION_ARGV, SMALL_ORACLE_ARGV])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
def test_tolerance_must_be_finite_and_non_negative(capsys, base, tol):
    code, cap = _run(capsys, [*base, f"--tolerance={tol}"])
    assert code == 2
    assert cap.err.startswith("error:") and "--tolerance" in cap.err
    assert cap.out == ""


@pytest.mark.parametrize("base", [CRITERION_ARGV, SMALL_ORACLE_ARGV])
def test_zero_tolerance_is_accepted(capsys, base):
    code, cap = _run(capsys, [*base, "--tolerance", "0"])
    assert code in (0, 3)
    assert json.loads(cap.out)["inputs"]["tolerance"] == 0.0


def test_coherent_suite_checks_the_overlap_the_verdict_uses(capsys, monkeypatch):
    exact = cli.coherent_task_overlaps

    def off(task):
        pair = exact(task)
        return OverlapPair(pair.gamma + 1e-3, pair.gamma_prime)

    monkeypatch.setattr(cli, "coherent_task_overlaps", off)
    code, cap = _run(capsys, SMALL_ORACLE_ARGV)
    assert code == 3
    passed = {s["name"]: s["passed"] for s in json.loads(cap.out)["suites"]}
    assert passed == {
        "closed_form_vs_scheme_search": True,
        "gaussian_vs_fock": True,
        "coherent_overlap": False,
    }


def test_oracle_check_rejects_negative_random_schemes(capsys):
    code, cap = _run(capsys, [*SMALL_ORACLE_ARGV, "--random-schemes", "-1"])
    assert code == 2
    assert cap.err.startswith("error:") and "--random-schemes" in cap.err
    assert cap.out == ""


def test_oracle_check_rejects_a_negative_seed_before_any_suite(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a suite ran")

    for name in ("_scheme_suite", "_fock_suite", "_coherent_suite"):
        monkeypatch.setattr(cli, name, forbidden)
    code, cap = _run(capsys, [*SMALL_ORACLE_ARGV, "--seed", "-1"])
    assert code == 2
    assert cap.err == "error: --seed must be at least 0, got -1\n"
    assert cap.out == ""


SQUEEZED_FLAG_ARGV = [
    "squeezed", "--squeezing-in-db", "-2", "--antisqueezing-in-db", "6",
    "--squeezing-out-db", "-0.07", "--antisqueezing-out-db", "0.49",
]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["boundary", "--B", "0.5", "--points"], "--points"),
        (["table1", "--theta-points"], "--theta-points"),
        ([*SQUEEZED_FLAG_ARGV, "--theta-points"], "--theta-points"),
        ([*SMALL_ORACLE_ARGV, "--resolution"], "--resolution"),
        ([*SMALL_ORACLE_ARGV, "--grid-size"], "--grid-size"),
    ],
)
@pytest.mark.parametrize("value", [MAX_SAMPLES + 1, 100_000_000_000])
def test_sample_counts_are_capped_before_allocating(capsys, argv, flag, value):
    code, cap = _run(capsys, [*argv, str(value)])
    assert code == 2
    assert cap.err.startswith("error:") and flag in cap.err
    assert cap.out == ""


CURVE_ARGVS = {
    "boundary": ["boundary", "--B", "0.5", "--points", "3"],
    "squeezed": [*SQUEEZED_FLAG_ARGV, "--theta-points", "64"],
}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (CURVE_ARGVS["boundary"], "--curve-out"),
        (CURVE_ARGVS["squeezed"], "--curve-out"),
        (["criterion", "--a", "0.9", "--b", "0.9", "--B", "0.5"], "--out"),
    ],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv, flag):
    target = tmp_path / "missing" / "out"
    code, cap = _run(capsys, [*argv, flag, str(target)])
    assert code == 2
    assert cap.err.startswith("error:") and str(target) in cap.err
    assert cap.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", list(CURVE_ARGVS))
@pytest.mark.parametrize("bad, good", [("--out", "--curve-out"), ("--curve-out", "--out")])
@pytest.mark.parametrize("existing", [None, "old contents\n"], ids=["new", "existing"])
def test_unwritable_output_path_leaves_the_other_as_it_was(
    tmp_path, capsys, name, bad, good, existing
):
    # a run that exits 2 creates no file at the writable path, nor changes one there
    target, kept = tmp_path / "missing" / "out", tmp_path / "kept"
    if existing is not None:
        kept.write_text(existing, encoding="utf-8")
    code, cap = _run(capsys, [*CURVE_ARGVS[name], bad, str(target), good, str(kept)])
    assert code == 2
    assert cap.err.startswith("error:") and str(target) in cap.err
    assert cap.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if existing is None else ["kept"])
    if existing is not None:
        assert kept.read_text(encoding="utf-8") == existing


@pytest.mark.parametrize("name", list(CURVE_ARGVS))
def test_output_files_replace_their_targets_whole(tmp_path, capsys, name):
    out, curve, link = tmp_path / "report.json", tmp_path / "curve.csv", tmp_path / "link.csv"
    for path in (out, curve):
        path.write_text("old contents\n", encoding="utf-8")
    link.symlink_to(curve)
    code, cap = _run(capsys, [*CURVE_ARGVS[name], "--out", str(out), "--curve-out", str(link)])
    assert code == 0 and cap.out == "" and cap.err == ""
    assert json.loads(out.read_text(encoding="utf-8"))["tool"] == "qdverify"
    assert curve.read_text(encoding="utf-8").startswith(("a,b\n", "theta,"))
    # the link still points at its target, and no staging file is left behind
    assert link.is_symlink() and link.resolve() == curve.resolve()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv", "link.csv", "report.json"]


@pytest.mark.parametrize("name", list(CURVE_ARGVS))
@pytest.mark.parametrize("existing", [None, "old contents\n"], ids=["new", "existing"])
def test_out_and_curve_out_naming_one_file_exit_2(tmp_path, capsys, name, existing):
    # the report used to replace the CSV silently; a symlink names the same file
    target, link = tmp_path / "same.out", tmp_path / "link.out"
    if existing is not None:
        target.write_text(existing, encoding="utf-8")
    link.symlink_to(target)
    code, cap = _run(capsys, [*CURVE_ARGVS[name], "--curve-out", str(link), "--out", str(target)])
    assert code == 2 and cap.out == ""
    assert cap.err == (
        f"error: --out {str(target)!r} and --curve-out {str(link)!r} name the same file\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["link.out"] if existing is None else ["link.out", "same.out"]
    )
    if existing is not None:
        assert target.read_text(encoding="utf-8") == existing


@pytest.mark.parametrize("name", list(CURVE_ARGVS))
@pytest.mark.parametrize("flag, other", [("--out", "--curve-out"), ("--curve-out", "--out")])
@pytest.mark.parametrize("with_other", [False, True], ids=["alone", "with-other"])
def test_empty_output_path_exits_2_naming_the_flag(
    tmp_path, capsys, monkeypatch, name, flag, other, with_other
):
    # "" would resolve to the working directory; nothing may be created, not
    # even a staging file for a valid other path
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    opened, real_open = [], os.open

    def spy_open(path, *rest, **kwargs):
        opened.append(path)
        return real_open(path, *rest, **kwargs)

    monkeypatch.setattr(cli.os, "open", spy_open)
    argv = [*CURVE_ARGVS[name], flag, ""] + ([other, "kept"] if with_other else [])
    code, cap = _run(capsys, argv)
    assert (code, cap.out, cap.err) == (2, "", f"error: {flag} needs a file path, got ''\n")
    assert opened == []
    assert list(cwd.iterdir()) == [] and list(tmp_path.iterdir()) == [cwd]


def test_input_error_comes_before_the_shared_file_error(tmp_path, capsys, monkeypatch):
    # the shared-file refusal is made when the run writes, after the handler
    monkeypatch.chdir(tmp_path)
    argv = ["boundary", "--B", "2", "--points", "3", "--curve-out", "x", "--out", "x"]
    code, cap = _run(capsys, argv)
    assert (code, cap.out) == (2, "")
    assert cap.err == "error: B must lie in (0, 1) for a boundary curve, got 2.0\n"
    assert list(tmp_path.iterdir()) == []


def test_out_and_curve_out_may_name_one_device_or_pipe(tmp_path, capsys):
    # a device or pipe takes both texts in turn, written in place
    argv = [*CURVE_ARGVS["boundary"], "--curve-out", "/dev/null", "--out", "/dev/null"]
    code, cap = _run(capsys, argv)
    assert (code, cap.out, cap.err) == (0, "", "")
    argv = [*CURVE_ARGVS["boundary"], "--curve-out", "/dev/stdout", "--out", "/dev/stdout"]
    code, out, err, _ = _fresh_cli(argv, tmp_path)
    assert code == 0 and err == ""
    assert out.startswith("a,b\n") and json.loads(out[out.index("{"):])["command"] == "boundary"


@pytest.mark.parametrize("flag, other", [("--out", "--curve-out"), ("--curve-out", "--out")])
@pytest.mark.parametrize("via_link", [False, True], ids=["direct", "symlink"])
def test_replaced_output_file_keeps_its_permission_bits(tmp_path, capsys, flag, other, via_link):
    # a private report stays private; a new file gets 0o666 minus the umask
    target, new = tmp_path / "private", tmp_path / "new"
    target.write_text("old contents\n", encoding="utf-8")
    target.chmod(0o600)
    named = target
    if via_link:
        named = tmp_path / "link"
        named.symlink_to(target)
    umask = os.umask(0o027)
    try:
        code, cap = _run(capsys, [*CURVE_ARGVS["boundary"], flag, str(named), other, str(new)])
    finally:
        os.umask(umask)
    assert (code, cap.out, cap.err) == (0, "", "")
    assert target.read_text(encoding="utf-8") != "old contents\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert stat.S_IMODE(new.stat().st_mode) == 0o640

@pytest.mark.parametrize("dim", [-1, 0, DIM_RANGE[0] - 1, DIM_RANGE[1] + 1, 100_000])
def test_oracle_check_rejects_dim_outside_its_range(capsys, dim):
    code, cap = _run(capsys, [*SMALL_ORACLE_ARGV, "--dim", str(dim)])
    assert code == 2
    assert cap.err.startswith("error:") and "--dim" in cap.err
    assert cap.out == ""


def test_import_loads_no_scipy():
    # scipy costs about a second to import; the decision path must not need it
    src = str(Path(qdverify.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, qdverify, qdverify.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    # nor does the Fock oracle: -X importtime lists every module the run loads
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qdverify.cli", *SMALL_ORACLE_ARGV],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0 and json.loads(run.stdout)["passed"] is True
    loaded = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()]
    assert "qdverify.fock_oracle" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_cli_import_loads_the_modules_perfbench_times():
    src = str(Path(qdverify.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, qdverify.cli; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'qdverify'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    want = ["qdverify", "qdverify.applications", "qdverify.cli", "qdverify.criterion",
            "qdverify.fock_oracle", "qdverify.gaussian", "qdverify.mp_oracle"]
    assert out.stdout.split() == want, (
        "perfbench/run.py --trace 1, which CI's benchmark smoke step runs, reads the "
        "import time of criterion, applications, mp_oracle and fock_oracle from "
        "`import qdverify.cli` and stops with a KeyError on a module it did not load"
    )


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the value types are plain classes: importing dataclasses and inspect, and
    # decorating a dozen classes, cost about a sixth of a cold `criterion` run
    src = str(Path(qdverify.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, qdverify.cli; "
        "print(*sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []


def test_oracle_check_leaves_numpy_random_unloaded(tmp_path):
    # the Fock pairs come from the stdlib's random, as the scheme draws do
    code, out, err, loaded = _fresh_cli(SMALL_ORACLE_ARGV, tmp_path)
    assert code == 0 and json.loads(out)["passed"] is True, err
    assert "numpy" in loaded and "numpy.random" not in loaded


def _fresh_cli(argv, cwd):
    """Run ``python -X importtime -m qdverify.cli argv`` in a fresh process.

    Returns the exit code, stdout, stderr without the import-time lines, and
    the names of the modules the run imported.
    """
    src = str(Path(qdverify.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qdverify.cli", *argv],
        env=env, cwd=cwd, capture_output=True, text=True,
    )
    lines = run.stderr.splitlines(keepends=True)
    timing = [line for line in lines if line.startswith("import time:")]
    err = "".join(line for line in lines if not line.startswith("import time:"))
    loaded = {line.rsplit("|", 1)[-1].strip() for line in timing}
    return run.returncode, run.stdout, err, loaded


def test_decisions_and_input_errors_start_without_numpy(tmp_path):
    # numpy is most of a cold start; only the commands that build arrays load it
    listed, nulled = tmp_path / "list.json", tmp_path / "null.json"
    listed.write_text("[-2.0, 6.0, -0.07, 0.49]", encoding="utf-8")
    nulled.write_text(json.dumps({**RECORD, "Yp_db": None}), encoding="utf-8")
    no_numpy = [
        (["criterion", "--a", "0.95", "--b", "0.95", "--B", "0.25"], 0),
        (["criterion", "--a", "0.9", "--b", "0.85", "--gamma", "0.8", "--gamma-prime", "0.6",
          "--p-plus", "0.3"], 0),
        (["criterion", "--a", "0.2", "--b", "0.9", "--B", "0.25"], 0),
        (["coherent", "--alpha", "1.0", "--eta", "0.5", "--a", "0.9", "--b", "0.9"], 0),
        (["criterion", "--a", "0.9", "--b", "0.9", "--B", "0.5", "--gamma", "0.3"], 2),
        (["squeezed", "--record", str(listed)], 2),
        (["squeezed", "--record", str(nulled)], 2),
        ([*SQUEEZED_FLAG_ARGV[:-1], "nan"], 2),
        (["oracle-check", "--grid-size", "0", "--pairs", "0"], 2),
    ]
    with_numpy = [
        (["boundary", "--B", "0.5", "--points", "3"], 0),
        ([*SQUEEZED_FLAG_ARGV, "--theta-points", "64"], 0),
        (["table1", "--theta-points", "64"], 0),
        (SMALL_ORACLE_ARGV, 0),
    ]
    fresh = {}
    for cases, needs_numpy in ((no_numpy, False), (with_numpy, True)):
        for argv, expected in cases:
            code, out, err, loaded = _fresh_cli(argv, tmp_path)
            assert code == expected, (argv, err)
            assert ("numpy" in loaded) is needs_numpy, argv
            assert not any(m.split(".")[0] == "scipy" for m in loaded), argv
            # no command runs the quadrature bounds
            assert "qdverify.quadrature_bounds" not in loaded, argv
            # nor decorates a dataclass, whose module pulls in inspect and ast
            assert "dataclasses" not in loaded, argv
            fresh[tuple(argv)] = (code, out, err)
    # One process that alternates between the two kinds writes the same bytes.
    order = [case for pair in zip(no_numpy, with_numpy) for case in pair]
    order += no_numpy[len(with_numpy):]
    for argv, _ in order:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        assert (code, out.getvalue(), err.getvalue()) == fresh[tuple(argv)], argv


def test_squeezed_pure_target_names_an_output_below_the_variance_floor(capsys):
    # a variance product within the record's tolerance below 1 would give a
    # pure_target fidelity above 1
    argv = [*SQUEEZED_FLAG_ARGV[:6], "-3", "--antisqueezing-out-db", "2.999999"]
    code, cap = _run(capsys, [*argv, "--mode", "pure_target"])
    assert code == 2 and cap.out == ""
    assert cap.err.startswith("error: mode pure_target is undefined for this record")
    assert "squeezing_db -3.0 and antisqueezing_db 2.999999" in cap.err
    assert len(cap.err.splitlines()) == 1
    code, cap = _run(capsys, [*argv, "--theta-points", "64"])
    assert code == 0
    note = json.loads(cap.out)["notes"][0]
    assert note.startswith("mode pure_target is undefined") and "mean fidelity" not in note


def _largest_accepted_db(squeezing_db):
    # The largest antisqueezing a record with this squeezing accepts.
    lo, hi = 1000.0, 2000.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        try:
            SqueezingRecord(squeezing_db, mid)
        except ValueError:
            hi = mid
        else:
            lo = mid
    return lo


def test_squeezed_rejects_a_record_whose_overlap_overflows(capsys):
    # Beyond the edge the storage scan squared or summed past the float range:
    # an OverflowError traceback, or an overflow RuntimeWarning and a verdict
    # drawn from infinities.
    edge = _largest_accepted_db(3.0)
    head = SQUEEZED_FLAG_ARGV[:5]  # input -2 dB / 6 dB
    for antisqueezing, expected in ((edge, 0), (math.nextafter(edge, math.inf), 2)):
        argv = [*head, "--squeezing-out-db", "3", "--antisqueezing-out-db", repr(antisqueezing),
                "--theta-points", "64"]
        code, cap = _run(capsys, argv)
        assert code == expected
        if expected == 2:
            assert cap.err.startswith("error:") and cap.err.count("\n") == 1
            assert cap.out == ""
    code, cap = _run(capsys, [
        "squeezed", "--squeezing-in-db", "3", "--antisqueezing-in-db", "1545",
        "--squeezing-out-db", "3", "--antisqueezing-out-db", "6", "--theta-points", "64",
    ])
    assert code == 2 and cap.out == ""
    assert cap.err == (
        "error: squeezing_db 3.0 and antisqueezing_db 1545.0 overflow the overlap algebra\n"
    )


@pytest.mark.parametrize("antisqueezing, why", [
    # below the input's physical floor 1 - 1e-9, though within the 1e-6 that
    # a lone squeezing record allows
    ("2.9999999", "give a variance product 0.9999999769741493 below 1: "
                  "the input state is unphysical"),
    # within 1e-9 below 1: physical, but the fidelity credited to the input
    ("2.99999999999", "give a variance product 0.9999999999976974 below 1, so its"),
])
def test_squeezed_names_an_input_below_the_variance_floor(capsys, antisqueezing, why):
    argv = ["squeezed", "--squeezing-in-db", "-3", "--antisqueezing-in-db", antisqueezing,
            "--squeezing-out-db", "-0.07", "--antisqueezing-out-db", "0.49"]
    code, cap = _run(capsys, argv)
    assert code == 2 and cap.out == ""
    assert len(cap.err.splitlines()) == 1 and cap.err.startswith("error: ")
    assert f"input squeezing_db -3.0 and antisqueezing_db {antisqueezing} {why}" in cap.err


def test_squeezed_deep_squeezing_that_misses_the_bound_is_a_no(capsys):
    # input squeezed by 84 dB: its overlap is exactly 1 at zero rotation, so
    # the floor there is (1 + sqrt(gamma_prime_sq)) / 2 = 0.96172 (80 digits),
    # above the credited fidelity 0.95984, and the pair must not be certified
    code, cap = _run(capsys, [
        "squeezed", "--squeezing-in-db", "-84.2838210663373",
        "--antisqueezing-in-db", "84.9817962454766",
        "--squeezing-out-db", "-7.40771573989719",
        "--antisqueezing-out-db", "9.839240478885376",
    ])
    assert code == 0 and cap.err == ""
    report = json.loads(cap.out)
    assert report["rhs_min"] == 0.9617172761386226 and report["theta_min"] == 0.0
    assert report["verdict"]["is_quantum_domain"] is False


def test_argparse_exits_map_to_codes(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["--version"]) == 0
    capsys.readouterr()


edge_floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 1.0, 1e200, -1e200]),
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _flags(required, optional, values=edge_floats):
    return st.fixed_dictionaries(
        {f: values for f in required}, optional={f: values for f in optional}
    )


NONORTH = ("--B", "--gamma", "--gamma-prime")
MODES = st.sampled_from(["as_published", "pure_target"])
# (squeezing, antisqueezing) in dB: anywhere up to +-2000, or with an excess
# near 0 (the variance floor) or up to 30 dB
DB_PAIRS = st.one_of(
    st.tuples(st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0)),
    st.builds(
        lambda sq, excess: (sq, excess - sq),
        st.floats(-2000.0, 0.0), st.one_of(st.floats(-1e-6, 1e-6), st.floats(0.0, 30.0)),
    ),
)
SQUEEZED_ARGV = st.tuples(
    st.just("squeezed"),
    st.builds(
        lambda into, out, mode: {
            "--squeezing-in-db": into[0], "--antisqueezing-in-db": into[1],
            "--squeezing-out-db": out[0], "--antisqueezing-out-db": out[1],
            "--mode": mode, "--theta-points": 64,
        },
        DB_PAIRS, DB_PAIRS, MODES,
    ),
)
GENERATED_ARGV = st.one_of(
    st.tuples(
        st.just("criterion"),
        _flags(("--a", "--b"), (*NONORTH, "--p-plus", "--tolerance")),
    ),
    st.tuples(
        st.just("boundary"),
        st.tuples(
            _flags((), NONORTH),
            # past the cap as well; valid counts stay small to keep examples fast
            _flags(
                (),
                ("--points",),
                st.one_of(st.integers(-5, 10_000), st.integers(MAX_SAMPLES + 1, 10**12)),
            ),
        ).map(lambda pair: {**pair[0], **pair[1]}),
    ),
    st.tuples(st.just("coherent"), _flags(("--alpha", "--eta", "--a", "--b"), ())),
    SQUEEZED_ARGV,
    st.tuples(
        st.just("table1"),
        st.fixed_dictionaries({"--theta-points": st.integers(-5, 300), "--mode": MODES}),
    ),
)


def _check_generated(case):
    # a report whose numbers are all finite, or one error line; a numpy
    # RuntimeWarning fails the run under the suite's warning filter
    command, flags = case
    argv = [command, *(f"{flag}={value if isinstance(value, str) else repr(value)}"
                       for flag, value in flags.items())]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(f"{name} in report"))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(GENERATED_ARGV)
def test_main_only_exits_0_2_or_3_on_generated_argv(case):
    _check_generated(case)


# the storage scan's records are where the overlap algebra meets extreme
# floats, so they get a run of their own
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(SQUEEZED_ARGV)
@example(("squeezed", {  # the difference-of-squares spread went negative here
    "--squeezing-in-db": 3.0, "--antisqueezing-in-db": 1500.0,
    "--squeezing-out-db": 3.0, "--antisqueezing-out-db": 6.0, "--theta-points": 64,
}))
def test_squeezed_exits_0_or_2_on_generated_records(case):
    _check_generated(case)


def _subparsers(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


SUBPARSERS = _subparsers(cli.build_parser())
COMMANDS = list(SUBPARSERS)
# every subcommand flag that takes a value, so that a case can carry flags of
# another subcommand, which only the full parser knows
OTHER_FLAGS = sorted({
    option
    for sub in SUBPARSERS.values()
    for action in sub._actions
    if action.nargs != 0
    for option in action.option_strings
})


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            # by repr, so that a NaN flag value compares equal to itself
            result = repr(sorted(vars(parser.parse_args(argv)).items()))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, usage",
    [
        ([], "usage: qdverify"),
        *(([name], f"usage: qdverify {name}") for name in COMMANDS),
        # main reads the subcommand only from argv[0], so these two take the
        # full parser
        (["-h", "criterion"], "usage: qdverify"),
        (["--", *CRITERION_ARGV], None),
    ],
    ids=["top", *COMMANDS, "help-then-command", "dashdash-then-command"],
)
def test_help_matches_the_full_parser(argv, usage):
    full = _parse(cli.build_parser(), [*argv, "--help"])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--help"])
    assert (code, out.getvalue(), err.getvalue()) == full
    if usage is not None:
        assert code == 0 and out.getvalue().startswith(f"{usage} ")


STRAY_FLAGS = st.lists(
    st.tuples(st.sampled_from(OTHER_FLAGS), st.sampled_from(["0.5", "3", "as_published", "x"])),
    max_size=2,
)


# the generated argvs, and oracle-check's, which only parse here
PARSED_ARGV = st.one_of(
    GENERATED_ARGV,
    st.tuples(
        st.just("oracle-check"),
        _flags(
            (),
            ("--grid-size", "--resolution", "--random-schemes", "--pairs", "--dim", "--seed",
             "--tolerance"),
            st.one_of(st.integers(-5, 100), edge_floats),
        ),
    ),
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(PARSED_ARGV, STRAY_FLAGS, st.booleans())
def test_subcommand_parser_parses_like_the_full_parser(case, stray, equals):
    # the same Namespace, or the same exit code and stderr, with or without
    # the flags of the subcommands the argv does not invoke
    command, flags = case
    pairs = [(f, v if isinstance(v, str) else repr(v)) for f, v in flags.items()] + stray
    tail = [f"{f}={v}" for f, v in pairs] if equals else [t for pair in pairs for t in pair]
    argv = [command, *tail]
    assert _parse(cli.build_parser(command), argv) == _parse(cli.build_parser(), argv)


def test_consecutive_in_process_calls_match_fresh_processes(tmp_path):
    # one process running every subcommand and an input error, forwards and
    # then backwards, writes what a fresh process writes for each
    cases = [
        CRITERION_ARGV,
        CURVE_ARGVS["boundary"],
        ["coherent", "--alpha", "1.0", "--eta", "0.5", "--a", "0.9", "--b", "0.9"],
        CURVE_ARGVS["squeezed"],
        ["table1", "--theta-points", "64"],
        SMALL_ORACLE_ARGV,
        [*CRITERION_ARGV, "--gamma", "0.3"],
    ]
    fresh = [_fresh_cli(argv, tmp_path)[:3] for argv in cases]
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 0, 2]
    for argv, expected in [*zip(cases, fresh), *reversed(list(zip(cases, fresh)))]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        assert (code, out.getvalue(), err.getvalue()) == expected, argv


def _count_parsers(monkeypatch, argv):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        main(argv)
    return len(built)


@pytest.mark.parametrize(
    "argv, parsers",
    [
        (CRITERION_ARGV, 2),
        ([*CRITERION_ARGV, "--gamma", "0.3"], 2),
        *(([name, "--help"], 2) for name in COMMANDS),
        (["-h"], 7),
        (["nope"], 7),
        ([], 7),
    ],
    ids=["criterion", "input-error", *(f"{name}-help" for name in COMMANDS), "top-help",
         "unknown", "empty"],
)
def test_main_builds_the_invoked_subparser_only(monkeypatch, argv, parsers):
    # the top-level parser and one subparser, or all six for a top-level call
    assert _count_parsers(monkeypatch, argv) == parsers


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_parser_registers_one_subcommand(command):
    assert list(_subparsers(cli.build_parser(command))) == [command]


def test_build_parser_refuses_an_unknown_subcommand():
    with pytest.raises(ValueError, match="'nope'") as info:
        cli.build_parser("nope")
    assert all(name in str(info.value) for name in COMMANDS)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nope"], "argument command: invalid choice: 'nope'"),
        ([], "the following arguments are required: command"),
    ],
)
def test_top_level_errors_name_the_command_argument(capsys, argv, message):
    # the full parser names the positional by its dest, not by a metavar
    code, cap = _run(capsys, argv)
    assert (code, cap.out) == (2, "")
    assert f"qdverify: error: {message}" in cap.err


# a complete argv of each subcommand, plus a flag that only another one has
FOREIGN_FLAG_ARGV = {
    "criterion": [*CRITERION_ARGV, "--points", "5"],
    "boundary": [*CURVE_ARGVS["boundary"], "--alpha", "1.0"],
    "coherent": ["coherent", "--alpha", "1.0", "--eta", "0.5", "--a", "0.9", "--b", "0.9",
                 "--B", "0.5"],
    "squeezed": [*CURVE_ARGVS["squeezed"], "--grid-size", "2"],
    "table1": ["table1", "--a", "0.9"],
    "oracle-check": ["oracle-check", "--record", "r.json"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_foreign_flag_error_names_all_six_subcommands(command):
    # the error prints the top-level usage, which must not shrink to the one
    # subcommand that main registered
    argv = FOREIGN_FLAG_ARGV[command]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert (code, out.getvalue(), err.getvalue()) == _parse(cli.build_parser(), argv)
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("usage: qdverify [-h] [--version]")
    assert f"{{{','.join(COMMANDS)}}} ..." in err.getvalue()
    assert err.getvalue().endswith(
        f"qdverify: error: unrecognized arguments: {' '.join(argv[-2:])}\n"
    )
