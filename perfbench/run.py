"""qdverify benchmark: one command for every workload and metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decision_stream --seed 7 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The last line of stdout is the result object; the
line before it holds the details (environment, tail percentile, defect
count, verdict digest, setup samples).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import PROBE_NOMINAL_S

HERE = Path(__file__).resolve().parent
#: Set-up-only workers started per run; setup_s is the median of their
#: set-up times, each scaled by the speed probes the worker took around it.
SETUP_SAMPLES = 5
#: Pinned for every worker and every CLI process they start.
BLAS_THREADS = "1"
#: Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One fresh worker interpreter; ``setup_s`` is the time until READY."""

    def __init__(self, args, env, root: Path, setup_only: bool) -> None:
        cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
               str(args.seconds), str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        self.ready = line.strip() == "READY"

    def finish(self, timeout: float) -> str:
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        return out

    def scaled_setup_s(self, out: str) -> float:
        """Set-up time scaled by the probes the worker took around it."""
        before, after = (float(x) for x in out.split("SPEED", 1)[1].split()[:2])
        return self.setup_s * 2.0 * PROBE_NOMINAL_S / (before + after)


def import_metrics(env: dict, root: Path, repeats: int = 3) -> dict:
    """Import costs from ``python -X importtime``, median of ``repeats``."""
    script = (
        "import sys\n"
        "def n(): return sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import qdverify\n"
        "a = n()\n"
        "import qdverify.cli\n"
        "print(a, n())\n"
    )
    cumulative = {"qdverify": [], "qdverify.cli": [], "qdverify.criterion": [],
                  "qdverify.applications": [], "qdverify.mp_oracle": [],
                  "qdverify.fock_oracle": []}
    scipy_self, counts = [], None
    for _ in range(repeats):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", script], cwd=root,
                           env=env, capture_output=True, text=True, timeout=60, check=True)
        found = {}
        scipy_us = 0
        for line in p.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            self_us, cum_us, mod = line[len("import time:"):].split("|")
            mod = mod.strip()
            found[mod] = int(cum_us)
            if mod == "scipy" or mod.startswith("scipy."):
                scipy_us += int(self_us)
        for mod in cumulative:
            cumulative[mod].append(found[mod] / 1e3)
        scipy_self.append(scipy_us / 1e3)
        counts = [int(x) for x in p.stdout.split()]
    out = {f"import.{mod}_ms": statistics.median(v) for mod, v in cumulative.items()}
    out["import.scipy_ms"] = statistics.median(scipy_self)
    out["import.scipy_modules_qdverify"] = counts[0]
    out["import.scipy_modules_cli"] = counts[1]
    return out


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                       check=False)
    return p.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qdverify" / "cli.py").is_file():
        return fail("no qdverify source tree (src/qdverify) in the current directory")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = worker_env(root)
    setup_raw, setup = [], []
    for _ in range(SETUP_SAMPLES):
        w = Worker(args, env, root, setup_only=True)
        out = w.finish(timeout=60)
        if not w.ready or w.proc.returncode != 0:
            return fail("a set-up worker did not get ready")
        setup_raw.append(w.setup_s)
        setup.append(w.scaled_setup_s(out))
    w = Worker(args, env, root, setup_only=False)
    if not w.ready:
        w.finish(timeout=60)
        return fail("the worker did not get ready")
    try:
        out = w.finish(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        return fail("the worker ran out of time")
    if w.proc.returncode != 0:
        return fail(f"the worker exited with code {w.proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])

    values = dict(res.get("layers", {}))
    values.update({k: res[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms", "ok_frac",
                                       "peak_rss_mb")})
    values["setup_s"] = statistics.median(setup)
    if args.trace:
        values.update(import_metrics(env, root))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    reference = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    want_digest = reference.get(args.workload, {}).get(str(args.seed))
    digest_ok = want_digest is None or want_digest == res["verdict_digest"]
    if not digest_ok:
        print(f"error: verdict digest {res['verdict_digest']} differs from the recorded "
              f"{want_digest} for seed {args.seed}", file=sys.stderr)
    for line in res["failures"]:
        print(f"failed: {line}", file=sys.stderr)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {**res["env"], "nproc": os.cpu_count(), "git_commit": git_commit(root),
                "source_digest": source_digest(root)},
        "passes": res["passes"],
        "defects": res["defects"],
        "failed_frac": res["failed_frac"],
        "op_tail_pct": res["op_tail_pct"],
        "op_tail_beyond": res["op_tail_beyond"],
        "op_tail_chunk_samples": res["op_tail_chunk_samples"],
        "op_samples": res["attempted"],
        "verdict_digest": res["verdict_digest"],
        "verdict_digest_recorded": want_digest,
        "setup_samples_s": setup,
        "raw_setup_samples_s": setup_raw,
        "raw_op_p50_ms": res["raw_op_p50_ms"],
        "raw_ops_per_s": res["raw_ops_per_s"],
        "probe_p50_ms": res["probe_p50_ms"],
        "failures": res["failures"],
        "trace_file": res.get("trace_file"),
        "all_values": values,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": res["failed"] == 0 and digest_ok,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
