"""Run one workload in a fresh interpreter and print its raw measurements.

Started by run.py from the root of a checkout, with ``src`` on
PYTHONPATH and the BLAS thread count pinned::

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Prints ``READY`` once imports, input generation and warm-up are done,
then ``SPEED <before> <after>``, the speed probes taken just before the
imports and just after ``READY``, then (unless ``--setup-only``) one JSON
line of results.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from common import (
    DEFECT,
    FAILED,
    NO_TRACE,
    OK,
    PROBE_NOMINAL_S,
    Tracer,
    probe,
    quantile,
    tail_percentile,
)

#: Spans whose calls, median duration and busy share are per-layer metrics,
#: with the unit of the median.
LAYER_SPANS = {
    "criterion.qd_criterion": "us",
    "criterion.qd_criterion_numeric": "us",
    "criterion.boundary_curve": "us",
    "applications.squeezed_storage_analysis": "us",
    "applications.benchmark_table": "us",
    "applications.coherent_verify": "us",
    "applications.estimate_fidelity_from_clicks": "us",
    "cli.main": "us",
    "mp_oracle.optimize_scheme": "ms",
    "fock_oracle.squeezed_thermal": "ms",
    "fock_oracle.uhlmann_fock_mixed": "ms",
    "fock_oracle.uhlmann_fock_pure": "ms",
    "fock_oracle.quadrature_moments_fock": "ms",
    "gaussian.uhlmann_fidelity_gaussian": "us",
    "quadrature_bounds.squeezed_vacuum_bound": "us",
}
SUBCOMMANDS = ("criterion", "coherent", "boundary", "squeezed", "table1", "oracle-check")
SCALE = {"us": 1e6, "ms": 1e3}
MAX_FAILURE_DETAILS = 5
#: Least time between two speed probes; a probe follows every operation
#: longer than this.
PROBE_EVERY_S = 0.25
#: Half-width of the window of probes whose median gives the machine speed
#: at an operation: wide enough to smooth the probe's own jitter, narrow
#: enough to follow the drift.
PROBE_WINDOW_S = 2.0
#: op_tail_ms is the median of the tails of this many consecutive parts.
TAIL_CHUNKS = 3


def run_loop(wl, first_ops, seconds, tracer, *, passes=None, whole_passes=False):
    """Closed loop over passes until ``seconds`` have gone by, or ``passes``.

    Pass 0 always completes.  Each operation's program time is taken around
    ``op.run`` alone; its output check runs after, outside that time.  The
    machine-speed probe runs between operations, at most every
    PROBE_EVERY_S.
    """
    times, slots, outcomes, failures, probe_idx = [], [], [], [], []
    first_verdicts: list = []
    probes, probe_at = [], []

    def take_probe():
        span = tracer.open("bench.probe")
        probe_at.append(time.perf_counter())
        probes.append(probe())
        tracer.close(span)
        return time.perf_counter()

    begin = time.perf_counter()
    last_probe = take_probe()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    stop = False
    while not stop and (passes is None or i < passes):
        ops = first_ops if i == 0 else wl.pass_ops(i)
        for slot, op in enumerate(ops):
            if passes is None and not whole_passes and i > 0 and time.perf_counter() >= deadline:
                stop = True
                break
            tracer.op_id += 1
            span = tracer.open(f"op.{op.kind}")
            t0 = time.perf_counter()
            try:
                out, err = op.run(tracer.call), None
            except Exception as exc:  # the loop reports a failing operation and goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            tracer.close(span)
            span = tracer.open("bench.check")
            try:
                outcome, detail = (FAILED, err) if err else op.check(out)
                if i == 0 and outcome == OK:
                    first_verdicts.extend(op.verdicts(out))
            except Exception as exc:  # a check that raises is a failed operation
                outcome, detail = FAILED, f"check raised {type(exc).__name__}: {exc}"
            tracer.close(span)
            times.append(t1 - t0)
            probe_idx.append(len(probes) - 1)
            slots.append(slot)
            outcomes.append(outcome)
            if outcome == FAILED and len(failures) < MAX_FAILURE_DETAILS:
                failures.append(f"pass {i} slot {slot} {op.kind}: {detail}")
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                last_probe = take_probe()
        else:
            i += 1
            stop = passes is None and time.perf_counter() >= deadline
    take_probe()
    return {
        # From the first probe to the last, so that every span falls inside.
        "wall": time.perf_counter() - begin,
        "passes": i,
        "times": times,
        "speed": local_speed(probes, probe_at, probe_idx),
        "probe_s": quantile(sorted(probes), 0.5),
        "slots": slots,
        "outcomes": outcomes,
        "failures": failures,
        "first_verdicts": first_verdicts,
    }


def local_speed(probes, probe_at, probe_idx) -> list[float]:
    """Per operation: PROBE_NOMINAL_S over the median probe near it."""
    smoothed = []
    lo = hi = 0
    for at in probe_at:
        while probe_at[lo] < at - PROBE_WINDOW_S:
            lo += 1
        while hi < len(probe_at) and probe_at[hi] <= at + PROBE_WINDOW_S:
            hi += 1
        smoothed.append(PROBE_NOMINAL_S / quantile(sorted(probes[lo:hi]), 0.5))
    return [smoothed[k] for k in probe_idx]


def summarise(res: dict) -> dict:
    raw = sorted(res["times"])
    in_order = [t * f for t, f in zip(res["times"], res["speed"])]
    times = sorted(in_order)
    n = len(times)
    # The tail of each third of the run, then the median of the three: a
    # burst of host stalls in one third does not move it.  Runs too short to
    # give every third a tail above p50 use the whole run.
    size = -(-n // TAIL_CHUNKS) if n >= 20 * TAIL_CHUNKS else n
    chunks = [sorted(in_order[k:k + size]) for k in range(0, n, size)]
    pcts = [tail_percentile(len(c)) for c in chunks]
    tails = [quantile(c, p / 100.0) for c, p in zip(chunks, pcts)]
    mid = sorted(range(len(tails)), key=tails.__getitem__)[len(tails) // 2]
    # ok_frac weights each slot of the deck equally, so it is the deck's
    # share of contract-meeting inputs however far the last pass got.
    by_slot: dict[int, list[bool]] = {}
    for slot, outcome in zip(res["slots"], res["outcomes"]):
        by_slot.setdefault(slot, []).append(outcome == OK)
    ok_frac = sum(sum(v) / len(v) for v in by_slot.values()) / len(by_slot)
    failed = res["outcomes"].count(FAILED)
    defects = res["outcomes"].count(DEFECT)
    return {
        "attempted": n,
        "failed": failed,
        "defects": defects,
        "failed_frac": (failed + defects) / n,
        "ok_frac": ok_frac,
        "ops_per_s": n / sum(times),
        "op_p50_ms": quantile(times, 0.5) * 1e3,
        "op_tail_ms": tails[mid] * 1e3,
        "op_tail_pct": pcts[mid],
        "op_tail_beyond": sum(1 for t in chunks[mid] if t > tails[mid]),
        "op_tail_chunk_samples": len(chunks[mid]),
        "raw_op_p50_ms": quantile(raw, 0.5) * 1e3,
        "raw_ops_per_s": n / sum(raw),
        "probe_p50_ms": res["probe_s"] * 1e3,
        "passes": res["passes"],
        "failures": res["failures"],
        "verdict_digest": verdict_digest(res["first_verdicts"]),
    }


def verdict_digest(pairs: list) -> str:
    """Short hash of the (is_quantum_domain, degenerate) pairs of pass 0."""
    blob = json.dumps([[bool(q), d] for q, d in pairs]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def count_decompositions(tracer: Tracer):
    """Wrap numpy's Hermitian eigensolvers so each call is counted."""
    import numpy as np

    originals = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh")}

    def wrap(fn):
        def counted(*args, **kwargs):
            tracer.count("decomposition")
            return fn(*args, **kwargs)
        return counted

    def restore():
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)

    for name, fn in originals.items():
        setattr(np.linalg, name, wrap(fn))
    return restore


def layer_metrics(tracer: Tracer, traced: dict, plain: dict) -> dict:
    wall = traced["wall"]
    own = tracer.self_times()
    durations: dict[str, list[float]] = {}
    busy: dict[str, float] = {}
    top = 0.0
    for (name, start, end, parent, _), self_time in zip(tracer.spans, own):
        durations.setdefault(name, []).append(end - start)
        busy[name] = busy.get(name, 0.0) + self_time
        if parent is None:
            top += end - start
    out = {}
    for name, unit in LAYER_SPANS.items():
        d = sorted(durations.get(name, []))
        out[f"{name}.calls"] = len(d)
        out[f"{name}.p50_{unit}"] = quantile(d, 0.5) * SCALE[unit] if d else 0.0
        out[f"{name}.busy_frac"] = busy.get(name, 0.0) / wall
    for sub in SUBCOMMANDS:
        d = sorted(durations.get(f"cli.{sub}", []))
        out[f"cli.{sub}.wall_ms_p50"] = quantile(d, 0.5) * 1e3 if d else 0.0

    def decompositions(prefix: str) -> int:
        return sum(c for key, c in tracer.counts.items() if key.startswith(prefix))

    fidelities = sum(len(durations.get(f"fock_oracle.uhlmann_fock_{k}", [])) for k in ("mixed", "pure"))
    states = len(durations.get("fock_oracle.squeezed_thermal", []))
    out["fock_oracle.decompositions_per_fidelity"] = (
        decompositions("fock_oracle.uhlmann_fock_") / fidelities if fidelities else 0.0
    )
    out["fock_oracle.decompositions_per_state"] = (
        decompositions("") / states if states else 0.0
    )
    # Each wall time over its run's probe, so machine drift between the two
    # runs does not pass for tracing overhead.
    out["trace.overhead_frac"] = (
        (wall / traced["probe_s"]) / (plain["wall"] / plain["probe_s"]) - 1.0
    )
    out["trace.untimed_frac"] = 1.0 - top / wall
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    before = probe()
    from workloads import WORKLOADS

    os.makedirs(".perfbench", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=".perfbench")
    try:
        wl = WORKLOADS[name](seed, workdir)
        first = wl.pass_ops(0)
        wl.warm()
        # Keep the imported modules' objects out of full collections, which
        # otherwise cost ~40 ms, land on a random operation a few times a
        # run and decide the tail.
        gc.freeze()
        print("READY", flush=True)
        print(f"SPEED {before!r} {probe()!r}", flush=True)
        if "--setup-only" in argv:
            return 0
        if not trace:
            result = summarise(run_loop(wl, first, seconds, NO_TRACE))
        else:
            # Untraced half, then exactly the same passes again with spans on.
            plain = run_loop(wl, first, seconds / 2, NO_TRACE, whole_passes=True)
            tracer = Tracer()
            restore = count_decompositions(tracer)
            try:
                traced = run_loop(wl, wl.pass_ops(0), 0.0, tracer, passes=plain["passes"])
            finally:
                restore()
            result = summarise(traced)
            result["layers"] = layer_metrics(tracer, traced, plain)
            path = os.path.join(".perfbench", f"trace-{name}-seed{seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op_id"],
                           "spans": tracer.spans}, fh, separators=(",", ":"))
            result["trace_file"] = path
        who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        result["env"] = environment()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
