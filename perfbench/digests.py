"""Record, per seed, the verdict digest of the first pass of each workload.

    python3 perfbench/digests.py [--seeds 500]

Run from the root of a checkout; writes perfbench/digests.json.  run.py
compares a run's digest with the recorded one for its seed and marks the
run incorrect when they differ, so a change that flips any non-marginal
verdict, or its degenerate reason, is caught.  Rerun this only when the
benchmark's inputs change; a change to the program must leave the file
as it is.  The CLI workload's first pass is replayed here through
``cli.main`` in-process, which produces the same reports as the fresh
processes (each run checks its reports against the library).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from cases import run_inprocess  # noqa: E402
from common import NO_TRACE  # noqa: E402
from worker import run_loop, verdict_digest  # noqa: E402
from workloads import CliCold, DecisionStream  # noqa: E402

from qdverify import cli  # noqa: E402

OUT = Path(__file__).resolve().parent / "digests.json"


def first_pass_digest(wl, ops) -> str:
    res = run_loop(wl, ops, 0.0, NO_TRACE, passes=1)
    if res["outcomes"].count("failed"):
        raise SystemExit(f"{wl.name}: first pass has failures: {res['failures']}")
    return verdict_digest(res["first_verdicts"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=500, help="record seeds 0 .. N-1")
    args = parser.parse_args()
    inprocess = lambda argv: run_inprocess(cli.main, argv)  # noqa: E731
    out = {"cli_cold": {}, "decision_stream": {}}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for seed in range(args.seeds):
            wl = CliCold(seed, tmp)
            # The malformed slots carry no verdict; skip them (two raise in-process).
            ops = [op for op in wl.pass_ops(0, runner=inprocess) if not op.kind.startswith("cli.malformed")]
            out["cli_cold"][str(seed)] = first_pass_digest(wl, ops)
            wl = DecisionStream(seed, tmp)
            out["decision_stream"][str(seed)] = first_pass_digest(wl, wl.pass_ops(0))
    OUT.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
