#!/usr/bin/env python3
"""Run the benchmark once and append its result to ``BENCH_<workload>.json``.

    python3 tools/bench_record.py --workload narrow-score --seed 1 --seconds 20
    python3 tools/bench_record.py --workload wide-score --seed 1 --seconds 20 \\
        --checkout ../parent --note "parent"

It runs ``perfbench/run.py`` of a checkout (this one by default) as it is,
untraced, from that checkout's root, and reads the last two lines it prints: the
``info {...}`` line (``git_sha``, ``src_lines``, ``python``, ``numpy``) and the
final JSON line (``correct``, ``attempted``, ``failed`` and each metric's
value and unit). One entry per run, with the seed and ``--seconds``, is
appended to ``BENCH_<workload>.json`` at the root of this
repository, a JSON list in the order the runs were recorded, one entry per
line. The run's own output is echoed. An entry marked ``backfilled`` was not
recorded by this tool but copied from an earlier report; its ``source`` says
from where.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INFO_KEYS = ("git_sha", "src_lines", "python", "numpy")


def dump(entries: list) -> str:
    """A JSON list of one entry per line, so that a new run adds one line."""
    return "[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n"


def entry_from_output(stdout: str, args) -> dict:
    """The entry of one run from the ``info`` line and the final JSON line
    of ``perfbench/run.py``'s standard output."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("info "):
        raise ValueError("perfbench/run.py did not end with an info line and a JSON line")
    info, result = json.loads(lines[-2][len("info "):]), json.loads(lines[-1])
    return {
        **{key: info[key] for key in INFO_KEYS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "recorded": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "note": args.note,
        "backfilled": False,
        **{key: result[key] for key in ("correct", "attempted", "failed", "metrics")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the checkout whose perfbench/run.py runs (default: this one)")
    parser.add_argument("--note", default="", help="a few words on what was measured")
    args = parser.parse_args()
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    run = subprocess.run(argv, cwd=args.checkout, capture_output=True, text=True)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    if run.returncode:
        return run.returncode
    entry = entry_from_output(run.stdout, args)
    path = ROOT / f"BENCH_{args.workload}.json"
    entries = json.loads(path.read_text()) if path.is_file() else []
    path.write_text(dump(entries + [entry]))
    print(f"recorded entry {len(entries) + 1} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
