"""Golden reports: every subcommand on a small committed corpus, compared
byte for byte.

``tests/golden/corpus`` holds a seeded synthetic corpus: 300 maps of the
classes-textnet shape of ``perfbench/corpus.py`` (with its class ranges and
descriptions), a few descriptions that need CSV quoting or JSON escaping,
a ``code,probability`` file covering about 70% of the maps, and
``code_classes.csv``: a one-code class per source code, except every 40th
code, which joins one of three labels of several ranges.
``tests/golden/reports/<format>/<run>`` holds the files each run of
``RUNS`` writes, in CSV and JSON, and ``tests/golden/verify_example.txt`` the
standard output of ``gementropy verify-example``.

These files pin the report format. When a change to it is intended,
regenerate the reports from the repository root with

    PYTHONPATH=src python3 tests/test_golden.py

and review ``git diff tests/golden`` before committing it. Add
``--corpus`` to rebuild the corpus inputs first (they only change if the
generator in ``perfbench/corpus.py`` or ``build_corpus`` does).
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from gementropy import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus"
REPORTS = GOLDEN / "reports"
FORMATS = ("csv", "json")
RANK_MEASURES = ("z_alpha", "z_beta", "z_ur", "total")

# run name -> gementropy arguments; "{corpus}" is the corpus directory and
# "{rank}" the golden rank reports of the same format ("rank" runs first)
RUNS = {
    "score": ["score", "--gems", "{corpus}/gems.txt"],
    "score_variance": ["score", "--gems", "{corpus}/gems.txt", "--denominator", "variance"],
    "score_adjusted": [
        "score", "--gems", "{corpus}/gems.txt", "--weights", "1,2,1,1,1,1,1,1",
        "--frequencies", "{corpus}/frequencies.csv",
    ],
    "stats": ["stats", "--gems", "{corpus}/gems.txt"],
    "rank": ["rank", "--gems", "{corpus}/gems.txt", "--classes", "{corpus}/classes.csv"],
    "rank_codes": ["rank", "--gems", "{corpus}/gems.txt", "--classes", "{corpus}/code_classes.csv"],
    "corr": ["corr", *(f"{{rank}}/rank_{m}.{{fmt}}" for m in RANK_MEASURES)],
    "outliers": [
        "outliers", "--gems", "{corpus}/gems.txt", "--top-fraction", "1",
        "--descriptions", "{corpus}/descriptions.csv",
    ],
    "outliers_threshold": [
        "outliers", "--gems", "{corpus}/gems.txt", "--measure", "z_beta",
        "--threshold", "0.5",
    ],
    "textnet": [
        "textnet", "--gems", "{corpus}/gems.txt", "--top-fraction", "0.3",
        "--descriptions", "{corpus}/descriptions.csv",
    ],
}

# descriptions swapped in at every 25th code so the reports quote and escape
ODD_DESCRIPTIONS = (
    'Quoted "inner" words, and a comma',
    "Café crème brûlée, naïve — à la carte",
    "Line one\nline two",
    "Carriage\rreturn and\r\nwindows break",
    "Tab\tseparated; semicolon 100% sure",
    "",
)


def _argv(run: str, fmt: str, out: Path) -> list[str]:
    fields = {"corpus": CORPUS, "rank": REPORTS / fmt / "rank", "fmt": fmt}
    return [a.format(**fields) for a in RUNS[run]] + ["--format", fmt, "--out", str(out)]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("run", list(RUNS))
def test_reports_match_golden(tmp_path, run, fmt):
    expected = REPORTS / fmt / run
    assert cli.main(_argv(run, fmt, tmp_path)) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(p.name for p in expected.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name


def test_verify_example_matches_golden(capsys):
    """``verify-example`` prints the checks of the reference map 0052 as
    ``golden/verify_example.txt`` holds them."""
    assert cli.main(["verify-example"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / "verify_example.txt").read_bytes()


def build_corpus() -> None:
    """Write the corpus inputs: perfbench's classes-textnet generator (300
    maps, seed 7) plus ODD_DESCRIPTIONS, a frequency file and the
    one-code class table."""
    sys.path.insert(0, str(GOLDEN.parents[1] / "perfbench"))
    import corpus

    files = corpus.generate("classes-textnet", 300, 7)
    rows = list(csv.reader(io.StringIO(files["descriptions.csv"].decode())))
    for i, text in enumerate(ODD_DESCRIPTIONS):
        rows[1 + 25 * i][1] = text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    files["descriptions.csv"] = buf.getvalue().encode()

    rng = np.random.default_rng(7)
    codes = [row[0] for row in rows[1:]]
    covered = rng.random(len(codes)) < 0.7
    probs = rng.random(len(codes))
    files["frequencies.csv"] = (
        "code,probability\n"
        + "".join(f"{c},{p:.6f}\n" for c, p, k in zip(codes, probs, covered) if k)
    ).encode()

    sources = sorted({line.split()[0] for line in files["gems.txt"].decode().splitlines() if line})
    files["code_classes.csv"] = (
        "low,high,label\n"
        + "".join(
            f"{c},{c},Multi-range {i // 40 % 3}\n" if i % 40 == 0 else f"{c},{c},Code {c}\n"
            for i, c in enumerate(sources)
        )
    ).encode()

    CORPUS.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (CORPUS / name).write_bytes(data)


def regenerate() -> None:
    """Rewrite every golden report and ``verify_example.txt`` with the
    current code."""
    for fmt in FORMATS:
        for run in RUNS:
            out = REPORTS / fmt / run
            shutil.rmtree(out, ignore_errors=True)
            if cli.main(_argv(run, fmt, out)) != 0:
                raise SystemExit(f"run {run} ({fmt}) failed")
    with open(GOLDEN / "verify_example.txt", "w", encoding="utf-8", newline="") as fh:
        with contextlib.redirect_stdout(fh):
            if cli.main(["verify-example"]) != 0:
                raise SystemExit("verify-example failed")


if __name__ == "__main__":
    if "--corpus" in sys.argv[1:]:
        build_corpus()
    regenerate()
