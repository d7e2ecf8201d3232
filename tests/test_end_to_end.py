"""End-to-end differential test: ``cli.main``, run in-process on random small
corpora of the benchmark's generator, checked step by step against the
benchmark's independent pure-Python oracle, as the benchmark checks it.

``perfbench/run.py`` is imported read-only for its workloads (each step's
argv and check) and its ``reference``. Where the oracle divides by zero, the
CLI's documented outcome is asserted instead: with fewer than 2 scored maps
or a constant measure, ``score`` exits 0 without z-score columns and
``rank`` exits 2 with its first error; with a rank file of one class or a
constant ranking, ``corr`` exits 2. The ``textnet`` step is left out: the
oracle asks for a unit-norm centrality even when the component is empty.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gementropy import cli


def _load_run():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()
STEPS = {
    name: [step for step in workload.steps if step.name != "textnet"]
    for name, workload in run.WORKLOADS.items()
}
RANK_ERRORS = re.compile(
    r"error: (no scorable maps in the input file|need at least 2 scored maps to normalize"
    r"|measure '\w+' is constant across all maps; z-scores are undefined)$"
)
CORR_ERRORS = re.compile(
    r"error: .*(need at least 2 classes to correlate, got 1|tau undefined: one ranking is constant)$"
)


def _main(argv: list[str]) -> tuple[int, list[str]]:
    """The exit code and stderr lines of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().splitlines()


def _taus_defined(rank_dir: Path) -> bool:
    """Whether the oracle's tau-b is defined between every two rank files."""
    scores = [
        {row[1]: float(row[3]) for row in run.oracle.read_csv_rows(rank_dir / name)[1]}
        for name in run.RANK_FILES
    ]
    try:
        for a in scores:
            for b in scores:
                keys = sorted(a)
                run.oracle.tau_b([a[k] for k in keys], [b[k] for k in keys])
    except ZeroDivisionError:
        return False
    return True


def _check_degenerate_score(out: Path, step, stderr: list[str]) -> None:
    """Normalization skipped: a warning unless no map was scored, and the
    raw measures alone."""
    header, _ = run.oracle.read_table(next((out / step.name).glob("scores.*")))
    assert not any(name.startswith(("z_", "adjusted_")) for name in header), header
    assert stderr == [] or (
        len(stderr) == 1
        and stderr[0].startswith("warning: ")
        and stderr[0].endswith("; normalization skipped")
    ), stderr


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(STEPS)), st.integers(1, 300), st.integers(0, 2**32 - 1))
@example("narrow-score", 1, 0)  # one scored map: score skips normalization
@example("classes-textnet", 1, 0)  # rank: fewer than 2 scored maps
@example("classes-textnet", 2, 298)  # both maps in one class: corr has one class
def test_cli_matches_oracle(shape, n_maps, seed):
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir, out = Path(tmp) / "corpus", Path(tmp) / "out"
        corpus_dir.mkdir()
        for name, data in run.corpus.generate(shape, n_maps, seed).items():
            (corpus_dir / name).write_bytes(data)
        try:
            expected = run.reference(shape, corpus_dir)
        except ZeroDivisionError:
            expected = None
        for step in STEPS[shape]:
            code, stderr = _main(step.args(corpus_dir, out))
            if step.name == "corr" and not _taus_defined(out / "rank"):
                assert code == 2 and CORR_ERRORS.match(stderr[0]), stderr
            elif expected is not None:
                assert (code, stderr) == (0, [])
                assert step.check(corpus_dir, out, expected) == []
            elif step.name == "score":
                assert code == 0
                _check_degenerate_score(out, step, stderr)
            else:  # rank: nothing to correlate after it
                assert code == 2 and RANK_ERRORS.match(stderr[0]), stderr
                break
