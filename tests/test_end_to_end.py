"""End-to-end differential tests: ``cli.main``, run in-process on random small
corpora of the benchmark's generator, checked step by step against the
benchmark's independent pure-Python oracle, as the benchmark checks it,
``outliers`` against the oracle's z-scores, sorted and cut here, and ``stats``
against the oracle's raw measures, summarized here.

``perfbench/run.py`` is imported read-only for its workloads (each step's
argv and check) and its ``reference``. Where the oracle divides by zero, the
CLI's documented outcome is asserted instead: with fewer than 2 scored maps
or a constant measure, ``score`` exits 0 without z-score columns, and
``rank`` and ``outliers`` exit 2 with an error that names the crosswalk;
with a rank file of one class or a constant ranking, ``corr`` exits 2. The
``textnet`` step is left out: the oracle asks for a unit-norm centrality
even when the component is empty.
"""

from __future__ import annotations

import importlib.util
import math
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_cli


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
CORPUS_ERRORS = (
    r"(no scorable maps in the input file|need at least 2 scored maps to normalize"
    r"|measure '\w+' is constant across all maps; z-scores are undefined)$"
)
CORR_ERRORS = re.compile(
    r"error: .*(need at least 2 classes to correlate, got 1|tau undefined: one ranking is constant)$"
)


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
            code, stderr = run_cli(step.args(corpus_dir, out))
            if step.name == "corr" and not _taus_defined(out / "rank"):
                assert code == 2 and CORR_ERRORS.match(stderr[0]), stderr
            elif expected is not None:
                assert (code, stderr) == (0, [])
                assert step.check(corpus_dir, out, expected) == []
            elif step.name == "score":
                assert code == 0
                _check_degenerate_score(out, step, stderr)
            else:  # rank: nothing to correlate after it
                gems = re.escape(str(corpus_dir / "gems.txt"))
                assert code == 2 and re.match(f"error: {gems}: {CORPUS_ERRORS}", stderr[0]), stderr
                break


TIE = 1e-9  # z-scores this close may order either way: the oracle sums with math.fsum


def _check_outliers(got: list, z: dict, threshold=None, top_fraction=None) -> None:
    """The (source, score) rows of an outliers report against the oracle's
    z-scores ``z`` by source, sorted by (-z, source) and cut as
    ``detect_outliers`` documents: the maps above the threshold, or above the
    z-score at 0-based rank floor(fraction * N), at most that many. A map may
    stand in for the expected one only where their z-scores are within TIE,
    and a list may end early or late only at z-scores within TIE of the cut;
    the report's own scores tie by source."""
    ranked = sorted(z.items(), key=lambda item: (-item[1], item[0]))
    if top_fraction is not None:
        allowed = int(top_fraction * len(ranked))
        assert len(got) <= allowed
        threshold = ranked[allowed][1] if allowed < len(ranked) else -math.inf
    want = [(source, value) for source, value in ranked if value > threshold]

    def near(a, b):
        return abs(a - b) <= TIE * max(1.0, abs(b))

    assert len({source for source, _ in got}) == len(got)
    assert got == sorted(got, key=lambda row: (-row[1], row[0]))
    for source, score in got:
        assert abs(score - z[source]) <= run.oracle.FULL_TOL * max(1.0, abs(z[source])), source
    for i in range(max(len(got), len(want))):
        if i < min(len(got), len(want)):
            assert got[i][0] == want[i][0] or near(z[got[i][0]], want[i][1]), (i, got, want)
        else:
            assert near(z[(got if i < len(got) else want)[i][0]], threshold), (i, got, want)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(run.WORKLOADS)), st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.floats(-3, 3), st.floats(0, 1, exclude_min=True))
@example("narrow-score", 1, 0, 0.0, 1.0)  # one scored map: no z-scores
@example("classes-textnet", 40, 7, 0.5, 0.5)  # cuts inside the list
def test_outliers_match_oracle(shape, n_maps, seed, threshold, top_fraction):
    """``outliers`` on every measure, with a threshold and with a top
    fraction, in JSON, whose scores keep full precision."""
    with tempfile.TemporaryDirectory() as tmp:
        gems = Path(tmp) / "gems.txt"
        gems.write_bytes(run.corpus.generate(shape, n_maps, seed)["gems.txt"])
        try:
            maps = run.oracle.score_corpus(gems.read_text(encoding="utf-8"))["maps"]
        except ZeroDivisionError:
            maps = None
        for measure in run.oracle.Z_NAMES:
            z = maps and {row["source"]: row[measure] for row in maps}
            for cut, value in (("threshold", threshold), ("top-fraction", top_fraction)):
                out = Path(tmp) / f"{measure}-{cut}"
                code, stderr = run_cli(["outliers", "--gems", str(gems), "--measure", measure,
                                        f"--{cut}", repr(value), "--format", "json",
                                        "--out", str(out)])
                if maps is None:
                    errors = f"error: {re.escape(str(gems))}: {CORPUS_ERRORS}"
                    assert code == 2 and re.match(errors, stderr[0]), stderr
                    continue
                assert (code, stderr) == (0, [])
                _, rows = run.oracle.read_table(out / f"outliers_{measure}.json")
                _check_outliers(rows, z, **{cut.replace("-", "_"): value})


def _summary(values: list[float]) -> dict:
    """count, mean, sample std (n-1; 0.0 for one value), min, linear
    quartiles (numpy's default method) and max of ``values``."""
    n, ordered = len(values), sorted(values)
    mean = math.fsum(values) / n
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in values) / (n - 1)) if n > 1 else 0.0
    quartiles = {}
    for name, q in (("q25", 0.25), ("q50", 0.5), ("q75", 0.75)):
        position = (n - 1) * q
        lo = math.floor(position)
        hi = min(lo + 1, n - 1)
        quartiles[name] = ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)
    return {"count": n, "mean": mean, "std": std, "min": ordered[0], **quartiles,
            "max": ordered[-1]}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(run.WORKLOADS)), st.integers(1, 300), st.integers(0, 2**32 - 1))
@example("narrow-score", 1, 0)  # one scored map: std 0.0
@example("narrow-score", 1, 32)  # one no-match map: nothing to describe
def test_stats_matches_oracle(shape, n_maps, seed):
    """``stats`` in JSON, whose values keep full precision, against the
    oracle's h_a, h_b and ur of every scored map."""
    with tempfile.TemporaryDirectory() as tmp:
        gems = Path(tmp) / "gems.txt"
        gems.write_bytes(run.corpus.generate(shape, n_maps, seed)["gems.txt"])
        # the raw measures alone: the oracle's z-scores divide by zero below
        # 2 maps and on a constant measure, which stats never normalizes
        with mock.patch.object(run.oracle, "z_scores", lambda values: [0.0] * len(values)):
            maps = run.oracle.score_corpus(gems.read_text(encoding="utf-8"))["maps"]
        out = Path(tmp) / "out"
        code, stderr = run_cli(
            ["stats", "--gems", str(gems), "--format", "json", "--out", str(out)])
        if not maps:
            assert (code, stderr) == (2, [f"error: {gems}: no scorable maps in the input file"])
            return
        assert (code, stderr) == (0, [])
        header, rows = run.oracle.read_table(out / "stats.json")
        assert header == ["measure", "count", "mean", "std", "min", "q25", "q50", "q75", "max"]
        assert [row[0] for row in rows] == list(run.oracle.MEASURES)
        for row, measure in zip(rows, run.oracle.MEASURES):
            want = _summary([m[measure] for m in maps])
            got = dict(zip(header[1:], row[1:]))
            # the oracle adds a map's column entropies in another order, so
            # its h_a can differ in the last bits; its logarithms are the CLI's
            for name in ("count",) if measure == "h_a" else ("count", "min", "max"):
                assert got[name] == want[name], (measure, name, got, want)
            for name, value in want.items():
                assert abs(got[name] - value) <= run.oracle.FULL_TOL * max(1.0, abs(value)), (
                    measure, name, got, want)
