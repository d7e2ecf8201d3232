import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gementropy import cli

GEMS = """\
0052 02H43JZ 10000
0052 02H43KZ 10000
0052 02H43MZ 10000
0052 02H43KZ 10111
0052 02H43MZ 10111
0052 02PA0MZ 10112
0052 02PA3MZ 10112
0052 02PA4MZ 10112
0614 0VB04ZX 10000
0651 0UT9XZZ 10000
0651 0UT97ZZ 10000
0099 NOPCS 11000
"""

CLASSES = """\
low,high,label
00,04,Operations on Nervous System
05,07,Operations on Endocrine System
"""

DESCRIPTIONS = """\
code,description
0052,implantation or replacement of electrode into coronary venous system
0614,repair of blood vessel with tissue patch graft
0651,repair of other fistula of skin and subcutaneous tissue
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "gems.txt").write_text(GEMS)
    (tmp_path / "classes.csv").write_text(CLASSES)
    (tmp_path / "descriptions.csv").write_text(DESCRIPTIONS)
    return tmp_path


def _run(args):
    return cli.main([str(a) for a in args])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestScore:
    def test_scores_and_exclusions(self, workspace):
        for denominator in ("std", "variance"):
            args = ["score", "--gems", workspace / "gems.txt", "--out", workspace]
            if denominator == "variance":
                args += ["--denominator", "variance"]
            assert _run(args) == 0
            rows = _read_csv(workspace / "scores.csv")
            assert [r["source"] for r in rows] == ["0052", "0614", "0651"]
            first = rows[0]
            assert (first["m"], first["m0"], first["v"]) == ("8", "3", "9")
            assert float(first["h_a"]) == pytest.approx(4.26, abs=0.01)
            h_a = [float(r["h_a"]) for r in rows]
            mean = sum(h_a) / len(h_a)
            var = sum((x - mean) ** 2 for x in h_a) / (len(h_a) - 1)
            spread = var if denominator == "variance" else var**0.5
            for r, x in zip(rows, h_a):
                assert float(r["z_alpha"]) == pytest.approx((x - mean) / spread, rel=1e-4)
            excluded = _read_csv(workspace / "excluded.csv")
            assert [r["source"] for r in excluded] == ["0099"]
            assert excluded[0]["first_line"] == "12"

    def test_single_map_skips_normalization(self, workspace, capsys):
        (workspace / "one.txt").write_text("0052 02H43JZ 10000\n")
        assert _run(["score", "--gems", workspace / "one.txt", "--out", workspace]) == 0
        err = capsys.readouterr().err
        assert "normalization skipped" in err
        rows = _read_csv(workspace / "scores.csv")
        assert "z_alpha" not in rows[0]
        # one row: every column is constant, so H(A) is 0, not -0
        assert rows[0]["h_a"] == "0"

    def test_bad_frequency_file_rejected_without_z_scores(self, workspace, capsys):
        (workspace / "one.txt").write_text("0052 02H43JZ 10000\n")
        (workspace / "freq.csv").write_text("code,probability\n0052,7\n")
        args = ["score", "--gems", workspace / "one.txt", "--out", workspace]
        assert _run(args + ["--frequencies", workspace / "freq.csv"]) == 2
        assert "freq.csv:2" in capsys.readouterr().err

    def test_only_no_map_rows(self, workspace):
        (workspace / "nomap.txt").write_text("A1 NODX 11000\nB2 NOPCS 11000\n")
        assert _run(["score", "--gems", workspace / "nomap.txt", "--out", workspace]) == 0
        assert _read_csv(workspace / "scores.csv") == []
        assert len(_read_csv(workspace / "excluded.csv")) == 2

    def test_json_full_precision(self, workspace):
        assert (
            _run(
                [
                    "score",
                    "--gems",
                    workspace / "gems.txt",
                    "--out",
                    workspace,
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        records = json.loads((workspace / "scores.json").read_text())
        assert records[0]["source"] == "0052"
        assert abs(records[0]["h_a"] - 4.268941) < 1e-5
        # JSON keeps more digits than the 6-significant-digit CSV
        assert len(repr(records[0]["h_a"])) > 8

    def test_weights_column(self, workspace):
        assert (
            _run(
                [
                    "score",
                    "--gems",
                    workspace / "gems.txt",
                    "--out",
                    workspace,
                    "--weights",
                    "7,6,5,4,3,2,1",
                ]
            )
            == 0
        )
        rows = _read_csv(workspace / "scores.csv")
        assert float(rows[0]["h_a_weighted"]) == pytest.approx(0.513, abs=0.01)

    def test_short_weights_rejected(self, workspace, capsys):
        code = _run(
            ["score", "--gems", workspace / "gems.txt", "--out", workspace,
             "--weights", "1,2"]
        )
        assert code == 2
        assert "widest" in capsys.readouterr().err

    def test_infinite_weight_rejected(self, workspace, capsys):
        code = _run(
            ["score", "--gems", workspace / "gems.txt", "--out", workspace,
             "--weights", "1,1,1,1,1,1,inf"]
        )
        assert code == 2
        assert "finite positive" in capsys.readouterr().err
        # float alone would weigh the first position 10
        code = _run(
            ["score", "--gems", workspace / "gems.txt", "--out", workspace,
             "--weights", "1_0,2"]
        )
        assert code == 2
        first = capsys.readouterr().err.splitlines()[0]
        assert first == "error: --weights expects comma-separated numbers, got '1_0,2'"
        # nor a non-ASCII digit, which float alone reads ("１" as 1)
        code = _run(
            ["score", "--gems", workspace / "gems.txt", "--out", workspace,
             "--weights", "１,1,1,1,1,1,1"]
        )
        assert code == 2
        first = capsys.readouterr().err.splitlines()[0]
        assert first == "error: --weights expects comma-separated numbers, got '１,1,1,1,1,1,1'"

    def test_frequency_adjustment(self, workspace):
        (workspace / "freq.csv").write_text(
            "code,probability\n0052,0.0\n0614,1.0\n"
        )
        assert (
            _run(
                [
                    "score",
                    "--gems",
                    workspace / "gems.txt",
                    "--out",
                    workspace,
                    "--frequencies",
                    workspace / "freq.csv",
                ]
            )
            == 0
        )
        rows = {r["source"]: r for r in _read_csv(workspace / "scores.csv")}
        assert float(rows["0052"]["adjusted_z_alpha"]) == 0.0
        assert float(rows["0614"]["adjusted_z_alpha"]) == pytest.approx(
            float(rows["0614"]["z_alpha"]), abs=1e-9
        )
        # no frequency for 0651: adjusted fields stay empty
        assert rows["0651"]["adjusted_z_alpha"] == ""
        args = ["score", "--gems", workspace / "gems.txt", "--out", workspace,
                "--frequencies", workspace / "freq.csv", "--format", "json"]
        assert _run(args) == 0
        records = json.loads((workspace / "scores.json").read_text())
        assert [r["adjusted_z_beta"] for r in records][::2] == [0.0, None]
        # a file that covers no scored map adds no adjusted columns
        (workspace / "freq.csv").write_text("code,probability\n9999,0.5\n")
        assert _run(args) == 0
        records = json.loads((workspace / "scores.json").read_text())
        assert "adjusted_z_alpha" not in records[0]

    def test_parse_error_exit_code(self, workspace, capsys):
        (workspace / "bad.txt").write_text("0052 02H43JZ\n")
        assert _run(["score", "--gems", workspace / "bad.txt", "--out", workspace]) == 2
        assert ":1" in capsys.readouterr().err

    def test_byte_identical_reruns(self, workspace):
        out_a = workspace / "a"
        out_b = workspace / "b"
        for out in (out_a, out_b):
            assert _run(["score", "--gems", workspace / "gems.txt", "--out", out]) == 0
        assert (out_a / "scores.csv").read_bytes() == (out_b / "scores.csv").read_bytes()
        assert (out_a / "excluded.csv").read_bytes() == (out_b / "excluded.csv").read_bytes()


class TestStats:
    def test_reference_corpus(self, workspace):
        assert _run(["stats", "--gems", workspace / "gems.txt", "--out", workspace]) == 0
        rows = {r["measure"]: r for r in _read_csv(workspace / "stats.csv")}
        assert rows["h_a"]["count"] == "3"
        assert float(rows["h_a"]["max"]) == pytest.approx(4.26894, abs=1e-4)

    def test_constant_scores(self, workspace):
        (workspace / "const.txt").write_text("A1 X1 00000\nB2 Y2 00000\n")
        assert _run(["stats", "--gems", workspace / "const.txt", "--out", workspace]) == 0
        rows = {r["measure"]: r for r in _read_csv(workspace / "stats.csv")}
        assert float(rows["h_a"]["std"]) == 0.0

    def test_single_map_count(self, workspace):
        (workspace / "one.txt").write_text("0052 02H43JZ 10000\n")
        assert _run(["stats", "--gems", workspace / "one.txt", "--out", workspace]) == 0
        rows = _read_csv(workspace / "stats.csv")
        assert all(r["count"] == "1" for r in rows)

    def test_numpy_ma_not_imported(self, workspace):
        """``np.quantile`` imports ``numpy.ma`` on its first call; ``stats``
        takes its quartiles without it."""
        argv = ["stats", "--gems", str(workspace / "gems.txt"), "--out", str(workspace)]
        code = (
            "import sys; from gementropy import cli; "
            f"rc = cli.main({argv!r}); print(rc, 'numpy.ma' in sys.modules)"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.stdout.splitlines()[-1] == "0 False", out.stderr


def _fresh_process(*args):
    """A fresh interpreter run on ``args`` that imports gementropy from this
    source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )


def _fresh_python(code):
    """Standard output lines of ``code`` run by a fresh interpreter that
    imports gementropy from this source tree."""
    out = _fresh_process("-c", code)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_corr_runs_without_numpy(tmp_path):
    """Importing the CLI loads no numpy, and neither does a whole ``corr``
    run: its Kendall tau-b and report writer are plain Python. Nor does it
    load ``dataclasses``, which would bring ``inspect``."""
    (tmp_path / "r1.csv").write_text("class_id,score\nA,3\nB,2\nC,1\n")
    (tmp_path / "r2.json").write_text(
        json.dumps([{"class_id": c, "score": s} for c, s in (("A", 1), ("B", 3), ("C", 2))])
    )
    argv = ["corr", str(tmp_path / "r1.csv"), str(tmp_path / "r2.json"), "--out", str(tmp_path)]
    code = (
        "import sys; from gementropy import cli; print('numpy' in sys.modules); "
        f"rc = cli.main({argv!r}); "
        "print(rc, [m for m in ('numpy', 'dataclasses') if m in sys.modules])"
    )
    lines = _fresh_python(code)
    assert lines[0] == "False" and lines[-1] == "0 []"
    assert (tmp_path / "corr.csv").exists()


def test_score_imports_only_its_layers(workspace):
    """A CSV ``score`` run loads neither ``analysis``, ``textnet`` nor
    ``json``; a JSON one loads ``json`` alone of them."""
    for fmt, loads in (("csv", []), ("json", ["json"])):
        argv = ["score", "--gems", str(workspace / "gems.txt"), "--format", fmt,
                "--out", str(workspace / fmt)]
        code = (
            "import sys; from gementropy import cli; "
            f"rc = cli.main({argv!r}); "
            "print(rc, [m for m in ('gementropy.analysis', 'gementropy.textnet', 'json') "
            "if m in sys.modules])"
        )
        assert _fresh_python(code)[-1] == f"0 {loads}"
        assert (workspace / fmt / f"scores.{fmt}").exists()


def test_corr_on_csv_rank_files_runs_without_json(tmp_path):
    (tmp_path / "r1.csv").write_text("class_id,score\nA,3\nB,2\nC,1\n")
    (tmp_path / "r2.csv").write_text("class_id,score\nA,1\nB,3\nC,2\n")
    argv = ["corr", str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv"), "--out", str(tmp_path)]
    code = (
        "import sys; from gementropy import cli; print('json' in sys.modules); "
        f"rc = cli.main({argv!r}); print(rc, 'json' in sys.modules)"
    )
    lines = _fresh_python(code)
    assert lines[0] == "False" and lines[-1] == "0 False"


def test_measure_choices_are_the_outlier_measures():
    """The parser spells the measures out rather than import ``analysis``."""
    from gementropy import analysis

    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for command in ("outliers", "textnet"):
        measure = next(a for a in commands.choices[command]._actions if a.dest == "measure")
        assert tuple(measure.choices) == analysis.OUTLIER_MEASURES


@pytest.mark.parametrize("name", ["gem_io", "_kernels", "entropy", "analysis", "textnet"])
def test_package_attribute_loads_layer(name):
    """``getattr(gementropy, name)`` imports a layer nothing has loaded yet,
    as a tracer that wraps the layers' functions looks them up."""
    code = (
        "import sys, gementropy; "
        f"loaded = 'gementropy.{name}' in sys.modules; "
        f"module = getattr(gementropy, {name!r}); "
        f"print(loaded, module is sys.modules['gementropy.{name}'], module.__name__)"
    )
    assert _fresh_python(code) == [f"False True gementropy.{name}"]


def test_package_attribute_unknown_name():
    import gementropy

    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        gementropy.nope


class TestProcessEntry:
    """``python -m gementropy.cli`` enters through ``cli.run``, which freezes
    the live objects before the exit; in-process ``cli.main`` never does."""

    def test_exit_codes(self, workspace):
        good = _fresh_process(
            "-m", "gementropy.cli", "score", "--gems", workspace / "gems.txt",
            "--out", workspace / "out",
        )
        assert (good.returncode, good.stderr) == (0, "")
        (workspace / "bad.txt").write_text("0052 02H43JZ 10000\n0052 02H43KZ 1x000\n")
        (workspace / "mixed.txt").write_text("0099 NOPCS 11000\n0099 02H43JZ 10000\n")
        (workspace / "gap.txt").write_text(
            "0010 A1 10000\n0052 02H43JZ 10111\n0052 02H43KZ 10131\n")
        (workspace / "choice-gap.txt").write_text("0010 A1 10000\n0052 02H43KZ 10112\n")
        # GemErrors, a bad map's on the line of its first row, then an OSError
        for gems, text in (
            ("bad.txt", ":2: flag must be"),
            ("mixed.txt", "mixed.txt:1: source 0099 mixes no-match and regular entries"),
            ("gap.txt", "gap.txt:2: source 0052 has non-contiguous scenario numbers [1, 3]"),
            ("choice-gap.txt",
             "choice-gap.txt:2: source 0052 scenario 1 has non-contiguous choice lists [2]"),
            ("missing.txt", "No such file"),
        ):
            failed = _fresh_process(
                "-m", "gementropy.cli", "score", "--gems", workspace / gems, "--out", workspace
            )
            assert failed.returncode == 2 and failed.stdout == ""
            first = failed.stderr.splitlines()[0]
            assert first.startswith("error: ") and text in first
        usage = _fresh_process("-m", "gementropy.cli", "score")
        assert usage.returncode == 2 and usage.stderr.startswith("usage: ")

    @pytest.mark.parametrize("command", [
        ["score", "--format", "json"],
        ["rank", "--classes", "classes.csv"],
        ["textnet", "--descriptions", "descriptions.csv", "--top-fraction", "1"],
    ])
    def test_reports_match_in_process_main(self, workspace, capsys, command):
        def argv(out):
            return [command[0], "--gems", workspace / "gems.txt", "--out", workspace / out,
                    *(workspace / a if a.endswith(".csv") else a for a in command[1:])]

        assert _run(argv("main")) == 0
        stdout = capsys.readouterr().out
        process = _fresh_process("-m", "gementropy.cli", *argv("process"))
        assert process.returncode == 0, process.stderr
        assert process.stdout == stdout.replace(str(workspace / "main"), str(workspace / "process"))
        names = sorted(p.name for p in (workspace / "main").iterdir())
        assert names == sorted(p.name for p in (workspace / "process").iterdir())
        for name in names:
            assert (workspace / "process" / name).read_bytes() == (
                workspace / "main" / name
            ).read_bytes(), name

    def test_main_does_not_freeze(self, workspace):
        before = gc.get_freeze_count()
        assert _run(["rank", "--gems", workspace / "gems.txt", "--classes",
                     workspace / "classes.csv", "--out", workspace]) == 0
        assert _run(["score", "--gems", workspace / "missing.txt", "--out", workspace]) == 2
        assert gc.get_freeze_count() == before

    def test_module_run_freezes_before_exit(self, workspace):
        argv = ["gementropy", "score", "--gems", str(workspace / "gems.txt"),
                "--out", str(workspace)]
        code = (
            "import atexit, gc, runpy, sys; "
            "print(gc.get_freeze_count() > 0); "
            "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
            f"sys.argv = {argv!r}; "
            "runpy.run_module('gementropy.cli', run_name='__main__')"
        )
        lines = _fresh_python(code)
        assert lines[0] == "False" and lines[1].startswith("scored 3 maps")
        assert lines[-1] == "True"


class TestRank:
    def test_rank_files(self, workspace):
        assert (
            _run(
                [
                    "rank",
                    "--gems",
                    workspace / "gems.txt",
                    "--classes",
                    workspace / "classes.csv",
                    "--out",
                    workspace,
                ]
            )
            == 0
        )
        for measure in ("z_alpha", "z_beta", "z_ur", "total"):
            rows = _read_csv(workspace / f"rank_{measure}.csv")
            assert [r["rank"] for r in rows] == ["1", "2"]
        members = _read_csv(workspace / "class_members.csv")
        assert len(members) == 3

    def test_three_class_order_matches_manual_sums(self, tmp_path):
        # three one-to-many maps with visibly different sizes, one per class
        lines = []
        for source, count in (("0011", 6), ("0511", 3), ("0811", 1)):
            for i in range(count):
                lines.append(f"{source} T{i}XY{i} 10000")
        (tmp_path / "gems.txt").write_text("\n".join(lines) + "\n")
        (tmp_path / "classes.csv").write_text(
            "low,high,label\n00,04,A\n05,07,B\n08,09,C\n"
        )
        assert (
            _run(
                [
                    "rank",
                    "--gems",
                    tmp_path / "gems.txt",
                    "--classes",
                    tmp_path / "classes.csv",
                    "--out",
                    tmp_path,
                ]
            )
            == 0
        )
        members = _read_csv(tmp_path / "class_members.csv")
        sums = {}
        for row in members:
            triple = sum(
                float(row[k]) for k in ("z_alpha", "z_beta", "z_ur")
            )
            sums[row["class_id"]] = sums.get(row["class_id"], 0.0) + triple
        expected = [cid for cid, _ in sorted(sums.items(), key=lambda kv: -kv[1])]
        rows = _read_csv(tmp_path / "rank_total.csv")
        assert [r["class_id"] for r in rows] == expected

    def test_single_class(self, tmp_path):
        (tmp_path / "gems.txt").write_text(
            "0011 X1 00000\n0012 Y123 10000\n0012 Y223 10000\n"
        )
        (tmp_path / "classes.csv").write_text("low,high,label\n00,04,A\n")
        assert (
            _run(
                [
                    "rank",
                    "--gems",
                    tmp_path / "gems.txt",
                    "--classes",
                    tmp_path / "classes.csv",
                    "--out",
                    tmp_path,
                ]
            )
            == 0
        )
        assert len(_read_csv(tmp_path / "rank_total.csv")) == 1

    def test_header_only_class_table(self, tmp_path):
        """No ranges: one ``unclassified`` class holds every scored map."""
        corpus = Path(__file__).resolve().parent / "golden" / "corpus"
        (tmp_path / "classes.csv").write_text("low,high,label\n")
        args = ["rank", "--gems", corpus / "gems.txt", "--classes", tmp_path / "classes.csv"]
        assert _run([*args, "--out", tmp_path]) == 0
        rows = _read_csv(tmp_path / "rank_total.csv")
        assert [(r["class_id"], r["member_count"]) for r in rows] == [("unclassified", "293")]
        assert len(_read_csv(tmp_path / "class_members.csv")) == 293

    def test_carriage_return_label_reads_back(self, workspace, capsys):
        """A label holding a bare CR is quoted in the rank files, so ``corr``
        reads them back: the CR stays inside the cell, not a line end."""
        label = "Operations on\rNervous System"
        (workspace / "classes.csv").write_text(
            CLASSES.replace("Operations on Nervous System", f'"{label}"'), newline=""
        )
        args = ["rank", "--gems", workspace / "gems.txt", "--classes", workspace / "classes.csv"]
        assert _run([*args, "--out", workspace]) == 0
        rows = _read_csv(workspace / "rank_z_alpha.csv")
        assert label in [r["label"] for r in rows]
        assert f'"{label}"'.encode() in (workspace / "rank_z_alpha.csv").read_bytes()
        ranks = [workspace / f"rank_{m}.csv" for m in ("z_alpha", "z_beta", "z_ur", "total")]
        capsys.readouterr()
        assert _run(["corr", *ranks, "--out", workspace / "corr"]) == 0, capsys.readouterr().err
        assert len(_read_csv(workspace / "corr" / "corr.csv")) == 4


class TestCorr:
    def _write_rank(self, path, scores):
        ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "class_id", "score"])
            for rank, (cid, score) in enumerate(ordered, 1):
                writer.writerow([rank, cid, score])

    def test_identical_files(self, tmp_path):
        scores = {"A": 3.0, "B": 2.0, "C": 1.0}
        self._write_rank(tmp_path / "r1.csv", scores)
        self._write_rank(tmp_path / "r2.csv", scores)
        assert (
            _run(["corr", tmp_path / "r1.csv", tmp_path / "r2.csv", "--out", tmp_path])
            == 0
        )
        rows = _read_csv(tmp_path / "corr.csv")
        assert float(rows[0]["r2"]) == 1.0

    def test_reversed_files(self, tmp_path):
        self._write_rank(tmp_path / "r1.csv", {"A": 3.0, "B": 2.0, "C": 1.0})
        self._write_rank(tmp_path / "r2.csv", {"A": 1.0, "B": 2.0, "C": 3.0})
        assert (
            _run(["corr", tmp_path / "r1.csv", tmp_path / "r2.csv", "--out", tmp_path])
            == 0
        )
        rows = _read_csv(tmp_path / "corr.csv")
        assert float(rows[0]["r2"]) == -1.0

    def test_matrix_over_three_files(self, tmp_path):
        self._write_rank(tmp_path / "a.csv", {"A": 3.0, "B": 2.0, "C": 1.0})
        self._write_rank(tmp_path / "b.csv", {"A": 3.0, "B": 1.0, "C": 2.0})
        self._write_rank(tmp_path / "c.csv", {"A": 1.0, "B": 2.0, "C": 3.0})
        assert (
            _run(
                [
                    "corr",
                    tmp_path / "a.csv",
                    tmp_path / "b.csv",
                    tmp_path / "c.csv",
                    "--out",
                    tmp_path,
                ]
            )
            == 0
        )
        rows = _read_csv(tmp_path / "corr.csv")
        assert len(rows) == 3 and set(rows[0]) == {"ranking", "a", "b", "c"}

    def test_single_file_rejected(self, tmp_path, capsys):
        self._write_rank(tmp_path / "r1.csv", {"A": 1.0, "B": 2.0})
        with pytest.raises(SystemExit):
            _run(["corr", tmp_path / "r1.csv", "--out", tmp_path])

    def test_single_class_file_named(self, tmp_path, capsys):
        self._write_rank(tmp_path / "r1.csv", {"A": 1.0})
        self._write_rank(tmp_path / "r2.csv", {"A": 1.0})
        assert _run(["corr", tmp_path / "r1.csv", tmp_path / "r2.csv", "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'r1.csv'}: need at least 2 classes to correlate" in err
        assert " and " not in err
        assert not (tmp_path / "corr.csv").exists()

    def test_mismatched_class_sets(self, tmp_path, capsys):
        self._write_rank(tmp_path / "r1.csv", {"A": 1.0, "B": 2.0})
        self._write_rank(tmp_path / "r2.csv", {"A": 1.0, "C": 2.0})
        assert (
            _run(["corr", tmp_path / "r1.csv", tmp_path / "r2.csv", "--out", tmp_path])
            == 2
        )
        err = capsys.readouterr().err
        assert "B" in err and "C" in err

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("bad.json", '[{"class_id": "A", "score": 1}, {"score": 2}]', "record 1"),
            ("bad.json", '{"class_id": "A", "score": 1}', "list of records"),
            ("bad.csv", "rank,class_id,score\n1,A,3\n2,B\n", "bad.csv:3"),
            ("bad.csv", "rank,class_id,score\n1,A,high\n", "bad.csv:2"),
            ("bad.csv", "rank,class_id,score\n1,A,3\n2,B," + "9" * 200_000, "bad.csv:3"),
            ("bad.csv", "rank,class_id,score\n1,A,3\n2,B,nan\n",
             "bad.csv:3: score must be finite"),
            ("bad.csv", "rank,class_id,score\n1,A,inf\n2,B,1\n",
             "bad.csv:2: score must be finite"),
            ("bad.csv", "rank,class_id,score\n1,A,3\n2,B,-inf\n",
             "bad.csv:3: score must be finite"),
            ("bad.json", '[{"class_id": "A", "score": NaN}, {"class_id": "B", "score": 1}]',
             "record 0: score must be finite"),
            ("bad.json", '[{"class_id": "A", "score": 1}, {"class_id": "B", "score": Infinity}]',
             "record 1: score must be finite"),
            ("bad.json", '[{"class_id": "A", "score": true}, {"class_id": "B", "score": 1}]',
             "record 0: needs a class_id and a numeric score"),
            ("bad.json", '[{"class_id": "A", "score": 1}, {"class_id": "B", "score": false}]',
             "record 1: needs a class_id and a numeric score"),
            ("bad.json", '[{"class_id": "A", "score": "0.5"}, {"class_id": "B", "score": 1}]',
             "record 0: needs a class_id and a numeric score"),
            ("bad.json", '[{"class_id": "A", "score": 1%s}, {"class_id": "B", "score": 1}]'
             % ("0" * 400), "record 0: needs a class_id and a numeric score"),
            ("bad.csv", "rank,class_id,score\n1,A,3\n2,B,1_0\n",
             "bad.csv:3: needs a class_id and a numeric score"),
            ("bad.csv", "rank,class_id,score\n1,A,3\n2,B,١\n",
             "bad.csv:3: needs a class_id and a numeric score"),
            ("bad.csv", "class_id,score\nA,1,extra\nB,2\nC,3\n",
             "bad.csv:2: expected 2 columns, got 3"),
            ("bad.csv", "rank,class_id,score\n1,A,3\n2,B,1,,\n",
             "bad.csv:3: expected 3 columns, got 5"),
        ],
        ids=[
            "json-missing-key", "json-object", "csv-missing-cell", "csv-non-numeric",
            "csv-field-too-large", "csv-nan", "csv-inf", "csv-minus-inf", "json-nan",
            "json-infinity", "json-true", "json-false", "json-string", "json-int-past-float",
            "csv-digit-underscore", "csv-non-ascii-digit", "csv-extra-cell", "csv-extra-cells",
        ],
    )
    def test_malformed_rank_file(self, tmp_path, capsys, name, text, where):
        self._write_rank(tmp_path / "good.csv", {"A": 3.0, "B": 1.0})
        (tmp_path / name).write_text(text)
        assert (
            _run(["corr", tmp_path / "good.csv", tmp_path / name, "--out", tmp_path])
            == 2
        )
        err = capsys.readouterr().err
        assert str(tmp_path / name) in err and where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, data, message",
        [
            # a short row is a row of another column count, as in a side table
            ("bad.csv", b"rank,class_id,score\n1,A,3\n2,B\n", ":3: expected 3 columns, got 2"),
            ("bad.csv", b"class_id,score,rank\nA,3,1\nB,2\n", ":3: expected 3 columns, got 2"),
            ("bad.csv", b"class_id,score\nA,1\ncaf\xe9,3\n",
             ":3: not UTF-8: invalid continuation byte (byte 0xe9)"),
            ("empty.csv", b"", ":1: file is empty, expected a header row"),
            # a row is named by its first line, not its last
            ("bad.csv", b'class_id,score\n"A\nB",nan\nC,1\n',
             ":2: score must be finite, got 'nan'"),
            # a row of another column count fails before an earlier row's cell
            ("bad.csv", b"class_id,score\nA,high\nB,2,3\n", ":3: expected 2 columns, got 3"),
        ],
        ids=["short-row", "short-row-with-both-cells", "not-utf8", "empty", "two-line-row",
             "width-before-cell"],
    )
    def test_side_table_grammar_errors(self, tmp_path, capsys, name, data, message):
        """Errors that changed when rank files came to be read by the
        side-table reader. The csv.DictReader reader said "needs a class_id
        and a numeric score" of the first short row and accepted the second,
        said "not UTF-8" without line or byte and "rank file needs class_id
        and score columns" of an empty file, named the last line of a row,
        and failed on an earlier row's cell first."""
        self._write_rank(tmp_path / "good.csv", {"A": 3.0, "B": 1.0})
        (tmp_path / name).write_bytes(data)
        assert _run(["corr", tmp_path / "good.csv", tmp_path / name, "--out", tmp_path]) == 2
        assert capsys.readouterr().err.splitlines()[0] == f"error: {tmp_path / name}{message}"

    @pytest.mark.parametrize(
        "name, data, line",
        [
            ("bad.csv", b"class_id,score\rA,1\rcaf\xe9,3\r", 3),
            ("bad.json", b'[{"class_id": "A", "score": 1},\n {"class_id": "caf\xe9", "score": 2}]', 2),
        ],
        ids=["csv-cr-breaks", "json"],
    )
    def test_undecodable_byte_names_its_line(self, tmp_path, capsys, name, data, line):
        """A byte that is not UTF-8 is worded as in a side table, on its line
        (each LF, CRLF or lone CR ends one), in a JSON rank file too."""
        self._write_rank(tmp_path / "good.csv", {"A": 3.0, "B": 1.0})
        (tmp_path / name).write_bytes(data)
        assert _run(["corr", tmp_path / "good.csv", tmp_path / name, "--out", tmp_path]) == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            f"error: {tmp_path / name}:{line}: not UTF-8: invalid continuation byte (byte 0xe9)")

    @pytest.mark.parametrize(
        "data",
        [
            b"Class_ID,Score\nA ,3\nB,1\n",
            b" score , CLASS_ID,Rank\n3,\xc2\xa0A,1\n1,B\t,2\n",
            b"class_id,score\nA,3\n,\n  \n\" \",\"\"\nB,1\n",
        ],
        ids=["header-case-and-spaced-cell", "spaces-in-any-order", "blank-rows"],
    )
    def test_side_table_grammar_accepts(self, tmp_path, data):
        """Files the csv.DictReader reader rejected: its header names are
        read stripped and lower-cased and its cells stripped, as a side
        table's, and a row of blank cells is skipped."""
        (tmp_path / "r.csv").write_bytes(data)
        assert cli._read_rank_file(str(tmp_path / "r.csv")).scores == {"A": 3.0, "B": 1.0}

    @pytest.mark.parametrize(
        "name, text",
        [
            ("r2.csv", "class_id,score\nC,3\nB,2\nA,1\n"),
            ("r2.json", '[{"class_id": "C", "score": 3}, {"class_id": "B", "score": 2}, '
             '{"class_id": "A", "score": 1}]'),
        ],
        ids=["csv", "json"],
    )
    def test_byte_order_mark_skipped(self, tmp_path, name, text):
        self._write_rank(tmp_path / "r1.csv", {"A": 3.0, "B": 2.0, "C": 1.0})
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert _run(["corr", tmp_path / "r1.csv", tmp_path / name, "--out", tmp_path]) == 0
        rows = _read_csv(tmp_path / "corr.csv")
        assert float(rows[0]["r2"]) == -1.0

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("dup.csv", "class_id,score\na,1\na,5\nb,2\nc,3\n", ":3: "),
            ("dup.json", '[{"class_id": "a", "score": 1}, {"class_id": "a", "score": 5}, '
             '{"class_id": "b", "score": 2}, {"class_id": "c", "score": 3}]', ": record 1: "),
        ],
        ids=["csv", "json"],
    )
    def test_class_listed_twice_rejected(self, tmp_path, capsys, name, text, where):
        """A ranking that lists a class twice is not a ranking: no tau is
        computed from either of its scores."""
        self._write_rank(tmp_path / "good.csv", {"a": 3.0, "b": 2.0, "c": 1.0})
        (tmp_path / name).write_text(text)
        assert _run(["corr", tmp_path / "good.csv", tmp_path / name, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / name}{where}class_id 'a' is listed twice" in err
        assert not (tmp_path / "corr.csv").exists()

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ({"A": 1.0, "B": 2.0}, {"A": 1.0, "D": 2.0}, "cover different classes: ['B', 'D']"),
            ({"A": 1.0, "B": 2.0}, {"A": 1.0, "B": 1.0}, "one ranking is constant"),
        ],
        ids=["different-classes", "constant"],
    )
    def test_uncorrelatable_files_both_named(self, tmp_path, capsys, first, second, message):
        self._write_rank(tmp_path / "r1.csv", first)
        self._write_rank(tmp_path / "r2.csv", second)
        assert _run(["corr", tmp_path / "r1.csv", tmp_path / "r2.csv", "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'r1.csv'} and {tmp_path / 'r2.csv'}: " in err and message in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_files_sharing_a_stem(self, tmp_path, capsys, monkeypatch, fmt):
        """Rank files of one name from two directories keep both columns,
        labelled by their paths as given; a file given as ``ranking``, the
        row-label header, is labelled ``./ranking``, so no header repeats."""
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        self._write_rank(tmp_path / "a" / "r.csv", {"A": 3.0, "B": 2.0, "C": 1.0})
        self._write_rank(tmp_path / "b" / "r.csv", {"A": 1.0, "B": 2.0, "C": 3.0})
        self._write_rank(tmp_path / "ranking", {"A": 3.0, "B": 2.0, "C": 1.0})
        monkeypatch.chdir(tmp_path)
        second = str(tmp_path / "b" / "r.csv")
        cases = [(str(tmp_path / "a" / "r.csv"),) * 2, ("ranking", "./ranking")]
        for i, (given, first) in enumerate(cases):
            out = tmp_path / f"out{i}"
            args = ["corr", given, second, "--format", fmt, "--out", out]
            assert _run(args) == 0
            if fmt == "csv":
                rows = _read_csv(out / "corr.csv")
                header = (out / "corr.csv").read_text().splitlines()[0]
                assert header == f"ranking,{first},{second}"
            else:
                rows = json.loads((out / "corr.json").read_text())
            assert [list(row) for row in rows] == [["ranking", first, second]] * 2
            assert [row["ranking"] for row in rows] == [first, second]
            assert [float(row[second]) for row in rows] == [-1.0, 1.0]
            assert [float(row[first]) for row in rows] == [1.0, -1.0]
            assert f"{first}:  1.000  -1.000" in capsys.readouterr().out

    def test_same_file_twice_rejected(self, tmp_path, capsys):
        self._write_rank(tmp_path / "r.csv", {"A": 3.0, "B": 2.0})
        assert _run(["corr", tmp_path / "r.csv", tmp_path / "r.csv", "--out", tmp_path]) == 2
        assert f"{tmp_path / 'r.csv'}: rank file given more than once" in capsys.readouterr().err
        assert not (tmp_path / "corr.csv").exists()

    def test_same_file_two_spellings_rejected(self, tmp_path, capsys, monkeypatch):
        """One file under two names is still one ranking given twice."""
        self._write_rank(tmp_path / "r.csv", {"A": 3.0, "B": 2.0, "C": 1.0})
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        for other in ("./r.csv", str(tmp_path / "r.csv"), "sub/../r.csv"):
            assert _run(["corr", "r.csv", other, "--out", tmp_path]) == 2
            assert f"{other}: rank file given more than once" in capsys.readouterr().err
        assert not (tmp_path / "corr.csv").exists()

    def test_null_class_id_rejected(self, tmp_path, capsys):
        self._write_rank(tmp_path / "named.csv", {"None": 1.0, "B": 2.0})
        records = [{"class_id": None, "score": 1}, {"class_id": "B", "score": 2}]
        (tmp_path / "null.json").write_text(json.dumps(records))
        args = ["corr", tmp_path / "named.csv", tmp_path / "null.json", "--out", tmp_path]
        assert _run(args) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'null.json'}: record 0: class_id must be a string" in err
        assert not (tmp_path / "corr.csv").exists()

    def test_json_rank_files(self, tmp_path):
        records = [
            {"class_id": "A", "score": 3.0},
            {"class_id": "B", "score": 1.0},
        ]
        (tmp_path / "r1.json").write_text(json.dumps(records))
        (tmp_path / "r2.json").write_text(json.dumps(records))
        assert (
            _run(
                ["corr", tmp_path / "r1.json", tmp_path / "r2.json", "--out", tmp_path]
            )
            == 0
        )


# the options each command needs besides --gems and --out
_REQUIRED = {
    "rank": ["--classes", "classes.csv"],
    "outliers": ["--top-fraction", "0.5"],
    "textnet": ["--top-fraction", "0.5", "--descriptions", "descriptions.csv"],
}


@pytest.mark.parametrize("command", sorted(_REQUIRED))
@pytest.mark.parametrize(
    "option, value", [("--weights", "1,1,1,1,1,1,1"), ("--frequencies", "freq.csv")]
)
def test_score_only_options_rejected(workspace, capsys, command, option, value):
    """Only ``score`` reports weighted H(A) and adjusted z-scores."""
    (workspace / "freq.csv").write_text("code,probability\n0052,0.5\n")
    args = [command, "--gems", workspace / "gems.txt", "--out", workspace]
    args += [workspace / a if a.endswith(".csv") else a for a in _REQUIRED[command]]
    assert _run(args) == 0
    with pytest.raises(SystemExit) as exc:
        _run(args + [option, workspace / value if value.endswith(".csv") else value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


class TestSideTables:
    """A malformed description, class or frequency file fails with exit 2
    and its file and line on stderr."""

    def _outliers(self, workspace, data):
        (workspace / "side.csv").write_bytes(data)
        args = ["outliers", "--gems", workspace / "gems.txt", "--threshold", "0"]
        return _run(args + ["--descriptions", workspace / "side.csv", "--out", workspace])

    @pytest.mark.parametrize(
        "data, line, message",
        [
            (b'code,description\nA10,"a\nb"\nB20,x,y\n', 4, "expected 2 columns, got 3"),
            (b"code,description\n0052,ok\n0614,caf\xff\n", 3, "not UTF-8"),
            (b"code,description\n0052,ok\n0614," + b"x" * 200_000 + b"\n", 3, "field limit"),
        ],
        ids=["row-after-multiline-field", "not-utf8", "csv-error"],
    )
    def test_error_names_file_and_line(self, workspace, capsys, data, line, message):
        assert self._outliers(workspace, data) == 2
        err = capsys.readouterr().err
        assert f"{workspace / 'side.csv'}:{line}: " in err and message in err
        assert "Traceback" not in err


class TestOutliers:
    def test_nan_threshold_rejected(self, workspace, capsys):
        args = ["outliers", "--gems", workspace / "gems.txt", "--threshold", "nan"]
        assert _run(args + ["--out", workspace]) == 2
        assert "threshold must be a number" in capsys.readouterr().err
        assert not (workspace / "outliers_z_alpha.csv").exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--threshold", "0_5"), ("--threshold", "０.5"), ("--top-fraction", "0_5"),
         ("--top-fraction", "٠.٥")],
    )
    def test_cut_read_as_ascii_number(self, workspace, capsys, option, value):
        """float alone reads "0_5" as 5 and "０.5" as 0.5; argparse rejects
        both with its usage line."""
        args = ["outliers", "--gems", workspace / "gems.txt", option, value]
        with pytest.raises(SystemExit) as exc:
            _run(args + ["--out", workspace])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: gementropy outliers ")
        assert err[-1] == (
            f"gementropy outliers: error: argument {option}: invalid float value: '{value}'"
        )
        assert not (workspace / "outliers_z_alpha.csv").exists()

    def test_threshold_above_max_empty(self, workspace):
        assert (
            _run(
                [
                    "outliers",
                    "--gems",
                    workspace / "gems.txt",
                    "--threshold",
                    "99",
                    "--out",
                    workspace,
                ]
            )
            == 0
        )
        assert _read_csv(workspace / "outliers_z_alpha.csv") == []

    def test_descriptions_joined(self, workspace):
        assert (
            _run(
                [
                    "outliers",
                    "--gems",
                    workspace / "gems.txt",
                    "--threshold",
                    "0.5",
                    "--descriptions",
                    workspace / "descriptions.csv",
                    "--out",
                    workspace,
                ]
            )
            == 0
        )
        rows = _read_csv(workspace / "outliers_z_alpha.csv")
        assert rows[0]["source"] == "0052"
        assert rows[0]["description"].startswith("implantation")

    def test_measure_selection(self, workspace):
        assert (
            _run(
                [
                    "outliers",
                    "--gems",
                    workspace / "gems.txt",
                    "--measure",
                    "z_beta",
                    "--top-fraction",
                    "1.0",
                    "--out",
                    workspace,
                ]
            )
            == 0
        )
        rows = _read_csv(workspace / "outliers_z_beta.csv")
        assert len(rows) == 3


class TestTextnet:
    def test_exports(self, workspace):
        assert (
            _run(
                [
                    "textnet",
                    "--gems",
                    workspace / "gems.txt",
                    "--top-fraction",
                    "1.0",
                    "--descriptions",
                    workspace / "descriptions.csv",
                    "--out",
                    workspace,
                ]
            )
            == 0
        )
        edges = _read_csv(workspace / "textnet_z_alpha_edges.csv")
        assert all({"word_a", "word_b", "weight"} == set(r) for r in edges)
        freqs = _read_csv(workspace / "textnet_z_alpha_word_frequencies.csv")
        assert freqs[0]["word"] == "repair"  # appears in two descriptions
        cents = _read_csv(workspace / "textnet_z_alpha_centrality.csv")
        assert float(cents[0]["centrality"]) > 0

        dot = (workspace / "textnet_z_alpha_graph.dot").read_text()
        dot_edges = set()
        for line in dot.splitlines():
            if "--" in line:
                left, rest = line.split("--")
                right, attrs = rest.split("[")
                dot_edges.add(
                    (
                        left.strip().strip('"'),
                        right.strip().strip('"'),
                        attrs.split("=")[1].rstrip("];"),
                    )
                )
        csv_edges = {(r["word_a"], r["word_b"], r["weight"]) for r in edges}
        assert dot_edges == csv_edges

    def test_tied_words_listed_alphabetically(self, workspace):
        # bladder, joint and vein share every description, so their
        # centralities tie in exact arithmetic; computed, they can differ in
        # the last bits
        (workspace / "descriptions.csv").write_text(
            "code,description\n"
            "0052,embolism vein joint chronic bladder\n"
            "0614,bladder joint vein embolism\n"
            "0651,embolism chronic\n"
        )
        for fmt in ("csv", "json"):
            args = ["textnet", "--gems", workspace / "gems.txt", "--top-fraction", "1.0",
                    "--descriptions", workspace / "descriptions.csv", "--out", workspace,
                    "--format", fmt]
            assert _run(args) == 0
        cents = _read_csv(workspace / "textnet_z_alpha_centrality.csv")
        words = ["embolism", "bladder", "joint", "vein", "chronic"]
        assert [r["word"] for r in cents] == words
        assert len({r["centrality"] for r in cents[1:4]}) == 1
        records = json.loads((workspace / "textnet_z_alpha_centrality.json").read_text())
        assert [r["word"] for r in records] == words

    def test_missing_description_warns(self, workspace, capsys):
        (workspace / "部分.csv").write_text(
            "code,description\n0052,electrode implantation procedure text\n"
        )
        assert (
            _run(
                [
                    "textnet",
                    "--gems",
                    workspace / "gems.txt",
                    "--top-fraction",
                    "1.0",
                    "--descriptions",
                    workspace / "部分.csv",
                    "--out",
                    workspace,
                ]
            )
            == 0
        )
        assert "no description" in capsys.readouterr().err


class TestVerifyExample:
    def test_passes(self, capsys):
        assert cli.main(["verify-example"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 13
        assert "FAIL" not in out

    def test_detects_deleted_row(self, monkeypatch, capsys):
        lines = cli.REFERENCE_MAP_LINES.splitlines()
        monkeypatch.setattr(
            cli, "REFERENCE_MAP_LINES", "\n".join(lines[:-1]) + "\n"
        )
        assert cli.main(["verify-example"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_corrupted_scenario_digit_surfaces_error(self, monkeypatch, capsys):
        # choice-list gap: structural error, not a silently wrong score
        corrupted = cli.REFERENCE_MAP_LINES.replace("10111", "10113")
        monkeypatch.setattr(cli, "REFERENCE_MAP_LINES", corrupted)
        assert cli.main(["verify-example"]) == 2
        assert "error" in capsys.readouterr().err
