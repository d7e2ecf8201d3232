import csv
import json

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
        ],
        ids=["json-missing-key", "json-object", "csv-missing-cell", "csv-non-numeric"],
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


class TestOutliers:
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
