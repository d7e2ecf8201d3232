"""Tests of the benchmark's own generator, oracle, gate and tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
from gementropy import entropy, gem_io  # noqa: E402
from gementropy.cli import REFERENCE_MAP_LINES, main as cli_main  # noqa: E402


@pytest.mark.parametrize("shape", sorted(corpus.SHAPES))
def test_generator_is_a_function_of_the_seed(shape):
    assert corpus.generate(shape, 400, 3) == corpus.generate(shape, 400, 3)
    other = corpus.generate(shape, 400, 4)
    assert all(other[name] != data for name, data in corpus.generate(shape, 400, 3).items())


@pytest.mark.parametrize("shape", sorted(corpus.SHAPES))
def test_generated_files_load_without_errors(shape):
    files = corpus.generate(shape, 3000, 5)
    records = gem_io.group_maps(gem_io.parse_gem_file(files["gems.txt"], "gems.txt"))
    assert len(records) == 3000
    excluded = [r for r in records if r.m == 0]
    assert all(len(r.entries) == 1 for r in excluded)
    if shape != "wide-score":
        assert 0 < len(excluded) < 300
        assert any(r.scenarios for r in records)
    if "classes.csv" in files:
        assert 100 < len(gem_io.load_class_defs(files["classes.csv"])) <= 150
        assert len(gem_io.load_descriptions(files["descriptions.csv"])) == 3000
    if "frequencies.csv" in files:
        assert 0 < len(gem_io.load_frequencies(files["frequencies.csv"])) < 3000


def test_oracle_reproduces_reference_map_0052():
    [(source, rows)] = oracle.group_lines(REFERENCE_MAP_LINES)
    got = oracle.score_map(rows)
    assert source == "0052"
    assert (got["m"], got["m0"], got["v"]) == (8, 3, 9)
    assert got["h_a"] == pytest.approx(4.26, abs=0.01)
    assert got["h_b"] == pytest.approx(3.17, abs=0.01)
    assert got["ur"] == 3.0


@pytest.mark.parametrize("shape", ["narrow-score", "wide-score"])
def test_oracle_agrees_with_score_maps(shape):
    files = corpus.generate(shape, 2000, 7)
    weights = [1.0, 2.0, 0.5, 1.0, 3.0, 1.0, 1.5, 1.0] if shape == "wide-score" else None
    want = oracle.score_corpus(files["gems.txt"].decode(), weights=weights)
    records = gem_io.group_maps(gem_io.parse_gem_file(files["gems.txt"], "gems.txt"))
    scores, excluded = entropy.score_maps(records, weights)
    normalized = entropy.normalize_scores(scores)
    assert [r.source for r in excluded] == want["excluded"]
    assert len(scores) == len(want["maps"])
    names = ["m", "m0", "v", "h_a", "h_b", "ur"] + (["h_a_weighted"] if weights else [])
    for s, z, w in zip(scores, normalized, want["maps"]):
        assert s.source == w["source"]
        for name in names:
            assert math.isclose(getattr(s, name), w[name], rel_tol=1e-12, abs_tol=1e-12)
        for name in oracle.Z_NAMES:
            assert math.isclose(getattr(z, name), w[name], rel_tol=1e-12, abs_tol=1e-12)


def test_six_digit_comparison():
    assert oracle._six_digit_ok("1.23457", 1.234567)
    assert oracle._six_digit_ok("10", 9.9999996)
    assert oracle._six_digit_ok("-0.000123457", -0.0001234567)
    assert not oracle._six_digit_ok("1.23456", 1.234567)
    assert oracle._six_digit_ok("1e-17", 0.0)
    assert not oracle._six_digit_ok("1e-09", 0.0)


def test_gate_catches_a_changed_cell(tmp_path):
    files = corpus.generate("narrow-score", 500, 2)
    gems = tmp_path / "gems.txt"
    gems.write_bytes(files["gems.txt"])
    assert cli_main(["score", "--gems", str(gems), "--out", str(tmp_path)]) == 0
    want = oracle.score_corpus(files["gems.txt"].decode())
    columns = ["m", "m0", "v", "h_a", "h_b", "ur", "z_alpha", "z_beta", "z_ur"]
    report = tmp_path / "scores.csv"
    assert oracle.check_score_table(report, want, columns) == []
    assert oracle.check_excluded(tmp_path / "excluded.csv", want) == []
    lines = report.read_text().splitlines()
    cells = lines[5].split(",")
    cells[4] = repr(float(cells[4]) + 1e-3)
    lines[5] = ",".join(cells)
    report.write_text("\n".join(lines) + "\n")
    assert len(oracle.check_score_table(report, want, columns)) == 1


def _span(id_, name, parent, start, end, item_s=0.0):
    return {"id": id_, "name": name, "parent": parent, "start": start, "end": end,
            "item_s": item_s}


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        _span(0, "cli.main", None, 0.0, 10.0, item_s=1.0),
        _span(1, "gem_io.parse", 0, 1.0, 4.0),
        _span(2, "entropy.score", 0, 5.0, 9.0),
        _span(3, "kernels.entropy", 2, 6.0, 7.0),
    ]
    items = {"textnet.tokenize": [3, 1.0]}
    assert tracer.self_times(spans) == {0: 2.0, 1: 3.0, 2: 3.0, 3: 1.0}
    layers = tracer.layer_self_times(spans, items)
    assert layers == {"cli": 2.0, "gem_io": 3.0, "entropy": 3.0, "kernels": 1.0, "textnet": 1.0}
    assert sum(layers.values()) == 10.0


def test_traced_child_spans_cover_main(tmp_path):
    files = corpus.generate("wide-score", 300, 1)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    prefix = tmp_path / "dump"
    argv = ["score", "--gems", str(tmp_path / "gems.txt"), "--frequencies",
            str(tmp_path / "frequencies.csv"), "--format", "json", "--out", str(tmp_path)]
    subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(SRC), str(prefix), "1", "--", *argv],
        check=True, timeout=120,
    )
    dump = json.loads(prefix.with_suffix(".json").read_text())
    names = {s["name"] for s in dump["spans"]}
    assert {"cli.main", "gem_io.parse", "gem_io.group", "kernels.entropy",
            "entropy.score", "entropy.normalize", "gem_io.side_tables"} <= names
    assert dump["items"]["entropy.adjust"][0] > 0
    [root] = [s for s in dump["spans"] if s["parent"] is None]
    total = sum(tracer.layer_self_times(dump["spans"], dump["items"]).values())
    assert total == pytest.approx(root["end"] - root["start"], abs=1e-9)
    values = json.loads((tmp_path / "dump.values.json").read_text())
    want = oracle.score_corpus(files["gems.txt"].decode())
    assert oracle.check_captured(values, want, ["m", "m0", "v", "h_a", "z_alpha"]) == []


def test_host_speed_reference_runs_on_its_own(tmp_path):
    gems = tmp_path / "gems.txt"
    gems.write_bytes(corpus.generate("narrow-score", 300, 0)["gems.txt"])
    subprocess.run([sys.executable, str(BENCH / "reference.py"), str(gems)],
                   check=True, timeout=120)


def test_benchmark_json_lists_the_metrics_run_py_reports():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_calibration_cancels_a_uniform_host_slowdown():
    import run

    walls, refs = [4.0, 6.0], [0.25, 0.15]
    assert run.calibrated(walls, refs) == pytest.approx(5.0 * run.REF_S / 0.2)
    slower = run.calibrated([w * 1.4 for w in walls], [r * 1.4 for r in refs])
    assert slower == pytest.approx(run.calibrated(walls, refs))
