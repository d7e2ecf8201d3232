"""The committed benchmark trajectory: every entry of every
``BENCH_<workload>.json`` at the repository root has the fields that
``tools/bench_record.py`` writes, and the recorder reads the last two lines
of ``perfbench/run.py``'s output into such an entry."""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}


def _recorder():
    path = ROOT / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _check_entry(entry: dict, workload: str) -> None:
    assert entry["workload"] == workload
    assert isinstance(entry["git_sha"], str) and entry["git_sha"]
    assert _is_count(entry["src_lines"])
    assert type(entry["backfilled"]) is bool and isinstance(entry["note"], str)
    assert entry["metrics"] and isinstance(entry["metrics"], dict)
    for name, metric in entry["metrics"].items():
        assert metric["unit"] == UNITS[name], name
        assert type(metric["value"]) in (int, float) and math.isfinite(metric["value"]), name
    if entry["backfilled"]:  # copied from an earlier report, which says what it knew
        assert isinstance(entry["source"], str) and entry["source"]
        return
    assert _is_count(entry["seed"]) and entry["seconds"] > 0
    assert isinstance(entry["python"], str) and isinstance(entry["numpy"], str)
    assert isinstance(entry["recorded"], str)
    assert type(entry["correct"]) is bool
    assert _is_count(entry["attempted"]) and _is_count(entry["failed"])
    assert entry["failed"] <= entry["attempted"]


def test_trajectory_files_exist():
    names = {p.name for p in BENCH_FILES}
    assert names >= {"BENCH_narrow-score.json", "BENCH_classes-textnet.json"}


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_every_entry_has_its_fields(path):
    entries = json.loads(path.read_text())
    assert isinstance(entries, list) and entries
    workload = path.stem.removeprefix("BENCH_")
    for entry in entries:
        _check_entry(entry, workload)


def test_recorder_reads_info_and_result_lines():
    info = {"git_sha": "abc", "src_lines": 2300, "python": "3.11.7", "numpy": "2.4.6",
            "nproc": 2}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"wall_s": {"value": 0.3, "unit": "s"},
                          "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}
    stdout = f"workload narrow-score\n wall_s 0.3 s\ninfo {json.dumps(info)}\n{json.dumps(result)}\n"
    args = argparse.Namespace(workload="narrow-score", seed=1, seconds=20.0, note="n")
    entry = _recorder().entry_from_output(stdout, args)
    _check_entry(entry, "narrow-score")
    assert entry["git_sha"] == "abc" and entry["src_lines"] == 2300
    assert (entry["seed"], entry["seconds"], entry["note"]) == (1, 20.0, "n")
    assert entry["metrics"] == result["metrics"] and "nproc" not in entry


def test_recorder_rejects_output_without_info_line():
    args = argparse.Namespace(workload="narrow-score", seed=1, seconds=1.0, note="")
    with pytest.raises(ValueError, match="info line"):
        _recorder().entry_from_output('{"correct": true}\n', args)
