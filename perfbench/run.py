#!/usr/bin/env python3
"""Stage-traced benchmark of the ``gementropy`` CLI.

    python3 perfbench/run.py --workload narrow-score --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout. It generates the workload's synthetic
crosswalk from the seed (cached by workload and seed, outside the timed
region), computes the expected results with the independent oracle in
``oracle.py``, and then:

* ``--trace 0``: runs the workload's CLI sequence again and again for
  ``--seconds`` seconds. Each invocation is a fresh ``python3 -m
  gementropy.cli`` process, one at a time: a closed loop with one client.
  Before each sequence, a fresh interpreter times ``import gementropy.cli``
  (``setup_s``), and a fresh process times a fixed host-speed reference
  (``reference.py``: the oracle scoring a fixed corpus). The times are
  reported calibrated: the mean over the window, scaled by ``REF_S`` over
  the reference's mean in the same window, i.e. seconds on a host where the
  reference takes ``REF_S``. On a shared host whose CPUs each change speed
  by 1.5-1.8x, this keeps runs of the same code comparable; the raw medians
  are printed beside them and kept in the record.
* ``--trace 1``: runs each CLI invocation of the sequence twice in fresh
  processes that call ``gementropy.cli.main`` in-process, once plain and
  once with the spans of ``tracer.py``, and reports the per-layer metrics as
  medians over the repetitions; the difference between the two is the
  tracing overhead.

The whole run is pinned to one CPU (``pin_cpu``), so that the reference and
the invocations it calibrates run on the same CPU, and numpy's BLAS runs one
thread.

Every invocation's outputs pass a parity gate against the oracle; an
invocation fails if it exits non-zero, prints a traceback, or fails the
gate. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, ``failed_frac``, and an ``info`` line
with the run context (git SHA, Python and numpy versions, nproc, whether
numba imports, ``src/`` line count, sha256 of each generated input). The
same record is written under ``.perfbench_cache/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

# Host-speed reference: a fresh process scoring a fixed narrow-score corpus
# of REF_MAPS maps (seed 0) with the oracle, nominally REF_S seconds (about
# what it takes on an Intel Xeon vCPU of the 2-vCPU host the bounds were set
# on, 1.6-2.9 s there). Each vCPU of that host switches between a fast and a
# 1.5-1.8x slower state within seconds, independently of the other, so the
# reference runs on the same CPU as the workload and takes about a third of
# each window: its mean over the window then follows the share of slow time.
REF_MAPS = 60_000
REF_S = 2.0
CACHE_KEEP = 12  # generated corpora kept; a 69,823-map one takes ~15 MB
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
SCORE_COLUMNS = ["m", "m0", "v", "h_a", "h_b", "ur", "z_alpha", "z_beta", "z_ur"]
WIDE_COLUMNS = (
    ["m", "m0", "v", "h_a", "h_b", "ur", "h_a_weighted", "z_alpha", "z_beta", "z_ur"]
    + [f"adjusted_{z}" for z in oracle.Z_NAMES]
)
WEIGHTS = "1,1,1,1,1,1,1,1"
TOP_FRACTION = 0.2
RANK_FILES = [f"rank_{m}.csv" for m in oracle.Z_NAMES + ("total",)]


@dataclass
class Step:
    """One CLI invocation of a workload and the gate on its outputs."""

    name: str
    args: Callable[[Path, Path], list[str]]  # (corpus dir, out dir) -> argv
    check: Callable[[Path, Path, dict], list[str]]  # (corpus, out, expected)
    traced_columns: list[str] = field(default_factory=list)


@dataclass
class Workload:
    maps: int
    steps: list[Step]


def _check_score(columns, fmt):
    def check(_corpus, out, expected):
        return oracle.check_score_table(
            out / "score" / f"scores.{fmt}", expected, columns
        ) + oracle.check_excluded(out / "score" / f"excluded.{fmt}", expected)

    return check


def _check_rank(_corpus, out, expected):
    return oracle.check_rank_dir(out / "rank", expected)


def _check_corr(_corpus, out, _expected):
    return oracle.check_corr(out / "corr" / "corr.csv", out / "rank")


def _check_textnet(corpus_dir, out, expected):
    _, rows = oracle.read_csv_rows(corpus_dir / "descriptions.csv")
    stopwords = oracle.load_stopwords(SRC / "gementropy" / "data" / "stopwords.txt")
    return oracle.check_textnet_dir(
        out / "textnet", expected, dict(rows), stopwords, TOP_FRACTION
    )


WORKLOADS = {
    "narrow-score": Workload(69_823, [
        Step(
            "score",
            lambda c, o: ["score", "--gems", str(c / "gems.txt"), "--format", "csv",
                          "--out", str(o / "score")],
            _check_score(SCORE_COLUMNS, "csv"),
            SCORE_COLUMNS,
        ),
    ]),
    # Not listed in BENCHMARK.json, so that the two listed workloads get
    # longer, steadier runs; run it by name for tall columns, weights,
    # frequency adjustment and JSON reports.
    "wide-score": Workload(14_688, [
        Step(
            "score",
            lambda c, o: ["score", "--gems", str(c / "gems.txt"), "--weights", WEIGHTS,
                          "--frequencies", str(c / "frequencies.csv"), "--format", "json",
                          "--out", str(o / "score")],
            _check_score(WIDE_COLUMNS, "json"),
            SCORE_COLUMNS + ["h_a_weighted"],
        ),
    ]),
    "classes-textnet": Workload(14_567, [
        Step(
            "rank",
            lambda c, o: ["rank", "--gems", str(c / "gems.txt"), "--classes",
                          str(c / "classes.csv"), "--out", str(o / "rank")],
            _check_rank,
            SCORE_COLUMNS,
        ),
        Step(
            "corr",
            lambda c, o: ["corr", *(str(o / "rank" / f) for f in RANK_FILES),
                          "--out", str(o / "corr")],
            _check_corr,
        ),
        Step(
            "textnet",
            lambda c, o: ["textnet", "--gems", str(c / "gems.txt"), "--descriptions",
                          str(c / "descriptions.csv"), "--top-fraction", str(TOP_FRACTION),
                          "--out", str(o / "textnet")],
            _check_textnet,
            SCORE_COLUMNS,
        ),
    ]),
}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "maps_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "gem_io.parse_s": "s", "gem_io.lines": "count", "gem_io.parse_rss_mb": "MB",
    "gem_io.group_s": "s", "gem_io.maps": "count", "gem_io.excluded_maps": "count",
    "gem_io.side_tables_s": "s", "gem_io.self_s": "s",
    "kernels.entropy_s": "s", "kernels.cells": "count", "kernels.columns": "count",
    "kernels.ns_per_cell": "ns", "kernels.self_s": "s",
    "entropy.score_self_s": "s", "entropy.scored_maps": "count",
    "entropy.score_rss_mb": "MB", "entropy.normalize_s": "s", "entropy.adjust_s": "s",
    "entropy.adjust_calls": "count", "entropy.self_s": "s",
    "analysis.aggregate_s": "s", "analysis.classes": "count", "analysis.rank_s": "s",
    "analysis.corr_s": "s", "analysis.outliers_s": "s", "analysis.self_s": "s",
    "textnet.tokenize_s": "s", "textnet.tokenize_calls": "count", "textnet.graph_s": "s",
    "textnet.edges": "count", "textnet.centrality_s": "s", "textnet.component_words": "count",
    "textnet.dense_adjacency_mb": "MB-computed", "textnet.centrality_rss_mb": "MB",
    "textnet.self_s": "s",
    "cli.self_s": "s", "cli.report_mb": "MB",
    "trace.main_s": "s", "trace.overhead_s": "s",
}


# --------------------------------------------------------------------------
# inputs


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()[:12]


def reference(name: str, corpus_dir: Path) -> dict:
    """The oracle's expected results for one generated corpus."""
    gem = (corpus_dir / "gems.txt").read_text(encoding="utf-8")
    if name == "wide-score":
        freqs = oracle.read_frequencies(corpus_dir / "frequencies.csv")
        return oracle.score_corpus(gem, weights=[1.0] * 8, frequencies=freqs)
    expected = oracle.score_corpus(gem)
    if name == "classes-textnet":
        classes = oracle.read_classes(corpus_dir / "classes.csv")
        expected["classes"] = oracle.aggregate_classes(expected["maps"], classes)
    return expected


def _prune(corpora: Path) -> None:
    """Keep the most recently used corpora only."""
    dirs = sorted(corpora.iterdir(), key=lambda d: d.stat().st_mtime, reverse=True)
    for d in dirs[CACHE_KEEP:]:
        shutil.rmtree(d, ignore_errors=True)


def prepare_reference() -> Path:
    """The host-speed reference's fixed input, generated once."""
    version = _digest(HERE / "corpus.py")
    path = CACHE / "reference" / f"gems-{REF_MAPS}-{version}.txt"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_bytes(corpus.generate("narrow-score", REF_MAPS, 0)["gems.txt"])
        tmp.replace(path)
    return path


def pin_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU: the
    highest-numbered it may use. Returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def prepare(name: str, seed: int) -> tuple[Path, dict, dict]:
    """Generate (or reuse) the corpus of (workload, seed) and its oracle
    results. Returns (corpus dir, expected, sha256 per input file)."""
    version = _digest(HERE / "corpus.py", HERE / "oracle.py")
    final = CACHE / "corpora" / f"{name}-seed{seed}-{version}"
    if not (final / "expected.json").is_file():
        tmp = CACHE / "corpora" / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        for fname, data in corpus.generate(name, WORKLOADS[name].maps, seed).items():
            (tmp / fname).write_bytes(data)
        (tmp / "expected.json").write_text(json.dumps(reference(name, tmp)))
        try:
            tmp.rename(final)
        except OSError:  # another run filled the cache first
            shutil.rmtree(tmp, ignore_errors=True)
    os.utime(final)
    _prune(final.parent)
    expected = json.loads((final / "expected.json").read_text())
    inputs = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(final.iterdir()) if p.name != "expected.json"
    }
    return final, expected, inputs


# --------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str


class Runner:
    """Runs one child process at a time through ``spawner.py``, within the
    run's deadline."""

    def __init__(self, start: float):
        self.start = start
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    def run(self, argv: list[str], log: Path) -> Child:
        request = {
            "argv": argv, "cwd": str(ROOT), "env": self.env,
            "stdout": str(log.with_suffix(".out")), "stderr": str(log.with_suffix(".err")),
            "timeout": max(1.0, RUN_DEADLINE_S - (perf_counter() - self.start)),
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended unexpectedly")
        return Child(**json.loads(reply), stderr=log.with_suffix(".err").read_text(errors="replace"))


def child_errors(child: Child) -> list[str]:
    errors = []
    if child.rc != 0:
        errors.append(f"exit code {child.rc}")
    if "Traceback" in child.stderr:
        errors.append("traceback on stderr")
    return errors


def check_import(runner: Runner, logs: Path) -> None:
    """Import ``gementropy.cli`` once, untimed: fills the bytecode cache and
    checks that the package comes from this checkout."""
    probe = runner.run(
        [sys.executable, "-c", "import gementropy.cli as c; print(c.__file__)"], logs / "probe"
    )
    where = Path(logs.joinpath("probe.out").read_text().strip() or ".").resolve()
    if probe.rc != 0 or SRC.resolve() not in where.parents:
        raise SystemExit(f"gementropy.cli did not import from {SRC}: {probe.stderr.strip()}")


def time_reference(runner: Runner, gems: Path, log: Path) -> float:
    """Wall time of the host-speed reference in a fresh process."""
    child = runner.run([sys.executable, str(HERE / "reference.py"), str(gems)], log)
    if child_errors(child):
        raise SystemExit(f"the host-speed reference failed: {child.stderr.strip()}")
    return child.wall_s


def calibrated(values: list[float], refs: list[float]) -> float:
    """Mean of ``values`` in seconds on a host where the reference takes
    ``REF_S``: both means come from the same window, so a host that runs
    slower for a while slows both alike."""
    return statistics.fmean(values) * REF_S / statistics.fmean(refs)


def time_import(runner: Runner, log: Path) -> float:
    """Wall time of a fresh interpreter importing ``gementropy.cli``."""
    child = runner.run([sys.executable, "-c", "import gementropy.cli"], log)
    if child.rc != 0:
        raise SystemExit(f"importing gementropy.cli failed: {child.stderr.strip()}")
    return child.wall_s


class Gate:
    """Parity gate per step. A step whose report files hash the same as an
    already validated set passes without re-reading them."""

    def __init__(self, corpus_dir: Path, expected: dict):
        self.corpus_dir = corpus_dir
        self.expected = expected
        self.validated: dict[str, str] = {}

    @staticmethod
    def _hash(directory: Path) -> str:
        h = hashlib.sha256()
        for p in sorted(directory.rglob("*")):
            if p.is_file():
                h.update(p.name.encode())
                h.update(p.read_bytes())
        return h.hexdigest()

    def check(self, step: Step, out: Path) -> list[str]:
        step_dir = out / step.name
        digest = self._hash(step_dir) if step_dir.is_dir() else ""
        if digest and self.validated.get(step.name) == digest:
            return []
        try:
            errors = step.check(self.corpus_dir, out, self.expected)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"unreadable report: {exc!r}"]
        if not errors:
            self.validated[step.name] = digest
        return errors


# --------------------------------------------------------------------------
# measurement loops


def timed_loop(name, seconds, runner, gate, work: Path):
    """Closed loop over the CLI sequence; end-to-end metrics."""
    steps = WORKLOADS[name].steps
    ref_gems = prepare_reference()
    walls, cpus, rss, errors, setup, refs = [], [], [], [], [], []
    step_walls: dict[str, list[float]] = {step.name: [] for step in steps}
    attempted = failed = 0
    began = perf_counter()
    took = 0.0  # duration of the last iteration
    # stop when another iteration would more likely end past the window
    while not walls or perf_counter() - began + took / 2 < seconds:
        iteration_start = perf_counter()
        out = work / f"seq{len(walls)}"
        # import and reference samples spread over the window, like the sequences
        setup.append(time_import(runner, work / f"setup{len(walls)}"))
        refs.append(time_reference(runner, ref_gems, work / f"reference{len(walls)}"))
        seq_wall = seq_cpu = 0.0
        for step in steps:
            argv = [sys.executable, "-m", "gementropy.cli", *step.args(gate.corpus_dir, out)]
            child = runner.run(argv, work / f"seq{len(walls)}-{step.name}")
            attempted += 1
            seq_wall += child.wall_s
            step_walls[step.name].append(child.wall_s)
            seq_cpu += child.cpu_s
            rss.append(child.maxrss_mb)
            step_errors = child_errors(child) or gate.check(step, out)
            if step_errors:
                failed += 1
                errors += [f"{step.name}: {e}" for e in step_errors]
        walls.append(seq_wall)
        cpus.append(seq_cpu)
        shutil.rmtree(out, ignore_errors=True)
        took = perf_counter() - iteration_start
    wall = calibrated(walls, refs)
    metrics = {
        "setup_s": calibrated(setup, refs),
        "wall_s": wall,
        "cpu_s": calibrated(cpus, refs),
        "maps_per_s": len(gate.expected["maps"]) / wall,
        "peak_rss_mb": max(rss),
    }
    samples = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus, "reference_s": refs}
    samples.update({f"{name}.wall_s": v for name, v in step_walls.items()})
    return metrics, samples, attempted, failed, errors


def layer_metrics(dumps: list[dict], report_bytes: int) -> tuple[dict, float]:
    """Per-layer metrics of one traced sequence, summed over its invocations
    (peak-RSS rises take the largest). Also returns the layers' self times
    minus the ``cli.main`` durations, which must be 0 up to rounding."""
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, float] = {}
    rss: dict[str, float] = {}
    layers: dict[str, float] = {}
    items: dict[str, list] = {}
    main_s = 0.0
    for dump in dumps:
        spans = dump["spans"]
        self_s = tracer.self_times(spans)
        for s in spans:
            n = s["name"]
            dur[n] = dur.get(n, 0.0) + s["end"] - s["start"]
            own[n] = own.get(n, 0.0) + self_s[s["id"]]
            rss[n] = max(rss.get(n, 0.0), s["rss_mb"])
            for k, v in s.get("counts", {}).items():
                counts[k] = counts.get(k, 0) + v
            if s["parent"] is None:
                main_s += s["end"] - s["start"]
        for layer, t in tracer.layer_self_times(spans, dump["items"]).items():
            layers[layer] = layers.get(layer, 0.0) + t
        for n, (calls, t) in dump["items"].items():
            acc = items.setdefault(n, [0, 0.0])
            acc[0] += calls
            acc[1] += t
    cells = counts.get("cells", 0)
    words = counts.get("component_words", 0)
    m = {
        "gem_io.parse_s": dur.get("gem_io.parse", 0.0),
        "gem_io.lines": counts.get("lines", 0),
        "gem_io.parse_rss_mb": rss.get("gem_io.parse", 0.0),
        "gem_io.group_s": dur.get("gem_io.group", 0.0),
        "gem_io.maps": counts.get("maps", 0),
        "gem_io.excluded_maps": counts.get("excluded_maps", 0),
        "gem_io.side_tables_s": dur.get("gem_io.side_tables", 0.0),
        "kernels.entropy_s": dur.get("kernels.entropy", 0.0),
        "kernels.cells": cells,
        "kernels.columns": counts.get("columns", 0),
        "kernels.ns_per_cell": dur.get("kernels.entropy", 0.0) / cells * 1e9 if cells else 0.0,
        "entropy.score_self_s": own.get("entropy.score", 0.0),
        "entropy.scored_maps": counts.get("scored_maps", 0),
        "entropy.score_rss_mb": rss.get("entropy.score", 0.0),
        "entropy.normalize_s": dur.get("entropy.normalize", 0.0),
        "entropy.adjust_s": items.get("entropy.adjust", [0, 0.0])[1],
        "entropy.adjust_calls": items.get("entropy.adjust", [0, 0.0])[0],
        "analysis.aggregate_s": dur.get("analysis.aggregate", 0.0),
        "analysis.classes": counts.get("classes", 0),
        "analysis.rank_s": dur.get("analysis.rank", 0.0),
        "analysis.corr_s": dur.get("analysis.corr", 0.0),
        "analysis.outliers_s": dur.get("analysis.outliers", 0.0),
        "textnet.tokenize_s": items.get("textnet.tokenize", [0, 0.0])[1],
        "textnet.tokenize_calls": items.get("textnet.tokenize", [0, 0.0])[0],
        "textnet.graph_s": dur.get("textnet.graph", 0.0),
        "textnet.edges": counts.get("edges", 0),
        "textnet.centrality_s": dur.get("textnet.centrality", 0.0),
        "textnet.component_words": words,
        "textnet.dense_adjacency_mb": words * words * 8 / 1e6,
        "textnet.centrality_rss_mb": rss.get("textnet.centrality", 0.0),
        "cli.report_mb": report_bytes / 1e6,
        "trace.main_s": main_s,
    }
    for layer in ("gem_io", "kernels", "entropy", "analysis", "textnet", "cli"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    return m, sum(layers.values()) - main_s


def trace_loop(name, seconds, runner, gate, work: Path):
    """Plain and traced in-process runs of each invocation; per-layer
    metrics."""
    steps = WORKLOADS[name].steps
    per_iter: list[dict] = []
    gaps: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    began = perf_counter()
    took = 0.0  # duration of the last iteration
    while not per_iter or perf_counter() - began + took / 2 < seconds:
        i = len(per_iter)
        iteration_start = perf_counter()
        dumps, plain_s = [], 0.0
        report_bytes = 0
        for step in steps:
            # alternate which of the pair runs first
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                tag = f"it{i}-{step.name}-{'traced' if traced else 'plain'}"
                out = work / f"it{i}-{'traced' if traced else 'plain'}"
                argv = [sys.executable, str(HERE / "tracer.py"), str(SRC), str(work / tag),
                        "1" if traced else "0", "--", *step.args(gate.corpus_dir, out)]
                child = runner.run(argv, work / tag)
                attempted += 1
                step_errors = child_errors(child) or gate.check(step, out)
                if not step_errors:
                    dump = json.loads((work / f"{tag}.json").read_text())
                    if traced:
                        dumps.append(dump)
                        report_bytes += sum(
                            p.stat().st_size for p in (out / step.name).rglob("*") if p.is_file()
                        )
                        if step.traced_columns:
                            values = json.loads((work / f"{tag}.values.json").read_text())
                            step_errors = oracle.check_captured(
                                values, gate.expected, step.traced_columns)
                    else:
                        plain_s += dump["main_s"]
                if step_errors:
                    failed += 1
                    errors += [f"{tag}: {e}" for e in step_errors]
        for tag in ("plain", "traced"):
            shutil.rmtree(work / f"it{i}-{tag}", ignore_errors=True)
        metrics, gap = layer_metrics(dumps, report_bytes)
        gaps.append(gap)
        if abs(gap) > 1e-6:
            errors.append(f"iteration {i}: layer self times miss cli.main by {gap:.3g} s")
        metrics["trace.overhead_s"] = metrics["trace.main_s"] - plain_s
        per_iter.append(metrics)
        took = perf_counter() - iteration_start
    medians = {k: statistics.median(m[k] for m in per_iter) for k in PER_LAYER_UNITS}
    samples = {"trace.main_s": [m["trace.main_s"] for m in per_iter], "self_time_gap_s": gaps}
    return medians, samples, attempted, failed, errors


# --------------------------------------------------------------------------
# run context


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_context(inputs: dict, cpu: int) -> dict:
    return {
        "cpu": cpu,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
        "inputs_sha256": inputs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = perf_counter()
    cpu = pin_cpu()

    if not (SRC / "gementropy" / "cli.py").is_file():
        print(f"error: no gementropy sources under {SRC}", file=sys.stderr)
        return 2

    corpus_dir, expected, inputs = prepare(args.workload, args.seed)
    work = CACHE / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(start)
    try:
        gate = Gate(corpus_dir, expected)
        if args.trace:
            metrics, samples, attempted, failed, errors = trace_loop(
                args.workload, args.seconds, runner, gate, work)
            units = PER_LAYER_UNITS
        else:
            check_import(runner, work)
            metrics, samples, attempted, failed, errors = timed_loop(
                args.workload, args.seconds, runner, gate, work)
            units = END_TO_END_UNITS
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    info = run_context(inputs, cpu)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} invocations, {failed} failed, failed_frac {failed / attempted:g}")
    for e in errors[:20]:
        print(f"  gate: {e}")
    refs = samples.get("reference_s")
    if refs:
        print(f"  host reference: mean {statistics.fmean(refs):.4g} s over {len(refs)} "
              f"(nominal {REF_S} s; times below are scaled by the ratio)")
    for k in units:
        n = len(samples.get(k, []))
        note = f"  (median of {n})" if n else ""
        if n and refs:
            note = (f"  (calibrated mean of {n}; raw median "
                    f"{statistics.median(samples[k]):.6g} {units[k]})")
        print(f"  {k:<28} {metrics[k]:>14.6g} {units[k]}{note}")
    if "self_time_gap_s" in samples:
        worst = max(abs(g) for g in samples["self_time_gap_s"])
        print(f"  layer self times sum to the cli.main spans within {worst:.2g} s")
    print("info " + json.dumps(info, sort_keys=True))
    correct = failed == 0 and not errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = CACHE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**result, "samples": samples, "info": info}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
