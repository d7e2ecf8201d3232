"""Span tracing of one in-process ``gementropy.cli.main`` call.

The tracer wraps the public module functions each layer of ``gementropy``
exposes (``gem_io``, ``_kernels``, ``entropy``, ``analysis``, ``textnet``)
by replacing the module attributes the CLI and the other layers look up, so
no file of the program changes. A span records a name, start, end, its
parent span and the rise of the process's peak RSS across it. Functions
called once per item (``adjust_by_frequency``, ``tokenize``) record a call
count and summed time instead of one span per call; that time is charged to
the enclosing span as child time.

Run as a child process, one CLI invocation per process:

    python3 perfbench/tracer.py SRC_DIR DUMP_PREFIX TRACE -- <gementropy args>

``TRACE`` is 1 to trace or 0 to time ``main`` alone. The child writes
``DUMP_PREFIX.json`` (exit code, ``main`` duration, spans, per-item totals)
and, when traced, ``DUMP_PREFIX.values.json`` with the scores
``score_maps`` and ``normalize_scores`` returned, for the parity gate.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

# module -> function -> (span name, counter of the call's work or None)
SPANS = {
    "gem_io": {
        "parse_gem_file": ("gem_io.parse", lambda args, r: {"lines": len(r)}),
        "group_maps": ("gem_io.group", lambda args, r: {"maps": len(r)}),
        "load_class_defs": ("gem_io.side_tables", None),
        "load_descriptions": ("gem_io.side_tables", None),
        "load_frequencies": ("gem_io.side_tables", None),
    },
    "_kernels": {
        "batch_column_entropies": (
            "kernels.entropy",
            lambda args, r: {"cells": int(args[0].shape[0]), "columns": int(r.shape[0])},
        ),
    },
    "entropy": {
        "score_maps": (
            "entropy.score",
            lambda args, r: {"scored_maps": len(r[0]), "excluded_maps": len(r[1])},
        ),
        "normalize_scores": ("entropy.normalize", None),
    },
    "analysis": {
        "aggregate_by_class": ("analysis.aggregate", lambda args, r: {"classes": len(r)}),
        "rank_classes": ("analysis.rank", None),
        "kendall_tau": ("analysis.corr", None),
        "detect_outliers": ("analysis.outliers", None),
    },
    "textnet": {
        "build_cooccurrence_graph": ("textnet.graph", lambda args, r: {"edges": len(r.edges)}),
        "eigenvector_centrality": (
            "textnet.centrality",
            lambda args, r: {"component_words": sum(1 for v in r.values() if v > 0)},
        ),
        "word_frequencies": ("textnet.report", None),
        "edge_rows": ("textnet.report", None),
        "to_dot": ("textnet.report", None),
    },
}
PER_ITEM = {
    "entropy": {"adjust_by_frequency": "entropy.adjust"},
    "textnet": {"tokenize": "textnet.tokenize"},
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and per-item totals of one traced call, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.items: dict[str, list] = {}  # name -> [calls, seconds]
        self.captured: dict[str, list] = {}  # span name -> returned values
        self._stack: list[dict] = []

    def span(self, name, fn, counter=None, capture=False):
        def traced(*args, **kwargs):
            record = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "item_s": 0.0,
            }
            self.spans.append(record)
            self._stack.append(record)
            rss = _peak_rss_mb()
            record["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = perf_counter()
                record["rss_mb"] = _peak_rss_mb() - rss
                self._stack.pop()
            if counter is not None:
                record["counts"] = counter(args, result)
            if capture:
                self.captured.setdefault(name, []).append(result)
            return result

        return traced

    def per_item(self, name, fn):
        totals = self.items.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                totals[0] += 1
                totals[1] += took
                if self._stack:
                    self._stack[-1]["item_s"] += took

        return traced

    def install(self, package) -> None:
        """Replace each listed function of the package's modules with its
        traced wrapper."""
        for module_name, functions in SPANS.items():
            module = getattr(package, module_name)
            for fn_name, (span_name, counter) in functions.items():
                capture = span_name in ("entropy.score", "entropy.normalize")
                wrapped = self.span(span_name, getattr(module, fn_name), counter, capture)
                setattr(module, fn_name, wrapped)
        for module_name, functions in PER_ITEM.items():
            module = getattr(package, module_name)
            for fn_name, item_name in functions.items():
                setattr(module, fn_name, self.per_item(item_name, getattr(module, fn_name)))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct child spans and
    per-item calls cover."""
    out = {s["id"]: s["end"] - s["start"] - s["item_s"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_self_times(spans: list[dict], items: dict[str, list]) -> dict[str, float]:
    """Layer (the span name's prefix) -> summed self time of its spans and
    per-item calls. The layers' totals add up to the root spans' durations."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + own[s["id"]]
    for name, (_, seconds) in items.items():
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def _captured_values(tracer: Tracer) -> dict:
    """Scores from the last ``score_maps`` and ``normalize_scores`` calls, as
    columns."""
    out = {}
    scores = tracer.captured.get("entropy.score", [])
    if scores:
        rows = scores[-1][0]
        for name in ("source", "m", "m0", "v", "h_a", "h_b", "ur", "h_a_weighted"):
            out[name] = [getattr(s, name) for s in rows]
    normalized = tracer.captured.get("entropy.normalize", [])
    if normalized:
        for name in ("z_alpha", "z_beta", "z_ur"):
            out[name] = [getattr(z, name) for z in normalized[-1]]
    return out


def main(argv: list[str]) -> int:
    src, prefix, trace = argv[0], argv[1], argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    import gementropy
    from gementropy import cli

    tracer = Tracer()
    run = cli.main
    if trace:
        tracer.install(gementropy)
        run = tracer.span("cli.main", cli.main)
    start = perf_counter()
    rc = run(cli_args)
    main_s = perf_counter() - start
    with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "main_s": main_s, "spans": tracer.spans, "items": tracer.items}, fh)
    if trace:
        with open(f"{prefix}.values.json", "w", encoding="utf-8") as fh:
            json.dump(_captured_values(tracer), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
