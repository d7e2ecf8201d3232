"""Command-line toolkit: crosswalk ingestion -> scoring -> normalization ->
analysis -> deterministic CSV/JSON reports.

Subcommands: score, stats, rank, corr, outliers, textnet, verify-example.
Only ``score`` takes ``--weights`` (adds ``h_a_weighted``) and ``--frequencies``
(adds the frequency-adjusted z-scores); ``rank``, ``outliers`` and ``textnet``
report plain z-scores and take ``--denominator`` alone. The analysis layer
returns columns and indices, so ``rank``, ``outliers`` and ``textnet`` write
their reports by indexing the z-score table and the class table.

Importing this module loads only the standard library, not even ``json``
(for JSON files only). Each command imports the layers it runs when it
starts, through the package (``from . import gem_io``), so a layer's functions
are looked up on its module at call time. ``corr`` loads ``analysis`` alone,
whose Kendall tau-b needs no numpy, so a ``corr`` process never imports numpy;
the report writer uses numpy only for columns that already are numpy arrays.

``run()`` is the process entry point, of ``python -m gementropy.cli`` and of
the ``gementropy`` console script: it calls ``main()``, then ``gc.freeze()``,
then exits with its code. Interpreter finalization would otherwise run the
cyclic garbage collector over every object still alive, numpy's modules
among them, although the process frees all its memory when it ends; frozen
objects are left out of that pass (about 20 ms of a ``rank`` or ``textnet``
process). ``main()`` returns the exit code and never freezes, for callers
that run commands in-process. What escapes ``main()`` (argparse's usage
error, an uncaught exception, ``KeyboardInterrupt``) ends the process as
before, without the freeze.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import GemError

if TYPE_CHECKING:
    from . import analysis, entropy

# Reference map shipped with the tool: source code 0052 of the 2015
# ICD-9-CM Vol.3 -> ICD-10-PCS crosswalk, whose measures are known exactly.
REFERENCE_MAP_LINES = """\
0052 02H43JZ 10000
0052 02H43KZ 10000
0052 02H43MZ 10000
0052 02H43KZ 10111
0052 02H43MZ 10111
0052 02PA0MZ 10112
0052 02PA3MZ 10112
0052 02PA4MZ 10112
"""

REFERENCE_MAP_EXPECTED = {
    "m": (8, 0),
    "m0": (3, 0),
    "v": (9, 0),
    "h_a": (4.26, 0.01),
    "h_b": (3.17, 0.01),
    "ur": (3.00, 1e-9),
}
REFERENCE_COLUMN_ENTROPIES = (0.0, 0.0, 0.95, 0.95, 1.06, 1.30, 0.0)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# Rows joined per block take a few MB, where 69,823 at once took 20 MB (CSV) and
# 44 MB (JSON). A numeric run has one text per distinct row (1,666 for
# narrow-score's 67,719 maps).
_REPORT_BLOCK = 8192

_needs_quotes = re.compile('[,"\r\n]').search


def _json_cell(value) -> str:
    import json
    return json.dumps(value)


def _csv_cell(value) -> str:
    text = "" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)
    if _needs_quotes(text) is None:
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _column_blocks(prefix: str, column, fmt: str, blocks: range):
    """A non-numeric column's texts per block of rows, after ``prefix`` in JSON."""
    text_array = getattr(getattr(column, "dtype", None), "kind", "") == "U"
    for lo in blocks:
        cells = column[lo : lo + _REPORT_BLOCK]
        cells = cells.tolist() if hasattr(cells, "tolist") else list(cells)
        strings = text_array or set(map(type, cells)) <= {str}  # no per-cell dispatch
        if fmt == "json":
            from json.encoder import encode_basestring_ascii
            encode = encode_basestring_ascii if strings else _json_cell
            yield list(map(prefix.__add__, map(encode, cells)))
        elif strings and _needs_quotes("".join(cells)) is None:
            yield cells
        else:
            yield list(map(_csv_cell, cells))


def _run_blocks(run: list, fmt: str, sep: str, blocks: range):
    """Texts of a run of float64/int64 (prefix, column) pairs per block of rows. One
    lexsort of the columns' int64 bit patterns (-0.0 and NaN keep their text) groups
    equal rows; each distinct row is joined by ``sep`` once, from each column's
    distinct values among one row of each, formatted once."""
    import numpy as np

    cell = _csv_cell if fmt == "csv" else _json_cell
    bits = [column.view(np.int64) for _, column in run]
    order = np.lexsort(bits)
    first = np.zeros(len(order), dtype=bool)  # sorted rows that differ from the one before
    first[:1] = True
    for column in bits:
        ordered = column[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    some_row = order[first]  # a row of each distinct row, in sorted order
    cells = []
    for (prefix, column), column_bits in zip(run, bits):
        distinct, inverse = np.unique(column_bits[some_row], return_inverse=True)
        texts = [prefix + cell(value) for value in distinct.view(column.dtype).tolist()]
        cells.append(np.array(texts, dtype=object)[inverse].tolist())
    rows = np.array(list(map(sep.join, zip(*cells))), dtype=object)
    code = np.empty(len(order), dtype=np.min_scalar_type(len(rows)))
    code[order] = np.cumsum(first) - 1
    del bits, order, first, cells
    for lo in blocks:
        yield rows[code[lo : lo + _REPORT_BLOCK]].tolist()


def _text_blocks(cells: list, fmt: str, sep: str):
    """Per block of rows, a list of texts per numeric run of ``cells`` and per other cell."""
    n_rows = min((len(column) for _, column in cells), default=0)
    blocks = range(0, n_rows, _REPORT_BLOCK)
    numeric = (np.float64, np.int64) if (np := sys.modules.get("numpy")) else ()
    parts = []
    for is_run, group in itertools.groupby(cells, lambda c: getattr(c[1], "dtype", 0) in numeric):
        if is_run:
            parts.append(_run_blocks([(p, c[:n_rows]) for p, c in group], fmt, sep, blocks))
        else:
            parts.extend(_column_blocks(prefix, column, fmt, blocks) for prefix, column in group)
    return zip(*parts)


def _csv_text(columns: list, n_rows: int) -> str:
    """The CSV lines of ``n_rows`` rows from a list of cell texts per column
    (or per numeric run, whose joined text is never empty), joined once with
    their separators."""
    width = len(columns)
    if width == 0:
        return "\n" * n_rows
    if width == 1:  # csv.writer quotes a row of one empty field
        columns = [['""' if cell == "" else cell for cell in columns[0]]]
    parts = [","] * (2 * width * n_rows)
    for i, cells in enumerate(columns):
        parts[2 * i :: 2 * width] = cells
    parts[2 * width - 1 :: 2 * width] = ["\n"] * n_rows
    return "".join(parts)


def _write_report(out_dir: Path, name: str, fmt: str, columns) -> Path:
    """Write one report from named columns: a mapping from header to a numpy
    array or a sequence, in column order (or (header, column) pairs where a
    header repeats; JSON then keeps its first place and its last column).

    A cell is written as ``csv.writer`` and ``json.dump(indent=2)`` write
    it: a CSV float has 6 significant digits (``f"{x:.6g}"``: ``nan``,
    ``inf``, ``-0``) and a JSON float keeps ``repr`` precision (``NaN``,
    ``Infinity``, ``-Infinity``); an int is written exactly; None is ``""``
    in CSV and ``null`` in JSON; a CSV string is quoted as QUOTE_MINIMAL
    quotes it, and a JSON string is escaped to ASCII. An empty JSON report
    is ``[]``. Adjacent float64/int64 arrays are formatted once per distinct
    row; other cells, and rows, ``_REPORT_BLOCK`` rows at a time.
    """
    pairs = list(columns.items()) if isinstance(columns, dict) else list(columns)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.{fmt}"
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text([[_csv_cell(key)] for key, _ in pairs], 1))
            for texts in _text_blocks([("", column) for _, column in pairs], fmt, ","):
                fh.write(_csv_text(texts, len(texts[0])))
        return path
    # the records of json.dump(indent=2)
    cells = [("    %s: " % _json_cell(key), column) for key, column in dict(pairs).items()]
    with open(path, "w", encoding="utf-8") as fh:
        opening = "[\n"
        for texts in _text_blocks(cells, fmt, ",\n"):
            records = map("  {\n%s\n  }".__mod__, map(",\n".join, zip(*texts)))
            fh.write(opening + ",\n".join(records))
            opening = ",\n"
        fh.write("[]\n" if opening == "[\n" else "\n]\n")
    return path


def _parse_weights(text: str) -> list[float]:
    try:
        weights = [float(w) for w in text.split(",") if w.strip()]
    except ValueError:
        raise ValueError(f"--weights expects comma-separated numbers, got {text!r}")
    if not weights:
        raise ValueError("--weights is empty")
    return weights


def _score(args, weights=None):
    """Parse, group and score one crosswalk file: (scores, excluded maps)."""
    from . import entropy, gem_io

    entries = gem_io.parse_gem_file(args.gems)
    return entropy.score_maps(gem_io.group_maps(entries), weights)


def _normalize(scores, denominator: str) -> entropy.ZScoreTable:
    """Corpus z-scores; too few maps or a constant measure is an error."""
    from . import entropy

    if not scores:
        raise GemError("no scorable maps in the input file")
    if len(scores) < 2:
        raise GemError("need at least 2 scored maps to normalize")
    return entropy.normalize_scores(scores, denominator)


def _excluded_columns(excluded) -> dict:
    """Source, entry count and first line of each excluded map; a map read
    from a file has at least one line."""
    starts = excluded.starts
    return {
        "source": excluded.source,
        "entry_count": starts[1:] - starts[:-1],
        "first_line": excluded.lines.line[excluded.rows[starts[:-1]]],
    }


def cmd_score(args) -> int:
    from . import entropy, gem_io

    weights = _parse_weights(args.weights) if args.weights else None
    scores, excluded = _score(args, weights)
    excluded = _excluded_columns(excluded)  # frees its lines: the whole parsed crosswalk
    freqs = gem_io.load_frequencies(args.frequencies) if args.frequencies else None
    names = ["source", "m", "m0", "v", "h_a", "h_b", "ur"]
    if weights is not None:
        names.append("h_a_weighted")
    columns = {name: getattr(scores, name) for name in names}
    normalized = None
    if scores:
        try:
            normalized = _normalize(scores, args.denominator)
        except GemError as exc:
            _warn(f"{exc}; normalization skipped")
    if normalized is not None:
        if freqs is not None:
            normalized = entropy.adjust_by_frequency(normalized, freqs)
        z_names = ["z_alpha", "z_beta", "z_ur"]
        if normalized.adjusted_z_alpha is not None:
            z_names += ["adjusted_z_alpha", "adjusted_z_beta", "adjusted_z_ur"]
        columns.update((name, getattr(normalized, name)) for name in z_names)
    out = Path(args.out)
    path = _write_report(out, "scores", args.format, columns)
    excl_path = _write_report(out, "excluded", args.format, excluded)
    print(f"scored {len(scores)} maps -> {path}")
    print(f"excluded {len(excluded['source'])} no-match maps -> {excl_path}")
    return 0


def cmd_stats(args) -> int:
    from . import analysis

    scores, excluded = _score(args)
    if not scores:
        raise GemError("no scorable maps in the input file")
    stats = {
        field: analysis.descriptive_stats(getattr(scores, field))
        for field in ("h_a", "h_b", "ur")
    }
    columns = {"measure": list(stats)}
    for name in ("count", "mean", "std", "min", "q25", "q50", "q75", "max"):
        columns[name] = [getattr(st, name) for st in stats.values()]
    path = _write_report(Path(args.out), "stats", args.format, columns)
    for field, st in stats.items():
        print(
            f"{field}: count={st.count} mean={st.mean:.2f} std={st.std:.2f} "
            f"min={st.min:.2f} q25={st.q25:.2f} q50={st.q50:.2f} "
            f"q75={st.q75:.2f} max={st.max:.2f}"
        )
    print(f"({len(excluded)} no-match maps excluded) -> {path}")
    return 0


def cmd_rank(args) -> int:
    from . import analysis, gem_io

    normalized = _normalize(_score(args)[0], args.denominator)
    defs = gem_io.load_class_defs(args.classes)
    classes = analysis.aggregate_by_class(normalized, defs)
    counts = classes.starts[1:] - classes.starts[:-1]
    out = Path(args.out)
    paths = []
    for measure in analysis.RANK_MEASURES:
        order = analysis.rank_classes(classes, measure)
        scores = classes.value(measure)[order]
        picked = order.tolist()
        columns = {
            "rank": range(1, len(order) + 1),
            "class_id": [classes.ids[k] for k in picked],
            "label": [classes.labels[k] for k in picked],
            "score": scores,
            "avg_rank": analysis.average_ranks(scores.tolist()),
            "member_count": counts[order],
        }
        paths.append(_write_report(out, f"rank_{measure}", args.format, columns))
    members = classes.members
    columns = {
        "class_id": [c for c, n in zip(classes.ids, counts.tolist()) for _ in range(n)],
        "source": normalized.source[members],
        "z_alpha": normalized.z_alpha[members],
        "z_beta": normalized.z_beta[members],
        "z_ur": normalized.z_ur[members],
    }
    paths.append(_write_report(out, "class_members", args.format, columns))
    print(f"ranked {len(classes)} classes -> {', '.join(str(p) for p in paths)}")
    return 0


def _read_rank_file(path: str) -> analysis.RankTable:
    from . import analysis

    is_json = Path(path).suffix.lower() == ".json"
    with open(path, encoding="utf-8-sig", newline="") as fh:
        if is_json:
            import json
            try:
                records = json.load(fh)
            except ValueError as exc:
                raise GemError(f"{path}: rank file is not valid JSON: {exc}") from None
            if not isinstance(records, list):
                raise GemError(f"{path}: rank file must hold a list of records")
            located = [(f": record {i}", record) for i, record in enumerate(records)]
        else:
            reader = csv.DictReader(fh)
            try:
                fields = reader.fieldnames
                located = [(f":{reader.line_num}", row) for row in reader]
            except csv.Error as exc:
                raise GemError(f"{path}:{reader.reader.line_num}: {exc}") from None
            except UnicodeDecodeError as exc:
                raise GemError(f"{path}: not UTF-8: {exc.reason}") from None
            if fields is None or not {"class_id", "score"} <= set(fields):
                raise GemError(f"{path}: rank file needs class_id and score columns")
    pairs = {}
    for where, record in located:
        try:
            class_id, score = record["class_id"], record["score"]
            # a JSON score is a number, not a bool or a string; a CSV cell
            # is read by float, which alone would also take "1_0" as 10
            if (type(score) not in (int, float)) if is_json else ("_" in score):
                raise ValueError
            score = float(score)
        except (KeyError, TypeError, ValueError, OverflowError):
            raise GemError(f"{path}{where}: needs a class_id and a numeric score") from None
        if not isinstance(class_id, str):
            raise GemError(f"{path}{where}: class_id must be a string, got {class_id!r}")
        if not math.isfinite(score):
            raise GemError(f"{path}{where}: score must be finite, got {record['score']!r}")
        if class_id in pairs:
            raise GemError(f"{path}{where}: class_id {class_id!r} is listed twice")
        pairs[class_id] = score
    if not pairs:
        raise GemError(f"{path}: rank file is empty")
    if len(pairs) < 2:
        raise GemError(f"{path}: need at least 2 classes to correlate, got 1")
    return analysis.RankTable(path, pairs)


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file (``r.csv`` and ``./r.csv`` do); a
    path that cannot be read is compared as text, and fails when read."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return a == b


def cmd_corr(args) -> int:
    from . import analysis

    paths = args.rank_files
    for i, path in enumerate(paths):
        if any(_same_file(path, other) for other in paths[:i]):
            raise GemError(f"{path}: rank file given more than once")
    tables = [_read_rank_file(path) for path in paths]
    labels = [Path(path).stem for path in paths]
    if len({"ranking", *labels}) <= len(labels):  # stems collide: label by path
        labels = list(paths)
    # tau is symmetric: compute each unordered pair once, the diagonal too,
    # where a constant ranking is rejected
    taus = [[0.0] * len(tables) for _ in tables]
    for i, a in enumerate(tables):
        for j in range(i, len(tables)):
            taus[i][j] = taus[j][i] = analysis.kendall_tau(a, tables[j])
    columns = [("ranking", labels), *zip(labels, zip(*taus))]
    path = _write_report(Path(args.out), "corr", args.format, columns)
    for label, row in zip(labels, taus):
        print(label + ": " + "  ".join(f"{tau:6.3f}" for tau in row))
    print(f"-> {path}")
    return 0


def _outlier_columns(args) -> dict:
    """The source and score columns of the outlier maps, highest first."""
    from . import analysis

    normalized = _normalize(_score(args)[0], args.denominator)
    selected = analysis.detect_outliers(
        normalized, args.measure, threshold=args.threshold, top_fraction=args.top_fraction
    )
    return {
        "source": normalized.source[selected].tolist(),
        "score": getattr(normalized, args.measure)[selected],
    }


def cmd_outliers(args) -> int:
    from . import gem_io

    columns = _outlier_columns(args)
    if args.descriptions:
        descriptions = gem_io.load_descriptions(args.descriptions)
        columns["description"] = [descriptions.get(s, "") for s in columns["source"]]
    path = _write_report(Path(args.out), f"outliers_{args.measure}", args.format, columns)
    print(f"{len(columns['source'])} outliers on {args.measure} -> {path}")
    return 0


def cmd_textnet(args) -> int:
    import numpy as np

    from . import gem_io, textnet

    outliers = _outlier_columns(args)
    sources = outliers["source"]
    descriptions = gem_io.load_descriptions(args.descriptions)
    missing = [source for source in sources if source not in descriptions]
    if missing:
        _warn(f"{len(missing)} outlier map(s) have no description: {missing[:5]}")
    token_lists = [
        textnet.tokenize(descriptions[source]) for source in sources if source in descriptions
    ]
    graph = textnet.build_cooccurrence_graph(token_lists)
    centrality = textnet.eigenvector_centrality(graph)

    out = Path(args.out)
    prefix = f"textnet_{args.measure}"
    words, counts, (a, b) = graph.words, graph.counts, graph.edges.T
    values = np.array(list(centrality.values()))
    # words tied in exact arithmetic can differ in the last bits
    ranked = np.argsort([-round(v, 12) for v in values.tolist()], kind="stable")
    by_count = np.argsort(-counts, kind="stable")
    reports = {
        f"outliers_{args.measure}": outliers,
        f"{prefix}_edges": {"word_a": words[a], "word_b": words[b], "weight": graph.weights},
        f"{prefix}_word_frequencies": {"word": words[by_count], "count": counts[by_count]},
        f"{prefix}_centrality": {"word": words[ranked], "centrality": values[ranked]},
    }
    paths = [
        _write_report(out, name, args.format, columns) for name, columns in reports.items()
    ]
    out.mkdir(parents=True, exist_ok=True)
    dot_path = out / f"{prefix}_graph.dot"
    dot_path.write_text(textnet.to_dot(graph), encoding="utf-8")
    paths.append(dot_path)
    print(
        f"{len(sources)} outliers, {len(words)} words, "
        f"{len(graph.edges)} edges -> {', '.join(str(p) for p in paths)}"
    )
    return 0


def run_reference_example():
    """Score the bundled reference map; returns (name, expected, actual,
    tolerance, ok) checks."""
    from . import entropy, gem_io

    entries = gem_io.parse_gem_file(io.StringIO(REFERENCE_MAP_LINES), "<reference>")
    maps = gem_io.group_maps(entries)
    scores, _ = entropy.score_maps(maps)
    checks = []
    for name, (expected, tol) in REFERENCE_MAP_EXPECTED.items():
        actual = getattr(scores, name)[0]
        checks.append((name, expected, actual, tol, abs(actual - expected) <= tol))
    cols, _ = entropy.column_entropies(maps)
    for j, expected in enumerate(REFERENCE_COLUMN_ENTROPIES, start=1):
        actual = float(cols[j - 1])
        checks.append(
            (f"column_{j}", expected, actual, 0.01, abs(actual - expected) <= 0.01)
        )
    return checks


def cmd_verify_example(_args) -> int:
    checks = run_reference_example()
    failed = 0
    for name, expected, actual, tol, ok in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: expected {expected} (±{tol}), got {actual:.6g}")
        if not ok:
            failed += 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    print("reference example verified")
    return 0


def _add_io_options(parser, gems=True):
    if gems:
        parser.add_argument("--gems", required=True, help="crosswalk file to analyze")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format"
    )
    parser.add_argument("--out", default=".", help="output directory")


def _add_denominator_option(parser):
    parser.add_argument(
        "--denominator",
        choices=("std", "variance"),
        default="std",
        help="z-score denominator (sample std or sample variance)",
    )


def _add_outlier_options(parser):
    parser.add_argument(
        "--measure",
        choices=("z_alpha", "z_beta", "z_ur"),  # analysis.OUTLIER_MEASURES, not imported
        default="z_alpha",
        help="normalized measure to scan",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=float, help="keep scores strictly above")
    group.add_argument(
        "--top-fraction",
        type=float,
        help="keep at most this fraction of maps (0, 1]",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gementropy",
        description="Entropy-based complexity analysis of medical code crosswalks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="per-map measures and z-scores")
    _add_io_options(p)
    p.add_argument(
        "--weights",
        help="finite positive weights, comma-separated, one per position of the widest code",
    )
    _add_denominator_option(p)
    p.add_argument("--frequencies", help="code,probability CSV; adds adjusted z-scores")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("stats", help="descriptive statistics of the raw measures")
    _add_io_options(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("rank", help="clinical-class rankings per measure")
    _add_io_options(p)
    p.add_argument("--classes", required=True, help="low,high,label CSV of classes")
    _add_denominator_option(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("corr", help="Kendall tau matrix between rank files")
    p.add_argument("rank_files", nargs="+", help="two or more rank report files")
    _add_io_options(p, gems=False)
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("outliers", help="maps whose z-score exceeds a threshold")
    _add_io_options(p)
    _add_denominator_option(p)
    _add_outlier_options(p)
    p.add_argument("--descriptions", help="code,description CSV")
    p.set_defaults(func=cmd_outliers)

    p = sub.add_parser(
        "textnet", help="word co-occurrence network of outlier descriptions"
    )
    _add_io_options(p)
    _add_denominator_option(p)
    _add_outlier_options(p)
    p.add_argument("--descriptions", required=True, help="code,description CSV")
    p.set_defaults(func=cmd_textnet)

    p = sub.add_parser(
        "verify-example", help="check the bundled reference map against known values"
    )
    p.set_defaults(func=cmd_verify_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "corr" and len(args.rank_files) < 2:
        parser.error("corr needs at least two rank files")
    try:
        return args.func(args)
    except (GemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run ``main()`` on ``sys.argv`` and exit with its code, after freezing
    every live object so that the exit skips a final collection."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
