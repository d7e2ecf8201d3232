"""Command-line toolkit: crosswalk ingestion -> scoring -> normalization ->
analysis -> deterministic CSV/JSON reports.

Subcommands: score, stats, rank, corr, outliers, textnet, verify-example.
Only ``score`` takes ``--weights`` (adds ``h_a_weighted``) and ``--frequencies``
(adds the frequency-adjusted z-scores, which no z-score table holds); ``rank``,
``outliers`` and ``textnet`` report plain z-scores and take ``--denominator``
alone. The analysis layer returns columns and indices, so ``rank``,
``outliers`` and ``textnet`` write their reports by indexing the z-score table
and the class table.

Importing this module loads only the standard library, not even ``json``
(for JSON files only). Each command imports the layers it runs when it
starts, through the package (``from . import gem_io``), so a layer's functions
are looked up on its module at call time. ``corr`` reads a CSV rank file as
a side table (``errors.read_table``) and loads ``analysis`` alone, whose
Kendall tau-b needs no numpy, so a ``corr`` process never imports numpy;
the report writer uses numpy only for columns that already are numpy arrays.

``run()`` is the process entry point, of ``python -m gementropy.cli`` and of
the ``gementropy`` console script. It sets ``OPENBLAS_NUM_THREADS`` to 1
unless the caller set it, before any layer imports numpy (a batch command
gains nothing from BLAS threads, and starting them takes numpy's import
time), and calls ``main()``. It then flushes stdout and stderr and ends the
process with ``os._exit``: interpreter finalization would otherwise tear
down every module and object still alive, numpy's among them, although the
process frees all its memory when it ends. Reports are closed files by
then. A flush that raises (a closed pipe) exits through ``sys.exit``
instead, as Python reports it. ``main()`` returns the exit code, for callers
that run commands in-process, and builds the parser of the command its argv
starts with alone. What escapes ``main()`` (argparse's usage error, an
uncaught exception, ``KeyboardInterrupt``) ends the process as before,
through finalization.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DegenerateMeasureError, GemError, decode, parse_number, read_source, read_table

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


def _needs_quotes(text: str) -> bool:
    """Whether a CSV cell's text holds a comma, a quote, CR or LF."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _json_cell(value) -> str:
    import json
    return json.dumps(value)


def _csv_cell(value) -> str:
    text = "" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)
    if not _needs_quotes(text):
        return text
    return '"' + text.replace('"', '""') + '"'


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
        elif strings and not _needs_quotes("".join(cells)):
            yield cells
        else:
            yield list(map(_csv_cell, cells))


def _run_blocks(run: list, fmt: str, sep: str, blocks: range):
    """Texts of a run of float64/int64 (prefix, column) pairs per block of rows. An
    argsort of a hash of the columns' int64 bit patterns (-0.0 and NaN keep their text)
    brings equal rows together; a row unlike the one before it starts a group (a hash
    collision only splits one), joined by ``sep`` once from each column's distinct
    values among one row of each group, each formatted once as a cell."""
    import numpy as np

    bits = [column.view(np.int64) for _, column in run]
    mixed = np.zeros(len(bits[0]), dtype=np.uint64)
    for column in bits:  # a polynomial hash modulo 2**64, with an odd multiplier
        mixed *= np.uint64(0x9E3779B97F4A7C15)
        mixed += column.view(np.uint64)
    order = np.argsort(mixed)
    first = np.zeros(len(order), dtype=bool)  # sorted rows that differ from the one before
    first[:1] = True
    for column in bits:
        ordered = column[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    some_row = order[first]  # a row of each distinct row, in sorted order
    cell = _json_cell if fmt == "json" else _csv_cell
    cells = []
    for (prefix, column), column_bits in zip(run, bits):
        distinct, inverse = np.unique(column_bits[some_row], return_inverse=True)
        texts = [prefix + cell(value) for value in distinct.view(column.dtype).tolist()]
        cells.append(np.array(texts, dtype=object)[inverse].tolist())
    rows = np.array(list(map(sep.join, zip(*cells))), dtype=object)
    code = np.empty(len(order), dtype=np.min_scalar_type(len(rows)))
    code[order] = np.cumsum(first) - 1
    del bits, mixed, order, first, cells
    for lo in blocks:
        yield rows[code[lo : lo + _REPORT_BLOCK]].tolist()


def _text_blocks(cells: list, fmt: str, sep: str):
    """Per block of rows, a list of texts per numeric run of ``cells`` and per other cell."""
    blocks = range(0, len(cells[0][1]), _REPORT_BLOCK)
    numeric = (np.float64, np.int64) if (np := sys.modules.get("numpy")) else ()
    parts = []
    for is_run, group in itertools.groupby(cells, lambda c: getattr(c[1], "dtype", 0) in numeric):
        if is_run:
            parts.append(_run_blocks(list(group), fmt, sep, blocks))
        else:
            parts.extend(_column_blocks(prefix, column, fmt, blocks) for prefix, column in group)
    return zip(*parts)


def _csv_text(columns: list, n_rows: int) -> str:
    """The CSV lines of ``n_rows`` rows from a list of cell texts per column
    (or per numeric run, whose joined text is never empty), joined once with
    their separators."""
    width = len(columns)
    if width == 1:  # csv.writer quotes a row of one empty field
        columns = [['""' if cell == "" else cell for cell in columns[0]]]
    parts = [","] * (2 * width * n_rows)
    for i, cells in enumerate(columns):
        parts[2 * i :: 2 * width] = cells
    parts[2 * width - 1 :: 2 * width] = ["\n"] * n_rows
    return "".join(parts)


def _write_report(out_dir: Path, name: str, fmt: str, columns: dict) -> Path:
    """Write one report from named columns: a dict from header to a numpy
    array or a sequence, in column order, at least one, all of one length.

    A cell is written as ``csv.writer`` and ``json.dump(indent=2)`` write
    it: a CSV float has 6 significant digits (``f"{x:.6g}"``: ``nan``,
    ``inf``, ``-0``) and a JSON float keeps ``repr`` precision (``NaN``,
    ``Infinity``, ``-Infinity``); an int is written exactly; None is ``""``
    in CSV and ``null`` in JSON; a CSV string holding a comma, a quote, CR
    or LF is quoted, its quotes doubled (a bare CR too, which ``csv.writer``
    quotes from Python 3.13 on only), and a JSON string is escaped to
    ASCII. An empty JSON report is ``[]``. Adjacent float64/int64 arrays are formatted once per distinct
    row; other cells, and rows, ``_REPORT_BLOCK`` rows at a time.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.{fmt}"
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text([[_csv_cell(key)] for key in columns], 1))
            for texts in _text_blocks([("", column) for column in columns.values()], fmt, ","):
                fh.write(_csv_text(texts, len(texts[0])))
        return path
    # the records of json.dump(indent=2)
    cells = [("    %s: " % _json_cell(key), column) for key, column in columns.items()]
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
        weights = [parse_number(w) for w in text.split(",") if w.strip()]
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


def _normalize(scores, args) -> entropy.ZScoreTable:
    """Corpus z-scores of the crosswalk ``args.gems``; too few maps or a
    constant measure is an error that names it."""
    from . import entropy

    if not scores:
        raise GemError(f"{args.gems}: no scorable maps in the input file")
    if len(scores) < 2:
        raise GemError(f"{args.gems}: need at least 2 scored maps to normalize")
    try:
        return entropy.normalize_scores(scores, args.denominator)
    except DegenerateMeasureError as exc:
        raise GemError(f"{args.gems}: {exc}") from None


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
    names = ["source", "m", "m0", "v", *entropy.MEASURES]
    if weights is not None:
        names.append("h_a_weighted")
    columns = {name: getattr(scores, name) for name in names}
    if scores:
        try:
            normalized = _normalize(scores, args)
        except GemError as exc:
            _warn(f"{exc}; normalization skipped")
        else:
            columns.update((z, getattr(normalized, z)) for z in entropy.MEASURES.values())
            if freqs is not None:
                columns.update(entropy.adjust_by_frequency(normalized, freqs) or {})
    out = Path(args.out)
    path = _write_report(out, "scores", args.format, columns)
    excl_path = _write_report(out, "excluded", args.format, excluded)
    print(f"scored {len(scores)} maps -> {path}")
    print(f"excluded {len(excluded['source'])} no-match maps -> {excl_path}")
    return 0


def cmd_stats(args) -> int:
    from . import analysis, entropy

    scores, excluded = _score(args)
    if not scores:
        raise GemError(f"{args.gems}: no scorable maps in the input file")
    stats = {name: analysis.descriptive_stats(getattr(scores, name)) for name in entropy.MEASURES}
    columns = dict(zip(analysis.Stats._fields, map(list, zip(*stats.values()))))
    path = _write_report(Path(args.out), "stats", args.format, {"measure": list(stats), **columns})
    for name, st in stats.items():
        spread = " ".join(f"{field}={getattr(st, field):.2f}" for field in st._fields[1:])
        print(f"{name}: count={st.count} {spread}")
    print(f"({len(excluded)} no-match maps excluded) -> {path}")
    return 0


def cmd_rank(args) -> int:
    import numpy as np

    from . import analysis, gem_io

    normalized = _normalize(_score(args)[0], args)
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
            "rank": np.arange(1, len(order) + 1),
            "class_id": [classes.ids[k] for k in picked],
            "label": [classes.labels[k] for k in picked],
            "score": scores,
            "avg_rank": np.array(analysis.average_ranks(scores.tolist())),
            "member_count": counts[order],
        }
        paths.append(_write_report(out, f"rank_{measure}", args.format, columns))
    members = classes.members
    columns = {
        "class_id": [c for c, n in zip(classes.ids, counts.tolist()) for _ in range(n)],
        "source": normalized.source[members],
        **{z: getattr(normalized, z)[members] for z in analysis.OUTLIER_MEASURES},
    }
    paths.append(_write_report(out, "class_members", args.format, columns))
    print(f"ranked {len(classes)} classes -> {', '.join(str(p) for p in paths)}")
    return 0


def _read_rank_file(path: str) -> analysis.RankTable:
    from . import analysis

    is_json = Path(path).suffix.lower() == ".json"
    if is_json:
        import json
        try:  # an undecodable byte raises a ParseError, which is no ValueError
            records = json.loads(decode(read_source(path)[1], path))
        except json.JSONDecodeError as exc:
            raise GemError(f"{path}:{exc.lineno}: rank file is not valid JSON: {exc}") from None
        except ValueError as exc:  # an integer of more digits than int() reads
            raise GemError(f"{path}: rank file is not valid JSON: {exc}") from None
        except RecursionError:
            raise GemError(f"{path}: rank file nests too deeply to read") from None
        if not isinstance(records, list):
            raise GemError(f"{path}: rank file must hold a list of records")
        located = [(f": record {i}", record) for i, record in enumerate(records)]
    else:
        _, (ids, scores), lines = read_table(path, path, ("class_id", "score"),
                                             missing="rank file needs class_id and score columns")
        located = [(f":{line}", {"class_id": c, "score": s})
                   for c, s, line in zip(ids, scores, lines)]
    pairs = {}
    for where, record in located:
        try:
            class_id, score = record["class_id"], record["score"]
            # a JSON score is a number, not a bool or a string
            if is_json and type(score) not in (int, float):
                raise ValueError
            score = float(score) if is_json else parse_number(score)
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
        labels = [os.path.join(".", path) if path == "ranking" else path for path in paths]
    # tau is symmetric: compute each unordered pair once, the diagonal too,
    # where a constant ranking is rejected
    taus = [[0.0] * len(tables) for _ in tables]
    for i, a in enumerate(tables):
        for j in range(i, len(tables)):
            taus[i][j] = taus[j][i] = analysis.kendall_tau(a, tables[j])
    columns = {"ranking": labels, **dict(zip(labels, taus))}  # taus is symmetric
    path = _write_report(Path(args.out), "corr", args.format, columns)
    for label, row in zip(labels, taus):
        print(label + ": " + "  ".join(f"{tau:6.3f}" for tau in row))
    print(f"-> {path}")
    return 0


def _outlier_columns(args) -> dict:
    """The source and score columns of the outlier maps, highest first."""
    from . import analysis

    normalized = _normalize(_score(args)[0], args)
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
    values = np.array(list(centrality.values()))
    # words tied in exact arithmetic can differ in the last bits
    ranked = np.argsort([-round(v, 12) for v in values.tolist()], kind="stable")
    reports = {
        f"outliers_{args.measure}": outliers,
        f"{prefix}_edges": textnet.edge_rows(graph),
        f"{prefix}_word_frequencies": textnet.word_frequencies(graph),
        f"{prefix}_centrality": {"word": graph.words[ranked], "centrality": values[ranked]},
    }
    paths = [
        _write_report(out, name, args.format, columns) for name, columns in reports.items()
    ]
    out.mkdir(parents=True, exist_ok=True)
    dot_path = out / f"{prefix}_graph.dot"
    dot_path.write_text(textnet.to_dot(graph), encoding="utf-8")
    paths.append(dot_path)
    print(
        f"{len(sources)} outliers, {len(graph.words)} words, "
        f"{len(graph.edges)} edges -> {', '.join(str(p) for p in paths)}"
    )
    return 0


def run_reference_example():
    """Score the bundled reference map; returns (name, expected, actual,
    tolerance, ok) checks."""
    from . import entropy, gem_io

    entries = gem_io.parse_gem_file(REFERENCE_MAP_LINES.encode(), "<reference>")
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


class _NegativeNumber:
    """argparse's test of whether a text that starts with ``-`` is a value,
    not an option: every number ``parse_number`` reads is (Python's own test,
    in 3.10 and 3.11, passes only ``-5`` and ``-.5``, not ``-1e-05`` or ``-inf``)."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            parse_number(text)
        except ValueError:
            return False
        return True


def _add_outlier_options(parser):
    parser.add_argument(
        "--measure",
        choices=("z_alpha", "z_beta", "z_ur"),  # analysis.OUTLIER_MEASURES, no layer imported
        default="z_alpha",
        help="normalized measure to scan",
    )
    # type=float reads with parse_number; argparse still says "invalid float value"
    parser.register("type", float, parse_number)
    parser._negative_number_matcher = _NegativeNumber
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=float, help="keep scores strictly above")
    group.add_argument(
        "--top-fraction",
        type=float,
        help="keep at most this fraction of maps (0, 1]",
    )


COMMANDS = ("score", "stats", "rank", "corr", "outliers", "textnet", "verify-example")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone, for an argv
    that starts with that command: such an argv reaches no other command's
    parser and no top-level help, and the top-level usage line still names
    every command."""
    parser = argparse.ArgumentParser(
        prog="gementropy",
        description="Entropy-based complexity analysis of medical code crosswalks",
    )
    # with one parser built, the metavar lists the commands in the usage
    # line; the full parser sets none, which would rename the argument in
    # its errors about a missing or unknown command
    metavar = None if command is None else "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name, help_text, func):
        """The parser of command ``name``, or None if it is not built."""
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    if p := add("score", "per-map measures and z-scores", cmd_score):
        _add_io_options(p)
        p.add_argument(
            "--weights",
            help="finite positive weights, comma-separated, one per position of the widest code",
        )
        _add_denominator_option(p)
        p.add_argument("--frequencies", help="code,probability CSV; adds adjusted z-scores")

    if p := add("stats", "descriptive statistics of the raw measures", cmd_stats):
        _add_io_options(p)

    if p := add("rank", "clinical-class rankings per measure", cmd_rank):
        _add_io_options(p)
        p.add_argument("--classes", required=True, help="low,high,label CSV of classes")
        _add_denominator_option(p)

    if p := add("corr", "Kendall tau matrix between rank files", cmd_corr):
        p.add_argument("rank_files", nargs="+", help="two or more rank report files")
        _add_io_options(p, gems=False)

    if p := add("outliers", "maps whose z-score exceeds a threshold", cmd_outliers):
        _add_io_options(p)
        _add_denominator_option(p)
        _add_outlier_options(p)
        p.add_argument("--descriptions", help="code,description CSV")

    if p := add("textnet", "word co-occurrence network of outlier descriptions", cmd_textnet):
        _add_io_options(p)
        _add_denominator_option(p)
        _add_outlier_options(p)
        p.add_argument("--descriptions", required=True, help="code,description CSV")

    add("verify-example", "check the bundled reference map against known values",
        cmd_verify_example)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command == "corr" and len(args.rank_files) < 2:
        parser.error("corr needs at least two rank files")
    try:
        return args.func(args)
    except (GemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run ``main()`` on ``sys.argv`` with one BLAS thread unless the caller
    chose a number, flush the standard streams and end the process with its
    code, skipping interpreter teardown; a flush that fails (a closed pipe)
    exits through ``sys.exit`` instead, as Python reports it."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe or stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
