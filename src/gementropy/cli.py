"""Command-line toolkit: crosswalk ingestion -> scoring -> normalization ->
analysis -> deterministic CSV/JSON reports.

Subcommands: score, stats, rank, corr, outliers, textnet, verify-example.
Only ``score`` takes ``--weights`` (adds ``h_a_weighted``) and ``--frequencies``
(adds the frequency-adjusted z-scores); ``rank``, ``outliers`` and ``textnet``
report plain z-scores and take ``--denominator`` alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import analysis, entropy, gem_io, textnet
from .errors import GemError

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


def _write_table(out_dir: Path, name: str, fmt: str, header, rows) -> Path:
    """Write one report. CSV carries 6-significant-digit floats; JSON keeps
    full precision."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out_dir / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(
                [
                    "" if cell is None else f"{cell:.6g}" if isinstance(cell, float) else str(cell)
                    for cell in row
                ]
                for row in rows
            )
    else:
        path = out_dir / f"{name}.json"
        records = [dict(zip(header, row)) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")
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
    entries = gem_io.parse_gem_file(args.gems)
    return entropy.score_maps(gem_io.group_maps(entries), weights)


def _normalize(scores, denominator: str) -> entropy.ZScoreTable:
    """Corpus z-scores; too few maps or a constant measure is an error."""
    if not scores:
        raise GemError("no scorable maps in the input file")
    if len(scores) < 2:
        raise GemError("need at least 2 scored maps to normalize")
    return entropy.normalize_scores(scores, denominator)


def _excluded_rows(excluded):
    """(source, entry count, first line) of each excluded map; a map read
    from a file has at least one line."""
    starts = excluded.starts
    first_line = excluded.lines.line[excluded.rows[starts[:-1]]]
    return zip(
        excluded.source.tolist(), (starts[1:] - starts[:-1]).tolist(), first_line.tolist()
    )


def cmd_score(args) -> int:
    weights = _parse_weights(args.weights) if args.weights else None
    scores, excluded = _score(args, weights)
    freqs = gem_io.load_frequencies(args.frequencies) if args.frequencies else None
    header = ["source", "m", "m0", "v", "h_a", "h_b", "ur"]
    if weights is not None:
        header.append("h_a_weighted")
    columns = [entropy.score_column(scores, name).tolist() for name in header]
    normalized = None
    if scores:
        try:
            normalized = _normalize(scores, args.denominator)
        except GemError as exc:
            _warn(f"{exc}; normalization skipped")
    if normalized is not None:
        if freqs is not None:
            normalized = entropy.adjust_by_frequency(normalized, freqs)
        z_header = ["z_alpha", "z_beta", "z_ur"]
        if normalized.adjusted_z_alpha is not None:
            z_header += ["adjusted_z_alpha", "adjusted_z_beta", "adjusted_z_ur"]
        header += z_header
        columns += [entropy.score_column(normalized, name).tolist() for name in z_header]
    out = Path(args.out)
    path = _write_table(out, "scores", args.format, header, zip(*columns))
    excl_path = _write_table(
        out,
        "excluded",
        args.format,
        ["source", "entry_count", "first_line"],
        _excluded_rows(excluded),
    )
    print(f"scored {len(scores)} maps -> {path}")
    print(f"excluded {len(excluded)} no-match maps -> {excl_path}")
    return 0


def cmd_stats(args) -> int:
    scores, excluded = _score(args)
    if not scores:
        raise GemError("no scorable maps in the input file")
    header = ["measure", "count", "mean", "std", "min", "q25", "q50", "q75", "max"]
    rows = []
    for field in ("h_a", "h_b", "ur"):
        st = analysis.descriptive_stats(getattr(scores, field))
        rows.append(
            [field, st.count, st.mean, st.std, st.min, st.q25, st.q50, st.q75, st.max]
        )
    path = _write_table(Path(args.out), "stats", args.format, header, rows)
    for row in rows:
        print(
            f"{row[0]}: count={row[1]} mean={row[2]:.2f} std={row[3]:.2f} "
            f"min={row[4]:.2f} q25={row[5]:.2f} q50={row[6]:.2f} "
            f"q75={row[7]:.2f} max={row[8]:.2f}"
        )
    print(f"({len(excluded)} no-match maps excluded) -> {path}")
    return 0


def cmd_rank(args) -> int:
    normalized = _normalize(_score(args)[0], args.denominator)
    defs = gem_io.load_class_defs(args.classes)
    class_scores = analysis.aggregate_by_class(normalized, defs)
    info = {cs.class_id: cs for cs in class_scores}
    out = Path(args.out)
    paths = []
    for measure in analysis.RANK_MEASURES:
        table = analysis.rank_classes(class_scores, measure)
        avg = table.average_ranks()
        rows = [
            (
                rank,
                class_id,
                info[class_id].label,
                score,
                avg[class_id],
                len(info[class_id].members),
            )
            for class_id, score, rank in table.rows
        ]
        paths.append(
            _write_table(
                out,
                f"rank_{measure}",
                args.format,
                ["rank", "class_id", "label", "score", "avg_rank", "member_count"],
                rows,
            )
        )
    member_rows = [
        (cs.class_id, source, za, zb, zur)
        for cs in class_scores
        for source, za, zb, zur in cs.members
    ]
    paths.append(
        _write_table(
            out,
            "class_members",
            args.format,
            ["class_id", "source", "z_alpha", "z_beta", "z_ur"],
            member_rows,
        )
    )
    print(f"ranked {len(class_scores)} classes -> {', '.join(str(p) for p in paths)}")
    return 0


def _read_rank_file(path: str) -> analysis.RankTable:
    p = Path(path)
    with open(p, encoding="utf-8", newline="") as fh:
        if p.suffix.lower() == ".json":
            try:
                records = json.load(fh)
            except ValueError as exc:
                raise GemError(f"{path}: rank file is not valid JSON: {exc}") from None
            if not isinstance(records, list):
                raise GemError(f"{path}: rank file must hold a list of records")
            located = [(f": record {i}", record) for i, record in enumerate(records)]
        else:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"class_id", "score"} <= set(
                reader.fieldnames
            ):
                raise GemError(f"{path}: rank file needs class_id and score columns")
            located = [(f":{reader.line_num}", row) for row in reader]
    pairs = []
    for where, record in located:
        try:
            pairs.append((str(record["class_id"]), float(record["score"])))
        except (KeyError, TypeError, ValueError):
            raise GemError(f"{path}{where}: needs a class_id and a numeric score") from None
    if not pairs:
        raise GemError(f"{path}: rank file is empty")
    ordered = sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
    rows = tuple(
        (class_id, score, rank) for rank, (class_id, score) in enumerate(ordered, 1)
    )
    return analysis.RankTable(measure=p.stem, rows=rows)


def cmd_corr(args) -> int:
    tables = [_read_rank_file(path) for path in args.rank_files]
    labels = [t.measure for t in tables]
    header = ["ranking"] + labels
    rows = []
    for i, a in enumerate(tables):
        row = [labels[i]]
        for b in tables:
            row.append(analysis.kendall_tau(a, b))
        rows.append(row)
    path = _write_table(Path(args.out), "corr", args.format, header, rows)
    for row in rows:
        print(
            row[0] + ": " + "  ".join(f"{tau:6.3f}" for tau in row[1:])
        )
    print(f"-> {path}")
    return 0


def _select_outliers(args):
    normalized = _normalize(_score(args)[0], args.denominator)
    return analysis.detect_outliers(
        normalized, args.measure, threshold=args.threshold, top_fraction=args.top_fraction
    )


def cmd_outliers(args) -> int:
    outliers = _select_outliers(args)
    descriptions = (
        gem_io.load_descriptions(args.descriptions) if args.descriptions else None
    )
    header = ["source", "score"]
    rows = [[source, score] for source, score in outliers]
    if descriptions is not None:
        header.append("description")
        for row in rows:
            row.append(descriptions.get(row[0], ""))
    path = _write_table(
        Path(args.out), f"outliers_{args.measure}", args.format, header, rows
    )
    print(f"{len(outliers)} outliers on {args.measure} -> {path}")
    return 0


def cmd_textnet(args) -> int:
    outliers = _select_outliers(args)
    descriptions = gem_io.load_descriptions(args.descriptions)
    missing = [source for source, _ in outliers if source not in descriptions]
    if missing:
        _warn(f"{len(missing)} outlier map(s) have no description: {missing[:5]}")
    token_lists = [
        textnet.tokenize(descriptions[source])
        for source, _ in outliers
        if source in descriptions
    ]
    graph = textnet.build_cooccurrence_graph(token_lists)
    centrality = textnet.eigenvector_centrality(graph)

    out = Path(args.out)
    prefix = f"textnet_{args.measure}"
    paths = [
        _write_table(
            out,
            f"outliers_{args.measure}",
            args.format,
            ["source", "score"],
            [(source, score) for source, score in outliers],
        ),
        _write_table(
            out,
            f"{prefix}_edges",
            args.format,
            ["word_a", "word_b", "weight"],
            textnet.edge_rows(graph),
        ),
        _write_table(
            out,
            f"{prefix}_word_frequencies",
            args.format,
            ["word", "count"],
            textnet.word_frequencies(graph),
        ),
        _write_table(
            out,
            f"{prefix}_centrality",
            args.format,
            ["word", "centrality"],
            # words tied in exact arithmetic can differ in the last bits
            sorted(centrality.items(), key=lambda item: (-round(item[1], 12), item[0])),
        ),
    ]
    out.mkdir(parents=True, exist_ok=True)
    dot_path = out / f"{prefix}_graph.dot"
    dot_path.write_text(textnet.to_dot(graph), encoding="utf-8")
    paths.append(dot_path)
    print(
        f"{len(outliers)} outliers, {len(graph.nodes)} words, "
        f"{len(graph.edges)} edges -> {', '.join(str(p) for p in paths)}"
    )
    return 0


def run_reference_example():
    """Score the bundled reference map; returns (name, expected, actual,
    tolerance, ok) checks."""
    entries = gem_io.parse_gem_file(io.StringIO(REFERENCE_MAP_LINES), "<reference>")
    records = gem_io.group_maps(entries)
    record = records[0]
    scores = entropy.score_map(record)
    checks = []
    for name, (expected, tol) in REFERENCE_MAP_EXPECTED.items():
        actual = getattr(scores, name)
        checks.append((name, expected, actual, tol, abs(actual - expected) <= tol))
    matrix = gem_io.build_matrix(record)
    from ._kernels import matrix_column_entropies

    cols = matrix_column_entropies(matrix.codes)
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
        choices=analysis.OUTLIER_MEASURES,
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


if __name__ == "__main__":
    sys.exit(main())
