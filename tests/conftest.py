"""Shared fixtures: the bundled reference map, synthetic map generators,
crosswalk text strategies, the frozen scalar crosswalk grammar, the frozen
description and frequency loaders, the frozen rank-file reader of ``corr``,
tables built from rows, and discovery of the optional 2015 GEM data files."""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
import os
import re
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from gementropy import analysis, entropy, gem_io
from gementropy.analysis import ClassTable
from gementropy.cli import REFERENCE_MAP_LINES
from gementropy.errors import GemError, ParseError, StructuralError, parse_number
from gementropy.gem_io import NO_MATCH_SENTINELS, Flag, GemEntry, MapRecord
from gementropy.textnet import WordGraph

CODE_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@pytest.fixture
def reference_entries():
    return gem_io.parse_gem_file(REFERENCE_MAP_LINES.encode(), "<reference>")


@pytest.fixture
def reference_maps(reference_entries):
    return gem_io.group_maps(reference_entries)


@pytest.fixture
def reference_record(reference_maps):
    return reference_maps[0]


def random_code(rng: np.random.Generator, max_len: int = 8) -> str:
    while True:
        length = int(rng.integers(1, max_len + 1))
        code = "".join(rng.choice(list(CODE_CHARS), size=length))
        if code not in NO_MATCH_SENTINELS:
            return code


def make_map_entries(
    rng: np.random.Generator,
    source: str,
    max_m: int = 20,
    max_scenarios: int = 3,
    max_lists: int = 3,
    max_list_size: int = 4,
    line_start: int = 1,
) -> list[GemEntry]:
    """Random entries of one map honoring all flag invariants; m <= max_m."""
    while True:
        m0 = int(rng.integers(0, 6))
        n_scenarios = int(rng.integers(0, max_scenarios + 1))
        shape = [
            [int(rng.integers(1, max_list_size + 1)) for _ in range(int(rng.integers(1, max_lists + 1)))]
            for _ in range(n_scenarios)
        ]
        m = m0 + sum(sum(lists) for lists in shape)
        if 1 <= m <= max_m:
            break
    entries = []
    for _ in range(m0):
        flag = Flag(bool(rng.integers(0, 2)), False, False, 0, 0)
        entries.append(GemEntry(source, random_code(rng), flag, 0))
    for s, lists in enumerate(shape, start=1):
        for c, size in enumerate(lists, start=1):
            for _ in range(size):
                flag = Flag(True, False, True, s, c)
                entries.append(GemEntry(source, random_code(rng), flag, 0))
    order = rng.permutation(len(entries))
    return [
        GemEntry(e.source, e.target, e.flag, line_start + i)
        for i, e in enumerate(entries[j] for j in order)
    ]


def gem_line(entry: GemEntry) -> str:
    """The crosswalk line of an entry: ``SOURCE TARGET FLAG5``."""
    f = entry.flag
    digits = (
        f"{int(f.approximate)}{int(f.no_map)}{int(f.combination)}"
        f"{f.scenario}{f.choice_list}"
    )
    return f"{entry.source} {entry.target} {digits}"


def gem_lines(entries) -> gem_io.GemLines:
    """The rows of a list of entries, read by the crosswalk reader from
    their lines; the rows keep the entries' line numbers."""
    entries = list(entries)
    lines = gem_io.parse_gem_file("\n".join(map(gem_line, entries)).encode())
    lines.line = np.array([e.line_number for e in entries], dtype=np.int64)
    return lines


# ---------------------------------------------------------------------------
# Crosswalk text: valid and bad lines, and the columns a parse reads from it

_CODE = st.text("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcxyz", min_size=1, max_size=8)
_LINE = st.one_of(
    st.builds("{} {} {}".format, _CODE, _CODE, st.sampled_from(["00000", "10000"])),
    st.sampled_from(["0052 02H43KZ 10111", "x nodx 11000", " A1\tb2  10112 "]),
    # 8-character fields, which fill a word to the last byte
    st.sampled_from(["ABCDEFGH 12345678 00000", "zzzzzzzz 0z0z0z0z 10000"]),
    st.sampled_from(["", " ", "\t\x0b "]),  # blank lines
)
LINE_BREAK = st.sampled_from(["\n", "\r\n", "\r"])
BAD_LINES = [
    "X1", "X1 A1", "X1 A1 00000 Z", "X.1 A1 00000", "X1 A\u00e91 00000", "ABCDEFGHI A1 00000",
    "X1 A-1 00000", "X1 A1 0000x", "X1 A1 20000", "X1 A1 00010", "X1 A1 00001", "X1 A1 10102",
    "X1 A1 10120", "X1 A1 11100", "X1 NODX 10111", "X1 NOPCS 10121", "X1 A1 01000",
    "X\x001 A1 00000", "X1 A1\x00 00000", "X1 A1 00\x0000",  # a NUL byte in a field
    "X1 A1 000\u00e9", "X1 A1 \u00e9000",  # bytes >= 0x80 in a five-byte flag
    "ABCDEFG. A1 00000", "X1 ABCDEFG- 00000",  # a bad last byte of 8
    "X1 ABCDEFGHI 00000", "X1 A1 0000", "X1 A1 000000",
]
BAD_LINE = st.sampled_from(BAD_LINES)


@st.composite
def crosswalk_text(draw, min_lines=0):
    """Crosswalk lines with LF, CRLF and lone CR endings mixed, blank lines
    among them (a lone CR before a blank line's LF makes a CRLF), and a last
    line with or without a break."""
    lines = draw(st.lists(st.tuples(_LINE, LINE_BREAK), min_size=min_lines, max_size=25))
    last = draw(st.one_of(st.just(""), _LINE))
    return "".join(line + end for line, end in lines) + last


def parsed_columns(data: bytes, block: int = gem_io._PARSE_BLOCK):
    """The columns parsed from ``data`` with ``block`` bytes per parse block
    (by default, one block here), or the error's type, text and line."""
    with mock.patch.object(gem_io, "_PARSE_BLOCK", block):
        try:
            lines = gem_io.parse_gem_file(data, "gems.txt")
        except GemError as err:
            return type(err), str(err), err.line
    return [
        (a.dtype, a.shape, a.tobytes())
        for a in (getattr(lines, f.name) for f in dataclasses.fields(lines))
        if isinstance(a, np.ndarray)
    ]


# ---------------------------------------------------------------------------
# Frozen scalar crosswalk grammar: the per-line and per-map checks that
# worded the reader's errors before the line rules and group checks of
# ``gem_io`` did, kept as the oracle of those error texts; a map's error
# names the file and the line of the map's first entry

_CODE_RE = re.compile(r"[A-Za-z0-9]{1,8}")


def parse_flag(text: str, filename=None, line=None) -> Flag:
    """Decode a five-digit flag string.

    Digits are, in order: approximate, no-map, combination, scenario number,
    choice-list number. All five are ASCII digits and the first three must
    be 0 or 1.
    """
    if len(text) != 5 or not (text.isascii() and text.isdigit()):
        raise ParseError(
            f"flag must be exactly 5 digits, got {text!r}", filename, line
        )
    digits = [int(c) for c in text]
    for pos, name in ((0, "approximate"), (1, "no-map"), (2, "combination")):
        if digits[pos] > 1:
            raise StructuralError(
                f"flag digit {pos + 1} ({name}) must be 0 or 1, got {digits[pos]}",
                filename,
                line,
            )
    approximate, no_map, combination = bool(digits[0]), bool(digits[1]), bool(digits[2])
    scenario, choice_list = digits[3], digits[4]
    if no_map and combination:
        raise StructuralError(
            f"flag {text!r} sets both no-map and combination", filename, line
        )
    if not combination and (scenario != 0 or choice_list != 0):
        raise StructuralError(
            f"flag {text!r} has scenario/choice-list digits without the "
            "combination digit",
            filename,
            line,
        )
    if combination and (scenario == 0 or choice_list == 0):
        raise StructuralError(
            f"flag {text!r} sets combination but scenario or choice list is 0",
            filename,
            line,
        )
    return Flag(approximate, no_map, combination, scenario, choice_list)


def _validate_code(text: str, what: str, filename, line) -> str:
    if not _CODE_RE.fullmatch(text):
        raise ParseError(
            f"{what} code {text!r} is not 1-8 characters of [A-Z0-9]",
            filename,
            line,
        )
    return text.upper()


def _parse_line(raw: bytes, filename, line_number) -> GemEntry:
    """Scalar check of one crosswalk line, in the order errors are reported:
    field count, source, target, flag, then the flag/target agreement."""
    fields = [f.decode("utf-8", "replace") for f in raw.split()]
    if len(fields) != 3:
        raise ParseError(
            f"expected 3 fields (source target flag), got {len(fields)}",
            filename,
            line_number,
        )
    src = _validate_code(fields[0], "source", filename, line_number)
    tgt = _validate_code(fields[1], "target", filename, line_number)
    flag = parse_flag(fields[2], filename, line_number)
    if flag.no_map and tgt not in NO_MATCH_SENTINELS:
        raise StructuralError(
            f"no-map flag with a regular target code {tgt!r}",
            filename,
            line_number,
        )
    if flag.combination and tgt in NO_MATCH_SENTINELS:
        # No-match sentinels cannot participate in combinations;
        # flagged rather than silently repaired.
        raise StructuralError(
            f"no-match target {tgt!r} carries a combination flag",
            filename,
            line_number,
        )
    return GemEntry(src, tgt, flag, line_number)


def _make_record(source: str, group: Sequence[GemEntry], filename=None) -> MapRecord:
    """One map's record from its entries in file order, running every group
    check."""
    at = (filename, group[0].line_number)
    no_match = [e for e in group if e.is_no_match]
    if no_match and len(no_match) != len(group):
        raise StructuralError(
            f"source {source} mixes no-match and regular entries",
            *at,
        )
    if no_match:
        return MapRecord(source, tuple(group), (), (), m=0, m0=0)

    standalone = [e.target for e in group if not e.flag.combination]
    buckets: dict[tuple[int, int], list[str]] = {}
    for e in group:
        if e.flag.combination:
            key = (e.flag.scenario, e.flag.choice_list)
            buckets.setdefault(key, []).append(e.target)

    scenario_ids = sorted({s for s, _ in buckets})
    if scenario_ids and scenario_ids != list(range(1, len(scenario_ids) + 1)):
        raise StructuralError(
            f"source {source} has non-contiguous scenario numbers "
            f"{scenario_ids}",
            *at,
        )
    scenarios = []
    for s in scenario_ids:
        list_ids = sorted({c for sc, c in buckets if sc == s})
        if list_ids != list(range(1, len(list_ids) + 1)):
            raise StructuralError(
                f"source {source} scenario {s} has non-contiguous "
                f"choice lists {list_ids}",
                *at,
            )
        scenarios.append(tuple(tuple(buckets[(s, c)]) for c in list_ids))

    m0 = len(standalone)
    m = m0 + sum(len(cl) for sc in scenarios for cl in sc)
    return MapRecord(
        source, tuple(group), tuple(standalone), tuple(scenarios), m=m, m0=m0
    )


# ---------------------------------------------------------------------------
# Frozen side-table loaders: the numbered row reader, the per-cell code check
# and the per-row loops that read the description and frequency tables before
# one reader and column checks did, kept as they were, as the oracle of those
# tables and error texts. The class table's oracle, which also reads its rows
# through ``_read_csv``, compares every pair of ranges
# (``test_array_oracles._oracle_load_class_defs``).


def _read_csv(source, filename, expected_header):
    """(filename, [(line, stripped cells)]) of a side table's non-blank rows,
    each numbered by the line it starts on. ``source`` is a path, bytes or a
    text stream; undecodable bytes and malformed CSV raise a ParseError."""
    if isinstance(source, (str, Path)):
        filename = filename or str(source)
        source = Path(source).read_bytes()
    if isinstance(source, (bytes, bytearray)):
        try:
            source = io.StringIO(bytes(source).decode("utf-8-sig"), newline="")
        except UnicodeDecodeError as exc:
            data, at = exc.object, exc.start  # past a BOM, if one was skipped
            raise ParseError(
                f"not UTF-8: {exc.reason} (byte 0x{data[at]:02x})",
                filename,
                # lines end at LF, CRLF or a lone CR, as the CSV reader ends them
                # (the parent counted LF alone)
                len(re.findall(rb"\r\n?|\n", data[:at])) + 1,
            ) from None
    reader = csv.reader(source)
    start = 1
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("file is empty, expected a header row", filename, 1)
        got = [h.strip().lower() for h in header]
        if got != list(expected_header):
            raise ParseError(
                f"expected header {','.join(expected_header)!r}, got "
                f"{','.join(header)!r}",
                filename,
                1,
            )
        rows = []
        start = reader.line_num + 1
        for row in reader:
            if row and any(cell.strip() for cell in row):
                if len(row) != len(expected_header):
                    raise ParseError(
                        f"expected {len(expected_header)} columns, got {len(row)}",
                        filename,
                        start,
                    )
                rows.append((start, [cell.strip() for cell in row]))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(str(exc), filename, start) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason}", filename) from None
    return filename, rows


def load_descriptions(source, filename: str | None = None) -> dict[str, str]:
    """Load a `code,description` CSV into a lookup table."""
    filename, rows = _read_csv(source, filename, ("code", "description"))
    table: dict[str, str] = {}
    for line_number, (code, description) in rows:
        code = _validate_code(code, "described", filename, line_number)
        if code in table:
            raise ParseError(f"duplicate code {code}", filename, line_number)
        table[code] = description
    return table


def load_frequencies(source, filename: str | None = None) -> dict[str, float]:
    """Load a `code,probability` CSV; every probability must lie in [0, 1]."""
    filename, rows = _read_csv(source, filename, ("code", "probability"))
    table: dict[str, float] = {}
    for line_number, (code, prob) in rows:
        code = _validate_code(code, "frequency", filename, line_number)
        if code in table:
            raise ParseError(f"duplicate code {code}", filename, line_number)
        try:
            if "_" in prob:  # float alone would take "0.0_1" as 0.01
                raise ValueError
            p = float(prob)
        except ValueError:
            raise ParseError(f"probability {prob!r} is not a number", filename, line_number)
        if not 0.0 <= p <= 1.0:
            raise ParseError(
                f"probability {p} outside [0, 1]", filename, line_number
            )
        table[code] = p
    return table


# ---------------------------------------------------------------------------
# Frozen rank-file reader: ``corr``'s reader of a rank file, whose CSV branch
# read through ``csv.DictReader``, kept as it was, as the oracle of the
# side-table reader that splits CSV rank files now; its JSON errors are
# worded as ``corr`` words them.


def read_rank_file(path: str) -> analysis.RankTable:
    is_json = Path(path).suffix.lower() == ".json"
    with open(path, encoding="utf-8-sig", newline="") as fh:
        if is_json:
            import json
            try:
                records = json.load(fh)
            except json.JSONDecodeError as exc:
                raise GemError(f"{path}:{exc.lineno}: rank file is not valid JSON: {exc}") from None
            except ValueError as exc:
                raise GemError(f"{path}: rank file is not valid JSON: {exc}") from None
            except RecursionError:
                raise GemError(f"{path}: rank file nests too deeply to read") from None
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
        if not is_json and None in record:  # csv.DictReader's key of a row's extra cells
            raise GemError(f"{path}{where}: expected {len(fields)} columns, "
                           f"got {len(fields) + len(record[None])}")
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


# ---------------------------------------------------------------------------
# Maps, scores, class tables and graphs built from rows


def make_map(rng: np.random.Generator, source: str = "SRC", **kwargs):
    """A :class:`~gementropy.gem_io.MapTable` of one random map."""
    return gem_io.group_maps(gem_lines(make_map_entries(rng, source, **kwargs)))


def score_one(maps, weights=None):
    """The scores of a table of one scorable map."""
    scores, excluded = entropy.score_maps(maps, weights)
    assert len(scores) == 1 and len(excluded) == 0
    return scores[0]


def table_of(table_type, rows):
    """A :class:`~gementropy.entropy.ScoreTable` or
    :class:`~gementropy.entropy.ZScoreTable` of score rows: one array per
    field, and None for an optional field that no row sets."""
    rows = list(rows)
    columns = {}
    for field in dataclasses.fields(table_type):
        values = [getattr(row, field.name) for row in rows]
        if field.default is dataclasses.MISSING or any(v is not None for v in values):
            columns[field.name] = np.array(values)
    return table_type(**columns)


class ClassRow(NamedTuple):
    """One class of a :class:`~gementropy.analysis.ClassTable`."""

    class_id: str
    label: str
    sum_z_alpha: float
    sum_z_beta: float
    sum_z_ur: float
    members: list  # (source, z_alpha, z_beta, z_ur) per member map


def class_rows(classes: ClassTable, normalized) -> list[ClassRow]:
    """The classes of an ``aggregate_by_class`` result in its order, each
    with its members read from the z-score table it was built from."""
    z_names = ("z_alpha", "z_beta", "z_ur")
    rows = list(zip(normalized.source.tolist(), *(getattr(normalized, z).tolist() for z in z_names)))
    members, starts = classes.members.tolist(), classes.starts.tolist()
    sums = [classes.sums[z].tolist() for z in z_names]
    return [
        ClassRow(class_id, label, *class_sums, [rows[i] for i in members[lo:hi]])
        for class_id, label, *class_sums, lo, hi in zip(
            classes.ids, classes.labels, *sums, starts, starts[1:]
        )
    ]


def class_table(sums: dict[str, tuple[float, float, float]]) -> ClassTable:
    """A table of classes without members, from class id -> its sums of
    (z_alpha, z_beta, z_ur); each class's label is its id."""
    ids = list(sums)
    columns = np.array([sums[c] for c in ids], dtype=np.float64).reshape(-1, 3).T
    return ClassTable(ids, ids, dict(zip(analysis.OUTLIER_MEASURES, columns)),
                      np.zeros(0, np.intp), np.zeros(len(ids) + 1, np.int64))


def ranking(classes: ClassTable, measure: str) -> tuple[list[str], list[float]]:
    """The class ids and scores in ``rank_classes``'s order."""
    order = analysis.rank_classes(classes, measure)
    return [classes.ids[k] for k in order], classes.value(measure)[order].tolist()


def outlier_pairs(normalized, measure: str, **cut) -> list[tuple[str, float]]:
    """(source, score) of each map ``detect_outliers`` selects, in its order."""
    selected = analysis.detect_outliers(normalized, measure, **cut)
    scores = getattr(normalized, measure)[selected]
    return list(zip(normalized.source[selected].tolist(), scores.tolist()))


def word_graph(nodes: dict[str, int], edges: dict[tuple[str, str], int]) -> WordGraph:
    """The graph of word counts and of edge weights keyed by sorted (a, b)
    word pairs, the edges in lexicographic order."""
    words = np.array(sorted(nodes), dtype=object)
    index = {w: i for i, w in enumerate(words)}
    pairs = sorted(edges)
    ends = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.intp).reshape(-1, 2)
    weights = np.array([edges[pair] for pair in pairs], dtype=np.int64)
    counts = np.array([nodes[w] for w in words], dtype=np.int64)
    return WordGraph(words, counts, ends, weights)


def brute_force_valid_representations(record) -> int:
    """Independent enumerator: list every stand-alone pick and every full
    selection across each scenario's choice lists."""
    picks = list(record.standalone_codes)
    for scenario in record.scenarios:
        picks.extend(itertools.product(*scenario))
    return len(picks)


# ---------------------------------------------------------------------------
# Optional 2015 GEM data files for the data-dependent reproduction tests.
# Place them in $GEMENTROPY_DATA_DIR (default: <repo>/data/gems).

GEM_FILE_CANDIDATES = {
    "forward_procedure": ("gem_i9pcs.txt",),
    "backward_procedure": ("gem_pcsi9.txt",),
    "forward_diagnosis": ("2015_I9gem.txt", "i9gem.txt", "gem_i9cm.txt"),
    "backward_diagnosis": ("2015_I10gem.txt", "i10gem.txt", "gem_i10cm.txt"),
}


def gem_data_dir() -> Path:
    default = Path(__file__).resolve().parent.parent / "data" / "gems"
    return Path(os.environ.get("GEMENTROPY_DATA_DIR", default))


def find_gem_file(kind: str) -> Path | None:
    directory = gem_data_dir()
    if not directory.is_dir():
        return None
    by_lower = {p.name.lower(): p for p in directory.iterdir()}
    for candidate in GEM_FILE_CANDIDATES[kind]:
        hit = by_lower.get(candidate.lower())
        if hit:
            return hit
    return None


def require_gem_file(kind: str) -> Path:
    path = find_gem_file(kind)
    if path is None:
        pytest.skip(
            f"2015 GEM file for {kind} not found; place "
            f"{GEM_FILE_CANDIDATES[kind][0]} in {gem_data_dir()} "
            "(freely downloadable from the CMS archive) to run this check"
        )
    return path
