"""Shared fixtures: the bundled reference map, synthetic map generators,
tables built from rows, and discovery of the optional 2015 GEM data
files."""

from __future__ import annotations

import dataclasses
import io
import itertools
import os
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from gementropy import analysis, entropy, gem_io
from gementropy.analysis import ClassTable
from gementropy.cli import REFERENCE_MAP_LINES
from gementropy.errors import GemError
from gementropy.gem_io import NO_MATCH_SENTINELS, Flag, GemEntry
from gementropy.textnet import WordGraph

CODE_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@pytest.fixture
def reference_entries():
    return gem_io.parse_gem_file(io.StringIO(REFERENCE_MAP_LINES), "<reference>")


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
BAD_LINE = st.sampled_from([
    "X1", "X1 A1 00000 Z", "X.1 A1 00000", "X1 A\u00e91 00000", "ABCDEFGHI A1 00000",
    "X1 A1 0000x", "X1 A1 20000", "X1 A1 10102", "X1 NODX 10111", "X1 A1 01000",
    "X\x001 A1 00000", "X1 A1\x00 00000", "X1 A1 00\x0000",  # a NUL byte in a field
    "X1 A1 000\u00e9", "X1 A1 \u00e9000",  # bytes >= 0x80 in a five-byte flag
    "ABCDEFG. A1 00000", "X1 ABCDEFG- 00000",  # a bad last byte of 8
    "X1 ABCDEFGHI 00000", "X1 A1 0000", "X1 A1 000000",
])


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
    ]


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
    sums = [getattr(classes, f"sum_{z}").tolist() for z in z_names]
    return [
        ClassRow(class_id, label, *class_sums, [rows[i] for i in members[lo:hi]])
        for class_id, label, *class_sums, lo, hi in zip(
            classes.ids, classes.labels, *sums, starts, starts[1:]
        )
    ]


def class_table(sums: dict[str, tuple[float, float, float]]) -> ClassTable:
    """A table of classes without members, from class id -> (sum_z_alpha,
    sum_z_beta, sum_z_ur); each class's label is its id."""
    ids = list(sums)
    columns = np.array([sums[c] for c in ids], dtype=np.float64).reshape(-1, 3).T
    return ClassTable(ids, ids, *columns, np.zeros(0, np.intp), np.zeros(len(ids) + 1, np.int64))


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
    word pairs, the edges first occurring in the order of ``edges``."""
    words = np.array(sorted(nodes), dtype=object)
    index = {w: i for i, w in enumerate(words)}
    ends = np.array([(index[a], index[b]) for a, b in edges], dtype=np.intp).reshape(-1, 2)
    lexical = np.lexsort(ends.T[::-1])
    weights = np.array(list(edges.values()), dtype=np.int64)[lexical]
    counts = np.array([nodes[w] for w in words], dtype=np.int64)
    return WordGraph(words, counts, ends[lexical], weights, np.argsort(lexical))


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
