"""Differential check of the columnar crosswalk core against the object path
it replaced.

The oracle below is the per-line ``GemEntry`` parser, the dict-based
grouping and the dense 37-symbol entropy kernel, frozen as they were before
the columnar rewrite. Random flag-respecting corpora built from the
``conftest`` generators, with no-match maps, duplicate lines, blank lines,
CRLF endings, tabs and lowercase mixed in, must read, group and score the
same both ways; corpora with injected bad lines or bad groups must fail
with the same error.
"""

from __future__ import annotations

import io
import math
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gementropy import _kernels, entropy, gem_io
from gementropy._kernels import N_SYMBOLS
from gementropy.errors import GemError, ParseError, StructuralError
from gementropy.gem_io import NO_MATCH_SENTINELS, Flag, GemEntry, MapRecord

from conftest import gem_line, make_map_entries, random_code

# ---------------------------------------------------------------------------
# Frozen oracle: the object path

_ORACLE_CODE_RE = re.compile(r"^[A-Z0-9]{1,8}$")


def _oracle_flag(text, filename=None, line=None):
    if len(text) != 5 or not text.isdigit():
        raise ParseError(f"flag must be exactly 5 digits, got {text!r}", filename, line)
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
        raise StructuralError(f"flag {text!r} sets both no-map and combination", filename, line)
    if not combination and (scenario != 0 or choice_list != 0):
        raise StructuralError(
            f"flag {text!r} has scenario/choice-list digits without the combination digit",
            filename,
            line,
        )
    if combination and (scenario == 0 or choice_list == 0):
        raise StructuralError(
            f"flag {text!r} sets combination but scenario or choice list is 0", filename, line
        )
    return Flag(approximate, no_map, combination, scenario, choice_list)


def _oracle_code(text, what, filename, line):
    code = text.upper()
    if not _ORACLE_CODE_RE.match(code):
        raise ParseError(f"{what} code {text!r} is not 1-8 characters of [A-Z0-9]", filename, line)
    return code


def oracle_parse(text, filename):
    entries = []
    for line_number, raw in enumerate(io.StringIO(text), start=1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise ParseError(
                f"expected 3 fields (source target flag), got {len(fields)}", filename, line_number
            )
        src = _oracle_code(fields[0], "source", filename, line_number)
        tgt = _oracle_code(fields[1], "target", filename, line_number)
        flag = _oracle_flag(fields[2], filename, line_number)
        if flag.no_map and tgt not in NO_MATCH_SENTINELS:
            raise StructuralError(
                f"no-map flag with a regular target code {tgt!r}", filename, line_number
            )
        if flag.combination and tgt in NO_MATCH_SENTINELS:
            raise StructuralError(
                f"no-match target {tgt!r} carries a combination flag", filename, line_number
            )
        entries.append(GemEntry(src, tgt, flag, line_number))
    return entries


def oracle_group(entries):
    groups = {}
    for entry in entries:
        groups.setdefault(entry.source, []).append(entry)
    records = []
    for source, group in groups.items():
        no_match = [e for e in group if e.is_no_match]
        if no_match and len(no_match) != len(group):
            raise StructuralError(f"source {source} mixes no-match and regular entries", source=source)
        if no_match:
            records.append(MapRecord(source, tuple(group), (), (), m=0, m0=0))
            continue
        standalone = [e.target for e in group if not e.flag.combination]
        buckets = {}
        for e in group:
            if e.flag.combination:
                buckets.setdefault((e.flag.scenario, e.flag.choice_list), []).append(e.target)
        scenario_ids = sorted({s for s, _ in buckets})
        if scenario_ids and scenario_ids != list(range(1, len(scenario_ids) + 1)):
            raise StructuralError(
                f"source {source} has non-contiguous scenario numbers {scenario_ids}", source=source
            )
        scenarios = []
        for s in scenario_ids:
            list_ids = sorted({c for sc, c in buckets if sc == s})
            if list_ids != list(range(1, len(list_ids) + 1)):
                raise StructuralError(
                    f"source {source} scenario {s} has non-contiguous choice lists {list_ids}",
                    source=source,
                )
            scenarios.append(tuple(tuple(buckets[(s, c)]) for c in list_ids))
        m0 = len(standalone)
        m = m0 + sum(len(cl) for sc in scenarios for cl in sc)
        records.append(MapRecord(source, tuple(group), tuple(standalone), tuple(scenarios), m=m, m0=m0))
    return records


def oracle_encode(codes, width):
    """Codes as a (len(codes), width) uint8 matrix of symbol indices
    ('0'-'9' -> 0-9, 'A'-'Z' -> 10-35, pad '*' -> 36), right-padded."""
    table = np.full(256, 255, dtype=np.uint8)
    for i, c in enumerate("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ*"):
        table[ord(c)] = i
    joined = "".join(code.ljust(width, "*") for code in codes)
    return table[np.frombuffer(joined.encode("ascii"), dtype=np.uint8)].reshape(len(codes), width)


def oracle_kernel(flat, heights, widths):
    """The dense kernel: a full (columns x 37) count array."""
    cells = heights * widths
    col_offsets = np.concatenate(([0], np.cumsum(widths)))
    total_cols = int(col_offsets[-1])
    if total_cols == 0:
        return np.zeros(0)
    map_ids = np.repeat(np.arange(len(heights)), cells)
    pos = np.arange(flat.shape[0]) - np.repeat(np.cumsum(cells) - cells, cells)
    col_ids = col_offsets[:-1][map_ids] + pos % widths[map_ids]
    counts = np.bincount(col_ids * N_SYMBOLS + flat, minlength=total_cols * N_SYMBOLS).reshape(
        total_cols, N_SYMBOLS
    )
    p = counts / np.repeat(heights, widths).astype(np.float64)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=1)


def oracle_score(records):
    """(source, m, m0, v, h_a) of every scored map, and the excluded sources."""
    included = [r for r in records if r.m > 0]
    targets = [[e.target for e in r.entries] for r in included]
    widths = np.array([max(len(t) for t in ts) for ts in targets], dtype=np.int64)
    heights = np.array([len(ts) for ts in targets], dtype=np.int64)
    joined = "".join(c.ljust(int(n), "*") for ts, n in zip(targets, widths) for c in ts)
    flat = oracle_encode([joined], len(joined)).reshape(-1) if joined else np.zeros(0, np.uint8)
    cols = oracle_kernel(flat, heights, widths)
    h_a = np.add.reduceat(cols, np.concatenate(([0], np.cumsum(widths)))[:-1]) if len(cols) else []
    rows = []
    for i, r in enumerate(included):
        v = r.m0 + sum(math.prod(len(cl) for cl in sc) for sc in r.scenarios)
        rows.append((r.source, r.m, r.m0, v, float(h_a[i])))
    return rows, [r.source for r in records if r.m == 0]


# ---------------------------------------------------------------------------
# Corpora


def _corpus_lines(rng):
    """Lines of a valid crosswalk: random maps, no-match maps and duplicate
    lines, sometimes interleaved across maps."""
    sources = set()
    lines = []
    for _ in range(int(rng.integers(1, 25))):
        source = random_code(rng, 6)
        if source in sources:
            continue
        sources.add(source)
        if rng.random() < 0.15:
            for _ in range(int(rng.integers(1, 3))):
                target = sorted(NO_MATCH_SENTINELS)[int(rng.integers(0, 2))]
                lines.append(f"{source} {target} {'11000' if rng.random() < 0.7 else '10000'}")
            continue
        entries = make_map_entries(rng, source, max_m=12)
        lines.extend(map(gem_line, entries))
        if rng.random() < 0.3:
            lines.append(gem_line(entries[int(rng.integers(0, len(entries)))]))
    if rng.random() < 0.5:
        lines = [lines[i] for i in rng.permutation(len(lines))]
    return lines


def _render(rng, lines):
    """Crosswalk text with random separators, case, blank lines and endings."""
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    out = []
    for line in lines:
        if rng.random() < 0.1:
            out.append(" \t " if rng.random() < 0.5 else "")
        fields = line.split(" ")
        if rng.random() < 0.2:
            fields = [f.lower() for f in fields]
        seps = [" \t"[int(rng.integers(0, 2))] * int(rng.integers(1, 3)) for _ in fields]
        text = "".join(f + s for f, s in zip(fields, seps))
        out.append(text.rstrip() if rng.random() < 0.8 else " " + text)
    return newline.join(out) + (newline if rng.random() < 0.5 else "")


BAD_LINES = [
    "X1", "X1 A1", "X1 A1 00000 Z", "X.1 A1 00000", "ABCDEFGHI A1 00000",
    "X1 A-1 00000", "X1 ABCDEFGHI 00000", "X1 A1 0000", "X1 A1 000000", "X1 A1 0000x",
    "X1 A1 20000", "X1 A1 00010", "X1 A1 00001", "X1 A1 10102", "X1 A1 10120",
    "X1 A1 11100", "X1 A1 01000", "X1 NODX 10111", "X1 NOPCS 10121",
]


def _inject(rng, lines):
    """The lines with one or two bad lines, or one or two bad groups,
    injected."""
    lines = list(lines)
    if rng.random() < 0.6:
        for _ in range(int(rng.integers(1, 3))):
            bad = BAD_LINES[int(rng.integers(0, len(BAD_LINES)))]
            lines.insert(int(rng.integers(0, len(lines) + 1)), bad)
    else:
        for _ in range(int(rng.integers(1, 3))):
            source = lines[int(rng.integers(0, len(lines)))].split()[0]
            bad = [
                f"{source} NODX 11000",  # mixes no-match and regular unless all no-match
                f"{source} ZZ1 10191",  # scenario 9: a gap
                f"{source} ZZ1 10119",  # choice list 9 of scenario 1: a gap
                f"GAP{len(lines)} ZZ1 10121",
                f"GAP{len(lines)} ZZ1 10112",
            ][int(rng.integers(0, 5))]
            lines.insert(int(rng.integers(0, len(lines) + 1)), bad)
    return lines


def _columnar(text):
    lines = gem_io.parse_gem_file(text.encode(), "gems.txt")
    maps = gem_io.group_maps(lines)
    scores, excluded = entropy.score_maps(maps)
    return lines, maps, scores, excluded


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_columnar_path_matches_object_path(seed):
    rng = np.random.default_rng(seed)
    text = _render(rng, _corpus_lines(rng))
    entries = oracle_parse(text, "gems.txt")
    records = oracle_group(entries)
    expected, expected_excluded = oracle_score(records)

    lines, maps, scores, excluded = _columnar(text)
    assert list(lines) == entries
    assert list(maps.source) == [r.source for r in records]
    assert list(maps) == records
    assert [(s.source, s.m, s.m0, s.v) for s in scores] == [row[:4] for row in expected]
    assert len(scores) == len(expected)
    for got, want in zip(scores.h_a, expected):
        assert abs(got - want[4]) <= 1e-12
    assert [r.source for r in excluded] == expected_excluded


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_columnar_path_fails_like_object_path(seed):
    rng = np.random.default_rng(seed)
    text = _render(rng, _inject(rng, _corpus_lines(rng)))
    try:
        oracle_group(oracle_parse(text, "gems.txt"))
    except GemError as err:
        expected = (type(err), str(err))
    else:
        expected = None  # e.g. a "mixed" line added to a no-match map
    try:
        _columnar(text)
    except GemError as err:
        got = (type(err), str(err))
    else:
        got = None
    assert got == expected


def test_kernel_rounds_as_dense_rows():
    """Column sums are bit-identical to the dense kernel's, so near-ties
    between maps order and cut outliers as before."""
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        heights = rng.integers(1, int(rng.integers(2, 60)), n).astype(np.int64)
        widths = rng.integers(1, 9, n).astype(np.int64)
        flat = rng.integers(0, int(rng.integers(2, N_SYMBOLS + 1)), int(np.sum(heights * widths)))
        flat = flat.astype(np.uint8)
        got = _kernels.batch_column_entropies(flat, heights, widths)
        want = oracle_kernel(flat, heights, widths)
        assert np.array_equal(got, want)
        # equal nonzero values share their sign; a zero entropy is +0.0,
        # where the dense kernel gave -0.0
        assert not np.signbit(got).any()
