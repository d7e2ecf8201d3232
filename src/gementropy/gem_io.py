"""Crosswalk (GEM) file ingestion as columns.

A crosswalk holds one ``SOURCE TARGET FLAG5`` line per candidate target.
:func:`parse_gem_file` reads a file, from its path or bytes, into a
:class:`GemLines` table with one row per non-blank line, stored as arrays:

* ``sources``, ``targets``: rows x 8 uint8, the upper-cased ASCII code,
  NUL-padded, so that a row read as ``S8`` is the code (the entropy kernel,
  :mod:`gementropy._kernels`, owns the symbol alphabet);
* ``target_len``: the target code lengths;
* ``flags``: rows x 5 uint8 flag digits;
* ``line``: the line numbers.

The bytes are split, checked and coded in blocks of about
``_PARSE_BLOCK`` bytes, each cut just after a line break, so the working
arrays stay the size of one block whatever the size of the file; the blocks'
columns are then concatenated. The line ends bound each line's tokens: one
search of the breaks among the token starts gives every line's first token
and token count, and a line of no token is blank. A field of up to 8 bytes
is read as one 8-byte word: the block, padded with 8 zero bytes, is viewed
as a little-endian word at every byte offset. A 256-byte ``bytes.translate``
table maps each byte of the word at a field's start to its code (the
upper-case code character, or the flag digit), or to a byte with the high
bit set where it may not stand in that field; one ``translate`` per field
and block codes the bytes of all its words. The coded word is masked to the
field's length, and one test of its high bits per row checks every byte of
the field.

The line grammar is one table of rules in ``_read_block``, each a vectorized
mask over a block's rows with its error type and message template, in the
order a line's errors are reported. The first failing line of a block raises
its field count if it does not hold three fields, or else the first rule set
on its row, worded from its fields; messages name the file and line.

:func:`group_maps` groups the rows by source code into a :class:`MapTable`:
maps in first-appearance order, each map's rows in file order, and m, m0 and
v (the number of valid representations) from segment reductions over runs:
of equal consecutive sources (one per map in a file sorted by source), and of
the combination rows' sorted (map, scenario, choice list) keys. The group
checks (mixed no-match sources, scenario and choice-list numbering) are
masks too; ``_build_maps`` words the first failing map's error from the
same arrays.

Both tables are sized sequences that build :class:`GemEntry` and
:class:`MapRecord` objects on access, so per-object code reads them like
lists while scoring reads the arrays.

The grammar is ASCII: codes are 1-8 characters of [A-Za-z0-9] (upper-cased),
flags are 5 ASCII digits, fields are separated by ASCII whitespace, lines
end at LF, CRLF or CR, and a leading UTF-8 byte order mark is skipped.

Also here: the CSV side tables, each read once into cell columns by
``errors.read_table`` and checked by one table of rules as a block's lines are,
code columns through ``_CODE_BYTE``. Class ranges load into a
:class:`ClassRanges` table of sorted code intervals, whose one sweep both
rejects overlapping classes and assigns codes; descriptions and frequencies
load into dicts.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    LINE_BREAK, ParseError, StructuralError, parse_number, read_source, read_table,
)

MAX_CODE = 8

# Targets that mark "no match in the target system", regardless of flag.
NO_MATCH_SENTINELS = frozenset({"NODX", "NOPCS"})

UNCLASSIFIED = "unclassified"

# Bytes per parse block: a block's working arrays peak at about 11 bytes per
# input byte, 3 MB for 256 KiB, where a whole 2.8 MB file in one block takes
# 32 MB (tracemalloc peaks).
_PARSE_BLOCK = 1 << 18

# Byte -> its code in a field, or a byte with the high bit set where it may
# not stand: the upper-case code character, the digit. ``bytes.translate``
# tables of 256 bytes.
_CODE_BYTE = bytes(c if bytes([c]).isalnum() else 0x80 for c in bytes(range(256)).upper())
_DIGIT_BYTE = bytes(i - 0x30 if 0x30 <= i <= 0x39 else 0x80 for i in range(256))  # "0"-"9"
# _LOW[k]: the mask of a word's first k bytes
_LOW = np.array([(1 << 8 * k) - 1 for k in range(MAX_CODE + 1)], dtype="<u8")
_HIGH_BITS = np.uint64(0x8080808080808080)


def _bytes(words: np.ndarray) -> np.ndarray:
    """Words as rows of their 8 bytes, first byte first."""
    return words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)


def _field(words: np.ndarray, length, table: bytes):
    """Fields from the words at their starts, as rows of 8 bytes: the first
    ``length`` bytes mapped through ``table`` and the rest NUL; and whether
    the table rejects a byte of the field."""
    coded = words.astype("<u8", copy=False).tobytes().translate(table)
    coded = np.frombuffer(coded, "<u8") & _LOW[np.minimum(length, MAX_CODE)]
    return _bytes(coded), (coded & _HIGH_BITS) != 0


class Flag(NamedTuple):
    """Decoded five-digit supplemental flag of one crosswalk entry."""

    approximate: bool
    no_map: bool
    combination: bool
    scenario: int
    choice_list: int


class GemEntry(NamedTuple):
    """One crosswalk line: a source code, a candidate target, and its flag."""

    source: str
    target: str
    flag: Flag
    line_number: int

    @property
    def is_no_match(self) -> bool:
        """True when this entry marks data loss (no target-system match)."""
        return self.flag.no_map or self.target in NO_MATCH_SENTINELS


class MapRecord(NamedTuple):
    """All entries of one source code, split into stand-alone codes and the
    scenario -> choice-list structure used to count valid representations."""

    source: str
    entries: tuple[GemEntry, ...]
    standalone_codes: tuple[str, ...]
    # scenarios[i][j] is the j-th choice list (tuple of codes) of scenario i+1
    scenarios: tuple[tuple[tuple[str, ...], ...], ...]
    m: int
    m0: int

    @property
    def is_excluded(self) -> bool:
        """True for no-match sources (m = 0), which cannot be scored."""
        return self.m == 0


class RowTable(Sequence):
    """Equal-length columns read as a sequence of row objects, each built
    when it is accessed."""

    def _rows(self, part: slice) -> Iterable:
        """The row objects of a slice of the table."""
        raise NotImplementedError

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._rows(index))
        i = range(len(self))[index]
        return next(iter(self._rows(slice(i, i + 1))))

    def __iter__(self):
        return iter(self._rows(slice(None)))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} rows>"


def offsets(counts: np.ndarray) -> np.ndarray:
    """Start offsets of consecutive segments of the given sizes, plus the
    total as a last element."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first element of each run of equal consecutive
    values, and the runs' lengths."""
    new = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return first, np.diff(first, append=len(values))


def _strings(rows: np.ndarray) -> list[str]:
    """Rows of 8 ASCII bytes, zero-padded, as strings."""
    return np.ascontiguousarray(rows).view("S8")[:, 0].astype(str).tolist()


# Each sentinel as its row of ``GemLines.targets`` read as one uint64.
_SENTINEL_KEYS = np.array(sorted(NO_MATCH_SENTINELS), dtype="S8").view("<u8")


@dataclass(eq=False, repr=False)
class GemLines(RowTable):
    """The rows of a crosswalk as arrays (see the module docstring), targets
    stored as sources are, as code bytes; reads as a sequence of
    :class:`GemEntry`."""

    sources: np.ndarray
    targets: np.ndarray
    target_len: np.ndarray
    flags: np.ndarray
    line: np.ndarray
    filename: str | None = None  # the file read, which group errors name

    def __len__(self) -> int:
        return len(self.line)

    def _rows(self, part) -> list[GemEntry]:
        """Entries of a slice or an index array of rows."""
        return [
            GemEntry(source, target, Flag(bool(a), bool(n), bool(c), s, k), line)
            for source, target, (a, n, c, s, k), line in zip(
                _strings(self.sources[part]),
                _strings(self.targets[part]),
                self.flags[part].tolist(),
                self.line[part].tolist(),
            )
        ]

    def sentinel(self) -> np.ndarray:
        """Rows whose target is a no-match sentinel code."""
        keys = self.targets.view("<u8")[:, 0]
        return (keys == _SENTINEL_KEYS[0]) | (keys == _SENTINEL_KEYS[1])


def _read_block(data: bytes, filename, first_line: int) -> tuple[GemLines, int]:
    """The rows of a block of whole lines whose first line is number
    ``first_line + 1``, and the number of line breaks in it."""
    padded = data + bytes(8)
    n = len(data)
    # the 8 bytes from every offset as one word; zeros past the end
    words = np.ndarray((n,), "<u8", buffer=padded, strides=(1,))
    buf = np.frombuffer(padded, dtype=np.uint8)
    buf, after = buf[:n], buf[1 : n + 1]
    # token i spans bytes [edges[2i], edges[2i+1]); spaces bound the block
    space = np.ones(n + 2, dtype=bool)
    np.less_equal(buf - np.uint8(9), 13 - 9, out=space[1:-1])  # \t \n \v \f \r
    space[1:-1] |= buf == 32
    edges = np.flatnonzero(space[1:] != space[:-1])
    start, end = edges[0::2], edges[1::2]
    newline = buf == 10
    if b"\r" in data:  # a CR not followed by LF is a break too
        newline |= (buf == 13) & (after != 10)
    breaks = np.flatnonzero(newline)
    # line i holds tokens bounds[i] to bounds[i + 1]: those starting before its break
    bounds = np.concatenate(([0], np.searchsorted(start, breaks), [len(start)]))
    n_tokens = np.diff(bounds)

    whole = n_tokens == 3
    t = bounds[:-1][whole]
    src_len, tgt_len, flag_len = (end[t + i] - start[t + i] for i in range(3))
    sources, bad_src = _field(words[start[t]], src_len, _CODE_BYTE)
    targets, bad_tgt = _field(words[start[t + 1]], tgt_len, _CODE_BYTE)
    flags, bad_flag = _field(words[start[t + 2]], 5, _DIGIT_BYTE)
    lines = GemLines(
        sources=sources,
        targets=targets,
        target_len=tgt_len.astype(np.uint8),
        flags=flags[:, :5],
        line=np.flatnonzero(whole) + 1,
    )

    approximate, no_map, comb, scenario, choice = lines.flags.T
    sentinel = lines.sentinel()
    # the line rules in the order a line's errors are reported: (mask, error
    # type, message template). A rule is read only where the rules before it
    # hold; its message is formatted from the line's fields and its
    # upper-cased target code.
    rules = (
        ((src_len > MAX_CODE) | bad_src, ParseError,
         "source code {source!r} is not 1-8 characters of [A-Z0-9]"),
        ((tgt_len > MAX_CODE) | bad_tgt, ParseError,
         "target code {target!r} is not 1-8 characters of [A-Z0-9]"),
        ((flag_len != 5) | bad_flag, ParseError,
         "flag must be exactly 5 digits, got {flag!r}"),
        (approximate > 1, StructuralError,
         "flag digit 1 (approximate) must be 0 or 1, got {flag[0]}"),
        (no_map > 1, StructuralError,
         "flag digit 2 (no-map) must be 0 or 1, got {flag[1]}"),
        (comb > 1, StructuralError,
         "flag digit 3 (combination) must be 0 or 1, got {flag[2]}"),
        ((no_map == 1) & (comb == 1), StructuralError,
         "flag {flag!r} sets both no-map and combination"),
        ((comb == 0) & ((scenario != 0) | (choice != 0)), StructuralError,
         "flag {flag!r} has scenario/choice-list digits without the combination digit"),
        ((comb == 1) & ((scenario == 0) | (choice == 0)), StructuralError,
         "flag {flag!r} sets combination but scenario or choice list is 0"),
        ((no_map == 1) & ~sentinel, StructuralError,
         "no-map flag with a regular target code {code!r}"),
        ((comb == 1) & sentinel, StructuralError,
         "no-match target {code!r} carries a combination flag"),
    )
    bad = np.zeros_like(sentinel)
    for mask, _, _ in rules:
        bad |= mask
    failed = np.concatenate((np.flatnonzero(~whole & (n_tokens != 0)), lines.line[bad] - 1))
    if len(failed):
        i = int(failed.min())
        lo = int(breaks[i - 1]) + 1 if i else 0
        hi = int(breaks[i]) if i < len(breaks) else len(data)
        line = first_line + i + 1
        fields = [f.decode("utf-8", "replace") for f in data[lo:hi].split()]
        if len(fields) != 3:
            raise ParseError(
                f"expected 3 fields (source target flag), got {len(fields)}", filename, line
            )
        row = np.searchsorted(lines.line, i + 1)
        source, target, flag = fields
        _raise_rule(rules, row, filename, line,
                    source=source, target=target, flag=flag, code=target.upper())
    lines.line += first_line
    return lines, len(breaks)


def parse_gem_file(source, filename: str | None = None) -> GemLines:
    """Parse a crosswalk file into a :class:`GemLines` table in file order.

    ``source`` is a path or bytes, read by ``errors.read_source``. Lines
    hold three whitespace-separated fields: source code, target code, 5-digit
    flag. Blank lines are skipped; anything else malformed raises with file
    and line context. The bytes are read a block at a time (see the module
    docstring for the grammar). A block ends just after the first line break
    (``errors.LINE_BREAK``) that starts at or after its ``_PARSE_BLOCK``-th
    byte, so no line (and no CRLF) spans two blocks, and its first line
    follows the breaks of the blocks before it.
    """
    filename, data = read_source(source, filename)
    lo, blocks, first_line = 0, [], 0
    while not blocks or lo < len(data):
        cut = LINE_BREAK.search(data, lo + _PARSE_BLOCK - 1)
        hi = cut.end() if cut else len(data)
        lines, n_breaks = _read_block(data[lo:hi], filename, first_line)
        blocks.append(lines)
        lo, first_line = hi, first_line + n_breaks
    return GemLines(*(
        np.concatenate(parts)
        for parts in zip(*((b.sources, b.targets, b.target_len, b.flags, b.line) for b in blocks))
    ), filename)


def _make_record(source: str, group: Sequence[GemEntry]) -> MapRecord:
    """The record of a checked group: one map's entries in file order, its
    stand-alone codes, and its choice lists by scenario, both numbered from
    1 without gaps."""
    if any(e.is_no_match for e in group):
        return MapRecord(source, tuple(group), (), (), m=0, m0=0)
    standalone = tuple(e.target for e in group if not e.flag.combination)
    lists: dict[tuple[int, int], list[str]] = {}
    for e in group:
        if e.flag.combination:
            lists.setdefault((e.flag.scenario, e.flag.choice_list), []).append(e.target)
    scenarios: dict[int, list[tuple[str, ...]]] = {}
    for (s, _), codes in sorted(lists.items()):
        scenarios.setdefault(s, []).append(tuple(codes))
    return MapRecord(
        source, tuple(group), standalone, tuple(map(tuple, scenarios.values())),
        m=len(group), m0=len(standalone),
    )


@dataclass(eq=False, repr=False)
class MapTable(RowTable):
    """Maps of a crosswalk as arrays; reads as a sequence of
    :class:`MapRecord`.

    ``rows[starts[k]:starts[k + 1]]`` are the :class:`GemLines` rows of map
    k in entry order. ``m`` and ``m0`` are 0 for excluded (no-match) maps,
    and so is ``v``, which is int64, or Python ints in an object array when
    a count does not fit in int64.
    """

    lines: GemLines
    rows: np.ndarray
    starts: np.ndarray
    source: np.ndarray
    m: np.ndarray
    m0: np.ndarray
    v: np.ndarray

    def __len__(self) -> int:
        return len(self.source)

    def _rows(self, part: slice):
        for k in range(len(self))[part]:
            rows = self.rows[self.starts[k] : self.starts[k + 1]]
            yield _make_record(str(self.source[k]), self.lines._rows(rows))

    def split(self, keep: np.ndarray) -> tuple[MapTable, MapTable]:
        """The maps where the boolean mask ``keep`` is set, and the others,
        each in order."""
        sizes = np.diff(self.starts)
        rows = np.repeat(keep, sizes)
        return tuple(
            MapTable(self.lines, self.rows[r], offsets(sizes[k]), self.source[k],
                     self.m[k], self.m0[k], self.v[k])
            for k, r in ((keep, rows), (~keep, ~rows))
        )


def _build_maps(lines: GemLines, map_id: np.ndarray, first_row: np.ndarray) -> MapTable:
    """Group the rows by ``map_id`` (maps numbered in output order; map k's
    first row is ``first_row[k]``), check every group and count m, m0, v."""
    n_maps = len(first_row)
    sizes = np.bincount(map_id, minlength=n_maps)
    rows = np.argsort(map_id, kind="stable")
    no_match = (lines.flags[:, 1] == 1) | lines.sentinel()
    n_no_match = np.bincount(map_id[no_match], minlength=n_maps)
    excluded = n_no_match == sizes

    # combination rows as (map, scenario, choice list) keys, sorted once; the
    # runs of equal keys are the lists, of equal key // 10 the scenarios
    comb = lines.flags[:, 2] == 1
    flags = lines.flags[comb].astype(np.int64)
    keys = np.sort((map_id[comb] * 10 + flags[:, 3]) * 10 + flags[:, 4])
    first, list_size = runs(keys)
    keys = keys[first]
    scen_first, n_lists = runs(keys // 10)
    scen_keys = keys[scen_first] // 10
    scen_map = scen_keys // 10
    map_first, n_scen = runs(scen_map)
    map_keys = scen_map[map_first]
    # numbering is contiguous from 1 iff the highest number equals the count
    gap = np.zeros(n_maps, dtype=bool)
    gap[map_keys] = scen_keys[map_first + n_scen - 1] % 10 != n_scen
    gap[scen_map[keys[scen_first + n_lists - 1] % 10 != n_lists]] = True
    bad = ~excluded & ((n_no_match > 0) | gap)
    source = lines.sources[first_row].astype(np.uint32).view("U8")[:, 0]
    if bad.any():
        # the first bad map's error, on its first row's line: mixed no-match first,
        # then the numbering of its scenarios, then of each scenario's choice lists
        k = int(np.argmax(bad))
        name, at = str(source[k]), (lines.filename, int(lines.line[first_row[k]]))
        if n_no_match[k]:
            raise StructuralError(f"source {name} mixes no-match and regular entries", *at,
                                  source=name)
        scenarios = scen_keys[scen_map == k]
        numberings = [(f"source {name} has non-contiguous scenario numbers", scenarios)] + [
            (f"source {name} scenario {s % 10} has non-contiguous choice lists",
             keys[keys // 10 == s])
            for s in scenarios.tolist()
        ]
        text, ids = next((text, ids % 10) for text, ids in numberings if ids[-1] % 10 != len(ids))
        raise StructuralError(f"{text} {ids.tolist()}", *at, source=name)

    m = np.where(excluded, 0, sizes)
    m0 = np.where(excluded, 0, sizes - np.bincount(map_id[comb], minlength=n_maps))
    v = m0.copy()
    if len(keys):
        scen_product = np.multiply.reduceat(list_size, scen_first)
        v[map_keys] += np.add.reduceat(scen_product, map_first)
        # int64 holds v while every scenario's product stays below 2**59 (a
        # map has at most 9 scenarios); past that, count with Python ints.
        if np.add.reduceat(np.log2(list_size), scen_first).max() > 58:
            v = m0.astype(object)
            for k, sizes_k in zip(scen_map.tolist(), np.split(list_size, scen_first[1:])):
                v[k] += math.prod(sizes_k.tolist())
    return MapTable(lines, rows, offsets(sizes), source, m, m0, v)


def _map_ids(sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's map (numbered in first-appearance order) and each map's
    first row, from one key per run of equal consecutive sources. Big-endian
    words order as the codes do, so a file sorted by source gives sorted
    keys, which the stable sort of np.unique runs through in linear time."""
    words = sources.view(">u8")[:, 0]
    run, run_size = runs(words)
    _, first, inverse = np.unique(words[run], return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return np.repeat(rank[inverse.reshape(-1)], run_size), run[first[order]]


def group_maps(lines: GemLines) -> MapTable:
    """Group the rows of a crosswalk by source code into a :class:`MapTable`.

    Maps follow first-appearance order; entry order inside a map is
    preserved. Stand-alone entries (no combination flag) fill
    ``standalone_codes``; combination entries are bucketed by their
    (scenario, choice list) digits, which must number contiguously from 1.
    """
    return _build_maps(lines, *_map_ids(lines.sources))  # ids' working arrays freed first


def _raise_rule(rules, row: int, filename, line, **fields):
    """Raise the error of the first of ``rules``, each a (mask, error type,
    message template), set on ``row``, worded from the row's ``fields``."""
    error, text = next((error, text) for mask, error, text in rules if mask[row])
    raise error(text.format(**fields), filename, line)


def _check_rows(rules, filename, lines, **columns) -> None:
    """Raise the error of the first row that breaks one of ``rules``, in the
    order a row's errors are reported, worded from its cells of ``columns``."""
    bad = np.logical_or.reduce([mask for mask, _, _ in rules])
    if bad.any():
        row = int(np.argmax(bad))
        _raise_rule(rules, row, filename, lines[row], **{k: c[row] for k, c in columns.items()})


def _codes(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code cells as the crosswalk's fields (rows of 8 bytes, upper-cased,
    NUL-padded), and where a cell is not 1-8 characters of [A-Za-z0-9]; a
    character past ASCII reads as 0x80, which the code table rejects."""
    length = np.fromiter(map(len, cells), np.int64, len(cells))
    chars = np.array(cells, f"U{MAX_CODE}").view(np.uint32).reshape(-1, MAX_CODE)
    codes, bad = _field(np.minimum(chars, 0x80).astype(np.uint8).view("<u8"), length, _CODE_BYTE)
    return codes, bad | (length == 0) | (length > MAX_CODE)


def _padded(codes: np.ndarray, width) -> np.ndarray:
    """NUL-padded codes (``S8``, or rows of 8 bytes) as big-endian words,
    which order as the codes do, each NUL before ``width`` made '0', after it 'Z'."""
    rows = np.ascontiguousarray(codes).view(np.uint8).reshape(-1, MAX_CODE)
    fill = np.where(np.arange(MAX_CODE) < np.reshape(width, (-1, 1)), ord("0"), ord("Z"))
    return np.where(rows == 0, fill, rows).astype(np.uint8).view(">u8")[:, 0]


def _keyed_rules(cells: list[str], what: str) -> tuple:
    """The rules of a table keyed by code: a code cell is a code, and no code
    (upper-cased) repeats one of an earlier row."""
    codes, bad = _codes(cells)
    repeat = np.ones(len(cells), dtype=bool)
    # first rows; big-endian words keep a sorted table sorted (a linear sort)
    repeat[np.unique(codes.view(">u8")[:, 0], return_index=True)[1]] = False
    return ((bad, ParseError, what + " code {cell!r} is not 1-8 characters of [A-Z0-9]"),
            (repeat, ParseError, "duplicate code {code}"))


class ClassRanges:
    """Clinical classes as code intervals sorted by (low, high, class, line);
    its length is the class count.

    ``ids`` and ``labels`` follow each label's first row. ``lows`` and
    ``highs`` are the padded range bounds (:func:`load_class_defs`) as words
    and ``classes`` their class indices, behind an interval [0, 0] of class
    -1 below every code. ``top[j]`` is the highest bound of intervals 0..j
    and ``holder[j]`` the last of them to reach it.
    """

    def __init__(self, ids: list[str], labels: list[str], lows, highs, classes):
        self.ids, self.labels = ids, labels
        self.lows, self.highs, self.classes = lows, highs, classes
        self.top = np.maximum.accumulate(highs)
        self.holder = np.maximum.accumulate(np.where(highs == self.top, np.arange(len(highs)), 0))

    def __len__(self) -> int:
        return len(self.ids)


def load_class_defs(source, filename: str | None = None) -> ClassRanges:
    """Load clinical classes from `low,high,label` CSV rows into a
    :class:`ClassRanges`.

    A range covers [low padded with '0', high padded with '0' to the longer
    bound's length k, then with 'Z']: a code's first k characters
    ('0'-padded) lie between the bounds '0'-padded to k exactly when the
    code, '0'-padded, lies in it. Rows sharing a label merge into one class.
    Ranges of different classes must not overlap: an interval overlaps one of
    another class exactly when it starts at or below the ``top`` before it
    and the ``holder`` of that bound is of another class. The error names the
    first such interval in the table's order and that holder, the pair
    meeting at the lowest code two classes share, on the later line.
    """
    filename, (low_cells, high_cells, labels), lines = read_table(
        source, filename, ("low", "high", "label"))
    (low_codes, bad_low), (high_codes, bad_high) = _codes(low_cells), _codes(high_cells)
    # a code's length is its count of non-NUL bytes
    width = np.maximum(np.count_nonzero(low_codes, axis=1), np.count_nonzero(high_codes, axis=1))
    lows, highs = _padded(low_codes, MAX_CODE), _padded(high_codes, width)
    low, high = list(map(str.upper, low_cells)), list(map(str.upper, high_cells))
    _check_rows((
        (bad_low, ParseError, "range low code {low_cell!r} is not 1-8 characters of [A-Z0-9]"),
        (bad_high, ParseError, "range high code {high_cell!r} is not 1-8 characters of [A-Z0-9]"),
        (lows > highs, StructuralError, "range low {low!r} exceeds high {high!r} after padding"),
        (np.fromiter(map(len, labels), np.intp, len(labels)) == 0, ParseError,
         "class label is empty"),
    ), filename, lines, low_cell=low_cells, high_cell=high_cells, low=low, high=high)

    index = dict(zip(dict.fromkeys(labels), count()))
    classes = np.fromiter(map(index.__getitem__, labels), np.int64, len(labels))
    # each class's "low-high" ranges in row order joined by '+': one join in
    # class order, cut after each class's last range (codes hold no '\n')
    by_class = np.argsort(classes, kind="stable")
    cut = np.where(np.append(np.diff(classes[by_class]) != 0, True), "\n", "+").tolist()
    ranges = (np.array(c, object)[by_class] for c in (low, high))
    ids = "".join(map("{}-{}{}".format, *ranges, cut)).split("\n")[:-1]
    order = np.lexsort((classes, highs, lows))
    zero = np.zeros(1, lows.dtype)  # [0, 0] sorts first
    table = ClassRanges(ids, list(index), np.concatenate((zero, lows[order])),
                        np.concatenate((zero, highs[order])), np.append(-1, classes[order]))
    top, k = table.top, table.classes
    clash = np.flatnonzero((table.lows[1:] <= top[:-1]) & (k[1:] != k[table.holder[:-1]]))
    if len(clash):
        pair = order[[table.holder[clash[0]] - 1, clash[0]]].tolist()
        (a, line_a, ra), (b, line_b, rb) = sorted((classes[j], lines[j], (low[j], high[j]))
                                                  for j in pair)
        raise StructuralError(f"class {table.ids[a]!r} ({table.labels[a]}) overlaps class "
                              f"{table.ids[b]!r} ({table.labels[b]}) on ranges {ra} and {rb}",
                              filename, max(line_a, line_b))
    return table


def assign_classes(codes: Sequence[str], table: ClassRanges) -> np.ndarray:
    """Index into ``table.ids`` of the class of each code, ``len(table)`` for
    a code outside every range.

    A range covers a code when the code, upper-cased and right-padded with
    '0' to 8 characters, lies in the range's interval (see
    :func:`load_class_defs`). Codes are alphanumeric. One ``searchsorted``
    finds each code's last interval starting at or below it; the code lies
    in a class exactly when ``top`` there reaches it: in the ``holder``'s.
    """
    keys = _padded(np.array([code.upper() for code in codes], "S8"), MAX_CODE)
    at = np.searchsorted(table.lows, keys, "right") - 1
    return np.where(keys <= table.top[at], table.classes[table.holder[at]], len(table))


def load_descriptions(source, filename: str | None = None) -> dict[str, str]:
    """Load a `code,description` CSV into a lookup table by upper-cased code."""
    filename, (cells, descriptions), lines = read_table(source, filename, ("code", "description"))
    codes = list(map(str.upper, cells))
    _check_rows(_keyed_rules(cells, "described"), filename, lines, cell=cells, code=codes)
    return dict(zip(codes, descriptions))


def _number_or_none(text: str) -> float | None:
    try:
        return parse_number(text)
    except ValueError:
        return None


def load_frequencies(source, filename: str | None = None) -> dict[str, float]:
    """Load a `code,probability` CSV; every probability must lie in [0, 1]."""
    filename, (cells, probs), lines = read_table(source, filename, ("code", "probability"))
    codes, numbers = list(map(str.upper, cells)), list(map(_number_or_none, probs))
    p = np.array(numbers, dtype=float)  # None reads NaN
    rules = _keyed_rules(cells, "frequency") + (
        (np.equal(numbers, None), ParseError, "probability {prob!r} is not a number"),
        (~((p >= 0.0) & (p <= 1.0)), ParseError, "probability {p} outside [0, 1]"),
    )
    _check_rows(rules, filename, lines, cell=cells, code=codes, prob=probs, p=numbers)
    return dict(zip(codes, numbers))
