"""Crosswalk (GEM) file ingestion as columns.

A crosswalk holds one ``SOURCE TARGET FLAG5`` line per candidate target.
:func:`parse_gem_file` reads a whole file into a :class:`GemLines` table with
one row per non-blank line, stored as arrays:

* ``sources``: rows x 8 uint8, the upper-cased ASCII source code, zero-padded;
* ``targets``: rows x 8 uint8 symbol indices of the target code, right-padded
  with ``PAD_SYMBOL``;
* ``target_len``: the target code lengths;
* ``flags``: rows x 5 uint8 flag digits;
* ``line``: the line numbers.

Every line check runs as one vectorized mask over all rows. When a mask
fails, the scalar validators (:func:`_parse_line`, built on
:func:`_validate_code` and :func:`parse_flag`) re-run on the first failing
line alone and raise its error, so messages name the file and line.

:func:`group_maps` groups the rows by source code into a :class:`MapTable`:
maps in first-appearance order, each map's rows in file order, and m, m0 and
v (the number of valid representations) from segment reductions. The group
checks (mixed no-match sources, scenario and choice-list numbering) are
masks too, re-run by the scalar :func:`_make_record` on the first failing
source.

Both tables are sized sequences that build :class:`GemEntry` and
:class:`MapRecord` objects on access, so per-object code reads them like
lists while scoring reads the arrays. Lists of entries or records convert to
the same tables (:meth:`GemLines.from_entries`, :meth:`MapTable.from_records`),
so there is one ingestion path.

The grammar is ASCII: codes are 1-8 characters of [A-Za-z0-9] (upper-cased),
flags are 5 ASCII digits, fields are separated by ASCII whitespace, lines
end at LF, CRLF or CR, and a leading UTF-8 byte order mark is skipped.

Also here: the CSV side tables (clinical class ranges, code descriptions,
code frequencies) and the padded character matrix of one map.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import EmptyMapError, ParseError, StructuralError

# Code alphabet: digits, uppercase letters, plus one padding symbol that can
# never occur in a code. Symbol indices are stable: '0'-'9' -> 0-9,
# 'A'-'Z' -> 10-35, pad -> 36.
ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
PAD_CHAR = "*"
PAD_SYMBOL = len(ALPHABET)
N_SYMBOLS = len(ALPHABET) + 1
MAX_CODE = 8

# Targets that mark "no match in the target system", regardless of flag.
NO_MATCH_SENTINELS = frozenset({"NODX", "NOPCS"})

UNCLASSIFIED = "unclassified"

_CODE_RE = re.compile(r"[A-Za-z0-9]{1,8}")
_BOM = b"\xef\xbb\xbf"

_CHAR_TO_SYMBOL = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(ALPHABET + PAD_CHAR):
    _CHAR_TO_SYMBOL[ord(_c)] = _i
# Byte of a code character (either case) -> symbol; 255 for anything else.
_CODE_SYMBOL = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(ALPHABET):
    _CODE_SYMBOL[ord(_c)] = _CODE_SYMBOL[ord(_c.lower())] = _i
# Symbol -> its ASCII byte; 0 for the pad and the invalid symbol 255, so
# that a row of bytes read as "S8" is the code.
_SYMBOL_BYTE = np.zeros(256, dtype=np.uint8)
_SYMBOL_BYTE[:PAD_SYMBOL] = np.frombuffer(ALPHABET.encode(), np.uint8)
_IS_SPACE = np.zeros(256, dtype=bool)
_IS_SPACE[list(b" \t\n\r\x0b\x0c")] = True


@dataclass(frozen=True)
class Flag:
    """Decoded five-digit supplemental flag of one crosswalk entry."""

    approximate: bool
    no_map: bool
    combination: bool
    scenario: int
    choice_list: int


@dataclass(frozen=True)
class GemEntry:
    """One crosswalk line: a source code, a candidate target, and its flag."""

    source: str
    target: str
    flag: Flag
    line_number: int

    @property
    def is_no_match(self) -> bool:
        """True when this entry marks data loss (no target-system match)."""
        return self.flag.no_map or self.target in NO_MATCH_SENTINELS

    def to_line(self) -> str:
        f = self.flag
        digits = (
            f"{int(f.approximate)}{int(f.no_map)}{int(f.combination)}"
            f"{f.scenario}{f.choice_list}"
        )
        return f"{self.source} {self.target} {digits}"


@dataclass(frozen=True)
class MapRecord:
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


@dataclass
class CodeMatrix:
    """Target codes of one map as an m x n matrix of symbol indices.

    Every row is one target code in file order (duplicates kept); n is the
    longest raw code length in the map and shorter codes are right-padded
    with the pad symbol, which counts as an ordinary alphabet.
    """

    codes: np.ndarray  # (m, n) uint8 symbol indices
    pad: str = PAD_CHAR

    def __post_init__(self):
        self.codes.setflags(write=False)

    @property
    def m(self) -> int:
        return self.codes.shape[0]

    @property
    def n(self) -> int:
        return self.codes.shape[1]

    def row_strings(self) -> list[str]:
        """Rows rendered back to padded text, mostly for debugging."""
        table = ALPHABET + PAD_CHAR
        return ["".join(table[s] for s in row) for row in self.codes]


@dataclass(frozen=True)
class ClassDef:
    """A clinical class: a label plus inclusive code-prefix ranges."""

    id: str
    label: str
    ranges: tuple[tuple[str, str], ...]


class RowTable(Sequence):
    """Equal-length columns read as a sequence of row objects, each built
    when it is accessed. Compares equal to any sequence of equal rows."""

    __hash__ = None

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

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} rows>"


def offsets(counts: np.ndarray) -> np.ndarray:
    """Start offsets of consecutive segments of the given sizes, plus the
    total as a last element."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _strings(rows: np.ndarray) -> list[str]:
    """Rows of 8 ASCII bytes, zero-padded, as strings."""
    return np.ascontiguousarray(rows).view("S8")[:, 0].astype(str).tolist()


# Each sentinel as its row of ``GemLines.targets`` read as one uint64.
_SENTINEL_KEYS = np.array([
    _CHAR_TO_SYMBOL[np.frombuffer(s.ljust(MAX_CODE, PAD_CHAR).encode(), np.uint8)].view("<u8")[0]
    for s in sorted(NO_MATCH_SENTINELS)
])


@dataclass(eq=False, repr=False)
class GemLines(RowTable):
    """The rows of a crosswalk as arrays (see the module docstring); reads
    as a sequence of :class:`GemEntry`."""

    sources: np.ndarray
    targets: np.ndarray
    target_len: np.ndarray
    flags: np.ndarray
    line: np.ndarray

    def __len__(self) -> int:
        return len(self.line)

    def _rows(self, part) -> list[GemEntry]:
        """Entries of a slice or an index array of rows."""
        return [
            GemEntry(source, target, Flag(bool(a), bool(n), bool(c), s, k), line)
            for source, target, (a, n, c, s, k), line in zip(
                _strings(self.sources[part]),
                _strings(_SYMBOL_BYTE[self.targets[part]]),
                self.flags[part].tolist(),
                self.line[part].tolist(),
            )
        ]

    def sentinel(self) -> np.ndarray:
        """Rows whose target is a no-match sentinel code."""
        keys = self.targets.view("<u8")[:, 0]
        return (keys == _SENTINEL_KEYS[0]) | (keys == _SENTINEL_KEYS[1])

    @classmethod
    def from_entries(cls, entries: Iterable[GemEntry]) -> GemLines:
        """Rows of already-built entries, through the same reader as files.

        Each entry is re-read from :meth:`GemEntry.to_line`, so it obeys the
        file grammar; an invalid entry raises the reader's error with its
        position (1-based) as line. The rows keep the entries' line numbers.
        """
        entries = list(entries)
        data = "\n".join(e.to_line() for e in entries).encode("utf-8", "surrogatepass")
        lines = _read_lines(data, None)
        lines.line = np.array([e.line_number for e in entries], dtype=np.int64)
        return lines


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


def _field(buf: np.ndarray, start: np.ndarray, length: np.ndarray, width: int):
    """The first ``width`` bytes of each field as a (rows, width) matrix, and
    the mask of positions inside the field."""
    pos = start[:, None] + np.arange(width)
    np.minimum(pos, len(buf) - 1, out=pos)
    return buf[pos], np.arange(width) < length[:, None]


def _read_lines(data: bytes, filename) -> GemLines:
    """Split, validate and encode a whole crosswalk (see the module
    docstring for the grammar)."""
    if data.startswith(_BOM):
        data = data[len(_BOM):]
    buf = np.frombuffer(data, dtype=np.uint8)
    # token i spans bytes [edges[2i], edges[2i+1])
    edges = np.flatnonzero(np.diff(_IS_SPACE[buf], prepend=True, append=True))
    start, end = edges[0::2], edges[1::2]
    cr = np.flatnonzero(buf == 13)
    lone_cr = cr[buf[np.minimum(cr + 1, len(buf) - 1)] != 10]
    breaks = np.sort(np.concatenate((np.flatnonzero(buf == 10), lone_cr)))
    token_line = np.searchsorted(breaks, start)
    first = np.flatnonzero(np.diff(token_line, prepend=-1))  # first token per line
    n_tokens = np.diff(first, append=len(start))
    line_index = token_line[first]

    t = first[n_tokens == 3]
    src_raw, src_in = _field(buf, start[t], end[t] - start[t], MAX_CODE)
    src_sym = _CODE_SYMBOL[src_raw]
    tgt_len = end[t + 1] - start[t + 1]
    tgt_raw, tgt_in = _field(buf, start[t + 1], tgt_len, MAX_CODE)
    tgt_sym = _CODE_SYMBOL[tgt_raw]
    flag_raw, _ = _field(buf, start[t + 2], end[t + 2] - start[t + 2], 5)
    digits = flag_raw - np.uint8(48)
    lines = GemLines(
        sources=np.where(src_in, _SYMBOL_BYTE[src_sym], np.uint8(0)),
        targets=np.where(tgt_in, tgt_sym, np.uint8(PAD_SYMBOL)),
        target_len=tgt_len.astype(np.uint8),
        flags=digits,
        line=line_index[n_tokens == 3] + 1,
    )

    approximate, no_map, comb, scenario, choice = digits.T
    bad = (
        (end[t] - start[t] > MAX_CODE)
        | np.any(src_in & (src_sym == 255), axis=1)
        | (tgt_len > MAX_CODE)
        | np.any(tgt_in & (tgt_sym == 255), axis=1)
        | (end[t + 2] - start[t + 2] != 5)
        | np.any(digits > 9, axis=1)
        | np.any(digits[:, :3] > 1, axis=1)
        | ((no_map == 1) & (comb == 1))
        | ((comb == 0) & ((scenario != 0) | (choice != 0)))
        | ((comb == 1) & ((scenario == 0) | (choice == 0)))
    )
    sentinel = lines.sentinel()
    bad |= ((no_map == 1) & ~sentinel) | ((comb == 1) & sentinel)
    failed = np.concatenate((line_index[n_tokens != 3], lines.line[bad] - 1))
    if len(failed):
        i = int(failed.min())
        lo = int(breaks[i - 1]) + 1 if i else 0
        hi = int(breaks[i]) if i < len(breaks) else len(data)
        _parse_line(data[lo:hi], filename, i + 1)
        raise ParseError("line rejected by the crosswalk grammar", filename, i + 1)
    return lines


def parse_gem_file(source, filename: str | None = None) -> GemLines:
    """Parse a crosswalk file into a :class:`GemLines` table in file order.

    ``source`` may be a path, bytes, or an open text/binary stream. Lines
    hold three whitespace-separated fields: source code, target code,
    5-digit flag. Blank lines are skipped; anything else malformed raises
    with file and line context.
    """
    if isinstance(source, (str, Path)):
        filename = filename or str(source)
        data = Path(source).read_bytes()
    elif isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")
    return _read_lines(data, filename)


def _make_record(source: str, group: Sequence[GemEntry]) -> MapRecord:
    """One map's record from its entries, running every group check."""
    no_match = [e for e in group if e.is_no_match]
    if no_match and len(no_match) != len(group):
        raise StructuralError(
            f"source {source} mixes no-match and regular entries",
            source=source,
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
            source=source,
        )
    scenarios = []
    for s in scenario_ids:
        list_ids = sorted({c for sc, c in buckets if sc == s})
        if list_ids != list(range(1, len(list_ids) + 1)):
            raise StructuralError(
                f"source {source} scenario {s} has non-contiguous "
                f"choice lists {list_ids}",
                source=source,
            )
        scenarios.append(tuple(tuple(buckets[(s, c)]) for c in list_ids))

    m0 = len(standalone)
    m = m0 + sum(len(cl) for sc in scenarios for cl in sc)
    return MapRecord(
        source, tuple(group), tuple(standalone), tuple(scenarios), m=m, m0=m0
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

    def select(self, keep: np.ndarray) -> MapTable:
        """The maps where the boolean mask ``keep`` is set, in order."""
        sizes = np.diff(self.starts)
        return MapTable(
            self.lines,
            self.rows[np.repeat(keep, sizes)],
            offsets(sizes[keep]),
            self.source[keep],
            self.m[keep],
            self.m0[keep],
            self.v[keep],
        )

    @classmethod
    def from_records(cls, records: Iterable[MapRecord]) -> MapTable:
        """The maps of already-built records, one map per record, in order."""
        records = list(records)
        sizes = [len(r.entries) for r in records]
        lines = GemLines.from_entries(e for r in records for e in r.entries)
        map_id = np.repeat(np.arange(len(records)), sizes)
        return _build_maps(lines, map_id, offsets(sizes)[:-1])


def _build_maps(lines: GemLines, map_id: np.ndarray, first_row: np.ndarray) -> MapTable:
    """Group the rows by ``map_id`` (maps numbered in output order; map k's
    first row is ``first_row[k]``), check every group and count m, m0, v."""
    n_maps = len(first_row)
    sizes = np.bincount(map_id, minlength=n_maps)
    rows = np.argsort(map_id, kind="stable")
    no_match = (lines.flags[:, 1] == 1) | lines.sentinel()
    n_no_match = np.bincount(map_id[no_match], minlength=n_maps)
    excluded = n_no_match == sizes

    # combination rows as (map, scenario, choice list) keys, one per list
    comb = lines.flags[:, 2] == 1
    flags = lines.flags[comb].astype(np.int64)
    keys, list_size = np.unique(
        (map_id[comb] * 10 + flags[:, 3]) * 10 + flags[:, 4], return_counts=True
    )
    scen_keys, scen_first, n_lists = np.unique(
        keys // 10, return_index=True, return_counts=True
    )
    scen_map = scen_keys // 10
    map_keys, map_first, n_scen = np.unique(
        scen_map, return_index=True, return_counts=True
    )
    # numbering is contiguous from 1 iff the highest number equals the count
    gap = np.zeros(n_maps, dtype=bool)
    gap[map_keys] = scen_keys[map_first + n_scen - 1] % 10 != n_scen
    gap[scen_map[keys[scen_first + n_lists - 1] % 10 != n_lists]] = True
    bad = ~excluded & ((n_no_match > 0) | gap)
    source = np.array(_strings(lines.sources[first_row]), dtype="U8")
    if bad.any():
        k = int(np.argmax(bad))
        _make_record(str(source[k]), lines._rows(rows[map_id[rows] == k]))
        raise StructuralError(
            f"source {source[k]} failed a group check", source=str(source[k])
        )

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


def group_maps(entries: Iterable[GemEntry]) -> MapTable:
    """Group entries by source code into a :class:`MapTable`.

    ``entries`` is a :class:`GemLines` table or any iterable of entries.
    Maps follow first-appearance order; entry order inside a map is
    preserved. Stand-alone entries (no combination flag) fill
    ``standalone_codes``; combination entries are bucketed by their
    (scenario, choice list) digits, which must number contiguously from 1.
    """
    lines = entries if isinstance(entries, GemLines) else GemLines.from_entries(entries)
    keys = lines.sources.view("<u8")[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return _build_maps(lines, rank[inverse.reshape(-1)], first[order])


def encode_codes(codes: Sequence[str], width: int) -> np.ndarray:
    """Encode codes into a (len(codes), width) uint8 symbol matrix,
    right-padding shorter codes with the pad symbol."""
    joined = "".join(code.ljust(width, PAD_CHAR) for code in codes)
    raw = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
    return _CHAR_TO_SYMBOL[raw].reshape(len(codes), width)


def build_matrix(record: MapRecord) -> CodeMatrix:
    """Build the padded character matrix for one map.

    Rows are the map's target codes in file order (duplicates kept); the
    width is the longest raw code length in the map.
    """
    if record.m == 0:
        raise EmptyMapError(record.source)
    targets = [e.target for e in record.entries]
    width = max(len(t) for t in targets)
    return CodeMatrix(encode_codes(targets, width))


def _read_csv(source, filename, expected_header):
    close = False
    if isinstance(source, (str, Path)):
        filename = filename or str(source)
        stream = open(source, "r", encoding="utf-8-sig", newline="")
        close = True
    elif isinstance(source, (bytes, bytearray)):
        stream = io.StringIO(source.decode("utf-8-sig"))
    else:
        stream = source
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
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
        for line_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected_header):
                raise ParseError(
                    f"expected {len(expected_header)} columns, got {len(row)}",
                    filename,
                    line_number,
                )
            rows.append((line_number, [cell.strip() for cell in row]))
        return filename, rows
    finally:
        if close:
            stream.close()


def _range_interval(low: str, high: str) -> tuple[bytes, bytes]:
    """The closed interval of 8-character codes a class range covers: [low
    padded with '0', high padded with '0' to the longer bound's length k,
    then with 'Z']. A code's first k characters ('0'-padded) lie between the
    bounds '0'-padded to k exactly when the code, '0'-padded, lies in it."""
    k = max(len(low), len(high))
    return low.ljust(MAX_CODE, "0").encode(), high.ljust(k, "0").ljust(MAX_CODE, "Z").encode()


def load_class_defs(source, filename: str | None = None) -> list[ClassDef]:
    """Load clinical class definitions from `low,high,label` CSV rows.

    Rows sharing a label merge into one class with several ranges. Ranges of
    different classes must not overlap: no code may lie in both ranges'
    intervals (see :func:`assign_classes`).
    """
    filename, rows = _read_csv(source, filename, ("low", "high", "label"))
    by_label: dict[str, list[tuple[tuple[str, str], tuple[bytes, bytes]]]] = {}
    for line_number, (low, high, label) in rows:
        low = _validate_code(low, "range low", filename, line_number)
        high = _validate_code(high, "range high", filename, line_number)
        interval = _range_interval(low, high)
        if interval[0] > interval[1]:
            raise StructuralError(
                f"range low {low!r} exceeds high {high!r} after padding",
                filename,
                line_number,
            )
        if not label:
            raise ParseError("class label is empty", filename, line_number)
        by_label.setdefault(label, []).append(((low, high), interval))

    defs = [
        ClassDef(
            id="+".join(f"{low}-{high}" for (low, high), _ in ranges),
            label=label,
            ranges=tuple(r for r, _ in ranges),
        )
        for label, ranges in by_label.items()
    ]

    classes = list(zip(defs, by_label.values()))
    for i, (a, a_ranges) in enumerate(classes):
        for b, b_ranges in classes[i + 1 :]:
            for ra, (lo_a, hi_a) in a_ranges:
                for rb, (lo_b, hi_b) in b_ranges:
                    if max(lo_a, lo_b) <= min(hi_a, hi_b):
                        raise StructuralError(
                            f"class {a.id!r} ({a.label}) overlaps class "
                            f"{b.id!r} ({b.label}) on ranges {ra} and {rb}"
                        )
    return defs


def assign_classes(codes: Sequence[str], defs: Sequence[ClassDef]) -> np.ndarray:
    """Index into ``defs`` of the class of each code, ``len(defs)`` for a code
    outside every range; the first class whose range covers a code wins.

    A range covers a code when the code, upper-cased and right-padded with
    '0' to 8 characters, lies in the range's interval (see
    :func:`_range_interval`). Codes are alphanumeric.
    """
    keys = np.array([code.upper().ljust(MAX_CODE, "0") for code in codes], dtype="S8")
    out = np.full(len(keys), len(defs), dtype=np.intp)
    for i, cdef in enumerate(defs):
        for low, high in cdef.ranges:
            lo, hi = _range_interval(low, high)
            out[(out == len(defs)) & (keys >= lo) & (keys <= hi)] = i
    return out


def assign_class(code: str, defs: Sequence[ClassDef]) -> str:
    """Return the id of the first class whose range covers the code's
    leading prefix, or ``"unclassified"``: :func:`assign_classes` on one
    code."""
    i = int(assign_classes([code], defs)[0])
    return defs[i].id if i < len(defs) else UNCLASSIFIED


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
            p = float(prob)
        except ValueError:
            raise ParseError(f"probability {prob!r} is not a number", filename, line_number)
        if not 0.0 <= p <= 1.0:
            raise ParseError(
                f"probability {p} outside [0, 1]", filename, line_number
            )
        table[code] = p
    return table
