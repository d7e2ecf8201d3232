"""Crosswalk (GEM) file ingestion as columns.

A crosswalk holds one ``SOURCE TARGET FLAG5`` line per candidate target.
:func:`parse_gem_file` reads a file into a :class:`GemLines` table with one
row per non-blank line, stored as arrays:

* ``sources``: rows x 8 uint8, the upper-cased ASCII source code, zero-padded;
* ``targets``: rows x 8 uint8 symbol indices of the target code, right-padded
  with ``PAD_SYMBOL``;
* ``target_len``: the target code lengths;
* ``flags``: rows x 5 uint8 flag digits;
* ``line``: the line numbers.

The bytes are split, checked and encoded in blocks of about
``_PARSE_BLOCK`` bytes, each cut just after a line break, so the working
arrays stay the size of one block whatever the size of the file; the blocks'
columns are then concatenated. A field of up to 8 bytes is read as one
8-byte word: the block, padded with 8 zero bytes, is viewed as a
little-endian word at every byte offset. A 256-byte ``bytes.translate``
table per field maps each byte of the word at the field's start to its code
(the upper-case source character, the target symbol, the flag digit), or to
a byte with the high bit set where it may not stand in that field; one
``translate`` per field and block codes the bytes of all its words.
The coded word is masked to the field's length, a target's rest filled with
``PAD_SYMBOL``, and one test of its high bits per row checks every byte of
the field. Every line
check runs as one vectorized mask over a block's rows. When a mask fails,
the scalar validators (:func:`_parse_line`, built on :func:`_validate_code`
and :func:`parse_flag`) re-run on the block's first failing line alone and
raise its error, so messages name the file and line.

:func:`group_maps` groups the rows by source code into a :class:`MapTable`:
maps in first-appearance order, each map's rows in file order, and m, m0 and
v (the number of valid representations) from segment reductions. The group
checks (mixed no-match sources, scenario and choice-list numbering) are
masks too, re-run by the scalar :func:`_make_record` on the first failing
source.

Both tables are sized sequences that build :class:`GemEntry` and
:class:`MapRecord` objects on access, so per-object code reads them like
lists while scoring reads the arrays.

The grammar is ASCII: codes are 1-8 characters of [A-Za-z0-9] (upper-cased),
flags are 5 ASCII digits, fields are separated by ASCII whitespace, lines
end at LF, CRLF or CR, and a leading UTF-8 byte order mark is skipped.

Also here: the CSV side tables. Class ranges load into a :class:`ClassRanges`
table of sorted code intervals, whose one sweep both rejects overlapping
classes and assigns codes; descriptions and frequencies load into dicts.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ParseError, StructuralError

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
_CODE_LINES_RE = re.compile(f"{_CODE_RE.pattern}(?:\n{_CODE_RE.pattern})*")  # codes a line each
_BOM = b"\xef\xbb\xbf"
_LINE_BREAK = re.compile(rb"\r\n?|\n")
# Bytes per parse block: a block's working arrays peak at about 11 bytes per
# input byte, 3 MB for 256 KiB, where a whole 2.8 MB file in one block takes
# 32 MB (tracemalloc peaks).
_PARSE_BLOCK = 1 << 18

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
# Byte -> its code in a field, or a byte with the high bit set where it may
# not stand: the upper-case source character, the target symbol, the digit.
# ``bytes.translate`` tables of 256 bytes.
_IS_CODE = _CODE_SYMBOL < PAD_SYMBOL
_SOURCE_BYTE = np.where(_IS_CODE, _SYMBOL_BYTE[_CODE_SYMBOL], 0x80).astype(np.uint8).tobytes()
_TARGET_BYTE = np.where(_IS_CODE, _CODE_SYMBOL, 0x80).astype(np.uint8).tobytes()
_DIGIT_BYTE = bytes(i - 0x30 if 0x30 <= i <= 0x39 else 0x80 for i in range(256))  # "0"-"9"
# _LOW[k]: the mask of a word's first k bytes
_LOW = np.array([(1 << 8 * k) - 1 for k in range(MAX_CODE + 1)], dtype="<u8")
_HIGH_BITS = np.uint64(0x8080808080808080)
_PAD_WORD = np.uint64(0x0101010101010101 * PAD_SYMBOL)


def _bytes(words: np.ndarray) -> np.ndarray:
    """Words as rows of their 8 bytes, first byte first."""
    return words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)


def _field(words: np.ndarray, length, table: bytes, pad=np.uint64(0)):
    """Fields from the words at their starts, as rows of 8 bytes: the first
    ``length`` bytes mapped through ``table`` and the rest from ``pad``;
    and whether the table rejects a byte of the field."""
    mask = _LOW[np.minimum(length, MAX_CODE)]
    coded = words.astype("<u8", copy=False).tobytes().translate(table)
    coded = np.frombuffer(coded, "<u8") & mask
    return _bytes(coded | (pad & ~mask)), (coded & _HIGH_BITS) != 0


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


def _read_lines(data: bytes, filename) -> GemLines:
    """Split, validate and encode a crosswalk (see the module docstring for
    the grammar) a block at a time. A block ends just after the first line
    break that starts at or after its ``_PARSE_BLOCK``-th byte, so no line
    (and no CRLF) spans two blocks, and its first line follows the breaks
    of the blocks before it."""
    lo = len(_BOM) if data.startswith(_BOM) else 0
    blocks, first_line = [], 0
    while not blocks or lo < len(data):
        cut = _LINE_BREAK.search(data, lo + _PARSE_BLOCK - 1)
        hi = cut.end() if cut else len(data)
        lines, n_breaks = _read_block(data[lo:hi], filename, first_line)
        blocks.append(lines)
        lo, first_line = hi, first_line + n_breaks
    return GemLines(*(
        np.concatenate(parts)
        for parts in zip(*((b.sources, b.targets, b.target_len, b.flags, b.line) for b in blocks))
    ))


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
    breaks = np.flatnonzero((buf == 10) | ((buf == 13) & (after != 10)))
    token_line = np.searchsorted(breaks, start)
    first = np.flatnonzero(np.diff(token_line, prepend=-1))  # first token per line
    n_tokens = np.diff(first, append=len(start))
    line_index = token_line[first]

    t = first[n_tokens == 3]
    src_len, tgt_len, flag_len = (end[t + i] - start[t + i] for i in range(3))
    sources, bad_src = _field(words[start[t]], src_len, _SOURCE_BYTE)
    targets, bad_tgt = _field(words[start[t + 1]], tgt_len, _TARGET_BYTE, _PAD_WORD)
    flags, bad_flag = _field(words[start[t + 2]], 5, _DIGIT_BYTE)
    lines = GemLines(
        sources=sources,
        targets=targets,
        target_len=tgt_len.astype(np.uint8),
        flags=flags[:, :5],
        line=line_index[n_tokens == 3] + 1,
    )

    approximate, no_map, comb, scenario, choice = lines.flags.T
    bad = (
        (src_len > MAX_CODE)
        | bad_src
        | (tgt_len > MAX_CODE)
        | bad_tgt
        | (flag_len != 5)
        | bad_flag
        | (approximate > 1) | (no_map > 1) | (comb > 1)
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
        line = first_line + i + 1
        _parse_line(data[lo:hi], filename, line)
        raise ParseError("line rejected by the crosswalk grammar", filename, line)
    lines.line += first_line
    return lines, len(breaks)


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
    source = lines.sources[first_row].astype(np.uint32).view("U8")[:, 0]
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


def group_maps(lines: GemLines) -> MapTable:
    """Group the rows of a crosswalk by source code into a :class:`MapTable`.

    Maps follow first-appearance order; entry order inside a map is
    preserved. Stand-alone entries (no combination flag) fill
    ``standalone_codes``; combination entries are bucketed by their
    (scenario, choice list) digits, which must number contiguously from 1.
    """
    # Big-endian words order as the codes do, so a file sorted by source
    # gives sorted keys, which the stable sort of np.unique runs through in
    # linear time.
    keys = lines.sources.view(">u8")[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return _build_maps(lines, rank[inverse.reshape(-1)], first[order])


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
                data.count(b"\n", 0, at) + 1,
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


def _range_interval(low: str, high: str) -> tuple[bytes, bytes]:
    """The closed interval of 8-character codes a class range covers: [low
    padded with '0', high padded with '0' to the longer bound's length k,
    then with 'Z']. A code's first k characters ('0'-padded) lie between the
    bounds '0'-padded to k exactly when the code, '0'-padded, lies in it."""
    k = max(len(low), len(high))
    return low.ljust(MAX_CODE, "0").encode(), high.ljust(k, "0").ljust(MAX_CODE, "Z").encode()


class ClassRanges:
    """Clinical classes as code intervals sorted by (low, high, class, line);
    its length is the class count.

    ``ids`` and ``labels`` follow each label's first row. ``lows`` and
    ``highs`` are the padded bounds (:func:`_range_interval`) as big-endian
    words and ``classes`` their class indices, behind an interval [0, 0] of
    class -1 below every code. ``top[j]`` is the highest bound of intervals
    0..j and ``holder[j]`` the last of them to reach it.
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

    Rows sharing a label merge into one class with several ranges. Ranges of
    different classes must not overlap: no code may lie in both ranges'
    intervals. An interval overlaps one of another class exactly when it
    starts at or below the ``top`` before it and the ``holder`` of that
    bound is of another class. The error names the first such interval in
    the table's order and that holder, the pair meeting at the lowest code
    two classes share, on the later of their two lines.
    """
    filename, rows = _read_csv(source, filename, ("low", "high", "label"))
    by_label: dict[str, tuple[int, list[str]]] = {}  # class index, "low-high" ranges
    ranges = [(b"", b"", -1)]  # [0, 0], then (low, high, class, line, range) per row
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
        k, names = by_label.setdefault(label, (len(by_label), []))
        names.append(f"{low}-{high}")
        ranges.append((*interval, k, line_number, (low, high)))

    ranges.sort()
    words = np.array([r[:2] for r in ranges], dtype="S8").view(">u8")
    table = ClassRanges(
        ["+".join(names) for _, names in by_label.values()], list(by_label),
        words[:, 0], words[:, 1], np.array([r[2] for r in ranges]),
    )
    top, k = table.top, table.classes
    clash = np.flatnonzero((table.lows[1:] <= top[:-1]) & (k[1:] != k[table.holder[:-1]]))
    if len(clash):
        pair = (table.holder[clash[0]], clash[0] + 1)
        (a, line_a, ra), (b, line_b, rb) = sorted(ranges[j][2:] for j in pair)
        raise StructuralError(
            f"class {table.ids[a]!r} ({table.labels[a]}) overlaps class "
            f"{table.ids[b]!r} ({table.labels[b]}) on ranges {ra} and {rb}",
            filename,
            max(line_a, line_b),
        )
    return table


def assign_classes(codes: Sequence[str], table: ClassRanges) -> np.ndarray:
    """Index into ``table.ids`` of the class of each code, ``len(table)`` for
    a code outside every range.

    A range covers a code when the code, upper-cased and right-padded with
    '0' to 8 characters, lies in the range's interval (see
    :func:`_range_interval`). Codes are alphanumeric. One ``searchsorted``
    finds each code's last interval starting at or below it; the code lies
    in a class exactly when ``top`` there reaches it: in the ``holder``'s.
    """
    keys = np.array([code.upper().ljust(MAX_CODE, "0") for code in codes], dtype="S8").view(">u8")
    at = np.searchsorted(table.lows, keys, "right") - 1
    return np.where(keys <= table.top[at], table.classes[table.holder[at]], len(table))


def _well_formed_descriptions(data: bytes) -> dict[str, str] | None:
    """The table of a description file that passes every check, read in one
    pass without line numbers; None if any check fails."""
    try:  # a decode error is a ValueError, and so is a file without a header
        header, *rows = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
    except (ValueError, csv.Error):
        return None
    rows = [row for row in rows if row]
    if [h.strip().lower() for h in header] != ["code", "description"] or set(map(len, rows)) - {2}:
        return None
    codes = [row[0].strip() for row in rows]
    # one match over the codes a line each; a quoted newline in a cell adds a
    # line, so the line count must be the code count
    joined = "\n".join(codes)
    if codes and not (_CODE_LINES_RE.fullmatch(joined) and joined.count("\n") == len(codes) - 1):
        return None  # a blank row fails here too
    table = dict(zip(map(str.upper, codes), [row[1].strip() for row in rows]))
    return table if len(table) == len(codes) else None


def load_descriptions(source, filename: str | None = None) -> dict[str, str]:
    """Load a `code,description` CSV into a lookup table.

    A path or bytes is checked in one pass; if a check fails (or for a text
    stream), the numbered row reader runs instead and names the failing line.
    """
    if isinstance(source, (str, Path)):
        filename, source = filename or str(source), Path(source).read_bytes()
    if isinstance(source, (bytes, bytearray)):
        table = _well_formed_descriptions(bytes(source))
        if table is not None:
            return table
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
