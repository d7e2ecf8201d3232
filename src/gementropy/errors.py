"""Exception types raised while parsing crosswalks and computing scores, and
the readers of user input, which load no numpy: of numbers, of every input
file's bytes from a path or bytes (the crosswalk, the reference map, the
side tables and the rank files of ``corr``), of UTF-8 text (the side tables
and rank files), whose undecodable byte is reported with its line, and of
CSV tables (the side tables and CSV rank files). Lines end at LF, CRLF or a
lone CR in every input."""

import io
import re
from itertools import compress, count
from operator import itemgetter
from pathlib import Path

LINE_BREAK = re.compile(rb"\r\n?|\n")


class GemError(Exception):
    """Base class for all gementropy errors."""


def _located(message, filename, line):
    """The message behind a ``file:line: `` prefix; an absent part is left
    out, and so is the prefix when both are."""
    prefix = "".join(f"{part}:" for part in (filename, line) if part is not None)
    return f"{prefix} {message}" if prefix else message


class ParseError(GemError):
    """A line or field could not be parsed. Carries file/line context."""

    def __init__(self, message, filename=None, line=None):
        self.filename = filename
        self.line = line
        super().__init__(_located(message, filename, line))


class StructuralError(GemError):
    """Parsed values violate a structural invariant (flag combinations,
    scenario numbering gaps, mixed no-match sources, overlapping classes)."""

    def __init__(self, message, filename=None, line=None, source=None):
        self.filename = filename
        self.line = line
        self.source = source
        super().__init__(_located(message, filename, line))


class DegenerateMeasureError(GemError):
    """Normalization is impossible because a measure has zero spread."""

    def __init__(self, measure):
        self.measure = measure
        super().__init__(
            f"measure {measure!r} is constant across all maps; z-scores are undefined"
        )


class ConvergenceError(GemError):
    """Power iteration failed to converge within the iteration budget."""

    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"eigenvector centrality did not converge after {iterations} "
            f"iterations (residual {residual:.3e})"
        )


def parse_number(text: str) -> float:
    """``float(text)`` for ASCII text without ``_``, else a ValueError: float
    alone reads ``1_0`` as 10 and non-ASCII digits (``０.５`` as 0.5)."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def read_source(source, filename=None):
    """(filename, bytes) of a path or bytes, past a leading UTF-8 byte order
    mark. A path names the file unless ``filename`` does."""
    if isinstance(source, (str, Path)):
        filename, source = filename or str(source), Path(source).read_bytes()
    return filename, bytes(source).removeprefix(b"\xef\xbb\xbf")


def decode(data: bytes, filename) -> str:
    """The text of UTF-8 bytes; an undecodable byte raises a ParseError that
    names its line and the byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(LINE_BREAK.findall(data, 0, exc.start)) + 1
        raise ParseError(f"not UTF-8: {exc.reason} (byte 0x{data[exc.start]:02x})",
                         filename, line) from None


def read_table(source, filename, header, missing=None):
    """(filename, stripped cell columns of ``header``, first line of each row)
    of a CSV table's non-blank rows, read once from a :func:`read_source`
    source. The header's cells, stripped and lower-cased, must be ``header``,
    or with ``missing`` (the error's text) name its columns in any order
    among others, a repeated name reading its last column. A row of blank
    cells is skipped. Bytes that are not UTF-8, malformed CSV and a row of
    another column count raise a ParseError, a read error after the rows
    before it."""
    import csv  # not for the crosswalk

    filename, data = read_source(source, filename)
    decode(data, filename)
    # decoded a chunk at a time: a StringIO would hold 4 bytes per character
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    got, rows, lines, failure = (), [], [1], None  # lines[i]: the first line of row i
    try:
        got = next(reader, None)
        if got is None:
            raise ParseError("file is empty, expected a header row", filename, 1)
        names = [h.strip().lower() for h in got]
        if missing is None and names != list(header):
            raise ParseError(f"expected header {','.join(header)!r}, got {','.join(got)!r}",
                             filename, 1)
        place = dict(zip(names, count()))
        if not place.keys() >= set(header):
            raise ParseError(missing, filename)
        lines[0] = reader.line_num + 1
        for row in reader:
            rows.append(row)
            lines.append(reader.line_num + 1)
    except csv.Error as exc:
        failure = ParseError(str(exc), filename, lines[-1])
    width, size = len(got), list(map(len, rows))
    odd = [i for i, n in enumerate(size) if n != width] if size.count(width) < len(rows) else []
    for i in odd:
        if any(map(str.strip, rows[i])):
            raise ParseError(f"expected {width} columns, got {size[i]}", filename, lines[i])
    if failure:
        raise failure
    if odd:  # blank rows of another size
        rows, lines = (list(compress(c, map(width.__eq__, size))) for c in (rows, lines))
    columns = [list(map(str.strip, map(itemgetter(place[name]), rows))) for name in header]
    if "" in columns[0]:  # a blank row's first cell is empty
        filled = [any(map(str.strip, row)) for row in rows]
        columns, lines = [list(compress(c, filled)) for c in columns], list(compress(lines, filled))
    return filename, columns, lines[: len(columns[0])]  # not the line after the last row
