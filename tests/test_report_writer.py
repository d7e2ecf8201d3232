"""Differential test of the columnar report writer against the row writer it
replaced, frozen here as the oracle: byte-identical CSV and JSON on random
tables, among them runs of numeric columns beside text and None columns,
runs of many distinct rows and runs of many columns. The oracle quotes a
CSV cell holding a bare CR, as ``csv.writer`` does from Python 3.13 on and
earlier versions only where CR ends a line."""

from __future__ import annotations

import csv
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gementropy import cli
from gementropy.cli import _write_report

# rows per formatting block: the default, and sizes that cut small tables
BLOCKS = (cli._REPORT_BLOCK, 1, 2, 7)


def _csv_line(cells) -> str:
    """One CSV row as ``csv.writer`` writes it with CRLF line ends, which
    quotes a cell holding CR or LF on every Python version, ended by LF."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def _write_table_oracle(out_dir: Path, name: str, fmt: str, header, rows) -> Path:
    """The row writer as it was: one report from a header and row tuples."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out_dir / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_line(header))
            for row in rows:
                fh.write(_csv_line(
                    "" if cell is None else f"{cell:.6g}" if isinstance(cell, float) else str(cell)
                    for cell in row
                ))
    else:
        path = out_dir / f"{name}.json"
        records = [dict(zip(header, row)) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")
    return path


FLOAT_POOL = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
    1e16, 1e-7, 0.1, 1.0, -2.5, 123456.5, 1234567.0,
]
# NaNs with payloads: the same text whatever their bits
NAN_BITS = [0x7FF8000000000001, -0x0008000000000000, 0x7FF0000000000001]
TEXT = st.text(
    alphabet=st.sampled_from(list('ab ,"\r\n\t%{}\\\x00é— 😀')), max_size=8
)


def _float_column(n):
    value = st.one_of(st.sampled_from(FLOAT_POOL), st.floats())
    nan_bits = st.sampled_from(NAN_BITS).map(lambda b: np.int64(b).view(np.float64))
    return st.lists(st.one_of(value, nan_bits), min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=np.float64)
    )


def _int_column(n):
    value = st.one_of(st.sampled_from([0, 1, -1, 9]), st.integers(-(2**63), 2**63 - 1))
    return st.lists(value, min_size=n, max_size=n).map(lambda xs: np.array(xs, dtype=np.int64))


def _object_column(n):
    value = st.one_of(
        st.none(),
        st.integers(-(2**70), 2**70),
        st.sampled_from(FLOAT_POOL),
        st.floats(),
        TEXT,
    )
    return st.lists(value, min_size=n, max_size=n).map(
        lambda xs: np.array(xs + [None], dtype=object)[:-1]
    )


def _text_column(n):
    return st.lists(TEXT, min_size=n, max_size=n)


def _none_column(n):
    return st.just([None] * n)


NAME = st.one_of(st.sampled_from(["a", "b", "x,y"]), TEXT)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    width = draw(st.integers(1, 4))
    kinds = [_float_column, _int_column, _object_column, _text_column]
    columns = [draw(draw(st.sampled_from(kinds))(n)) for _ in range(width)]
    header = draw(st.lists(NAME, min_size=width, max_size=width, unique=True))
    return header, columns


def _few_values_column(n):
    """A float64 or int64 column of a few distinct values, so rows repeat."""
    pool = st.sampled_from([0.0, -0.0, math.nan, 1.5, -2.0, 1e16])
    floats = st.lists(pool, min_size=n, max_size=n).map(lambda xs: np.array(xs))
    ints = st.lists(st.sampled_from([0, -1, 7, 2**63 - 1]), min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=np.int64)
    )
    return st.one_of(floats, ints)


@st.composite
def run_tables(draw):
    """Runs of 1-6 numeric columns between text, None and object columns."""
    n = draw(st.integers(0, 12))
    numeric = [_float_column, _int_column, _few_values_column]
    other = [_text_column, _none_column, _object_column]
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            columns.append(draw(draw(st.sampled_from(other))(n)))
        for _ in range(draw(st.integers(1, 6))):
            columns.append(draw(draw(st.sampled_from(numeric))(n)))
    if draw(st.booleans()):
        columns.append(draw(draw(st.sampled_from(other))(n)))
    header = draw(st.lists(NAME, min_size=len(columns), max_size=len(columns), unique=True))
    return header, columns


def _check_against_oracle(tmp: Path, header, columns):
    """Every format and block size writes the oracle's bytes."""
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    for fmt in ("csv", "json"):
        want = _write_table_oracle(tmp / "old", "t", fmt, header, rows).read_bytes()
        for block in BLOCKS:
            with mock.patch.object(cli, "_REPORT_BLOCK", block):
                got = _write_report(tmp / "new", "t", fmt, dict(zip(header, columns)))
                assert got.read_bytes() == want


@settings(max_examples=400, deadline=None)
@given(tables())
def test_writer_matches_row_writer(table):
    with tempfile.TemporaryDirectory() as tmp:
        _check_against_oracle(Path(tmp), *table)


@settings(max_examples=300, deadline=None)
@given(run_tables())
def test_numeric_runs_match_row_writer(table):
    """Runs of numeric columns beside other columns, rows repeating or not."""
    with tempfile.TemporaryDirectory() as tmp:
        _check_against_oracle(Path(tmp), *table)


def _distinct_columns():
    """Six columns of 1,500 distinct values: every row distinct, with as many
    combinations as 1500**6, past 2**62."""
    rng = np.random.default_rng(7)
    n = 1500
    columns = [np.arange(n, dtype=np.int64), rng.permutation(n).astype(np.float64) / 7]
    columns += [rng.permutation(n) * (k + 3) for k in range(3)]
    return columns + [rng.standard_normal(n), ["t"] * n]


def _two_valued_columns():
    """65 columns of two values, the first two rows differing in the first
    alone: a row code of one bit per column would need 65 bits."""
    return [np.array([0, 1, 0])] + [np.array([0.5, 0.5, -0.5])] * 64


@pytest.mark.parametrize("make", [_distinct_columns, _two_valued_columns])
def test_long_runs_renumber_at_the_limit(tmp_path, make):
    columns = make()
    _check_against_oracle(tmp_path, [f"c{k}" for k in range(len(columns))], columns)


@pytest.mark.parametrize(
    "header, columns",
    [
        (["a"], [np.zeros(0)]),  # no rows
        (["a", ""], [[], ()]),
        ([""], [["", "", "x", "", "", "", "", ""]]),  # one column: "" is quoted
        (["", "b"], [[""] * 3, [""] * 3]),
        # no rows: numeric runs beside a text column
        (["a", "b", "c", "d"], [np.zeros(0), np.zeros(0, np.int64), [], np.zeros(0)]),
        # one numeric column
        ([""], [np.array([0.0, -0.0, math.nan, 1.0, 0.0])]),
        (["a,b"], [np.array([3, -3, 3, 2**63 - 1], dtype=np.int64)]),
        # numeric runs cut by a text or None column
        (["a", "b", "c"], [np.zeros(3), ["x", "y", "z"], np.arange(3)]),
        (["a", "b", "c", "d"], [["x"] * 3, np.ones(3), np.arange(3), np.full(3, 0.5)]),
        (["a", "b", "c", "d"], [np.ones(2), [None, 1], np.arange(2), np.zeros(2)]),
        # -0.0 beside 0.0 and NaNs of several payloads in one run: equal values
        # of different bits are different rows of the same text or not
        (
            ["a", "b"],
            [
                np.array([0.0, -0.0, 0.0, -0.0, *np.array(NAN_BITS).view(np.float64), np.nan]),
                np.array([-0.0, 0.0, 0.0, -0.0, np.nan, -np.nan, 1.0, np.nan]),
            ],
        ),
        (["z", "i"], [np.array([-0.0, -0.0, 0.0]), np.array([0, 0, 0], dtype=np.int64)]),
        # one row and no rows in runs of several columns
        (["a", "b", "c"], [np.array([-0.0]), np.array([7], dtype=np.int64), np.array([np.nan])]),
        (["a", "b", "c"], [np.zeros(0), np.zeros(0, np.int64), np.zeros(0)]),
        (["t", "a", "b"], [["x"], np.array([1.5]), np.array([2**63 - 1], dtype=np.int64)]),
        # a CR in a cell is quoted, whatever the Python version
        (["label"], [["a\rb", "\r", "a\r\nb", 'a"\rb', "c"]]),
    ],
)
def test_edge_tables_match_row_writer(tmp_path, header, columns):
    _check_against_oracle(tmp_path, header, columns)


def test_empty_json_report(tmp_path):
    for block in BLOCKS:
        with mock.patch.object(cli, "_REPORT_BLOCK", block):
            path = _write_report(tmp_path, "t", "json", {"a": np.zeros(0)})
        assert path.read_text() == "[]\n"
