"""The record types are named tuples: their fields, defaults, immutability and
value equality, pinned as they were when the records were frozen dataclasses.
The column tables are ``RowTable`` s named by their ``_fields`` (the score
tables take those of their row types), built by position or by name; the
class tables are plain classes whose length is their class count."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gementropy import analysis, entropy, gem_io, textnet

# (record type, its fields in order, their defaults)
RECORDS = [
    (gem_io.Flag, ("approximate", "no_map", "combination", "scenario", "choice_list"), {}),
    (gem_io.GemEntry, ("source", "target", "flag", "line_number"), {}),
    (
        gem_io.MapRecord,
        ("source", "entries", "standalone_codes", "scenarios", "m", "m0"),
        {},
    ),
    (
        entropy.MapScores,
        ("source", "m", "m0", "v", "h_a", "h_b", "ur", "h_a_weighted"),
        {"h_a_weighted": None},
    ),
    (
        entropy.NormalizedScores,
        ("source", "z_alpha", "z_beta", "z_ur"),
        {},
    ),
    (analysis.Stats, ("count", "mean", "std", "min", "q25", "q50", "q75", "max"), {}),
    (analysis.RankTable, ("name", "scores"), {}),
    (textnet.WordGraph, ("words", "counts", "edges", "weights"), {}),
]
RECORD_IDS = [record_type.__name__ for record_type, _, _ in RECORDS]


def _sample(record_type, fields):
    """A record of distinct hashable values, one per field."""
    return record_type(*(f"{name}-value" for name in fields))


@pytest.mark.parametrize("record_type, fields, defaults", RECORDS, ids=RECORD_IDS)
def test_record_fields_and_defaults(record_type, fields, defaults):
    assert record_type._fields == fields
    assert record_type._field_defaults == defaults
    assert not dataclasses.is_dataclass(record_type)


@pytest.mark.parametrize("record_type, fields, defaults", RECORDS, ids=RECORD_IDS)
def test_records_are_immutable_values(record_type, fields, defaults):
    record = _sample(record_type, fields)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], "other")
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    same = _sample(record_type, fields)
    assert record == same and hash(record) == hash(same)
    assert record != record._replace(**{fields[-1]: "other"})
    assert tuple(record) == tuple(f"{name}-value" for name in fields)


def test_record_properties():
    flag = gem_io.Flag(False, True, False, 0, 0)
    assert gem_io.GemEntry("A1", "B2", flag, 1).is_no_match
    assert gem_io.GemEntry("A1", "NODX", flag._replace(no_map=False), 1).is_no_match
    assert not gem_io.GemEntry("A1", "B2", flag._replace(no_map=False), 1).is_no_match


# (table type, its fields in order)
TABLES = [
    (gem_io.GemLines, ("sources", "targets", "target_len", "flags", "line", "filename")),
    (gem_io.MapTable, ("lines", "rows", "starts", "source", "m", "m0", "v")),
    (entropy.ScoreTable, entropy.MapScores._fields),
    (entropy.ZScoreTable, entropy.NormalizedScores._fields),
]


@pytest.mark.parametrize("table_type, fields", TABLES, ids=[t.__name__ for t, _ in TABLES])
def test_column_table_constructor(table_type, fields):
    assert table_type._fields == fields and not dataclasses.is_dataclass(table_type)
    columns = [np.arange(k, k + 2) for k in range(len(fields))]
    by_position, by_name = table_type(*columns), table_type(**dict(zip(fields, columns)))
    mixed = table_type(*columns[:2], **dict(zip(fields[2:], columns[2:])))
    for table in (by_position, by_name, mixed):
        assert all(getattr(table, name) is c for name, c in zip(fields, columns))
        assert table != table_type(*columns) and table == table
        assert repr(table) == f"<{table_type.__name__} of 2 rows>"
    # a column left out is None
    last = table_type(*columns[:-1])
    assert getattr(last, fields[-1]) is None and getattr(last, fields[0]) is columns[0]
    assert all(getattr(table_type(), name) is None for name in fields)
    for args, named in (((), {"not_a_field": 1}), ((1,), {fields[0]: 1}), ((1,) * 9, {})):
        with pytest.raises(TypeError, match=f"^{table_type.__name__} takes the columns "):
            table_type(*args, **named)


def test_class_table_length_is_its_class_count():
    sums = np.array([1.0, 2.0])
    columns = dict(zip(analysis.OUTLIER_MEASURES, (sums, 2 * sums, 4 * sums)))
    table = analysis.ClassTable(["A", "B"], ["a", "b"], columns, [0, 1], [0, 1, 2])
    assert len(table) == 2 and not dataclasses.is_dataclass(table)
    assert table.value("total").tolist() == [7.0, 14.0]
    assert table.value("z_beta") is columns["z_beta"]


def test_class_ranges_length_is_its_class_count():
    table = gem_io.load_class_defs(b"low,high,label\n00,04,A\n10,14,B\n05,09,A\n")
    assert len(table) == 2 and not dataclasses.is_dataclass(table)
    assert table.ids == ["00-04+05-09", "10-14"] and table.labels == ["A", "B"]
    # the interval [0, 0] of no class, then the three ranges by low bound
    assert table.classes.tolist() == [-1, 0, 0, 1]
