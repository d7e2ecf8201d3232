"""The record types are named tuples: their fields, defaults, immutability and
value equality, pinned as they were when the records were frozen dataclasses.
The column tables stay dataclasses, which ``dataclasses.fields`` reads; the
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
TABLES = [gem_io.GemLines, gem_io.MapTable, entropy.ScoreTable, entropy.ZScoreTable]


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
    assert gem_io.MapRecord("A1", (), (), (), m=0, m0=0).is_excluded
    assert not gem_io.MapRecord("A1", (), ("B2",), (), m=1, m0=1).is_excluded


@pytest.mark.parametrize("table_type", TABLES, ids=lambda t: t.__name__)
def test_column_tables_stay_dataclasses(table_type):
    assert dataclasses.is_dataclass(table_type)


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
