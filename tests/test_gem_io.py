import dataclasses
import io
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gementropy import gem_io
from gementropy.entropy import column_entropies, score_maps
from gementropy.errors import GemError, ParseError, StructuralError
from gementropy.gem_io import (
    UNCLASSIFIED,
    Flag,
    assign_classes,
    group_maps,
    load_class_defs,
    load_descriptions,
    load_frequencies,
    parse_flag,
    parse_gem_file,
)

from conftest import (
    BAD_LINE,
    LINE_BREAK,
    crosswalk_text,
    gem_line,
    gem_lines,
    make_map_entries,
    parsed_columns,
)


def _class_ids(codes, table):
    """The id of the class of each code, ``unclassified`` outside every
    range."""
    ids = table.ids + [UNCLASSIFIED]
    return [ids[i] for i in assign_classes(codes, table)]


def _classes(rows):
    """The class table of ``low,high,label`` CSV rows."""
    return load_class_defs(io.StringIO("low,high,label\n" + "".join(rows)))


class TestParseFlag:
    def test_approximate_one_to_one(self):
        assert parse_flag("10000") == Flag(True, False, False, 0, 0)

    def test_exact_one_to_one(self):
        assert parse_flag("00000") == Flag(False, False, False, 0, 0)

    def test_combination(self):
        assert parse_flag("10112") == Flag(True, False, True, 1, 2)

    def test_no_map(self):
        assert parse_flag("11000") == Flag(True, True, False, 0, 0)

    @pytest.mark.parametrize("text", ["1000", "100000", "1000x", "", "1 000", "1011\u0661"])
    def test_malformed_text(self, text):
        with pytest.raises(ParseError):
            parse_flag(text)

    @pytest.mark.parametrize(
        "text",
        [
            "20000",  # boolean digit out of range
            "10010",  # scenario digit without combination
            "10001",  # choice-list digit without combination
            "10102",  # combination with scenario 0
            "10120",  # combination with choice list 0
            "11100",  # no-map and combination together
        ],
    )
    def test_invariant_violations(self, text):
        with pytest.raises(StructuralError):
            parse_flag(text)

    def test_error_carries_line_context(self):
        with pytest.raises(ParseError, match=r"crosswalk\.txt:17"):
            parse_flag("999", filename="crosswalk.txt", line=17)


class TestParseGemFile:
    def test_single_line(self):
        entries = parse_gem_file(io.StringIO("0052 02H43JZ 10000\n"))
        assert list(entries) == [
            gem_io.GemEntry("0052", "02H43JZ", Flag(True, False, False, 0, 0), 1)
        ]

    def test_empty_stream(self):
        assert list(parse_gem_file(io.StringIO(""))) == []

    def test_reference_fixture_order(self, reference_entries):
        assert len(reference_entries) == 8
        assert [e.line_number for e in reference_entries] == list(range(1, 9))
        assert reference_entries[0].target == "02H43JZ"
        assert reference_entries[-1].target == "02PA4MZ"

    def test_blank_lines_and_tabs(self):
        text = "0052\t02H43JZ   10000\n\n   \n86 0HB 00000  \n"
        entries = parse_gem_file(io.StringIO(text))
        assert [e.line_number for e in entries] == [1, 4]

    def test_windows_line_endings(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"0052 02H43JZ 10000\r\n89 NoDx 11000\r\n")
        entries = parse_gem_file(path)
        assert entries[0].target == "02H43JZ"
        assert entries[1].target == "NODX" and entries[1].is_no_match

    def test_lowercase_uppercased(self):
        entries = parse_gem_file(io.StringIO("e999 a001 00000\n"))
        assert entries[0].source == "E999"
        assert entries[0].target == "A001"

    def test_bytes_input(self):
        entries = parse_gem_file(b"0052 02H43JZ 10000\n")
        assert entries[0].source == "0052"

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match=r"gems\.txt:2"):
            parse_gem_file(io.StringIO("0052 02H43JZ 10000\n0052 10000\n"), "gems.txt")

    @pytest.mark.parametrize("code", ["00.52", "0052X9A7Z", "", "Ü123"])
    def test_invalid_code_characters(self, code):
        with pytest.raises(ParseError):
            parse_gem_file(io.StringIO(f"{code} 02H43JZ 10000\n"))

    def test_no_map_flag_with_regular_target(self):
        with pytest.raises(StructuralError):
            parse_gem_file(io.StringIO("0052 02H43JZ 11000\n"))

    def test_sentinel_with_combination_flag(self):
        with pytest.raises(StructuralError):
            parse_gem_file(io.StringIO("0052 NOPCS 10111\n"))

    def test_round_trip(self, reference_entries):
        # re-serializing reproduces the line modulo whitespace normalization
        from gementropy.cli import REFERENCE_MAP_LINES

        raw_lines = [l for l in REFERENCE_MAP_LINES.splitlines() if l.strip()]
        assert len(raw_lines) == len(reference_entries)
        for raw, entry in zip(raw_lines, reference_entries):
            assert gem_line(entry) == " ".join(raw.split())

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        entries = make_map_entries(rng, "ABC1")
        text = "\n".join(map(gem_line, entries))
        reparsed = parse_gem_file(io.StringIO(text))
        assert [(e.source, e.target, e.flag) for e in reparsed] == [
            (e.source, e.target, e.flag) for e in entries
        ]


class TestAsciiGrammar:
    """Codes, flag digits and field separators are ASCII only."""

    @pytest.mark.parametrize(
        "line",
        [
            "\ufb01x A1 00000",  # LATIN SMALL LIGATURE FI upper-cases to "FI"
            "stra\u00dfe1 A1 00000",  # sharp s upper-cases to "SS"
            "X\u2003A1 00000",  # EM SPACE between the fields
            "X A1 0000\u0661",  # ARABIC-INDIC DIGIT ONE as the choice list
        ],
    )
    def test_non_ascii_line_rejected(self, line):
        text = f"0052 02H43JZ 10000\n{line}\n"
        with pytest.raises(ParseError, match=r"^gems\.txt:2: "):
            parse_gem_file(io.StringIO(text), "gems.txt")

    @pytest.mark.parametrize("field", ["source", "target", "flag"])
    def test_every_byte_value_in_each_field(self, field):
        """A field holding any one non-space byte value reads as the scalar
        check of its line reads it: the same entry, or an error."""
        for value in range(256):
            byte = bytes([value])
            if byte.isspace():
                continue
            line = {
                "source": b"X" + byte + b" A1 00000",
                "target": b"X A" + byte + b" 00000",
                "flag": b"X A1 1011" + byte,
            }[field]
            try:
                want = [gem_io._parse_line(line, "gems.txt", 1)]
            except GemError:
                want = None
            try:
                got = list(parse_gem_file(line, "gems.txt"))
            except GemError as err:
                assert err.line == 1, line
                got = None
            assert got == want, line

    def test_side_table_code_must_be_ascii(self):
        with pytest.raises(ParseError, match=r"descriptions\.csv:2: "):
            load_descriptions(
                io.StringIO("code,description\n\ufb01x,fixation\n"), "descriptions.csv"
            )


class TestSideTableErrors:
    def test_rows_numbered_by_first_line(self):
        text = 'code,description\nA1,"two\nlines"\n\nB2,one\n'
        assert gem_io._read_csv(io.StringIO(text), "d.csv", ("code", "description")) == (
            "d.csv",
            [(2, ["A1", "two\nlines"]), (5, ["B2", "one"])],
        )

    def test_undecodable_byte_after_bom(self):
        data = b"\xef\xbb\xbfcode,description\n86,ok\n\n87,caf\xe9\n"
        with pytest.raises(ParseError, match=r"^d\.csv:4: not UTF-8: .*0xe9"):
            load_descriptions(data, "d.csv")

    def test_csv_error_from_stream(self):
        with pytest.raises(ParseError, match=r"^f\.csv:2: new-line character"):
            load_frequencies(io.StringIO("code,probability\n86,0.5\rx\n"), "f.csv")


class TestByteOrderMark:
    def test_crosswalk_path(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbfX A1 00000\nX A2 00000\n")
        assert [e.source for e in parse_gem_file(path)] == ["X", "X"]

    def test_crosswalk_bytes(self):
        entries = parse_gem_file("\ufeffX A1 00000\n".encode("utf-8"))
        assert entries[0].source == "X" and entries[0].line_number == 1

    def test_side_table_path(self, tmp_path):
        path = tmp_path / "descriptions.csv"
        path.write_bytes("\ufeffcode,description\n86,incision\n".encode("utf-8"))
        assert load_descriptions(path) == {"86": "incision"}

    def test_side_table_bytes(self):
        data = "\ufeffcode,probability\n86,0.5\n".encode("utf-8")
        assert load_frequencies(data) == {"86": 0.5}


# ---------------------------------------------------------------------------
# Parse blocks: a crosswalk read in blocks of a few bytes reads as in one block

@settings(max_examples=300, deadline=None)
@given(crosswalk_text(), st.booleans())
def test_parse_blocks_read_as_one(text, bom):
    data = b"\xef\xbb\xbf" * bom + text.encode()
    want = parsed_columns(data)
    assert isinstance(want, list)
    for block in (1, 7, 64):
        assert parsed_columns(data, block) == want


@settings(max_examples=300, deadline=None)
@given(crosswalk_text(min_lines=1), BAD_LINE, LINE_BREAK, crosswalk_text(), st.booleans())
def test_parse_blocks_fail_as_one(head, bad, end, tail, bom):
    # the bad line follows at least one line break, so blocks of 1 and 7
    # bytes put it past the first block
    data = b"\xef\xbb\xbf" * bom + (head + bad + end + tail).encode()
    want = parsed_columns(data)
    assert isinstance(want, tuple)
    for block in (1, 7, 64):
        assert parsed_columns(data, block) == want


def _generated_crosswalk(n_lines: int) -> bytes:
    """A valid crosswalk of ``n_lines`` lines: maps of about two rows of
    3-7 character targets."""
    rng = np.random.default_rng(n_lines)
    chars = np.array(list("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
    map_of_line = np.cumsum(rng.random(n_lines) < 0.5)
    lengths = rng.integers(3, 8, n_lines)
    cells = chars[rng.integers(0, 36, (n_lines, 7))]
    return "".join(
        f"S{m:07d} {''.join(row[:k])} 10000\n"
        for m, row, k in zip(map_of_line.tolist(), cells.tolist(), lengths.tolist())
    ).encode()


def _traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _transients(n_lines: int) -> tuple[int, int]:
    """Peak memory of parsing and of the column entropies of a generated
    crosswalk, beyond what each returns and the blocks' parts that are
    concatenated into it (as large again)."""
    data = _generated_crosswalk(n_lines)
    lines, parse_peak = _traced_peak(lambda: parse_gem_file(data))
    lines_bytes = sum(getattr(lines, f.name).nbytes for f in dataclasses.fields(lines))
    maps = group_maps(lines)
    (cols, widths), kernel_peak = _traced_peak(lambda: column_entropies(maps))
    return parse_peak - 2 * lines_bytes, kernel_peak - 2 * cols.nbytes - widths.nbytes


def test_parse_and_kernel_memory_bounded_by_blocks():
    # 30,000 lines span 3 parse blocks and 2 kernel blocks, 120,000 lines
    # four times as many. Read in one block, both transients grew fourfold
    # (parsing 5.4 -> 21 MB, the kernel 17 -> 68 MB); in blocks they may
    # differ by a slack of 2 MB, as blocks end where line breaks and maps do.
    small, large = _transients(30_000), _transients(120_000)
    for a, b in zip(small, large):
        assert b <= a + 2_000_000


class TestGroupMaps:
    def test_reference_structure(self, reference_record):
        r = reference_record
        assert (r.m, r.m0) == (8, 3)
        assert [len(cl) for cl in r.scenarios[0]] == [2, 3]
        assert r.standalone_codes == ("02H43JZ", "02H43KZ", "02H43MZ")

    def test_single_exact_entry(self):
        records = group_maps(parse_gem_file(io.StringIO("86 0HB 00000\n")))
        assert (records[0].m, records[0].m0, records[0].scenarios) == (1, 1, ())

    def test_no_map_record(self):
        records = group_maps(parse_gem_file(io.StringIO("0099 NOPCS 11000\n")))
        assert records[0].is_excluded
        assert records[0].m == 0
        assert records[0].standalone_codes == ()

    def test_sentinel_target_without_flag_marks_no_match(self):
        records = group_maps(parse_gem_file(io.StringIO("0099 NODX 10000\n")))
        assert records[0].is_excluded

    def test_mixed_no_map_and_regular(self):
        text = "0099 NOPCS 11000\n0099 02H43JZ 10000\n"
        with pytest.raises(StructuralError, match="0099"):
            group_maps(parse_gem_file(io.StringIO(text)))

    def test_scenario_gap(self):
        text = "0052 02H43KZ 10121\n0052 02PA0MZ 10122\n"
        with pytest.raises(StructuralError, match="0052"):
            group_maps(parse_gem_file(io.StringIO(text)))

    def test_choice_list_gap(self):
        text = "0052 02H43KZ 10112\n"
        with pytest.raises(StructuralError, match="0052"):
            group_maps(parse_gem_file(io.StringIO(text)))

    def test_grouping_preserves_first_appearance_order(self):
        text = "B1 X1 00000\nA1 Y1 00000\nB1 X2 10000\n"
        records = group_maps(parse_gem_file(io.StringIO(text)))
        assert [r.source for r in records] == ["B1", "A1"]
        assert records[0].standalone_codes == ("X1", "X2")

    def test_entry_partition_and_line_accounting(self):
        rng = np.random.default_rng(11)
        entries = []
        line = 1
        for i in range(25):
            new = make_map_entries(rng, f"S{i}", line_start=line)
            entries.extend(new)
            line += len(new)
        records = group_maps(gem_lines(entries))
        assert sum(r.m for r in records) == len(entries)
        for r in records:
            in_lists = len(r.standalone_codes) + sum(
                len(cl) for sc in r.scenarios for cl in sc
            )
            assert in_lists == r.m == len(r.entries)

    def test_no_match_lines_accounted_separately(self):
        text = "A1 X1 00000\nA2 NODX 11000\nA3 NOPCS 11000\n"
        records = group_maps(parse_gem_file(io.StringIO(text)))
        scored = sum(r.m for r in records)
        no_match = sum(len(r.entries) for r in records if r.is_excluded)
        assert scored + no_match == 3


def _maps(text):
    return group_maps(parse_gem_file(io.StringIO(text)))


class TestBuildMatrix:
    """The padded code matrix of each map, as ``column_entropies`` lays it
    out: its rows are the map's codes, its width the longest code."""

    def test_reference_matrix_unpadded(self, reference_maps):
        cols, widths = column_entropies(reference_maps)
        assert (reference_maps.m[0], len(cols), list(widths)) == (8, 7, [7])
        targets = [e.target for e in reference_maps[0].entries]
        assert targets[0] == "02H43JZ"
        assert {len(t) for t in targets} == {7}

    def test_padding_to_max_length(self):
        # rows E10** and E1065: the pad counts as a symbol of its own
        cols, widths = column_entropies(_maps("X E10 00000\nX E1065 10000\n"))
        assert list(widths) == [5]
        assert list(cols) == [0.0, 0.0, 0.0, 1.0, 1.0]

    def test_singleton(self):
        cols, widths = column_entropies(_maps("X 86 00000\n"))
        assert (list(widths), list(cols)) == ([2], [0.0, 0.0])

    def test_empty_map_rejected(self):
        # a no-match map has no rows to lay out: scoring excludes it
        maps = _maps("X NODX 11000\n")
        scores, excluded = score_maps(maps)
        assert len(scores) == 0 and list(excluded.source) == ["X"]

    def test_duplicate_rows_kept(self, reference_maps):
        targets = [e.target for e in reference_maps[0].entries]
        assert targets.count("02H43KZ") == 2
        # column 3 is H five times and P three times; without the duplicate
        # rows it would be 3 and 3, 1 bit
        cols, _ = column_entropies(reference_maps)
        assert cols[2] == pytest.approx(0.9544340029249649, abs=1e-12)

    def test_row_order_follows_file_order(self):
        rng = np.random.default_rng(3)
        entries = make_map_entries(rng, "SRC")
        maps = group_maps(gem_lines(entries))
        _, widths = column_entropies(maps)
        assert [e.target for e in maps[0].entries] == [e.target for e in entries]
        assert list(widths) == [max(len(e.target) for e in entries)]

    def test_permuting_lines_permutes_rows_identically(self):
        rng = np.random.default_rng(5)
        entries = make_map_entries(rng, "SRC")
        order = rng.permutation(len(entries))
        shuffled = [entries[i] for i in order]
        maps_a, maps_b = group_maps(gem_lines(entries)), group_maps(gem_lines(shuffled))
        rows_a = [e.target for e in maps_a[0].entries]
        assert [e.target for e in maps_b[0].entries] == [rows_a[i] for i in order]
        cols_a, widths_a = column_entropies(maps_a)
        cols_b, widths_b = column_entropies(maps_b)
        assert list(widths_a) == list(widths_b)
        assert cols_a.tobytes() == cols_b.tobytes()


CLASS_CSV = """\
low,high,label
76,84,Operations on Musculoskeletal System
E000,E999,External Causes
O00,O9A,Pregnancy and Childbirth
"""


class TestClassDefs:
    def test_load_and_assign(self):
        table = load_class_defs(io.StringIO(CLASS_CSV))
        assert table.ids == ["76-84", "E000-E999", "O00-O9A"]
        assert _class_ids(["7655"], table) == ["76-84"]

    def test_assign_spec_examples(self):
        table = load_class_defs(io.StringIO(CLASS_CSV))
        assert _class_ids(["E9990"], table) == ["E000-E999"]
        assert _class_ids(["O9A12"], table) == ["O00-O9A"]

    def test_unclassified_with_no_defs(self):
        table = _classes([])
        assert len(table) == 0
        assert _class_ids(["0052"], table) == ["unclassified"]

    def test_padded_bound_oracle(self):
        # exhaustive check of 3-character prefixes against the padded bounds
        table = _classes(["O00,O9A,PC\n"])
        chars = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        prefixes = [f"O{second}{third}" for second in chars for third in chars]
        class_ids = _class_ids([prefix + "12" for prefix in prefixes], table)
        for prefix, class_id in zip(prefixes, class_ids):
            expected = "O00" <= prefix <= "O9A"
            got = class_id == "O00-O9A"
            assert got == expected, prefix

    def test_multiple_ranges_share_label(self):
        table = _classes(["800,829,Injury\n", "990,995,Injury\n"])
        assert len(table) == 1
        assert table.ids == ["800-829+990-995"]
        assert _class_ids(["9914"], table) == ["800-829+990-995"]

    def test_overlap_rejected_listing_both(self):
        csv_text = "low,high,label\n76,84,A\n80,90,B\n"
        with pytest.raises(StructuralError, match="76-84.*80-90"):
            load_class_defs(io.StringIO(csv_text))

    def test_overlap_names_file_and_later_line(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("low,high,label\n80,90,B\n10,19,C\n76,84,A\n")
        with pytest.raises(StructuralError) as err:
            load_class_defs(path)
        assert str(err.value) == (
            f"{path}:4: class '80-90' (B) overlaps class '76-84' (A) "
            "on ranges ('80', '90') and ('76', '84')"
        )
        assert (err.value.filename, err.value.line) == (str(path), 4)

    def test_overlap_named_at_lowest_shared_code(self):
        # A meets C from 30 on and B from 50 on: the pair A, C is named
        rows = ["10,60,A\n", "50,55,B\n", "30,35,C\n"]
        with pytest.raises(StructuralError, match=r"^4: class '10-60' \(A\) overlaps class '30-35'"):
            _classes(rows)

    def test_overlap_among_many_classes_is_fast(self, tmp_path):
        # 10,000 one-code classes and one duplicated row, a second label
        rows = [f"{i:05d},{i:05d},L{i}\n" for i in range(10_000)]
        rows.insert(5_000, "03333,03333,dup\n")
        path = tmp_path / "classes.csv"
        path.write_text("low,high,label\n" + "".join(rows))
        start = time.perf_counter()
        with pytest.raises(StructuralError, match=rf"^{re.escape(str(path))}:5002: class '03333-03333' \(L3333\)"):
            load_class_defs(path)
        assert time.perf_counter() - start < 5.0

    def test_overlap_across_prefix_lengths(self):
        csv_text = "low,high,label\n760,769,A\n76,77,B\n"
        with pytest.raises(StructuralError):
            load_class_defs(io.StringIO(csv_text))

    def test_inverted_range_rejected(self):
        with pytest.raises(StructuralError):
            load_class_defs(io.StringIO("low,high,label\n84,76,A\n"))

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_class_defs(io.StringIO("lo,hi,name\n76,84,A\n"))

    def test_assignment_is_a_function(self):
        table = load_class_defs(io.StringIO(CLASS_CSV))
        one_class_tables = [_classes([row + "\n"]) for row in CLASS_CSV.splitlines()[1:]]
        rng = np.random.default_rng(13)
        chars = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        for _ in range(200):
            code = "".join(rng.choice(list(chars), size=int(rng.integers(1, 8))))
            matches = [
                one.ids[0]
                for one in one_class_tables
                if _class_ids([code], one) != ["unclassified"]
            ]
            assert len(matches) <= 1
            expected = matches[0] if matches else "unclassified"
            assert _class_ids([code], table) == [expected]


class TestSideTables:
    def test_descriptions(self):
        table = load_descriptions(
            io.StringIO(
                "code,description\n8609,other incision of skin and subcutaneous tissue\n"
            )
        )
        assert table["8609"] == "other incision of skin and subcutaneous tissue"

    def test_duplicate_description_code(self):
        text = "code,description\n86,a\n86,b\n"
        with pytest.raises(ParseError, match="duplicate"):
            load_descriptions(io.StringIO(text))

    def test_frequencies_zero_kept(self):
        table = load_frequencies(io.StringIO("code,probability\n0052,0.0\n"))
        assert table["0052"] == 0.0

    def test_frequency_out_of_range(self):
        with pytest.raises(ParseError, match=r"\[0, 1\]"):
            load_frequencies(io.StringIO("code,probability\n0052,1.5\n"))

    def test_frequency_not_a_number(self):
        with pytest.raises(ParseError):
            load_frequencies(io.StringIO("code,probability\n0052,often\n"))

    def test_duplicate_frequency_code(self):
        text = "code,probability\n86,0.5\n86,0.25\n"
        with pytest.raises(ParseError, match="duplicate"):
            load_frequencies(io.StringIO(text))
