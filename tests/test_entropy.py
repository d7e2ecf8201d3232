import csv
import io
import math

import numpy as np
import pytest

from gementropy import cli, entropy, gem_io
from gementropy._kernels import matrix_column_entropies
from gementropy.entropy import (
    MapScores,
    adjust_by_frequency,
    alphabet_entropy,
    column_entropy,
    count_valid_representations,
    normalize_scores,
    row_entropy,
    score_map,
    score_maps,
    ur_measure,
    weighted_alphabet_entropy,
)
from gementropy.errors import DegenerateMeasureError, EmptyMapError

from conftest import brute_force_valid_representations, make_map_record


def _record(text):
    return gem_io.group_maps(gem_io.parse_gem_file(io.StringIO(text)))[0]


class TestColumnEntropy:
    def test_five_three_split(self):
        h = column_entropy(list("HHHHHPPP"))
        assert h == pytest.approx(0.95, abs=0.01)
        # frozen from -(5/8)log2(5/8) - (3/8)log2(3/8)
        assert h == pytest.approx(0.9544340029249649, abs=1e-12)

    def test_constant_column(self):
        assert column_entropy(list("ZZZZZZZZ")) == 0.0

    def test_half_quarter_quarter(self):
        # oracle: -(1/2 log2 1/2 + 2 * 1/4 log2 1/4) = 1.5
        assert column_entropy(list("AABC")) == pytest.approx(1.5, abs=1e-12)

    def test_empty_column(self):
        with pytest.raises(ValueError):
            column_entropy([])

    def test_invalid_alphabet(self):
        with pytest.raises(ValueError):
            column_entropy(["a", "?"])

    def test_bounded_by_log2_m(self):
        rng = np.random.default_rng(21)
        chars = list("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        for _ in range(200):
            m = int(rng.integers(1, 30))
            column = [chars[i] for i in rng.integers(0, len(chars), m)]
            h = column_entropy(column)
            assert 0.0 <= h <= math.log2(m) + 1e-12


class TestAlphabetEntropy:
    def test_reference_map(self, reference_record):
        matrix = gem_io.build_matrix(reference_record)
        assert alphabet_entropy(matrix) == pytest.approx(4.26, abs=0.01)

    def test_single_row(self):
        matrix = gem_io.build_matrix(_record("X 0JH63XZ 00000\n"))
        assert alphabet_entropy(matrix) == 0.0

    def test_two_identical_rows(self):
        matrix = gem_io.build_matrix(_record("X A1 00000\nX A1 10000\n"))
        assert alphabet_entropy(matrix) == 0.0

    def test_upper_bound(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            record = make_map_record(rng)
            matrix = gem_io.build_matrix(record)
            h = alphabet_entropy(matrix)
            assert 0.0 <= h <= matrix.n * math.log2(matrix.m) + 1e-9


class TestWeightedAlphabetEntropy:
    def test_uniform_weights_reduce_to_mean(self, reference_record):
        matrix = gem_io.build_matrix(reference_record)
        expected = alphabet_entropy(matrix) / matrix.n
        got = weighted_alphabet_entropy(matrix, [1.0] * matrix.n)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_descending_weights_oracle(self, reference_record):
        # oracle: direct sum(w_j * H_j) / sum(w_j) over the column entropies
        matrix = gem_io.build_matrix(reference_record)
        weights = [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        cols = matrix_column_entropies(matrix.codes)
        expected = sum(w * h for w, h in zip(weights, cols)) / sum(weights)
        got = weighted_alphabet_entropy(matrix, weights)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.513, abs=0.01)

    def test_single_row_zero(self):
        matrix = gem_io.build_matrix(_record("X 0JH63XZ 00000\n"))
        assert weighted_alphabet_entropy(matrix, [3.0] * 7) == 0.0

    def test_length_mismatch(self, reference_record):
        matrix = gem_io.build_matrix(reference_record)
        with pytest.raises(ValueError):
            weighted_alphabet_entropy(matrix, [1.0] * 3)

    def test_nonpositive_weight(self, reference_record):
        matrix = gem_io.build_matrix(reference_record)
        with pytest.raises(ValueError):
            weighted_alphabet_entropy(matrix, [1.0] * 6 + [0.0])

    def test_bounded_by_column_extremes(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            record = make_map_record(rng)
            matrix = gem_io.build_matrix(record)
            weights = rng.uniform(0.1, 5.0, matrix.n)
            cols = matrix_column_entropies(matrix.codes)
            got = weighted_alphabet_entropy(matrix, weights)
            assert cols.min() - 1e-12 <= got <= cols.max() + 1e-12


class TestValidRepresentations:
    def test_reference_map(self, reference_record):
        assert count_valid_representations(reference_record) == 9

    def test_standalone_only(self):
        text = "".join(f"X C{i} 10000\n" for i in range(5))
        assert count_valid_representations(_record(text)) == 5

    def test_two_scenarios(self):
        # m0=1; scenario 1 lists (2,2); scenario 2 list (3) -> 1 + 4 + 3
        text = (
            "X A1 10000\n"
            "X B1 10111\nX B2 10111\nX C1 10112\nX C2 10112\n"
            "X D1 10121\nX D2 10121\nX D3 10121\n"
        )
        record = _record(text)
        assert count_valid_representations(record) == 8
        assert brute_force_valid_representations(record) == 8

    def test_no_match_map(self):
        assert count_valid_representations(_record("X NODX 11000\n")) == 0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            record = make_map_record(rng)
            assert count_valid_representations(record) == (
                brute_force_valid_representations(record)
            )


class TestLogMeasures:
    def test_row_entropy_values(self):
        assert row_entropy(9) == pytest.approx(3.17, abs=0.01)
        assert row_entropy(1) == 0.0
        assert row_entropy(1977) == pytest.approx(10.95, abs=0.01)

    def test_row_entropy_zero(self):
        with pytest.raises(EmptyMapError):
            row_entropy(0)

    def test_ur_values(self):
        assert ur_measure(8) == 3.0
        assert ur_measure(1) == 0.0
        assert ur_measure(243) == pytest.approx(7.92, abs=0.01)

    def test_ur_zero(self):
        with pytest.raises(EmptyMapError):
            ur_measure(0)


class TestScoreMap:
    def test_reference_map(self, reference_record):
        s = score_map(reference_record)
        assert (s.m, s.m0, s.v) == (8, 3, 9)
        assert s.h_a == pytest.approx(4.26, abs=0.01)
        assert s.h_b == pytest.approx(3.17, abs=0.01)
        assert s.ur == 3.0
        assert s.h_a_weighted is None

    def test_one_to_one(self):
        s = score_map(_record("X 0JH63XZ 00000\n"))
        assert (s.h_a, s.h_b, s.ur, s.v) == (0.0, 0.0, 0.0, 1)

    def test_four_distinct_single_chars(self):
        # uniform 4-symbol column: every measure is log2(4) = 2
        s = score_map(_record("X A 10000\nX B 10000\nX C 10000\nX D 10000\n"))
        assert s.h_a == pytest.approx(2.0, abs=1e-12)
        assert s.h_b == 2.0
        assert s.ur == 2.0

    def test_excluded_map_signal(self):
        record = _record("0099 NOPCS 11000\n")
        with pytest.raises(EmptyMapError) as err:
            score_map(record)
        assert err.value.source == "0099"

    def test_weighted_field(self, reference_record):
        s = score_map(reference_record, weights=[1.0] * 7)
        assert s.h_a_weighted == pytest.approx(s.h_a / 7, abs=1e-12)

    def test_h_b_equals_ur_without_combinations(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            record = make_map_record(rng, max_scenarios=0)
            s = score_map(record)
            assert record.m == record.m0
            assert s.v == s.m
            assert s.h_b == s.ur

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            record = make_map_record(rng)
            shuffled = list(record.entries)
            rng.shuffle(shuffled)
            permuted = gem_io.group_maps(shuffled)[0]
            a, b = score_map(record), score_map(permuted)
            assert (a.m, a.m0, a.v) == (b.m, b.m0, b.v)
            assert a.h_a == b.h_a
            assert (a.h_b, a.ur) == (b.h_b, b.ur)

    def test_choice_list_relabeling_invariance(self):
        base = (
            "X A1 10000\n"
            "X B1 10111\nX B2 10111\n"
            "X C1 10112\nX C2 10112\nX C3 10112\n"
        )
        swapped = (
            "X A1 10000\n"
            "X B1 10112\nX B2 10112\n"
            "X C1 10111\nX C2 10111\nX C3 10111\n"
        )
        a, b = score_map(_record(base)), score_map(_record(swapped))
        assert (a.v, a.h_a, a.h_b, a.ur) == (b.v, b.h_a, b.h_b, b.ur)


class TestScoreMaps:
    def test_matches_per_map_scoring(self):
        rng = np.random.default_rng(8)
        records = [make_map_record(rng, source=f"S{i}") for i in range(50)]
        batch, excluded = score_maps(records)
        assert excluded == []
        for record, got in zip(records, batch):
            single = score_map(record)
            assert got.source == single.source
            assert got.h_a == pytest.approx(single.h_a, abs=1e-12)
            assert (got.v, got.h_b, got.ur) == (single.v, single.h_b, single.ur)

    def test_separates_excluded(self):
        text = "A1 X1 00000\nA2 NODX 11000\nA3 Y1 00000\n"
        records = gem_io.group_maps(gem_io.parse_gem_file(io.StringIO(text)))
        scores, excluded = score_maps(records)
        assert [s.source for s in scores] == ["A1", "A3"]
        assert [r.source for r in excluded] == ["A2"]

    def test_weights_cover_widest(self):
        text = "A1 X1 00000\nA2 Y1234567 00000\n"
        records = gem_io.group_maps(gem_io.parse_gem_file(io.StringIO(text)))
        with pytest.raises(ValueError, match="widest"):
            score_maps(records, weights=[1.0, 1.0])

    def test_weighted_matches_per_map(self):
        rng = np.random.default_rng(9)
        records = [make_map_record(rng, source=f"S{i}") for i in range(30)]
        widest = max(len(e.target) for r in records for e in r.entries)
        weights = list(rng.uniform(0.5, 3.0, widest))
        batch, _ = score_maps(records, weights)
        for record, got in zip(records, batch):
            n = max(len(e.target) for e in record.entries)
            single = score_map(record, weights[:n])
            assert got.h_a_weighted == pytest.approx(single.h_a_weighted, abs=1e-12)

    def test_v_beyond_int64(self, tmp_path):
        # scenario 1 with 9 choice lists of 160 codes: v = 160**9 > 2**63 - 1
        text = "".join(
            f"BIG C{c}{k:03d} 1011{c}\n" for c in range(1, 10) for k in range(160)
        )
        v = 160**9
        assert v > 2**63 - 1
        scores, _ = score_maps(gem_io.group_maps(gem_io.parse_gem_file(text.encode())))
        assert scores[0].v == v
        assert scores[0].h_b == math.log2(v)

        gems = tmp_path / "gems.txt"
        gems.write_text(text)
        assert cli.main(["score", "--gems", str(gems), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "scores.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["v"] == str(v)
        assert row["h_b"] == f"{math.log2(v):.6g}"

    def test_all_excluded(self):
        records = gem_io.group_maps(
            gem_io.parse_gem_file(io.StringIO("A1 NODX 11000\n"))
        )
        scores, excluded = score_maps(records)
        assert scores == [] and len(excluded) == 1


def _scores_from_values(values):
    return [
        MapScores(source=f"S{i}", m=1, m0=1, v=1, h_a=x, h_b=x + 1, ur=2 * x + 1)
        for i, x in enumerate(values)
    ]


class TestNormalizeScores:
    def test_symmetric_case(self):
        zs = normalize_scores(_scores_from_values([1.0, 2.0, 3.0]), "std")
        assert [z.z_alpha for z in zs] == [-1.0, 0.0, 1.0]
        assert [z.z_beta for z in zs] == [-1.0, 0.0, 1.0]

    def test_variance_mode_differs(self):
        values = [1.0, 2.0, 3.0, 10.0]
        std_zs = normalize_scores(_scores_from_values(values), "std")
        var_zs = normalize_scores(_scores_from_values(values), "variance")
        arr = np.array(values)
        ratio = float(np.sqrt(np.var(arr, ddof=1)))
        for s, v in zip(std_zs, var_zs):
            assert v.z_alpha == pytest.approx(s.z_alpha / ratio, rel=1e-12)

    def test_constant_measure_rejected(self):
        scores = _scores_from_values([2.0, 2.0, 2.0])
        with pytest.raises(DegenerateMeasureError) as err:
            normalize_scores(scores)
        assert err.value.measure == "h_a"

    def test_needs_two_maps(self):
        with pytest.raises(ValueError):
            normalize_scores(_scores_from_values([1.0]))

    def test_bad_denominator(self):
        with pytest.raises(ValueError):
            normalize_scores(_scores_from_values([1.0, 2.0]), "sigma")

    def test_output_is_standardized(self):
        rng = np.random.default_rng(10)
        values = list(rng.normal(5.0, 2.0, 400))
        zs = normalize_scores(_scores_from_values(values), "std")
        for field in ("z_alpha", "z_beta", "z_ur"):
            col = np.array([getattr(z, field) for z in zs])
            assert abs(col.mean()) < 1e-9
            assert abs(col.std(ddof=1) - 1.0) < 1e-9


class TestAdjustByFrequency:
    def _z(self):
        return normalize_scores(_scores_from_values([1.0, 2.0, 3.0]))[2]

    def test_zero_probability_zeroes(self):
        adjusted = adjust_by_frequency(self._z(), 0.0)
        assert adjusted.adjusted_z_alpha == 0.0
        assert adjusted.adjusted_z_beta == 0.0
        assert adjusted.adjusted_z_ur == 0.0

    def test_identity(self):
        z = self._z()
        adjusted = adjust_by_frequency(z, 1.0)
        assert adjusted.adjusted_z_alpha == z.z_alpha

    def test_linear_scaling(self):
        z = self._z()
        adjusted = adjust_by_frequency(z, 0.5)
        assert adjusted.adjusted_z_alpha == pytest.approx(z.z_alpha * 0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            adjust_by_frequency(self._z(), p)

    def test_preserves_sign_never_grows(self):
        rng = np.random.default_rng(12)
        zs = normalize_scores(_scores_from_values(list(rng.normal(0, 3, 50))))
        for z in zs:
            p = float(rng.uniform(0, 1))
            adj = adjust_by_frequency(z, p)
            for raw, scaled in (
                (z.z_alpha, adj.adjusted_z_alpha),
                (z.z_beta, adj.adjusted_z_beta),
                (z.z_ur, adj.adjusted_z_ur),
            ):
                assert abs(scaled) <= abs(raw) + 1e-15
                assert scaled * raw >= 0.0
