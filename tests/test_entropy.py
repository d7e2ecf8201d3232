import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gementropy import _kernels, cli, entropy, gem_io
from gementropy.entropy import (
    MapScores,
    NormalizedScores,
    ScoreTable,
    ZScoreTable,
    adjust_by_frequency,
    column_entropies,
    normalize_scores,
    score_maps,
)
from gementropy.errors import DegenerateMeasureError, ParseError

from conftest import (
    brute_force_valid_representations,
    gem_line,
    gem_lines,
    make_map,
    make_map_entries,
    score_one,
    table_of,
)


def _maps(text):
    return gem_io.group_maps(gem_io.parse_gem_file(text.encode()))


def _column(chars):
    """Entropy of one column: a map of one-character codes."""
    cols, _ = column_entropies(_maps("".join(f"X {c} 10000\n" for c in chars)))
    return float(cols[0])


class TestColumnEntropy:
    def test_five_three_split(self):
        h = _column("HHHHHPPP")
        assert h == pytest.approx(0.95, abs=0.01)
        # frozen from -(5/8)log2(5/8) - (3/8)log2(3/8)
        assert h == pytest.approx(0.9544340029249649, abs=1e-12)

    def test_constant_column(self):
        assert _column("ZZZZZZZZ") == 0.0

    def test_half_quarter_quarter(self):
        # oracle: -(1/2 log2 1/2 + 2 * 1/4 log2 1/4) = 1.5
        assert _column("AABC") == pytest.approx(1.5, abs=1e-12)

    def test_empty_column(self):
        # a column needs a map of m >= 1; a table without maps has none
        cols, widths = column_entropies(_maps(""))
        assert cols.shape == (0,) and widths.shape == (0,)

    def test_invalid_alphabet(self):
        # a code symbol outside [A-Z0-9] never reaches a column: the reader
        # rejects its line
        with pytest.raises(ParseError):
            _column("a?")

    def test_bounded_by_log2_m(self):
        rng = np.random.default_rng(21)
        chars = list("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        for _ in range(200):
            m = int(rng.integers(1, 30))
            column = [chars[i] for i in rng.integers(0, len(chars), m)]
            h = _column(column)
            assert 0.0 <= h <= math.log2(m) + 1e-12


class TestAlphabetEntropy:
    def test_reference_map(self, reference_maps):
        assert score_one(reference_maps).h_a == pytest.approx(4.26, abs=0.01)

    def test_single_row(self):
        assert score_one(_maps("X 0JH63XZ 00000\n")).h_a == 0.0

    def test_two_identical_rows(self):
        assert score_one(_maps("X A1 00000\nX A1 10000\n")).h_a == 0.0

    def test_upper_bound(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            maps = make_map(rng)
            (n,) = column_entropies(maps)[1]
            h = score_one(maps).h_a
            assert 0.0 <= h <= n * math.log2(maps.m[0]) + 1e-9


class TestWeightedAlphabetEntropy:
    def test_uniform_weights_reduce_to_mean(self, reference_maps):
        expected = score_one(reference_maps).h_a / 7
        got = score_one(reference_maps, [1.0] * 7).h_a_weighted
        assert got == pytest.approx(expected, abs=1e-12)

    def test_descending_weights_oracle(self, reference_maps):
        # oracle: direct sum(w_j * H_j) / sum(w_j) over the column entropies
        weights = [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        cols, _ = column_entropies(reference_maps)
        expected = sum(w * h for w, h in zip(weights, cols)) / sum(weights)
        got = score_one(reference_maps, weights).h_a_weighted
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.513, abs=0.01)

    def test_single_row_zero(self):
        assert score_one(_maps("X 0JH63XZ 00000\n"), [3.0] * 7).h_a_weighted == 0.0

    def test_length_mismatch(self, reference_maps):
        # fewer weights than the map's 7 columns; more are allowed, each map
        # using its first n
        with pytest.raises(ValueError):
            score_maps(reference_maps, [1.0] * 3)

    def test_nonpositive_weight(self, reference_maps):
        with pytest.raises(ValueError):
            score_maps(reference_maps, [1.0] * 6 + [0.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_weight(self, reference_maps, bad):
        with pytest.raises(ValueError, match="finite positive"):
            score_maps(reference_maps, [1.0] * 6 + [bad])

    def test_bounded_by_column_extremes(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            maps = make_map(rng)
            cols, (n,) = column_entropies(maps)
            weights = rng.uniform(0.1, 5.0, n)
            got = score_one(maps, weights).h_a_weighted
            assert cols.min() - 1e-12 <= got <= cols.max() + 1e-12


class TestValidRepresentations:
    def test_reference_map(self, reference_maps):
        assert reference_maps.v[0] == 9

    def test_standalone_only(self):
        text = "".join(f"X C{i} 10000\n" for i in range(5))
        assert _maps(text).v[0] == 5

    def test_two_scenarios(self):
        # m0=1; scenario 1 lists (2,2); scenario 2 list (3) -> 1 + 4 + 3
        text = (
            "X A1 10000\n"
            "X B1 10111\nX B2 10111\nX C1 10112\nX C2 10112\n"
            "X D1 10121\nX D2 10121\nX D3 10121\n"
        )
        maps = _maps(text)
        assert maps.v[0] == 8
        assert brute_force_valid_representations(maps[0]) == 8

    def test_no_match_map(self):
        assert _maps("X NODX 11000\n").v[0] == 0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            maps = make_map(rng)
            assert maps.v[0] == brute_force_valid_representations(maps[0])


def _standalone(m):
    """A map of m stand-alone codes: v = m."""
    return _maps("".join(f"X C{i} 10000\n" for i in range(m)))


class TestLogMeasures:
    def test_row_entropy_values(self, reference_maps):
        assert score_one(reference_maps).h_b == pytest.approx(3.17, abs=0.01)
        assert score_one(_standalone(1)).h_b == 0.0
        assert score_one(_standalone(1977)).h_b == pytest.approx(10.95, abs=0.01)

    def test_row_entropy_zero(self):
        # H(B) is undefined for v = 0: a no-match map is excluded unscored
        maps = _maps("X NODX 11000\n")
        scores, excluded = score_maps(maps)
        assert maps.v[0] == 0
        assert len(scores) == 0 and list(excluded.v) == [0]

    def test_ur_values(self, reference_maps):
        assert score_one(reference_maps).ur == 3.0
        assert score_one(_standalone(1)).ur == 0.0
        assert score_one(_standalone(243)).ur == pytest.approx(7.92, abs=0.01)

    def test_ur_zero(self):
        # UR is undefined for m = 0: a no-match map is excluded unscored
        maps = _maps("X NOPCS 11000\nY NODX 10000\n")
        scores, excluded = score_maps(maps)
        assert list(maps.m) == [0, 0]
        assert len(scores) == 0 and list(excluded.m) == [0, 0]


class TestScoreMap:
    """One map, scored as a batch of one."""

    def test_reference_map(self, reference_maps):
        s = score_one(reference_maps)
        assert (s.m, s.m0, s.v) == (8, 3, 9)
        assert s.h_a == pytest.approx(4.26, abs=0.01)
        assert s.h_b == pytest.approx(3.17, abs=0.01)
        assert s.ur == 3.0
        assert s.h_a_weighted is None

    def test_one_to_one(self):
        s = score_one(_maps("X 0JH63XZ 00000\n"))
        assert (s.h_a, s.h_b, s.ur, s.v) == (0.0, 0.0, 0.0, 1)

    def test_four_distinct_single_chars(self):
        # uniform 4-symbol column: every measure is log2(4) = 2
        s = score_one(_maps("X A 10000\nX B 10000\nX C 10000\nX D 10000\n"))
        assert s.h_a == pytest.approx(2.0, abs=1e-12)
        assert s.h_b == 2.0
        assert s.ur == 2.0

    def test_excluded_map_signal(self):
        scores, excluded = score_maps(_maps("0099 NOPCS 11000\n"))
        assert len(scores) == 0
        assert list(excluded.source) == ["0099"]

    def test_weighted_field(self, reference_maps):
        s = score_one(reference_maps, weights=[1.0] * 7)
        assert s.h_a_weighted == pytest.approx(s.h_a / 7, abs=1e-12)

    def test_h_b_equals_ur_without_combinations(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            maps = make_map(rng, max_scenarios=0)
            s = score_one(maps)
            assert maps.m[0] == maps.m0[0]
            assert s.v == s.m
            assert s.h_b == s.ur

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            entries = make_map_entries(rng, "SRC")
            shuffled = list(entries)
            rng.shuffle(shuffled)
            a = score_one(gem_io.group_maps(gem_lines(entries)))
            b = score_one(gem_io.group_maps(gem_lines(shuffled)))
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
        a, b = score_one(_maps(base)), score_one(_maps(swapped))
        assert (a.v, a.h_a, a.h_b, a.ur) == (b.v, b.h_a, b.h_b, b.ur)


def _corpus(rng, n_maps, **kwargs):
    """Entry lists of random maps S0, S1, ..., one list per map."""
    return [make_map_entries(rng, f"S{i}", **kwargs) for i in range(n_maps)]


def _bits(row):
    """A score row with every float as its bit pattern."""
    return tuple(x.hex() if isinstance(x, float) else x for x in tuple(row))


def _alone_and_in_batch(seed, weights):
    rng = np.random.default_rng(seed)
    corpus = _corpus(rng, int(rng.integers(1, 30)))
    weights = list(rng.uniform(0.5, 3.0, 8)) if weights else None
    batch, excluded = score_maps(
        gem_io.group_maps(gem_lines(e for m in corpus for e in m)), weights
    )
    assert len(batch) == len(corpus) and len(excluded) == 0
    for entries, got in zip(corpus, batch):
        assert _bits(got) == _bits(score_one(gem_io.group_maps(gem_lines(entries)), weights))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 2, 3]))
def test_kernel_blocks_match_one_call(seed, block):
    """Kernel calls on blocks of 1-3 maps give the columns of one call bit
    for bit, +0.0 for a constant column included."""
    rng = np.random.default_rng(seed)
    entries = [e for m in _corpus(rng, int(rng.integers(1, 12)), max_m=6) for e in m]
    flag = gem_io.Flag(False, False, False, 0, 0)
    entries += [gem_io.GemEntry("C", "A1", flag, 0)] * int(rng.integers(1, 4))
    maps = gem_io.group_maps(gem_lines(entries))
    with mock.patch.object(entropy, "_KERNEL_BLOCK", len(maps)):
        want, want_widths = column_entropies(maps)
    kernel = mock.Mock(wraps=_kernels.batch_column_entropies)
    with mock.patch.object(entropy, "_KERNEL_BLOCK", block), mock.patch.object(
        _kernels, "batch_column_entropies", kernel
    ):
        got, widths = column_entropies(maps)
    assert kernel.call_count == -(-len(maps) // block)
    assert got.tobytes() == want.tobytes() and np.array_equal(widths, want_widths)
    assert (got == 0).any() and not np.signbit(got).any()


class TestScoreMaps:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_per_map_scoring(self, seed):
        """A map scores the same alone as inside a batch, bit for bit."""
        _alone_and_in_batch(seed, weights=False)

    def test_separates_excluded(self):
        text = "A1 X1 00000\nA2 NODX 11000\nA3 Y1 00000\n"
        records = gem_io.group_maps(gem_io.parse_gem_file(text.encode()))
        scores, excluded = score_maps(records)
        assert [s.source for s in scores] == ["A1", "A3"]
        assert [r.source for r in excluded] == ["A2"]

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_weights_finite_positive(self, bad):
        records = gem_io.group_maps(gem_io.parse_gem_file(b"A1 X1 00000\n"))
        with pytest.raises(ValueError, match="finite positive"):
            score_maps(records, weights=[1.0, bad])

    def test_constant_column_entropy_is_positive_zero(self):
        scores, _ = score_maps(_maps("X 0JH63XZ 00000\n"), weights=[1.0] * 7)
        for value in (scores[0].h_a, scores[0].h_a_weighted):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_weights_cover_widest(self):
        text = "A1 X1 00000\nA2 Y1234567 00000\n"
        records = gem_io.group_maps(gem_io.parse_gem_file(text.encode()))
        with pytest.raises(ValueError, match="widest"):
            score_maps(records, weights=[1.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_weighted_matches_per_map(self, seed):
        """``h_a_weighted`` too is the same alone as inside a batch, each map
        using the first n of the corpus's weights."""
        _alone_and_in_batch(seed, weights=True)

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

    def test_log2_per_map_past_int64(self):
        # an object v column: two counts past int64, one of them twice, and
        # small counts; every h_b and ur as math.log2 of its own map's count
        big = "".join(f"B{c}{k:03d} 1011{c}\n" for c in range(1, 10) for k in range(160))
        text = "".join(
            big.replace("B", f"{s} B") for s in ("BIG1", "BIG2")
        ) + "".join(f"BIG3 C{c}{k:03d} 1011{c}\n" for c in range(1, 10) for k in range(170))
        text += "A1 X1 00000\nA2 X1 00000\nA2 X2 10111\nA2 X3 10112\nA2 X4 10112\n"
        scores, _ = score_maps(gem_io.group_maps(gem_io.parse_gem_file(text.encode())))
        assert scores.v.dtype == object
        assert scores.v.tolist() == [160**9, 160**9, 170**9, 1, 3]
        assert scores.h_b.tolist() == [math.log2(v) for v in scores.v.tolist()]
        assert scores.ur.tolist() == [math.log2(m) for m in scores.m.tolist()]

    def test_all_excluded(self):
        records = gem_io.group_maps(
            gem_io.parse_gem_file(b"A1 NODX 11000\n")
        )
        scores, excluded = score_maps(records)
        assert list(scores) == [] and len(excluded) == 1


def _corpus_text(rng, corpus):
    """Crosswalk text of the maps' entries with no-match maps mixed in."""
    lines = [gem_line(e) for entries in corpus for e in entries]
    for i in range(int(rng.integers(0, 4))):
        lines.insert(int(rng.integers(0, len(lines) + 1)), f"N{i} NODX 11000")
    return "\n".join(lines) + "\n"


class TestCorpusProperties:
    """Properties of whole corpora of random maps from the conftest
    generators."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reordering_maps_keeps_each_maps_scores(self, seed):
        rng = np.random.default_rng(seed)
        corpus = _corpus(rng, int(rng.integers(2, 30)))
        weights = list(rng.uniform(0.5, 3.0, 8))
        reordered = [corpus[i] for i in rng.permutation(len(corpus))]
        by_source = []
        for maps in (corpus, reordered):
            lines = gem_lines(e for m in maps for e in m)
            scores, _ = score_maps(gem_io.group_maps(lines), weights)
            by_source.append({s.source: _bits(s) for s in scores})
        assert by_source[0] == by_source[1]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_column_entropies_bounded(self, seed):
        """Each column entropy lies in [0, log2 min(m, 37)]: a column holds m
        symbols of at most 37 kinds (36 code characters and the pad)."""
        rng = np.random.default_rng(seed)
        corpus = _corpus(rng, int(rng.integers(1, 20)), max_m=80, max_list_size=12)
        maps = gem_io.group_maps(gem_lines(e for m in corpus for e in m))
        cols, widths = column_entropies(maps)
        bound = np.log2(np.minimum(np.repeat(maps.m, widths), 37))
        assert len(cols) == widths.sum()
        assert not np.signbit(cols).any()
        assert np.all(cols <= bound + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_h_b_equals_ur_without_combinations(self, seed):
        rng = np.random.default_rng(seed)
        corpus = _corpus(rng, int(rng.integers(1, 30)), max_scenarios=0)
        lines = gem_io.parse_gem_file(_corpus_text(rng, corpus).encode())
        scores, _ = score_maps(gem_io.group_maps(lines))
        assert np.array_equal(scores.v, scores.m)
        assert np.array_equal(scores.h_b, scores.ur)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_scored_map_has_a_representation(self, seed):
        rng = np.random.default_rng(seed)
        corpus = _corpus(rng, int(rng.integers(1, 30)))
        lines = gem_io.parse_gem_file(_corpus_text(rng, corpus).encode())
        scores, excluded = score_maps(gem_io.group_maps(lines))
        assert len(scores) == len(corpus)
        assert np.all(scores.v >= 1)
        assert np.all(excluded.v == 0)


def _scores_from_values(values):
    return table_of(ScoreTable, [
        MapScores(source=f"S{i}", m=1, m0=1, v=1, h_a=x, h_b=x + 1, ur=2 * x + 1)
        for i, x in enumerate(values)
    ])


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


def _adjust(z, p):
    """One map's z-scores scaled by its probability, as a table of one."""
    return adjust_by_frequency(table_of(ZScoreTable, [z]), {z.source: p})[0]


class TestAdjustByFrequency:
    def _z(self):
        return normalize_scores(_scores_from_values([1.0, 2.0, 3.0]))[2]

    def test_zero_probability_zeroes(self):
        adjusted = _adjust(self._z(), 0.0)
        assert adjusted.adjusted_z_alpha == 0.0
        assert adjusted.adjusted_z_beta == 0.0
        assert adjusted.adjusted_z_ur == 0.0

    def test_identity(self):
        z = self._z()
        adjusted = _adjust(z, 1.0)
        assert adjusted.adjusted_z_alpha == z.z_alpha

    def test_linear_scaling(self):
        z = self._z()
        adjusted = _adjust(z, 0.5)
        assert adjusted.adjusted_z_alpha == pytest.approx(z.z_alpha * 0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0, math.nan])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            _adjust(self._z(), p)

    def test_preserves_sign_never_grows(self):
        rng = np.random.default_rng(12)
        zs = normalize_scores(_scores_from_values(list(rng.normal(0, 3, 50))))
        for z in zs:
            p = float(rng.uniform(0, 1))
            adj = _adjust(z, p)
            for raw, scaled in (
                (z.z_alpha, adj.adjusted_z_alpha),
                (z.z_beta, adj.adjusted_z_beta),
                (z.z_ur, adj.adjusted_z_ur),
            ):
                assert abs(scaled) <= abs(raw) + 1e-15
                assert scaled * raw >= 0.0

    def test_table_scales_covered_maps(self):
        zs = normalize_scores(_scores_from_values([1.0, 2.0, 3.0, 5.0]))
        freqs = {"S0": 0.25, "S2": 0.3, "other": 0.5}
        expected = [
            NormalizedScores(z.source, z.z_alpha, z.z_beta, z.z_ur,
                             *(x * freqs[z.source] for x in (z.z_alpha, z.z_beta, z.z_ur)))
            if z.source in freqs else z
            for z in zs
        ]
        assert list(adjust_by_frequency(zs, freqs)) == expected

    def test_table_untouched_without_coverage(self):
        zs = normalize_scores(_scores_from_values([1.0, 2.0, 3.0]))
        assert adjust_by_frequency(zs, {"other": 0.5}) is zs

    def test_table_rejects_bad_probability(self):
        zs = normalize_scores(_scores_from_values([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="outside"):
            adjust_by_frequency(zs, {"S1": 1.5})
