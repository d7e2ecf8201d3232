import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gementropy import analysis
from gementropy.analysis import (
    RankTable,
    aggregate_by_class,
    average_ranks,
    descriptive_stats,
    detect_outliers,
    kendall_tau,
    rank_classes,
)
from gementropy.entropy import NormalizedScores, ZScoreTable
from gementropy.gem_io import load_class_defs

from conftest import class_rows, class_table, outlier_pairs, ranking, table_of


def _z(source, za, zb=0.0, zur=0.0):
    return NormalizedScores(source=source, z_alpha=za, z_beta=zb, z_ur=zur)


def _zs(rows):
    """A z-score table of the rows."""
    return table_of(ZScoreTable, rows)


def _table(scores_by_class, name="z_alpha"):
    return RankTable(name, dict(scores_by_class))


class TestDescriptiveStats:
    def test_constant_series(self):
        st = descriptive_stats([3.5, 3.5, 3.5, 3.5])
        assert st.std == 0.0
        assert st.q25 == st.q50 == st.q75 == 3.5

    def test_linear_interpolation_quartiles(self):
        # hand evaluation of the linear-interpolation quantile definition
        st = descriptive_stats([1.0, 2.0, 3.0, 4.0])
        assert st.mean == 2.5
        assert st.q25 == 1.75
        assert st.q50 == 2.5
        assert st.q75 == 3.25

    def test_single_value(self):
        st = descriptive_stats([7.25])
        assert (st.count, st.std) == (1, 0.0)
        assert st.min == st.max == 7.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            descriptive_stats([])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0]),
                st.floats(allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example([math.inf])
    @example([-0.0])
    @example([0.0, -0.0, -0.0])
    @example([-math.inf, 2.0, 2.0, math.inf])
    def test_quartiles_match_numpy(self, values):
        """The quartiles are ``np.quantile``'s linear ones bit for bit (numpy
        is the oracle here), ties, signed zeros and infinities included."""
        with np.errstate(all="ignore"):  # inf - inf, as numpy computes it
            want = np.quantile(np.sort(values), [0.25, 0.5, 0.75], method="linear")
            got = descriptive_stats(values)
        assert np.array([got.q25, got.q50, got.q75]).tobytes() == want.tobytes()

    def test_permutation_invariant_and_ordered(self):
        rng = np.random.default_rng(50)
        values = list(rng.normal(0, 5, 101))
        a = descriptive_stats(values)
        b = descriptive_stats(list(rng.permutation(values)))
        assert a == b
        assert a.min <= a.q25 <= a.q50 <= a.q75 <= a.max

    def test_sample_std(self):
        st = descriptive_stats([1.0, 2.0, 3.0])
        assert st.std == pytest.approx(1.0)


CLASS_CSV = "low,high,label\n00,04,Low Ops\n05,09,High Ops\n"


class TestAggregateByClass:
    def test_single_bucket_sums(self):
        table = load_class_defs(CLASS_CSV.encode())
        zs = _zs([_z("0011", 1.0, 2.0, 3.0), _z("0022", 0.5, 0.5, 0.5)])
        scores = class_rows(aggregate_by_class(zs, table), zs)
        assert len(scores) == 1
        cs = scores[0]
        assert cs.class_id == "00-04"
        assert (cs.sum_z_alpha, cs.sum_z_beta, cs.sum_z_ur) == (1.5, 2.5, 3.5)

    def test_triple_totals(self):
        table = load_class_defs(CLASS_CSV.encode())
        classes = aggregate_by_class(_zs([_z("0011", 1.0, 2.0, 3.0)]), table)
        assert classes.value("total")[0] == 6.0

    def test_cancellation(self):
        table = load_class_defs(CLASS_CSV.encode())
        zs = _zs([_z("0011", 1.0), _z("0022", -1.0)])
        classes = aggregate_by_class(zs, table)
        assert classes.sum_z_alpha[0] == 0.0

    def test_unclassified_bucket(self):
        table = load_class_defs(CLASS_CSV.encode())
        zs = _zs([_z("0011", 1.0), _z("9911", 2.0)])
        scores = {cs.class_id: cs for cs in class_rows(aggregate_by_class(zs, table), zs)}
        assert set(scores) == {"00-04", "unclassified"}
        assert scores["unclassified"].members == [("9911", 2.0, 0.0, 0.0)]

    def test_member_counts_cover_all_maps(self):
        table = load_class_defs(CLASS_CSV.encode())
        rng = np.random.default_rng(51)
        zs = _zs([
            _z(f"{rng.integers(0, 100):02d}{i:02d}", float(rng.normal()))
            for i in range(60)
        ])
        scores = class_rows(aggregate_by_class(zs, table), zs)
        assert sum(len(cs.members) for cs in scores) == len(zs)


class TestRankClasses:
    def _classes(self, mapping):
        return class_table({cid: (value, 0.0, 0.0) for cid, value in mapping.items()})

    def test_descending_order(self):
        classes = self._classes({"A": 3.0, "B": 1.0, "C": 2.0})
        assert ranking(classes, "z_alpha")[0] == ["A", "C", "B"]
        assert sorted(rank_classes(classes, "z_alpha")) == [0, 1, 2]

    def test_ties_adjacent_with_average_rank(self):
        ids, scores = ranking(self._classes({"B": 5.0, "A": 5.0, "C": 1.0}), "z_alpha")
        assert ids == ["A", "B", "C"]
        assert dict(zip(ids, average_ranks(scores))) == {"A": 1.5, "B": 1.5, "C": 3.0}

    def test_total_measure(self):
        classes = class_table({"A": (1.0, 1.0, 1.0), "B": (4.0, 0.0, 0.0)})
        assert ranking(classes, "total")[0] == ["B", "A"]

    def test_scale_invariance(self):
        rng = np.random.default_rng(52)
        mapping = {f"C{i}": float(rng.normal()) for i in range(20)}
        before = ranking(self._classes(mapping), "z_alpha")[0]
        scaled = {cid: 7.5 * value for cid, value in mapping.items()}
        after = ranking(self._classes(scaled), "z_alpha")[0]
        assert before == after

    def test_unknown_measure(self):
        with pytest.raises(ValueError):
            rank_classes(self._classes({"A": 1.0}), "h_a")

    def test_empty(self):
        with pytest.raises(ValueError):
            rank_classes(class_table({}), "z_alpha")


class TestKendallTau:
    def test_identical_is_exactly_one(self):
        table = _table({"A": 3.0, "B": 2.0, "C": 1.0})
        assert kendall_tau(table, table) == 1.0

    def test_reversed_is_exactly_minus_one(self):
        a = _table({"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.5})
        b = _table({"A": 0.5, "B": 1.0, "C": 2.0, "D": 3.0})
        assert kendall_tau(a, b) == -1.0

    def test_one_swap(self):
        # ranks (1,2,3,4) vs (1,3,2,4): (5 - 1) / 6
        a = _table({"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0})
        b = _table({"A": 4.0, "B": 2.0, "C": 3.0, "D": 1.0})
        assert kendall_tau(a, b) == pytest.approx(4 / 6, abs=1e-15)

    def test_mismatched_class_sets(self):
        a = _table({"A": 1.0, "B": 2.0})
        b = _table({"A": 1.0, "C": 2.0})
        with pytest.raises(ValueError, match="'B'.*'C'"):
            kendall_tau(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(53)
        a = _table({f"C{i}": float(rng.integers(0, 5)) for i in range(15)})
        b = _table({f"C{i}": float(rng.integers(0, 5)) for i in range(15)})
        assert kendall_tau(a, b) == kendall_tau(b, a)

    def test_shift_invariance(self):
        rng = np.random.default_rng(54)
        scores = {f"C{i}": float(rng.normal()) for i in range(12)}
        other = {f"C{i}": float(rng.normal()) for i in range(12)}
        base = kendall_tau(_table(scores), _table(other))
        shifted = {cid: value + 100.0 for cid, value in scores.items()}
        assert kendall_tau(_table(shifted), _table(other)) == base

    def test_constant_ranking_rejected(self):
        a = _table({"A": 1.0, "B": 1.0})
        b = _table({"A": 1.0, "B": 2.0})
        with pytest.raises(ValueError, match="constant"):
            kendall_tau(a, b)


class TestDetectOutliers:
    def test_threshold_above_max(self):
        zs = _zs([_z("A", 1.0), _z("B", 2.0)])
        assert outlier_pairs(zs, "z_alpha", threshold=5.0) == []

    def test_strictly_greater(self):
        zs = _zs([_z("a", 3.0), _z("b", 2.0), _z("c", 1.0)])
        assert outlier_pairs(zs, "z_alpha", threshold=1.5) == [
            ("a", 3.0),
            ("b", 2.0),
        ]
        # boundary value is excluded: strict comparison
        assert outlier_pairs(zs, "z_alpha", threshold=2.0) == [("a", 3.0)]

    def test_threshold_set_semantics(self):
        rng = np.random.default_rng(56)
        zs = _zs([_z(f"S{i}", float(rng.normal())) for i in range(100)])
        t = 0.3
        got = {s for s, _ in outlier_pairs(zs, "z_alpha", threshold=t)}
        assert got == {z.source for z in zs if z.z_alpha > t}

    def test_top_fraction_bound(self):
        rng = np.random.default_rng(57)
        for n in (5, 37, 100):
            zs = _zs([_z(f"S{i}", float(rng.normal())) for i in range(n)])
            for fraction in (0.01, 0.1, 0.5, 1.0):
                got = detect_outliers(zs, "z_alpha", top_fraction=fraction)
                assert len(got) <= math.ceil(fraction * n)

    def test_top_fraction_full(self):
        zs = _zs([_z("A", 1.0), _z("B", 2.0)])
        assert len(detect_outliers(zs, "z_alpha", top_fraction=1.0)) == 2

    def test_other_measures(self):
        zs = _zs([_z("A", 0.0, 5.0, -5.0), _z("B", 0.0, 1.0, 1.0)])
        assert outlier_pairs(zs, "z_beta", threshold=2.0) == [("A", 5.0)]
        assert outlier_pairs(zs, "z_ur", threshold=0.0) == [("B", 1.0)]

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_bad_fraction(self, fraction):
        with pytest.raises(ValueError):
            detect_outliers(_zs([_z("A", 1.0)]), "z_alpha", top_fraction=fraction)

    def test_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold must be a number"):
            detect_outliers(_zs([_z("A", 1.0)]), "z_alpha", threshold=float("nan"))

    def test_exactly_one_mode_required(self):
        zs = _zs([_z("A", 1.0)])
        with pytest.raises(ValueError):
            detect_outliers(zs, "z_alpha")
        with pytest.raises(ValueError):
            detect_outliers(zs, "z_alpha", threshold=1.0, top_fraction=0.5)

    def test_descending_with_deterministic_ties(self):
        zs = _zs([_z("B", 2.0), _z("A", 2.0), _z("C", 3.0)])
        assert outlier_pairs(zs, "z_alpha", threshold=0.0) == [
            ("C", 3.0),
            ("A", 2.0),
            ("B", 2.0),
        ]
