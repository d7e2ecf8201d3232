"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with the
checked tolerances (run with ``pytest -s tests/test_acceptance.py`` to see
them). The data-dependent reproduction (criterion 7) needs the freely
downloadable 2015 GEM files and skips with instructions when absent.
"""

import io
import math
import time

import numpy as np
import pytest

from gementropy import analysis, textnet
from gementropy.analysis import RankTable, kendall_tau
from gementropy.cli import REFERENCE_MAP_LINES
from gementropy.entropy import (
    MapScores,
    ScoreTable,
    column_entropies,
    normalize_scores,
    score_maps,
)
from gementropy.errors import DegenerateMeasureError
from gementropy.gem_io import group_maps, parse_gem_file

from conftest import (
    brute_force_valid_representations,
    gem_lines,
    make_map,
    make_map_entries,
    outlier_pairs,
    require_gem_file,
    score_one,
    table_of,
    word_graph,
)


def _score_file(path):
    records = group_maps(parse_gem_file(path))
    scores, excluded = score_maps(records)
    return scores, excluded


def test_criterion_1_worked_example_golden():
    started = time.perf_counter()
    maps = group_maps(parse_gem_file(io.StringIO(REFERENCE_MAP_LINES)))
    scores = score_one(maps)
    columns, _ = column_entropies(maps)
    elapsed = time.perf_counter() - started

    assert (scores.m, scores.m0, scores.v) == (8, 3, 9)
    assert scores.h_a == pytest.approx(4.26, abs=0.01)
    assert scores.h_b == pytest.approx(3.17, abs=0.01)
    assert scores.ur == 3.0
    expected_columns = (0.0, 0.0, 0.95, 0.95, 1.06, 1.30, 0.0)
    assert columns == pytest.approx(expected_columns, abs=0.01)
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: worked example m=8 m0=3 v=9, H(A)/H(B) within "
        f"0.01, UR exact, 7 column entropies within 0.01, {elapsed:.3f}s"
    )


def test_criterion_2_combinatorics_oracle():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    for i in range(1000):
        maps = make_map(rng, source=f"S{i}")
        record = maps[0]
        assert record.m <= 20
        assert len(record.scenarios) <= 3
        assert all(len(cl) <= 4 for sc in record.scenarios for cl in sc)
        assert maps.v[0] == brute_force_valid_representations(record)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"\nPASS criterion 2: v equals brute-force enumeration on 1000 "
        f"random maps, {elapsed:.2f}s"
    )


def test_criterion_3_entropy_property_suite():
    rng = np.random.default_rng(303)

    # row permutation invariance
    for i in range(500):
        entries = make_map_entries(rng, "SRC")
        shuffled = list(entries)
        rng.shuffle(shuffled)
        a = score_one(group_maps(gem_lines(entries)))
        b = score_one(group_maps(gem_lines(shuffled)))
        assert (a.h_a, a.h_b, a.ur, a.v, a.m, a.m0) == (
            b.h_a,
            b.h_b,
            b.ur,
            b.v,
            b.m,
            b.m0,
        )

    # H(B) equals UR whenever the map has no combinations
    for i in range(500):
        maps = make_map(rng, max_scenarios=0)
        scores = score_one(maps)
        assert maps.m[0] == maps.m0[0]
        assert scores.h_b == scores.ur

    # one-row maps score zero everywhere
    for i in range(500):
        text = f"X {'ABC123'[: rng.integers(1, 7)]} 00000\n"
        scores = score_one(group_maps(parse_gem_file(io.StringIO(text))))
        assert (scores.h_a, scores.h_b, scores.ur) == (0.0, 0.0, 0.0)

    # uniform weights reduce the weighted entropy to H(A)/n
    for i in range(500):
        maps = make_map(rng)
        (n,) = column_entropies(maps)[1]
        scores = score_one(maps, [1.0] * n)
        assert abs(scores.h_a_weighted - scores.h_a / n) <= 1e-12

    print(
        "\nPASS criterion 3: permutation invariance, H(B)=UR for m=m0, "
        "single-row zeros, uniform-weight identity (1e-12) on 4x500 maps"
    )


def test_criterion_4_normalization_suite():
    rng = np.random.default_rng(404)
    for trial in range(20):
        n = int(rng.integers(2, 3000))
        scores = table_of(ScoreTable, [
            MapScores(
                source=f"S{i}",
                m=1,
                m0=1,
                v=1,
                h_a=float(rng.gamma(2.0, 2.0)),
                h_b=float(rng.normal(3.0, 1.5)),
                ur=float(rng.uniform(0.0, 12.0)),
            )
            for i in range(n)
        ])
        if any(
            np.ptp([getattr(s, f) for s in scores]) == 0 for f in ("h_a", "h_b", "ur")
        ):
            continue
        zs = normalize_scores(scores, "std")
        for field in ("z_alpha", "z_beta", "z_ur"):
            column = np.array([getattr(z, field) for z in zs])
            assert abs(column.mean()) < 1e-9
            assert abs(column.std(ddof=1) - 1.0) < 1e-9

    constant = table_of(ScoreTable, [
        MapScores(source=f"S{i}", m=1, m0=1, v=1, h_a=2.0, h_b=float(i), ur=float(i))
        for i in range(10)
    ])
    with pytest.raises(DegenerateMeasureError):
        normalize_scores(constant, "std")

    print(
        "\nPASS criterion 4: z columns mean<1e-9 and sample std within 1e-9 "
        "of 1 on random corpora; constant measure raises"
    )


def _table(scores_by_class, name="x"):
    return RankTable(name, dict(scores_by_class))


def _tau_oracle(xs, ys):
    """Brute-force concordant/discordant pair counting."""
    n = len(xs)
    concordant = discordant = not_tied_x = not_tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx != 0:
                not_tied_x += 1
            if dy != 0:
                not_tied_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    return (concordant - discordant) / math.sqrt(
        float(not_tied_x) * float(not_tied_y)
    )


def test_criterion_5_kendall_oracle():
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 40))
        keys = [f"C{i}" for i in range(n)]
        # ranks with injected ties
        xs = [float(v) for v in rng.integers(0, max(2, n // 2), n)]
        ys = [float(v) for v in rng.integers(0, max(2, n // 2), n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        got = kendall_tau(_table(dict(zip(keys, xs))), _table(dict(zip(keys, ys))))
        assert got == _tau_oracle(xs, ys)
        checked += 1

    for n in (2, 3, 7, 25, 60):
        identity = {f"C{i}": float(i) for i in range(n)}
        reverse = {f"C{i}": float(n - i) for i in range(n)}
        assert kendall_tau(_table(identity), _table(identity)) == 1.0
        assert kendall_tau(_table(identity), _table(reverse)) == -1.0

    print(
        "\nPASS criterion 5: tau-b equals brute-force counting on 200 tied "
        "permutations; identical=1.0 and reversed=-1.0 exactly"
    )


def test_criterion_6_centrality_checks():
    # star: the hub is strictly maximal
    star = textnet.build_cooccurrence_graph(
        [["hub", f"leaf{i}"] for i in range(4)]
    )
    scores = textnet.eigenvector_centrality(star)
    assert all(scores["hub"] > scores[f"leaf{i}"] for i in range(4))

    # complete graph: uniform within 1e-9
    complete = textnet.build_cooccurrence_graph([[f"w{i}" for i in range(6)]])
    scores = textnet.eigenvector_centrality(complete)
    values = list(scores.values())
    assert max(values) - min(values) < 1e-9

    # random connected unit-weight graphs of <= 50 nodes: residual < 1e-8
    rng = np.random.default_rng(606)
    for _ in range(15):
        n = int(rng.integers(2, 51))
        words = [f"w{i}" for i in range(n)]
        edges = {}
        for i in range(1, n):  # random spanning tree keeps it connected
            j = int(rng.integers(0, i))
            edges[tuple(sorted((words[i], words[j])))] = 1
        for _ in range(n):
            a, b = rng.choice(n, size=2, replace=False)
            edges[tuple(sorted((words[a], words[b])))] = 1
        graph = word_graph(nodes={w: 1 for w in words}, edges=edges)
        centrality = textnet.eigenvector_centrality(graph)

        x = np.array([centrality[w] for w in words])
        adjacency = np.zeros((n, n))
        index = {w: i for i, w in enumerate(words)}
        for (a, b), weight in edges.items():
            adjacency[index[a], index[b]] = adjacency[index[b], index[a]] = weight
        lam = x @ adjacency @ x
        assert np.linalg.norm(adjacency @ x - lam * x) < 1e-8

    print(
        "\nPASS criterion 6: star hub maximal, complete graph uniform "
        "(1e-9), residual < 1e-8 on 15 random connected graphs"
    )


def test_criterion_7_data_dependent_reproduction():
    forward_procedure = require_gem_file("forward_procedure")
    backward_procedure = require_gem_file("backward_procedure")
    forward_diagnosis = require_gem_file("forward_diagnosis")
    backward_diagnosis = require_gem_file("backward_diagnosis")

    started = time.perf_counter()
    fwd_proc, _ = _score_file(forward_procedure)
    bwd_proc, _ = _score_file(backward_procedure)
    fwd_diag, _ = _score_file(forward_diagnosis)
    bwd_diag, _ = _score_file(backward_diagnosis)
    norm_fwd_proc = normalize_scores(fwd_proc, "std")
    normalize_scores(bwd_proc, "std")
    normalize_scores(fwd_diag, "std")
    normalize_scores(bwd_diag, "std")
    elapsed = time.perf_counter() - started

    # forward procedure descriptive statistics
    assert len(fwd_proc) == 3672
    h_a = analysis.descriptive_stats([s.h_a for s in fwd_proc])
    h_b = analysis.descriptive_stats([s.h_b for s in fwd_proc])
    ur = analysis.descriptive_stats([s.ur for s in fwd_proc])
    assert h_a.mean == pytest.approx(2.76, abs=0.01)
    assert h_b.mean == pytest.approx(3.03, abs=0.01)
    assert ur.mean == pytest.approx(2.74, abs=0.01)
    assert h_b.max == pytest.approx(13.53, abs=0.01)

    # diagnosis map counts
    assert len(fwd_diag) == 14567
    assert len(bwd_diag) == 69823

    # outliers above 2.7 on the alphabet z-score, strongest first
    outliers = outlier_pairs(norm_fwd_proc, "z_alpha", threshold=2.7)
    assert outliers[0][0] == "3929"
    assert outliers[0][1] == pytest.approx(4.87, abs=0.02)

    # the thorax-fistula map where the combination structure matters
    map_3473 = {s.source: s for s in fwd_proc}["3473"]
    assert (map_3473.m, map_3473.v) == (243, 1977)
    assert map_3473.h_b == pytest.approx(10.95, abs=0.01)
    assert map_3473.ur == pytest.approx(7.92, abs=0.01)

    assert elapsed < 60.0
    print(
        f"\nPASS criterion 7: 2015 GEM reproduction (counts, stats, "
        f"outliers, map 3473) in {elapsed:.1f}s"
    )


def test_criterion_8_printed_z_values_are_not_targets():
    # The worked example's printed z-scores (0.572 / 0.212) do not reconcile
    # with the published corpus statistics under either denominator reading,
    # so the bundled verifier checks raw measures only and the normalization
    # path is accepted through criterion 4.
    from gementropy.cli import REFERENCE_MAP_EXPECTED, run_reference_example

    assert not any(name.startswith("z_") for name in REFERENCE_MAP_EXPECTED)
    checked = {name for name, *_ in run_reference_example()}
    assert not any(name.startswith("z_") for name in checked)
    print(
        "\nPASS criterion 8: single-map z-scores excluded from the "
        "verifier; normalization accepted via criterion 4"
    )
