"""Differential checks of vectorized class assignment and the edge-list
centrality kernel against the loops they replaced.

The oracles below are the per-code range scan behind ``assign_class``, the
per-map ``aggregate_by_class`` loop and the dense power iteration of
``eigenvector_centrality``, frozen as they were before the rewrite. Class
assignment and the class sums must match exactly; centralities, whose sums
now run in another order, within 1e-12.
"""

from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gementropy import analysis, gem_io, textnet
from gementropy.entropy import NormalizedScores, ZScoreTable
from gementropy.errors import ConvergenceError, GemError
from gementropy.gem_io import UNCLASSIFIED, ClassDef
from gementropy.textnet import WordGraph

# ---------------------------------------------------------------------------
# Frozen oracles


def _oracle_padded_bounds(low, high):
    k = max(len(low), len(high))
    return low.ljust(k, "0"), high.ljust(k, "0")


def _oracle_assign_class(code, defs):
    code = code.upper()
    for cdef in defs:
        for low, high in cdef.ranges:
            plow, phigh = _oracle_padded_bounds(low, high)
            k = len(plow)
            prefix = code[:k].ljust(k, "0")
            if plow <= prefix <= phigh:
                return cdef.id
    return UNCLASSIFIED


def _oracle_aggregate(normalized, defs):
    """(class_id, label, sums, members) per class, in first-member order."""
    labels = {d.id: d.label for d in defs}
    labels[UNCLASSIFIED] = "Unclassified"
    buckets = {}
    for z in normalized:
        class_id = _oracle_assign_class(z.source, defs)
        bucket = buckets.setdefault(class_id, [class_id, labels[class_id], 0.0, 0.0, 0.0, []])
        bucket[2] += z.z_alpha
        bucket[3] += z.z_beta
        bucket[4] += z.z_ur
        bucket[5].append((z.source, z.z_alpha, z.z_beta, z.z_ur))
    return [tuple(b) for b in buckets.values()]


def _oracle_centrality(graph, tolerance=1e-10, max_iterations=1000):
    scores = {w: 0.0 for w in graph.nodes}
    component = textnet.largest_component(graph)
    if not component:
        return scores
    index = {w: i for i, w in enumerate(component)}
    n = len(component)
    adjacency = np.zeros((n, n))
    for (a, b), weight in graph.edges.items():
        if a in index and b in index:
            adjacency[index[a], index[b]] = weight
            adjacency[index[b], index[a]] = weight
    scale = float(adjacency.sum(axis=1).max())
    if scale == 0.0:
        scores[component[0]] = 1.0
        return scores
    adjacency /= scale
    x = np.full(n, 1.0 / np.sqrt(n))
    residual = np.inf
    for _ in range(max_iterations):
        y = adjacency @ x
        lam = float(x @ y)
        residual = float(np.linalg.norm(y - lam * x))
        if residual <= tolerance:
            for w, i in index.items():
                scores[w] = float(x[i])
            return scores
        x = y + x
        x /= np.linalg.norm(x)
    raise ConvergenceError(residual, max_iterations)


# ---------------------------------------------------------------------------
# Class assignment and class sums

_UPPER = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_bound = st.text(_UPPER, min_size=1, max_size=8)
# the bounds of the paper's obstetrics chapter: a letter in the last place
_O9A = ("O00", "O9A")


def _class_csv(rows):
    return io.StringIO("low,high,label\n" + "".join(f"{lo},{hi},{lab}\n" for lo, hi, lab in rows))


@st.composite
def _validated_defs(draw):
    """Classes from ``load_class_defs``: random rows, each kept only when
    the table still loads (ordered, no overlap between classes)."""
    rows = draw(st.lists(st.tuples(_bound, _bound, st.sampled_from("ABCDE")), max_size=10))
    if draw(st.booleans()):
        rows.insert(0, (*_O9A, "F"))
    kept = []
    for row in rows:
        try:
            gem_io.load_class_defs(_class_csv(kept + [row]))
        except GemError:
            continue
        kept.append(row)
    return gem_io.load_class_defs(_class_csv(kept))


@st.composite
def _direct_defs(draw):
    """Directly built classes whose ranges may overlap or be inverted."""
    ranges = draw(st.lists(st.lists(st.tuples(_bound, _bound), min_size=1, max_size=3), max_size=8))
    if draw(st.booleans()):
        ranges.append([_O9A])
    return [ClassDef(f"c{i}", f"Class {i}", tuple(r)) for i, r in enumerate(ranges)]


@st.composite
def _codes(draw, defs):
    """Codes on, beside and away from the bounds: a bound cut or extended
    by a random tail (so shorter and longer than the bounds), or random;
    some lower-cased."""
    bounds = [b for d in defs for r in d.ranges for b in r] or ["0"]
    near = st.builds(
        lambda b, cut, tail: (b[:cut] + tail) or "0",
        st.sampled_from(bounds),
        st.integers(0, 8),
        st.text(_UPPER, max_size=5),
    )
    codes = draw(st.lists(st.one_of(near, st.text(_UPPER, min_size=1, max_size=10)), max_size=60))
    return [c.lower() if draw(st.booleans()) else c for c in codes]


@st.composite
def _classes_and_scores(draw):
    defs = draw(st.one_of(_validated_defs(), _direct_defs()))
    codes = draw(_codes(defs))
    # mixed magnitudes, so the sums depend on their order
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(3, len(codes))) * 10.0 ** rng.integers(-3, 6, size=(3, len(codes)))
    table = ZScoreTable(np.array(codes, dtype=str), z[0], z[1], z[2])
    return defs, codes, table


@settings(max_examples=200, deadline=None)
@given(_classes_and_scores())
def test_assign_classes_matches_range_scan(case):
    defs, codes, _ = case
    ids = [d.id for d in defs] + [UNCLASSIFIED]
    expected = [_oracle_assign_class(c, defs) for c in codes]
    assert [ids[i] for i in gem_io.assign_classes(codes, defs)] == expected
    assert [gem_io.assign_class(c, defs) for c in codes] == expected


@settings(max_examples=200, deadline=None)
@given(_classes_and_scores())
def test_aggregate_matches_per_map_loop(case):
    defs, _, table = case
    expected = _oracle_aggregate(list(table), defs)
    # the columns of a ZScoreTable, and a plain list of scores as
    # ``rank --frequencies`` passes
    for normalized in (table, list(table)):
        got = analysis.aggregate_by_class(normalized, defs)
        assert [
            (cs.class_id, cs.label, cs.sum_z_alpha, cs.sum_z_beta, cs.sum_z_ur, cs.members)
            for cs in got
        ] == expected


def test_first_overlapping_class_wins():
    defs = [
        ClassDef("wide", "Wide", (("A", "C"),)),
        ClassDef("narrow", "Narrow", (("B10", "B19"),)),
    ]
    zs = [NormalizedScores("B15", 1.0, 2.0, 3.0), NormalizedScores("D1", 4.0, 5.0, 6.0)]
    got = analysis.aggregate_by_class(zs, defs)
    assert [(cs.class_id, cs.total) for cs in got] == [("wide", 6.0), (UNCLASSIFIED, 15.0)]


# ---------------------------------------------------------------------------
# Centrality


@st.composite
def _weighted_graphs(draw):
    """Random weighted graphs over up to 30 words, usually of several
    components, some without any edge."""
    n = draw(st.integers(1, 30))
    words = [f"w{i:02d}" for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    edges = draw(st.dictionaries(pairs, st.integers(1, 20), max_size=3 * n)) if n > 1 else {}
    return WordGraph(
        nodes=dict.fromkeys(words, 1),
        edges={(words[a], words[b]): w for (a, b), w in edges.items()},
    )


@settings(max_examples=200, deadline=None)
@given(_weighted_graphs(), st.integers(1, 300))
def test_centrality_matches_dense_power_iteration(graph, max_iterations):
    try:
        expected = _oracle_centrality(graph, max_iterations=max_iterations)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            textnet.eigenvector_centrality(graph, max_iterations=max_iterations)
        return
    got = textnet.eigenvector_centrality(graph, max_iterations=max_iterations)
    assert got.keys() == expected.keys()
    assert max(abs(got[w] - expected[w]) for w in got) <= 1e-12


def test_centrality_memory_grows_with_edges():
    # a connected 10,000-word graph: a chain plus 30,000 random edges; a
    # dense adjacency alone would take 800 MB
    rng = np.random.default_rng(7)
    n = 10_000
    words = [f"w{i:05d}" for i in range(n)]
    edges = {(words[i], words[i + 1]): 1 for i in range(n - 1)}
    for a, b in np.sort(rng.integers(0, n, size=(3 * n, 2)), axis=1).tolist():
        if a != b:
            edges[(words[a], words[b])] = edges.get((words[a], words[b]), 0) + 1
    graph = WordGraph(nodes=dict.fromkeys(words, 1), edges=edges)
    tracemalloc.start()
    try:
        scores = textnet.eigenvector_centrality(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(v > 0 for v in scores.values())
    assert peak < 20e6
