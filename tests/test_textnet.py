import math
from unittest import mock

import numpy as np
import pytest

from gementropy import textnet
from gementropy.errors import ConvergenceError
from gementropy.textnet import (
    build_cooccurrence_graph,
    edge_rows,
    eigenvector_centrality,
    largest_component,
    to_dot,
    tokenize,
    word_frequencies,
)

from conftest import word_graph

EMPTY = build_cooccurrence_graph([])


def _lists(columns):
    """A report's columns as lists."""
    return {name: column.tolist() for name, column in columns.items()}


def _nodes(graph):
    """Word -> description count."""
    return dict(zip(*_lists(word_frequencies(graph)).values()))


def _edges(graph):
    """(word_a, word_b) -> weight."""
    a, b, weight = _lists(edge_rows(graph)).values()
    return dict(zip(zip(a, b), weight))


class TestTokenize:
    def test_residuals_and_stopwords_removed(self):
        got = tokenize("Other incision of skin and subcutaneous tissue")
        assert got == ["incision", "skin", "subcutaneous", "tissue"]

    def test_empty(self):
        assert tokenize("") == []

    def test_patch_graft(self):
        got = tokenize("Repair of blood vessel with tissue patch graft")
        assert got == ["repair", "blood", "vessel", "tissue", "patch", "graft"]

    def test_duplicates_collapse_to_first_occurrence(self):
        got = tokenize("graft repair graft of graft")
        assert got == ["graft", "repair"]

    def test_punctuation_and_digits_split(self):
        got = tokenize("full-thickness graft [aicd], 3rd rib")
        assert got == ["full", "thickness", "graft", "aicd", "rib"]

    def test_min_length(self):
        assert tokenize("of am by rib") == ["rib"]

    def test_unspecified_is_residual(self):
        assert tokenize("unspecified site, nec nos") == ["site"]


class TestGraph:
    def test_single_pair(self):
        g = build_cooccurrence_graph([["a", "b"]])
        assert _nodes(g) == {"a": 1, "b": 1}
        assert _edges(g) == {("a", "b"): 1}

    def test_repeated_pair_weights(self):
        g = build_cooccurrence_graph([["a", "b"], ["a", "b"]])
        assert _edges(g)[("a", "b")] == 2

    def test_triangle(self):
        g = build_cooccurrence_graph([["a", "b", "c"]])
        assert set(_edges(g)) == {("a", "b"), ("a", "c"), ("b", "c")}
        assert all(w == 1 for w in _edges(g).values())

    def test_permutation_invariant(self):
        lists = [["a", "b"], ["b", "c", "d"], ["a", "d"]]
        g1 = build_cooccurrence_graph(lists)
        g2 = build_cooccurrence_graph(list(reversed(lists)))
        assert _nodes(g1) == _nodes(g2) and _edges(g1) == _edges(g2)

    def test_edge_weight_bounded_by_endpoint_frequency(self):
        rng = np.random.default_rng(60)
        words = [f"w{i}" for i in range(12)]
        lists = [
            list(rng.choice(words, size=rng.integers(2, 6), replace=False))
            for _ in range(30)
        ]
        g = build_cooccurrence_graph(lists)
        nodes = _nodes(g)
        for (a, b), weight in _edges(g).items():
            assert weight <= min(nodes[a], nodes[b])

    def test_no_self_loops(self):
        g = build_cooccurrence_graph([["a", "a", "b"]])
        assert ("a", "a") not in _edges(g)

    def test_largest_component(self):
        g = build_cooccurrence_graph([["a", "b", "c"], ["x", "y"]])
        assert g.words[largest_component(g)].tolist() == ["a", "b", "c"]

    def test_component_size_tie_goes_to_first_word(self):
        for lists in ([["x", "z"], ["b", "y"]], [["b", "y"], ["x", "z"]]):
            g = build_cooccurrence_graph(lists)
            assert g.words[largest_component(g)].tolist() == ["b", "y"]

    def test_edges_in_lexicographic_order(self):
        g = build_cooccurrence_graph([["c", "d"], ["b", "a", "c"]])
        assert _lists(edge_rows(g)) == {"word_a": ["a", "a", "b", "c"],
                                        "word_b": ["b", "c", "c", "d"], "weight": [1, 1, 1, 1]}
        assert len(g.edges) == 4


class TestEigenvectorCentrality:
    def test_star_center_maximal(self):
        g = build_cooccurrence_graph(
            [["hub", "s1"], ["hub", "s2"], ["hub", "s3"], ["hub", "s4"]]
        )
        scores = eigenvector_centrality(g)
        assert all(scores["hub"] > scores[f"s{i}"] for i in range(1, 5))

    def test_complete_graph_uniform(self):
        g = build_cooccurrence_graph([["a", "b", "c", "d", "e"]])
        scores = eigenvector_centrality(g)
        values = list(scores.values())
        assert max(values) - min(values) < 1e-9

    def test_path_graph_ratio(self):
        g = build_cooccurrence_graph([["a", "b"], ["b", "c"]])
        scores = eigenvector_centrality(g)
        # eigen-decomposition of the 3x3 path adjacency: x ~ (1, sqrt(2), 1)
        norm = math.sqrt(4.0)
        assert scores["a"] == pytest.approx(1.0 / norm, abs=1e-8)
        assert scores["b"] == pytest.approx(math.sqrt(2.0) / norm, abs=1e-8)
        assert scores["c"] == pytest.approx(1.0 / norm, abs=1e-8)

    def test_even_path_converges_unshifted(self):
        # a path of 6 words is bipartite: its spectrum, cos(k pi / 7) once
        # scaled, is symmetric about 0, and its Perron vector is sin(i pi / 7)
        words = ["p1", "p2", "p3", "p4", "p5", "p6"]
        g = build_cooccurrence_graph([[a, b] for a, b in zip(words, words[1:])])
        scores = eigenvector_centrality(g)
        perron = np.sin(np.arange(1, 7) * math.pi / 7)
        perron /= np.linalg.norm(perron)
        # within 2 tolerance / (cos(pi / 7) - cos(2 pi / 7)) = 7.2e-10
        assert [scores[w] for w in words] == pytest.approx(perron.tolist(), abs=1e-9)

    def test_unit_norm_and_range(self):
        g = build_cooccurrence_graph([["a", "b", "c"], ["b", "c", "d"]])
        scores = eigenvector_centrality(g)
        total = sum(v * v for v in scores.values())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= v <= 1.0 for v in scores.values())

    def test_outside_largest_component_scores_zero(self):
        g = build_cooccurrence_graph([["a", "b", "c"], ["x", "y"]])
        scores = eigenvector_centrality(g)
        assert scores["x"] == 0.0 and scores["y"] == 0.0
        assert scores["a"] > 0.0

    def test_weight_scale_invariance(self):
        g1 = build_cooccurrence_graph([["a", "b"], ["b", "c"], ["a", "b"]])
        g2 = word_graph(
            nodes=_nodes(g1),
            edges={pair: w * 1000 for pair, w in _edges(g1).items()},
        )
        s1 = eigenvector_centrality(g1)
        s2 = eigenvector_centrality(g2)
        for word in s1:
            assert s1[word] == pytest.approx(s2[word], abs=1e-9)

    def test_residual_on_random_graphs(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(3, 50))
            words = [f"w{i}" for i in range(n)]
            # random spanning chain keeps the graph connected
            lists = [[words[i], words[i + 1]] for i in range(n - 1)]
            for _ in range(n):
                pair = rng.choice(words, size=2, replace=False)
                lists.append(list(pair))
            g = build_cooccurrence_graph(lists)
            scores = eigenvector_centrality(g)
            index = sorted(_nodes(g))
            x = np.array([scores[w] for w in index])
            adjacency = np.zeros((n, n))
            for (a, b), w in _edges(g).items():
                ia, ib = index.index(a), index.index(b)
                adjacency[ia, ib] = adjacency[ib, ia] = w
            lam = x @ adjacency @ x
            assert np.linalg.norm(adjacency @ x - lam * x) < 1e-8

    def test_nonconvergence_raises(self):
        g = build_cooccurrence_graph([["a", "b"], ["b", "c"]])
        with mock.patch.object(textnet, "_MAX_ITERATIONS", 1), pytest.raises(ConvergenceError):
            eigenvector_centrality(g)

    def test_budget_counts_matrix_vector_products(self):
        # a 31-word path with one chord, whose small spectral gap takes
        # several restarts; every weighted bincount after the first, which
        # sums the degrees, is one product
        g = build_cooccurrence_graph(
            [[f"w{i:02d}", f"w{i + 1:02d}"] for i in range(30)] + [["w03", "w17"]]
        )
        with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
            expected = eigenvector_centrality(g)
        products = sum("weights" in call.kwargs for call in bincount.call_args_list) - 1
        assert products > 2 * 16
        with mock.patch.object(textnet, "_MAX_ITERATIONS", products):
            assert eigenvector_centrality(g) == expected
        with mock.patch.object(textnet, "_MAX_ITERATIONS", products - 1), pytest.raises(
            ConvergenceError, match=f"after {products - 1} iterations"
        ):
            eigenvector_centrality(g)

    def test_empty_graph(self):
        assert eigenvector_centrality(EMPTY) == {}


class TestExports:
    def test_word_frequencies(self):
        g = build_cooccurrence_graph([["a", "b"], ["a"]])
        assert _lists(word_frequencies(g)) == {"word": ["a", "b"], "count": [2, 1]}

    def test_word_frequencies_empty(self):
        assert _lists(word_frequencies(EMPTY)) == {"word": [], "count": []}

    def test_frequency_tie_order(self):
        g = build_cooccurrence_graph([["b", "a"]])
        assert _lists(word_frequencies(g)) == {"word": ["a", "b"], "count": [1, 1]}

    def test_dot_round_trips_edge_list(self):
        g = build_cooccurrence_graph([["a", "b", "c"], ["a", "b"]])
        dot = to_dot(g)
        parsed = set()
        for line in dot.splitlines():
            if "--" in line:
                left, rest = line.split("--")
                right, attrs = rest.split("[")
                weight = int(attrs.split("=")[1].rstrip("];"))
                parsed.add((left.strip().strip('"'), right.strip().strip('"'), weight))
        assert parsed == set(zip(*_lists(edge_rows(g)).values()))

    def test_edge_rows_deterministic(self):
        g = build_cooccurrence_graph([["c", "a"], ["b", "a"]])
        assert _lists(edge_rows(g)) == {"word_a": ["a", "a"], "word_b": ["b", "c"], "weight": [1, 1]}
