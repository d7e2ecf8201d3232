"""Thematic analysis of code descriptions.

Tokenizes descriptions (stopword and residual-word removal), builds a
description-level word co-occurrence graph, and computes word frequencies
and eigenvector centrality over the graph's largest component. Community
detection and rendering are left to external tools; the graph exports in
DOT and edge-list CSV for that purpose.

The graph is a :class:`WordGraph` of arrays: the words sorted, and each
edge a pair of word indices. Every token gets its word's index, and one
``np.unique`` counts the word pairs as int64 keys ``a * n + b``, so the
edges come out in lexicographic order, the order of every report. The
power iteration sums in floating point and reads the edges in the order
they first occur instead: description by description, each description's
pairs in ``itertools.combinations`` order of its sorted words; any other
order moves centralities in the last bits. The largest component comes from
min-label propagation over the edges; of equal-sized components, the one
holding the alphabetically first word wins.
"""

from __future__ import annotations

import functools
import re
from importlib import resources
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError

MIN_TOKEN_LENGTH = 3

# Words common in code descriptions that carry no theme.
RESIDUALS = frozenset({"other", "unspecified", "specified", "nec", "nos"})

_WORD_RE = re.compile(r"[a-z]{%d,}" % MIN_TOKEN_LENGTH)


@functools.cache
def _dropped_words() -> frozenset[str]:
    """The English stopword list shipped with the package, plus the
    residual words."""
    text = resources.files("gementropy").joinpath("data/stopwords.txt").read_text(encoding="utf-8")
    stopwords = (w.strip() for w in text.splitlines() if w.strip() and not w.startswith("#"))
    return RESIDUALS.union(stopwords)


class WordGraph(NamedTuple):
    """Word co-occurrence graph at description level, as arrays.

    ``words`` holds the distinct words, sorted, and ``counts`` the number of
    descriptions containing each. ``edges`` holds one (a, b) row of word
    indices per co-occurring pair, a < b, in lexicographic order, and
    ``weights`` the number of descriptions containing both ends;
    ``first_order`` lists the edge indices in the order the edges first
    occur. No self-loops.
    """

    words: np.ndarray
    counts: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    first_order: np.ndarray


def tokenize(description: str) -> list[str]:
    """Extract the content words of one description.

    Lowercases, strips punctuation/digits, drops tokens shorter than
    ``MIN_TOKEN_LENGTH``, removes the shipped stopwords and the
    ``RESIDUALS``, and collapses repeats to their first occurrence.
    """
    dropped = _dropped_words()
    return [w for w in dict.fromkeys(_WORD_RE.findall(description.lower())) if w not in dropped]


def build_cooccurrence_graph(token_lists: Iterable[Sequence[str]]) -> WordGraph:
    """Connect all unordered word pairs that share a description."""
    token_lists = [list(tokens) for tokens in token_lists]
    sizes = np.array([len(tokens) for tokens in token_lists], dtype=np.intp)
    flat = [w for tokens in token_lists for w in tokens]
    words = np.array(sorted(set(flat)), dtype=object)
    index = dict(zip(words.tolist(), range(len(words))))
    word_id = np.fromiter(map(index.__getitem__, flat), np.intp, len(flat))
    n = max(len(words), 1)
    # one sorted key per (description, word): a description's distinct words
    # in alphabetical order, descriptions in input order (a plain np.unique
    # would import numpy.ma, 19 ms, on its first call)
    keys = np.sort(np.repeat(np.arange(len(sizes)), sizes) * n + word_id)
    description, ids = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    # each word pairs with the later words of its description, which gives
    # the pairs of every description in itertools.combinations order: the
    # k-th pair overall is (t, t + 1 + k - the pairs of the words before t)
    position = np.arange(len(ids))
    run_end = np.flatnonzero(np.diff(description, append=-1)) + 1
    partners = np.repeat(run_end, np.diff(np.r_[0, run_end])) - position - 1
    before = np.cumsum(partners) - partners
    pair_keys = ids[np.repeat(position, partners)] * n
    pair_keys += ids[np.arange(len(pair_keys)) + np.repeat(position + 1 - before, partners)]
    keys, first, weights = np.unique(pair_keys, return_index=True, return_counts=True)
    return WordGraph(
        words,
        np.bincount(ids, minlength=len(words)),
        np.stack(np.divmod(keys, n), axis=1),
        weights,
        np.argsort(first),
    )


def largest_component(graph: WordGraph) -> np.ndarray:
    """Word indices of the largest connected component, ascending; ties pick
    the component holding the alphabetically first word."""
    a, b = graph.edges.T
    label = np.arange(len(graph.words))
    # hook the larger label an edge joins to the smaller, then point every
    # word at its root, until both ends of every edge share a label; each
    # component is then labelled by its first word
    while not np.array_equal(label[a], label[b]):
        la, lb = label[a], label[b]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(root := label[label], label):
            label = root
    # argmax takes the first of equal sizes: the alphabetically first word's
    return np.flatnonzero(label == np.argmax(np.bincount(label, minlength=1)))


def eigenvector_centrality(
    graph: WordGraph,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
) -> dict[str, float]:
    """Eigenvector centrality of the largest component via power iteration.

    The adjacency is held as a symmetric edge list, its weights divided by
    the largest weighted degree so the tolerance is scale-free, and each
    step is one ``bincount`` over the edge ends, taken in first-occurrence
    order: memory grows with the edges, not with the words squared. The
    iteration runs on the shifted operator (A + I) so bipartite components
    still converge, and stops once the scaled residual ||A x - lambda x||
    falls below ``tolerance``. The returned scores, keyed in the order of
    ``graph.words``, have unit Euclidean norm over the component; words
    outside it score 0.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    component = largest_component(graph)
    scores = np.zeros(len(graph.words))
    n = len(component)
    position = np.full(len(graph.words), -1)
    position[component] = np.arange(n)
    # the edges in first-occurrence order; one end in the component means both
    ends = position[graph.edges[graph.first_order]]
    inside = ends[:, 0] >= 0
    rows, cols = np.concatenate([ends[inside], ends[inside, ::-1]]).T.copy()
    weights = np.tile(graph.weights[graph.first_order][inside].astype(np.float64), 2)
    scale = float(np.bincount(rows, weights=weights, minlength=n).max(initial=0.0))
    if scale == 0.0:  # no words, or a single isolated word
        scores[component] = 1.0
        return dict(zip(graph.words.tolist(), scores.tolist()))
    weights /= scale

    x = np.full(n, 1.0 / np.sqrt(n))
    residual = np.inf
    for _ in range(max_iterations):
        y = np.bincount(rows, weights=weights * x[cols], minlength=n)
        lam = float(x @ y)
        residual = float(np.linalg.norm(y - lam * x))
        if residual <= tolerance:
            scores[component] = x
            return dict(zip(graph.words.tolist(), scores.tolist()))
        x = y + x  # shifted update keeps the dominant eigenvalue unique
        x /= np.linalg.norm(x)
    raise ConvergenceError(residual, max_iterations)


def word_frequencies(graph: WordGraph) -> list[tuple[str, int]]:
    """Word counts, most frequent first, ties alphabetical."""
    order = np.argsort(-graph.counts, kind="stable")
    return list(zip(graph.words[order].tolist(), graph.counts[order].tolist()))


def edge_rows(graph: WordGraph) -> list[tuple[str, str, int]]:
    """Edges as (word_a, word_b, weight) rows in lexicographic order."""
    a, b = graph.edges.T
    return list(zip(graph.words[a].tolist(), graph.words[b].tolist(), graph.weights.tolist()))


def to_dot(graph: WordGraph) -> str:
    """Render the graph in DOT for external layout/community tools.

    An edge's line is three pieces, each formatted once per word or weight:
    its first word's ``  "a" -- "``, its second word's ``b" [weight=`` and
    its weight's ``w];``, joined in one pass.
    """
    words, (a, b) = graph.words.tolist(), graph.edges.T
    nodes = map('  "{}" [count={}];\n'.format, words, graph.counts.tolist())
    weights, weight = np.unique(graph.weights, return_inverse=True)
    pieces = np.empty((len(a), 3), dtype=object)
    pieces[:, 0] = np.array(['  "%s" -- "' % w for w in words], dtype=object)[a]
    pieces[:, 1] = np.array(['%s" [weight=' % w for w in words], dtype=object)[b]
    pieces[:, 2] = np.array(list(map("{}];\n".format, weights.tolist())), dtype=object)[weight]
    return "".join(["graph words {\n", *nodes, "".join(pieces.ravel().tolist()), "}\n"])
