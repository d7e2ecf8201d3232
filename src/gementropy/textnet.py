"""Thematic analysis of code descriptions.

Tokenizes descriptions (stopword and residual-word removal), builds a
description-level word co-occurrence graph, and computes word frequencies
and eigenvector centrality over the graph's largest component. Community
detection and rendering are left to external tools; the graph exports in
DOT and edge-list CSV for that purpose.

The graph is a :class:`WordGraph` of arrays: the words sorted, and each
edge a pair of word indices. Every token gets its word's index, and one
``np.unique`` counts the word pairs as int64 keys ``a * n + b``, so the
edges come out in lexicographic order, the order of every report and of
the centrality solve, a restarted Lanczos iteration without shift. The
largest component comes from min-label propagation over the edges; of
equal-sized components, the one holding the alphabetically first word
wins.
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

# Krylov vectors the centrality solve holds at once: 0.44 MB at 3,401 words
_BASIS = 16
# The centrality solve's residual bound and its budget of matrix-vector products
_TOLERANCE = 1e-10
_MAX_ITERATIONS = 1000


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
    ``weights`` the number of descriptions containing both ends. No
    self-loops.
    """

    words: np.ndarray
    counts: np.ndarray
    edges: np.ndarray
    weights: np.ndarray


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
    # each word pairs with the later words of its description: the k-th pair
    # overall is (t, t + 1 + k - the pairs of the words before t)
    position = np.arange(len(ids))
    run_end = np.flatnonzero(np.diff(description, append=-1)) + 1
    partners = np.repeat(run_end, np.diff(np.r_[0, run_end])) - position - 1
    before = np.cumsum(partners) - partners
    pair_keys = ids[np.repeat(position, partners)] * n
    pair_keys += ids[np.arange(len(pair_keys)) + np.repeat(position + 1 - before, partners)]
    # np.unique with return_counts, unlike a plain one, imports no numpy.ma
    keys, weights = np.unique(pair_keys, return_counts=True)
    return WordGraph(
        words, np.bincount(ids, minlength=len(words)), np.stack(np.divmod(keys, n), axis=1), weights
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


def _top_eigenvector(projected: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of a small symmetric
    matrix: a column of (projected - sigma I)^(2^m), sigma its least
    Gershgorin bound so that the power is positive semidefinite, squared
    until it stops changing. ``einsum`` squares in its own loops: in a
    fresh process, a first call of LAPACK's ``eigh`` adds 0.75 MB of
    resident memory, more than the whole Krylov basis, and one of BLAS's
    matrix product 0.3 MB."""
    if len(projected) == 1:
        return np.ones(1)
    radius = np.abs(projected).sum(axis=1) - np.abs(projected.diagonal())
    power = projected - (projected.diagonal() - radius).min() * np.eye(len(projected))
    for _ in range(64):
        square = np.einsum("ij,jk->ik", power, power)
        square /= square.trace()
        change = np.abs(square - power).max()
        power = square
        if change <= 1e-15:
            break
    j = int(np.argmax(power.diagonal()))
    return power[:, j] / np.sqrt(power[j, j])


def eigenvector_centrality(graph: WordGraph) -> dict[str, float]:
    """Eigenvector centrality of the largest component by a restarted
    Lanczos solve.

    The adjacency is held as a symmetric edge list, its weights divided by
    the largest weighted degree so the tolerance is scale-free. Each
    matrix-vector product is one ``bincount`` over the edge ends, in the
    order of ``graph.edges``, through one reused buffer: memory grows with
    the edges, not with the words squared. The solve holds an orthonormal
    Krylov basis of at most ``_BASIS`` vectors, reorthogonalised in full,
    and no product of the adjacency with it. It restarts from the Ritz vector of
    the largest Ritz value once the basis is full or that vector's estimated
    residual is below half of ``_TOLERANCE``, computes each restart vector's
    residual ||A x - lambda x||, lambda = x.Ax, and stops once it is at most
    ``_TOLERANCE``. After ``_MAX_ITERATIONS`` matrix-vector products it raises
    a ``ConvergenceError``. No shift is needed: the adjacency of a connected
    component is nonnegative and irreducible, so its largest algebraic
    eigenvalue is the simple Perron one, bipartite components included (their
    -lambda is the smallest), and the all-ones start is not orthogonal to its
    vector.

    The returned scores, keyed in the order of ``graph.words``, have unit
    Euclidean norm and positive sign over the component; words outside it
    score 0.
    """
    component = largest_component(graph)
    scores = np.zeros(len(graph.words))
    n = len(component)
    position = np.full(len(graph.words), -1)
    position[component] = np.arange(n)
    # one end in the component means both
    inside = position[graph.edges[:, 0]] >= 0
    a, b = position[graph.edges[inside]].T
    rows, cols = np.concatenate([a, b]), np.concatenate([b, a])
    weights = np.tile(graph.weights[inside].astype(np.float64), 2)
    scale = float(np.bincount(rows, weights=weights, minlength=n).max(initial=0.0))
    if scale == 0.0:  # no words, or a single isolated word
        scores[component] = 1.0
        return dict(zip(graph.words.tolist(), scores.tolist()))
    weights /= scale
    product = np.empty(len(cols))

    basis = np.empty((min(_BASIS, n), n))
    basis[0] = 1.0 / np.sqrt(n)
    projected = np.zeros((len(basis), len(basis)))  # basis A basis^T, tridiagonal
    k = 0  # basis vectors in use
    residual = np.inf
    for _ in range(_MAX_ITERATIONS):
        np.take(basis[k], cols, out=product, mode="clip")  # "raise" buffers
        product *= weights
        w = np.bincount(rows, weights=product, minlength=n)
        if k == 0:  # a restart vector: check it
            x = basis[0]
            residual = float(np.linalg.norm(w - float(x @ w) * x))
            if residual <= _TOLERANCE:
                scores[component] = x if x.sum() > 0 else -x
                return dict(zip(graph.words.tolist(), scores.tolist()))
        k += 1
        for _ in range(2):  # full reorthogonalisation: twice is enough
            coefficients = basis[:k] @ w
            w -= coefficients @ basis[:k]
            projected[k - 1, k - 1] += coefficients[k - 1]
        beta = float(np.linalg.norm(w))
        ritz = _top_eigenvector(projected[:k, :k])
        # beta |last entry| is the Ritz vector's residual in exact arithmetic
        if k == len(basis) or beta * abs(ritz[-1]) <= _TOLERANCE / 2:
            x = ritz @ basis[:k]
            basis[0] = x / np.linalg.norm(x)
            projected[:] = 0.0
            k = 0
        else:
            projected[k, k - 1] = projected[k - 1, k] = beta
            basis[k] = w / beta
    raise ConvergenceError(residual, _MAX_ITERATIONS)


def word_frequencies(graph: WordGraph) -> dict[str, np.ndarray]:
    """The word frequency report's ``word`` and ``count`` columns, most
    frequent first, ties alphabetical."""
    order = np.argsort(-graph.counts, kind="stable")
    return {"word": graph.words[order], "count": graph.counts[order]}


def edge_rows(graph: WordGraph) -> dict[str, np.ndarray]:
    """The edge report's ``word_a``, ``word_b`` and ``weight`` columns, edges
    in lexicographic order."""
    a, b = graph.edges.T
    return {"word_a": graph.words[a], "word_b": graph.words[b], "weight": graph.weights}


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
