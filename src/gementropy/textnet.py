"""Thematic analysis of code descriptions.

Tokenizes descriptions (stopword and residual-word removal), builds a
description-level word co-occurrence graph, and computes word frequencies
and eigenvector centrality over the graph's largest component. Community
detection and rendering are left to external tools; the graph exports in
DOT and edge-list CSV for that purpose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError

MIN_TOKEN_LENGTH = 3

# Words common in code descriptions that carry no theme.
DEFAULT_RESIDUALS = frozenset({"other", "unspecified", "specified", "nec", "nos"})

_WORD_RE = re.compile(r"[a-z]+")

_default_stopwords: frozenset[str] | None = None


def default_stopwords() -> frozenset[str]:
    """English stopword list shipped with the package."""
    global _default_stopwords
    if _default_stopwords is None:
        text = (
            resources.files("gementropy")
            .joinpath("data/stopwords.txt")
            .read_text(encoding="utf-8")
        )
        _default_stopwords = frozenset(
            w.strip() for w in text.splitlines() if w.strip() and not w.startswith("#")
        )
    return _default_stopwords


@dataclass
class WordGraph:
    """Word co-occurrence graph at description level.

    Node counts are the number of descriptions containing the word; an edge
    weight is the number of descriptions containing both endpoints. Edge
    keys are sorted (a, b) pairs; no self-loops.
    """

    nodes: dict[str, int] = field(default_factory=dict)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)


def tokenize(
    description: str,
    stopwords: Iterable[str] | None = None,
    residuals: Iterable[str] | None = None,
    min_length: int = MIN_TOKEN_LENGTH,
) -> list[str]:
    """Extract the content words of one description.

    Lowercases, strips punctuation/digits, drops tokens shorter than
    ``min_length``, removes stopwords and residual words, and collapses
    repeats to their first occurrence.
    """
    stop = default_stopwords() if stopwords is None else set(stopwords)
    residual = DEFAULT_RESIDUALS if residuals is None else set(residuals)
    seen = dict.fromkeys(
        w
        for w in _WORD_RE.findall(description.lower())
        if len(w) >= min_length and w not in stop and w not in residual
    )
    return list(seen)


def build_cooccurrence_graph(token_lists: Iterable[Sequence[str]]) -> WordGraph:
    """Connect all unordered word pairs that share a description."""
    graph = WordGraph()
    for tokens in token_lists:
        unique = sorted(dict.fromkeys(tokens))
        for w in unique:
            graph.nodes[w] = graph.nodes.get(w, 0) + 1
        for pair in combinations(unique, 2):
            graph.edges[pair] = graph.edges.get(pair, 0) + 1
    return graph


def largest_component(graph: WordGraph) -> list[str]:
    """Nodes of the largest connected component, sorted; ties pick the
    component holding the alphabetically first word."""
    adjacency: dict[str, set[str]] = {w: set() for w in graph.nodes}
    for (a, b) in graph.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    best: list[str] = []
    visited: set[str] = set()
    for start in sorted(graph.nodes):
        if start in visited:
            continue
        component = []
        stack = [start]
        visited.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in adjacency[node]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    stack.append(neighbor)
        if len(component) > len(best):
            best = component
    return sorted(best)


def eigenvector_centrality(
    graph: WordGraph,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
) -> dict[str, float]:
    """Eigenvector centrality of the largest component via power iteration.

    The adjacency is held as a symmetric edge list, its weights divided by
    the largest weighted degree so the tolerance is scale-free, and each
    step is one ``bincount`` over the edge ends: memory grows with the
    edges, not with the words squared. The iteration runs on the shifted
    operator (A + I) so bipartite components still converge, and stops once
    the scaled residual ||A x - lambda x|| falls below ``tolerance``. The
    returned scores have unit Euclidean norm over the component; words
    outside it score 0.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    scores = {w: 0.0 for w in graph.nodes}
    component = largest_component(graph)
    if not component:
        return scores
    index = {w: i for i, w in enumerate(component)}
    n = len(component)
    # an edge with one end in the component has both ends in it
    edges = [(index[a], index[b], w) for (a, b), w in graph.edges.items() if a in index]
    ends_a, ends_b, weight = np.array(edges, dtype=np.float64).reshape(-1, 3).T
    rows = np.concatenate([ends_a, ends_b]).astype(np.intp)
    cols = np.concatenate([ends_b, ends_a]).astype(np.intp)
    weights = np.concatenate([weight, weight])
    scale = float(np.bincount(rows, weights=weights, minlength=n).max())
    if scale == 0.0:  # single isolated word
        scores[component[0]] = 1.0
        return scores
    weights /= scale

    x = np.full(n, 1.0 / np.sqrt(n))
    residual = np.inf
    for _ in range(max_iterations):
        y = np.bincount(rows, weights=weights * x[cols], minlength=n)
        lam = float(x @ y)
        residual = float(np.linalg.norm(y - lam * x))
        if residual <= tolerance:
            for w, i in index.items():
                scores[w] = float(x[i])
            return scores
        x = y + x  # shifted update keeps the dominant eigenvalue unique
        x /= np.linalg.norm(x)
    raise ConvergenceError(residual, max_iterations)


def word_frequencies(graph: WordGraph) -> list[tuple[str, int]]:
    """Node counts, most frequent first, ties alphabetical."""
    return sorted(graph.nodes.items(), key=lambda item: (-item[1], item[0]))


def edge_rows(graph: WordGraph) -> list[tuple[str, str, int]]:
    """Edges as (word_a, word_b, weight) rows in deterministic order."""
    return [(a, b, w) for (a, b), w in sorted(graph.edges.items())]


def to_dot(graph: WordGraph) -> str:
    """Render the graph in DOT for external layout/community tools."""
    lines = ["graph words {"]
    for word, count in sorted(graph.nodes.items()):
        lines.append(f'  "{word}" [count={count}];')
    for (a, b), weight in sorted(graph.edges.items()):
        lines.append(f'  "{a}" -- "{b}" [weight={weight}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
