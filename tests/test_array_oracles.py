"""Differential checks of the vectorized paths against independent oracles,
one per behaviour.

Most oracles are the loops or array passes that a rewrite replaced, frozen
as they were; the rest are plain Python. By layer:

* crosswalk: the byte matrices of ``_read_block``, which search every token
  start among the line breaks, and the fancy-indexed tables of ``_field``;
  the little-endian keys, ``S8`` source cast and ``np.unique`` of
  ``group_maps``; and the frozen scalar grammar (in ``conftest``), which
  reads a crosswalk line by line into entries and map records, scored here
  by brute-force enumeration of v and per-column character counts of H(A);
* entropy kernel: the ``np.unique`` counts and searchsorted dense rows of
  the column kernel, and the ``column_entropies`` that sent every map
  through that kernel;
* classes: a pairwise loop over the ranges of ``load_class_defs``, the
  prefix-truncation overlap test, the per-code range scan of
  ``assign_classes``, the per-map loop of ``aggregate_by_class``, and one
  Python sort by (-value, id) for ``rank_classes``, with its
  ``average_ranks``;
* Kendall tau-b: the n x n pair signs;
* text network: the dict word graph (its ``combinations`` loop, depth-first
  component search, edge-list centrality kernel and report rows), the
  ``np.unique`` of its pair keys, the dense power iteration of
  ``eigenvector_centrality`` and the filtered letter runs of ``tokenize``;
* outliers: the row sort of ``detect_outliers``;
* side tables and rank files: the frozen description and frequency loaders
  and the frozen rank-file reader of ``corr`` (in ``conftest``).

Columns, crosswalk errors, class assignment, range checks, class sums and
members, class orders and average ranks, graphs, components, reports,
outlier lists, side tables and their errors and token lists must match
exactly, and taus, centralities and column entropies bit for bit. Two
oracles sum in another order and are held to 1e-12: H(A) from character
counts, and the dense power iteration of the centralities.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import re
import tracemalloc
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gementropy import _kernels, analysis, cli, entropy, gem_io, textnet
from gementropy._kernels import N_SYMBOLS, SYMBOL
from gementropy.analysis import OUTLIER_MEASURES, RANK_MEASURES, ClassTable, RankTable
from gementropy.entropy import ZScoreTable
from gementropy.errors import ConvergenceError, GemError, StructuralError
from gementropy.gem_io import MAX_CODE, UNCLASSIFIED

from conftest import (
    BAD_LINE,
    BAD_LINES,
    LINE_BREAK,
    _make_record,
    _parse_line,
    _read_csv,
    _validate_code,
    brute_force_valid_representations,
    class_rows,
    crosswalk_text,
    gem_line,
    load_descriptions as frozen_load_descriptions,
    load_frequencies as frozen_load_frequencies,
    make_map_entries,
    outlier_pairs,
    parsed_columns,
    random_code,
    read_rank_file as frozen_read_rank_file,
    word_graph,
)

# ---------------------------------------------------------------------------
# Frozen oracles


_ORACLE_IS_SPACE = np.zeros(256, dtype=bool)
_ORACLE_IS_SPACE[list(b" \t\n\r\x0b\x0c")] = True
# Byte of a code character (either case) -> its upper-case byte; 255 for anything else.
_ORACLE_CODE = np.full(256, 255, dtype=np.uint8)
for _c in "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ":
    _ORACLE_CODE[ord(_c)] = _ORACLE_CODE[ord(_c.lower())] = ord(_c)


def _oracle_field(buf, start, length, width):
    pos = start[:, None] + np.arange(width)
    np.minimum(pos, len(buf) - 1, out=pos)
    return buf[pos], np.arange(width) < length[:, None]


def _oracle_read_block(data, filename, first_line):
    """``_read_block`` gathering each field as a (rows, 8) byte matrix."""
    buf = np.frombuffer(data, dtype=np.uint8)
    edges = np.flatnonzero(np.diff(_ORACLE_IS_SPACE[buf], prepend=True, append=True))
    start, end = edges[0::2], edges[1::2]
    cr = np.flatnonzero(buf == 13)
    lone_cr = cr[buf[np.minimum(cr + 1, len(buf) - 1)] != 10]
    breaks = np.sort(np.concatenate((np.flatnonzero(buf == 10), lone_cr)))
    token_line = np.searchsorted(breaks, start)
    first = np.flatnonzero(np.diff(token_line, prepend=-1))
    n_tokens = np.diff(first, append=len(start))
    line_index = token_line[first]

    t = first[n_tokens == 3]
    src_raw, src_in = _oracle_field(buf, start[t], end[t] - start[t], gem_io.MAX_CODE)
    src_code = _ORACLE_CODE[src_raw]
    tgt_len = end[t + 1] - start[t + 1]
    tgt_raw, tgt_in = _oracle_field(buf, start[t + 1], tgt_len, gem_io.MAX_CODE)
    tgt_code = _ORACLE_CODE[tgt_raw]
    flag_raw, _ = _oracle_field(buf, start[t + 2], end[t + 2] - start[t + 2], 5)
    digits = flag_raw - np.uint8(48)
    lines = gem_io.GemLines(
        sources=np.where(src_in, src_code, np.uint8(0)),
        targets=np.where(tgt_in, tgt_code, np.uint8(0)),
        target_len=tgt_len.astype(np.uint8),
        flags=digits,
        line=line_index[n_tokens == 3] + 1,
    )

    approximate, no_map, comb, scenario, choice = digits.T
    bad = (
        (end[t] - start[t] > gem_io.MAX_CODE)
        | np.any(src_in & (src_code == 255), axis=1)
        | (tgt_len > gem_io.MAX_CODE)
        | np.any(tgt_in & (tgt_code == 255), axis=1)
        | (end[t + 2] - start[t + 2] != 5)
        | np.any(digits > 9, axis=1)
        | np.any(digits[:, :3] > 1, axis=1)
        | ((no_map == 1) & (comb == 1))
        | ((comb == 0) & ((scenario != 0) | (choice != 0)))
        | ((comb == 1) & ((scenario == 0) | (choice == 0)))
    )
    sentinel = lines.sentinel()
    bad |= ((no_map == 1) & ~sentinel) | ((comb == 1) & sentinel)
    failed = np.concatenate((line_index[n_tokens != 3], lines.line[bad] - 1))
    if len(failed):
        i = int(failed.min())
        lo = int(breaks[i - 1]) + 1 if i else 0
        hi = int(breaks[i]) if i < len(breaks) else len(data)
        line = first_line + i + 1
        _parse_line(data[lo:hi], filename, line)
        raise gem_io.ParseError("line rejected by the crosswalk grammar", filename, line)
    lines.line += first_line
    return lines, len(breaks)


def _oracle_build_maps(lines, map_id, first_row):
    """``_build_maps`` with the ``S8`` -> ``U8`` cast of the source column."""
    n_maps = len(first_row)
    sizes = np.bincount(map_id, minlength=n_maps)
    rows = np.argsort(map_id, kind="stable")
    no_match = (lines.flags[:, 1] == 1) | lines.sentinel()
    n_no_match = np.bincount(map_id[no_match], minlength=n_maps)
    excluded = n_no_match == sizes

    comb = lines.flags[:, 2] == 1
    flags = lines.flags[comb].astype(np.int64)
    keys, list_size = np.unique(
        (map_id[comb] * 10 + flags[:, 3]) * 10 + flags[:, 4], return_counts=True
    )
    scen_keys, scen_first, n_lists = np.unique(keys // 10, return_index=True, return_counts=True)
    scen_map = scen_keys // 10
    map_keys, map_first, n_scen = np.unique(scen_map, return_index=True, return_counts=True)
    gap = np.zeros(n_maps, dtype=bool)
    gap[map_keys] = scen_keys[map_first + n_scen - 1] % 10 != n_scen
    gap[scen_map[keys[scen_first + n_lists - 1] % 10 != n_lists]] = True
    bad = ~excluded & ((n_no_match > 0) | gap)
    source = lines.sources[first_row].view("S8")[:, 0].astype("U8")
    if bad.any():
        k = int(np.argmax(bad))
        _make_record(str(source[k]), lines._rows(rows[map_id[rows] == k]), lines.filename)
        raise StructuralError(f"source {source[k]} failed a group check", source=str(source[k]))

    m = np.where(excluded, 0, sizes)
    m0 = np.where(excluded, 0, sizes - np.bincount(map_id[comb], minlength=n_maps))
    v = m0.copy()
    if len(keys):
        scen_product = np.multiply.reduceat(list_size, scen_first)
        v[map_keys] += np.add.reduceat(scen_product, map_first)
        if np.add.reduceat(np.log2(list_size), scen_first).max() > 58:
            v = m0.astype(object)
            for k, sizes_k in zip(scen_map.tolist(), np.split(list_size, scen_first[1:])):
                v[k] += math.prod(sizes_k.tolist())
    return gem_io.MapTable(lines, rows, gem_io.offsets(sizes), source, m, m0, v)


def _oracle_group_maps(lines):
    """``group_maps`` keyed by the little-endian words of the sources."""
    keys = lines.sources.view("<u8")[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return _oracle_build_maps(lines, rank[inverse.reshape(-1)], first[order])


def _oracle_classes(rows):
    """(id, label, ranges) of each class of ``low,high,label`` rows, in
    first-row order."""
    by_label = {}
    for low, high, label in rows:
        by_label.setdefault(label, []).append((low.upper(), high.upper()))
    return [("+".join(f"{lo}-{hi}" for lo, hi in r), label, r) for label, r in by_label.items()]


def _range_interval(low: str, high: str) -> tuple[bytes, bytes]:
    """The closed interval of 8-character codes a class range covers: [low
    padded with '0', high padded with '0' to the longer bound's length k,
    then with 'Z']."""
    k = max(len(low), len(high))
    return low.ljust(MAX_CODE, "0").encode(), high.ljust(k, "0").ljust(MAX_CODE, "Z").encode()


def _oracle_load_class_defs(source, filename=None):
    """The ids, labels and sorted intervals (as big-endian words, behind an
    interval [0, 0] of class -1) of ``load_class_defs``, comparing every
    pair of ranges of two classes; of the overlapping pairs it names the one
    the sweep does: the first range in (low, high, class, line) order that
    overlaps an earlier range of another class, and of those earlier ranges
    the one reaching highest, the last of several."""
    filename, rows = _read_csv(source, filename, ("low", "high", "label"))
    checked = []
    for line_number, (low, high, label) in rows:
        low = _validate_code(low, "range low", filename, line_number)
        high = _validate_code(high, "range high", filename, line_number)
        interval = _range_interval(low, high)
        if interval[0] > interval[1]:
            raise StructuralError(
                f"range low {low!r} exceeds high {high!r} after padding", filename, line_number
            )
        if not label:
            raise gem_io.ParseError("class label is empty", filename, line_number)
        checked.append((line_number, low, high, label))
    classes = _oracle_classes(row[1:] for row in checked)
    index = {label: k for k, (_, label, _) in enumerate(classes)}
    ranges = sorted(
        (*_range_interval(low, high), index[label], line, (low, high))
        for line, low, high, label in checked
    )
    pairs = [
        (j, i)
        for j, (lo_b, hi_b, kb, *_) in enumerate(ranges)
        for i, (lo_a, hi_a, ka, *_) in enumerate(ranges[:j])
        if ka != kb and max(lo_a, lo_b) <= min(hi_a, hi_b)
    ]
    if pairs:
        j = min(j for j, _ in pairs)
        i = max((i for jj, i in pairs if jj == j), key=lambda i: (ranges[i][1], i))
        (ka, line_a, ra), (kb, line_b, rb) = sorted(ranges[n][2:] for n in (i, j))
        (a, a_label, _), (b, b_label, _) = classes[ka], classes[kb]
        raise StructuralError(
            f"class {a!r} ({a_label}) overlaps class {b!r} ({b_label}) on ranges {ra} and {rb}",
            filename,
            max(line_a, line_b),
        )
    lows, highs, k = zip((b"", b"", -1), *(r[:3] for r in ranges))
    return SimpleNamespace(
        ids=[c for c, _, _ in classes],
        labels=[label for _, label, _ in classes],
        lows=np.array([int.from_bytes(b, "big") for b in lows], dtype=np.uint64),
        highs=np.array([int.from_bytes(b, "big") for b in highs], dtype=np.uint64),
        classes=np.array(k),
    )


def _oracle_padded_bounds(low, high):
    k = max(len(low), len(high))
    return low.ljust(k, "0"), high.ljust(k, "0")


def _oracle_assign_class(code, classes):
    code = code.upper()
    for class_id, _, ranges in classes:
        for low, high in ranges:
            plow, phigh = _oracle_padded_bounds(low, high)
            k = len(plow)
            prefix = code[:k].ljust(k, "0")
            if plow <= prefix <= phigh:
                return class_id
    return UNCLASSIFIED


def _oracle_ranges_overlap(ra, rb):
    # A code matches a range via its first k characters, so two ranges admit
    # a common code iff the shorter range intersects the longer one's bounds
    # truncated to the shorter prefix length.
    la, ha = _oracle_padded_bounds(*ra)
    lb, hb = _oracle_padded_bounds(*rb)
    if len(la) > len(lb):
        la, ha, lb, hb = lb, hb, la, ha
    k = len(la)
    return la <= hb[:k] and lb[:k] <= ha


def _oracle_aggregate(normalized, classes):
    """(class_id, label, sums, members) per class, in first-member order."""
    labels = {class_id: label for class_id, label, _ in classes}
    labels[UNCLASSIFIED] = "Unclassified"
    buckets = {}
    columns = (normalized.source, normalized.z_alpha, normalized.z_beta, normalized.z_ur)
    for source, z_alpha, z_beta, z_ur in zip(*(c.tolist() for c in columns)):
        class_id = _oracle_assign_class(source, classes)
        bucket = buckets.setdefault(class_id, [class_id, labels[class_id], 0.0, 0.0, 0.0, []])
        bucket[2] += z_alpha
        bucket[3] += z_beta
        bucket[4] += z_ur
        bucket[5].append((source, z_alpha, z_beta, z_ur))
    return [tuple(b) for b in buckets.values()]


def _oracle_average_ranks(scores):
    """Ranks with tied scores sharing the average of their positions."""
    out = []
    i = 0
    while i < len(scores):
        j = i
        while j < len(scores) and scores[j] == scores[i]:
            j += 1
        out += [(i + 1 + j) / 2.0] * (j - i)
        i = j
    return out


def _oracle_tau_b(xs, ys, pair):
    """Tau-b from vectorized pair signs, over every pair of an n x n grid."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = xs.size
    upper = np.triu_indices(n, k=1)
    with np.errstate(over="ignore"):  # a difference past the float range is still signed
        dx = np.sign(xs[:, None] - xs[None, :])[upper]
        dy = np.sign(ys[:, None] - ys[None, :])[upper]
    product = dx * dy
    concordant = int(np.sum(product > 0))
    discordant = int(np.sum(product < 0))
    not_tied_x = int(np.sum(dx != 0))
    not_tied_y = int(np.sum(dy != 0))
    if not_tied_x == 0 or not_tied_y == 0:
        raise ValueError(f"{pair}: tau undefined: one ranking is constant")
    denom = math.sqrt(float(not_tied_x) * float(not_tied_y))
    return (concordant - discordant) / denom


def _oracle_graph(token_lists):
    """Word -> description count, and sorted (a, b) -> weight with the
    edges in the order they first occur."""
    nodes, edges = {}, {}
    for tokens in token_lists:
        unique = sorted(dict.fromkeys(tokens))
        for w in unique:
            nodes[w] = nodes.get(w, 0) + 1
        for pair in itertools.combinations(unique, 2):
            edges[pair] = edges.get(pair, 0) + 1
    return nodes, edges


def _oracle_largest_component(nodes, edges):
    adjacency = {w: set() for w in nodes}
    for (a, b) in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    best = []
    visited = set()
    for start in sorted(nodes):
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


def _oracle_centrality(nodes, edges, tolerance=1e-10, max_iterations=1000):
    """The dense power iteration."""
    scores = {w: 0.0 for w in nodes}
    component = _oracle_largest_component(nodes, edges)
    if not component:
        return scores
    index = {w: i for i, w in enumerate(component)}
    n = len(component)
    adjacency = np.zeros((n, n))
    for (a, b), weight in edges.items():
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


def _oracle_edge_list_centrality(nodes, edges, tolerance=1e-10, max_iterations=1000):
    """The edge-list power iteration over the dict graph, which sums over
    the edges in their insertion order."""
    scores = {w: 0.0 for w in nodes}
    component = _oracle_largest_component(nodes, edges)
    if not component:
        return scores
    index = {w: i for i, w in enumerate(component)}
    n = len(component)
    rows = [(index[a], index[b], w) for (a, b), w in edges.items() if a in index]
    ends_a, ends_b, weight = np.array(rows, dtype=np.float64).reshape(-1, 3).T
    rows = np.concatenate([ends_a, ends_b]).astype(np.intp)
    cols = np.concatenate([ends_b, ends_a]).astype(np.intp)
    weights = np.concatenate([weight, weight])
    scale = float(np.bincount(rows, weights=weights, minlength=n).max())
    if scale == 0.0:
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
        x = y + x
        x /= np.linalg.norm(x)
    raise ConvergenceError(residual, max_iterations)


def _oracle_word_frequencies(nodes):
    ranked = sorted(nodes.items(), key=lambda item: (-item[1], item[0]))
    return {"word": [w for w, _ in ranked], "count": [c for _, c in ranked]}


def _oracle_edge_rows(edges):
    ordered = sorted(edges.items())
    return {"word_a": [a for (a, _), _ in ordered], "word_b": [b for (_, b), _ in ordered],
            "weight": [w for _, w in ordered]}


def _oracle_to_dot(nodes, edges):
    lines = ["graph words {"]
    for word, count in sorted(nodes.items()):
        lines.append(f'  "{word}" [count={count}];')
    for (a, b), weight in sorted(edges.items()):
        lines.append(f'  "{a}" -- "{b}" [weight={weight}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _oracle_detect_outliers(normalized, measure, threshold=None, top_fraction=None):
    sources = [z.source for z in normalized]
    values = [getattr(z, measure) for z in normalized]
    scored = sorted(zip(sources, values), key=lambda pair: (-pair[1], pair[0]))
    if top_fraction is not None:
        allowed = int(top_fraction * len(scored))
        if allowed >= len(scored):
            return scored
        threshold = scored[allowed][1]
    return [pair for pair in scored if pair[1] > threshold]


def _oracle_column_entropies(flat, heights, widths):
    heights = np.asarray(heights, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    n_cols = int(widths.sum())
    if n_cols == 0:
        return np.zeros(0)
    row_width = np.repeat(widths, heights)
    row_cell = gem_io.offsets(row_width)[:-1]
    row_col = np.repeat(gem_io.offsets(widths)[:-1], heights)
    cell_col = np.arange(len(flat)) - np.repeat(row_cell - row_col, row_width)
    keys, counts = np.unique(cell_col * N_SYMBOLS + flat, return_counts=True)
    col = keys // N_SYMBOLS
    p = counts / np.repeat(heights, widths)[col]
    terms = p * np.log2(p)
    sums = np.bincount(col, weights=terms, minlength=n_cols)
    many = np.bincount(col, minlength=n_cols) > 2
    if many.any():
        dense_cols = np.flatnonzero(many)
        in_dense = many[col]
        dense = np.zeros((len(dense_cols), N_SYMBOLS))
        dense[np.searchsorted(dense_cols, col[in_dense]), keys[in_dense] % N_SYMBOLS] = (
            terms[in_dense]
        )
        sums[dense_cols] = dense.sum(axis=1)
    return 0.0 - sums


def _oracle_map_column_entropies(maps):
    """``column_entropies`` sending every map, one-row and two-row maps
    included, through the kernel a block at a time."""
    widths = np.maximum.reduceat(
        maps.lines.target_len[maps.rows], maps.starts[:-1]
    ).astype(np.int64)
    cols = [np.zeros(0)]
    for k in range(0, len(maps), entropy._KERNEL_BLOCK):
        heights = maps.m[k : k + entropy._KERNEL_BLOCK]
        block_widths = widths[k : k + entropy._KERNEL_BLOCK]
        rows = maps.rows[maps.starts[k] : maps.starts[k + len(heights)]]
        cut = np.arange(MAX_CODE) < np.repeat(block_widths, heights)[:, None]
        flat = SYMBOL[maps.lines.targets[rows][cut]]
        cols.append(_kernels.batch_column_entropies(flat, heights, block_widths))
    return np.concatenate(cols), widths


def _oracle_fancy_field(words, length, table):
    """``gem_io._field`` fancy-indexing the table, as a numpy array, with the
    (n, 8) array of the words' bytes."""
    table = np.frombuffer(table, dtype=np.uint8)
    mask = gem_io._LOW[np.minimum(length, MAX_CODE)]
    coded = table[gem_io._bytes(words)].view("<u8")[:, 0] & mask
    return gem_io._bytes(coded), (coded & gem_io._HIGH_BITS) != 0


# ---------------------------------------------------------------------------
# Class assignment and class sums

_UPPER = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_bound = st.text(_UPPER, min_size=1, max_size=8)
# the bounds of the paper's obstetrics chapter: a letter in the last place
_O9A = ("O00", "O9A")


def _class_csv(rows):
    return ("low,high,label\n" + "".join(f"{lo},{hi},{lab}\n" for lo, hi, lab in rows)).encode()


@st.composite
def _class_rows(draw):
    """``low,high,label`` rows that load: random rows, each kept only when
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
    return kept


@st.composite
def _codes(draw, rows):
    """Codes on, beside and away from the bounds: a bound cut or extended
    by a random tail (so shorter and longer than the bounds), or random;
    some lower-cased."""
    bounds = [b for low, high, _ in rows for b in (low, high)] or ["0"]
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
    """The classes of loadable rows, as the range scan's (id, label,
    ranges) list and as the loaded table, with codes and their z-scores."""
    rows = draw(_class_rows())
    codes = draw(_codes(rows))
    # mixed magnitudes, so the sums depend on their order
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(3, len(codes))) * 10.0 ** rng.integers(-3, 6, size=(3, len(codes)))
    table = ZScoreTable(np.array(codes, dtype=str), z[0], z[1], z[2])
    return _oracle_classes(rows), gem_io.load_class_defs(_class_csv(rows)), codes, table


@settings(max_examples=200, deadline=None)
@given(_classes_and_scores())
def test_assign_classes_matches_range_scan(case):
    classes, loaded, codes, _ = case
    ids = loaded.ids + [UNCLASSIFIED]
    expected = [_oracle_assign_class(c, classes) for c in codes]
    assert [ids[i] for i in gem_io.assign_classes(codes, loaded)] == expected
    assert [ids[gem_io.assign_classes([c], loaded)[0]] for c in codes] == expected


@settings(max_examples=200, deadline=None)
@given(_classes_and_scores())
def test_aggregate_matches_per_map_loop(case):
    """Classes in first-member order, members in map order and sums bit for
    bit (``repr`` tells -0.0 from 0.0)."""
    classes, loaded, _, table = case
    expected = _oracle_aggregate(table, classes)
    got = class_rows(analysis.aggregate_by_class(table, loaded), table)
    assert repr([tuple(row) for row in got]) == repr(expected)


# few distinct sums, so ties are common; 0.0 and -0.0 tie
_sum = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]), st.floats(-1e6, 1e6))


# ids that sort in every way against each other: prefixes, case, a NUL,
# non-ASCII; repeated ids keep their table order
_class_ids = st.lists(st.sampled_from(["a", "a\x00", "ab", "B", "b", "é", ""]) | st.text(max_size=3))


@settings(max_examples=300, deadline=None)
@given(
    st.data(),
    _class_ids | st.lists(st.text("ABab", min_size=1, max_size=3), unique=True),
    st.sampled_from(RANK_MEASURES),
)
@example(data=None, ids=["b", "a", "c", "a"], measure="total").via("ties and -0.0")
def test_rank_matches_row_sort(data, ids, measure):
    """The class order of one Python sort by (-value, id), ties, -0.0
    against 0.0 and repeated ids included; the same scores, signs too, and
    average ranks, the ``total`` measure included; no classes is an
    error."""
    if data is None:  # 0.0 against -0.0, both ways, and a tie between different ids
        sums = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [1.0, -1.0, 0.0], [0.0, -0.0, 0.0]]
    else:
        sums = data.draw(st.lists(st.tuples(_sum, _sum, _sum), min_size=len(ids),
                                  max_size=len(ids)))
    classes = ClassTable(ids, ids, *np.array(sums, dtype=np.float64).reshape(-1, 3).T,
                         np.zeros(0, np.intp), np.zeros(len(ids) + 1, np.intp))
    if not ids:
        with pytest.raises(ValueError, match="no class scores to rank"):
            analysis.rank_classes(classes, measure)
        return
    values = [a + b + u if measure == "total" else {"z_alpha": a, "z_beta": b, "z_ur": u}[measure]
              for a, b, u in sums]
    expected = sorted(range(len(ids)), key=lambda k: (-values[k], ids[k]))
    order = analysis.rank_classes(classes, measure)
    assert order.tolist() == expected
    scores = classes.value(measure)[order].tolist()
    assert repr(scores) == repr([values[k] for k in expected])
    assert analysis.average_ranks(scores) == _oracle_average_ranks(scores)


# ---------------------------------------------------------------------------
# Kendall tau-b

# few distinct values, so ties are common; 0.0 and -0.0 tie
_score = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _rank_table(name, scores):
    return RankTable(name, {f"c{i:03d}": score for i, score in enumerate(scores)})


def _tau_outcome(tau, *args):
    try:
        return tau(*args).hex()
    except ValueError as err:
        return str(err)


@settings(max_examples=500, deadline=None)
@given(st.integers(2, 60).flatmap(lambda n: st.tuples(*[st.tuples(_score, _score)] * n)))
def test_tau_matches_pair_signs(pairs):
    """The same tau bit for bit, or the same error, on rankings of 2-60
    classes."""
    xs, ys = map(list, zip(*pairs))
    a, b = _rank_table("a", xs), _rank_table("b", ys)
    expected = _tau_outcome(_oracle_tau_b, xs, ys, "a and b")
    assert _tau_outcome(analysis.kendall_tau, a, b) == expected
    assert _tau_outcome(analysis.kendall_tau, b, a) == _tau_outcome(
        _oracle_tau_b, ys, xs, "b and a"
    )


@pytest.mark.parametrize(
    "xs, ys, expected",
    [
        ([0.0, -0.0], [1.0, 2.0], "a and b: tau undefined: one ranking is constant"),
        ([1.0, 2.0], [-0.0, 0.0], "a and b: tau undefined: one ranking is constant"),
        ([1.0, 2.0], [3.0, 4.0], (1.0).hex()),
        ([1.0, 2.0], [4.0, 3.0], (-1.0).hex()),
        # one x tie, two concordant pairs: 2 / sqrt(2 * 3)
        ([0.0, -0.0, 1.0], [5.0, 6.0, 7.0], (2 / math.sqrt(6)).hex()),
    ],
    ids=["zeros-tie-x", "zeros-tie-y", "two-concordant", "two-discordant", "signed-zero-ties"],
)
def test_tau_small_cases(xs, ys, expected):
    assert _tau_outcome(analysis.kendall_tau, _rank_table("a", xs), _rank_table("b", ys)) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tau_rejects_non_finite_scores(bad):
    a, b = _rank_table("a", [1.0, bad, 3.0]), _rank_table("b", [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="a and b: scores must be finite"):
        analysis.kendall_tau(a, b)


def _tau_peak(n):
    """``tracemalloc`` peak of one tau over n tied and untied classes, past
    the memory its two tables hold."""
    rng = np.random.default_rng(n)
    a = _rank_table("a", rng.normal(size=n).tolist())
    b = _rank_table("b", rng.integers(0, n // 10, size=n).astype(float).tolist())
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        analysis.kendall_tau(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def test_tau_memory_grows_linearly():
    # four times the classes: about four times the memory, where the n x n
    # pair signs took sixteen (8,000 classes: 32 million pairs, over 1 GB)
    small, large = _tau_peak(2_000), _tau_peak(8_000)
    assert large < 5 * small
    assert large < 8_000 * 1_000


@st.composite
def _range(draw):
    """A range whose bounds often share the least and greatest code
    characters; mostly ordered, sometimes inverted."""
    bound = st.one_of(_bound, st.text("09AZ", min_size=1, max_size=4))
    low, high = draw(bound), draw(bound)
    if draw(st.integers(0, 3)) and operator.gt(*_oracle_padded_bounds(low, high)):
        low, high = high, low
    return low, high


@settings(max_examples=500, deadline=None)
@given(_range(), _range())
def test_range_checks_match_prefix_rule(ra, rb):
    """``load_class_defs`` rejects an inverted range and two overlapping
    classes exactly as the padded-prefix comparison did."""
    if any(operator.gt(*_oracle_padded_bounds(*r)) for r in (ra, rb)):
        expected = "exceeds"
    elif _oracle_ranges_overlap(ra, rb):
        expected = "overlaps"
    else:
        expected = None
    try:
        gem_io.load_class_defs(_class_csv([(*ra, "A"), (*rb, "B")]))
    except StructuralError as err:
        got = "exceeds" if "exceeds" in str(err) else "overlaps"
    else:
        got = None
    assert got == expected


@st.composite
def _class_tables(draw):
    """``low,high,label`` rows: ranges of codes of one length, disjoint
    unless a code repeats, as one-code classes or spread over a few labels,
    and sometimes one more range of any length, which may overlap them."""
    length = draw(st.integers(1, 3))
    code = st.text("019AZ", min_size=length, max_size=length)
    codes = sorted(draw(st.lists(code, max_size=40, unique=draw(st.booleans()))))
    if draw(st.booleans()):
        rows = [(c, c, f"L{i}") for i, c in enumerate(codes)]
    else:
        labels = st.sampled_from("ABCDEF")
        rows = [(lo, hi, draw(labels)) for lo, hi in zip(codes[0::2], codes[1::2])]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, (*draw(_range()), draw(st.sampled_from(["A", "L0", "new"]))))
    return rows


def _outcome(load, source):
    """The table a loader reads, or its error's type, text, file and line."""
    try:
        table = load(source, "t.csv")
    except GemError as err:
        return type(err), str(err), err.filename, err.line
    if isinstance(table, dict):
        return list(table.items())
    arrays = (table.lows, table.highs, table.classes)
    return table.ids, table.labels, [(a.dtype.kind, a.tolist()) for a in arrays]


@settings(max_examples=500, deadline=None)
@given(_class_tables())
@example([("ZZZZZZZY", "ZZZZZZZZ", "A"), ("ZZZZZZZZ", "ZZZZZZZZ", "B")])  # low bound = high bound
@example([("10", "19", "A"), ("12", "13", "A"), ("15", "15", "B")])  # past a range nested in one
@example([("10", "19", "A"), ("12", "19", "A"), ("15", "15", "B")])  # two ranges reach the top
@example([("10", "60", "A"), ("50", "55", "B"), ("30", "35", "C")])  # not the first class pair
def test_class_overlap_sweep_matches_pairwise_loop(rows):
    """The same classes and intervals, or the same error naming the same
    pair of ranges and line."""
    data = _class_csv(rows)
    assert _outcome(gem_io.load_class_defs, data) == _outcome(_oracle_load_class_defs, data)


# ---------------------------------------------------------------------------
# Crosswalk parse and grouping


_LINE_CODE = st.text("0123456789ABCDEFXYZabxyz", min_size=1, max_size=8)
_LINE_TOKEN = st.one_of(_LINE_CODE, st.sampled_from(["00000", "11000", "10111", "NODX"]))
_ENTRY = st.tuples(_LINE_CODE, _LINE_CODE, st.sampled_from(["00000", "10000", "11000"]))
_GAP = st.text(" \t\x0b\x0c", min_size=1, max_size=3)  # spaces within a line


@st.composite
def _spaced_lines(draw):
    """Lines of 0-5 tokens (three of four an entry of three), ASCII spaces
    between them and sometimes before and after them, ended by LF, CRLF or
    CR, mixed; the last line with or without a break."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        tokens = list(draw(_ENTRY)) if draw(st.integers(0, 3)) else draw(
            st.lists(_LINE_TOKEN, max_size=5))
        text = "".join(draw(_GAP) + token for token in tokens)
        if not draw(st.booleans()):
            text = text.lstrip(" \t\x0b\x0c")
        if draw(st.booleans()):
            text += draw(_GAP)
        lines.append(text + draw(LINE_BREAK))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines).encode()


@settings(max_examples=300, deadline=None)
@given(
    crosswalk_text(),
    st.one_of(st.just(()), st.tuples(BAD_LINE, LINE_BREAK)),
    crosswalk_text(),
    st.booleans(),
)
def test_parse_matches_byte_matrices(head, bad, tail, bom):
    """The same columns (dtypes and shapes too), or the same error type,
    text and line, in blocks of 1, 7 and 64 bytes and the default."""
    _parse_matches_oracle(b"\xef\xbb\xbf" * bom + (head + "".join(bad) + tail).encode())


@settings(max_examples=400, deadline=None)
@given(_spaced_lines(), st.booleans())
@example(b"", False)
@example(b"\r", False)  # one lone CR, which ends the block
@example(b"A1 B2 00000\r", False)
@example(b"A1 B2 00000\rA2 B3 00000\r\rA3 B4 00000", True)  # lone CRs at block ends
@example(b" \t\r\n\x0b\n\x0c \r", False)  # whitespace-only lines
@example(b"A1 B2 00000\n\nA1 B2 00000 X\r\n", False)  # four tokens after a blank line
@example(b"A1 B2\r\nA2 B3 00000\n", False)  # two tokens on the first line
def test_line_bounds_match_frozen_reader(data, bom):
    """Token bounds taken from the line ends read spaced lines as the
    byte-matrix reader above, which searches every token start among the
    breaks: the same columns (dtypes and shapes too), or the same error
    type, text and line, in blocks of 1, 7 and 64 bytes and the default."""
    _parse_matches_oracle(b"\xef\xbb\xbf" * bom + data)


def _parse_matches_oracle(data):
    for block in (1, 7, 64, gem_io._PARSE_BLOCK):
        with mock.patch.object(gem_io, "_read_block", _oracle_read_block):
            expected = parsed_columns(data, block)
        assert parsed_columns(data, block) == expected


# a line's fields: source and target share the code table
_FIELD_TABLES = {
    "source": gem_io._CODE_BYTE,
    "target": gem_io._CODE_BYTE,
    "flag": gem_io._DIGIT_BYTE,
}


def _fields_match(words, length, name):
    table = _FIELD_TABLES[name]
    coded, bad = gem_io._field(words, length, table)
    want_coded, want_bad = _oracle_fancy_field(words, length, table)
    assert coded.dtype == want_coded.dtype and coded.tobytes() == want_coded.tobytes()
    assert bad.dtype == want_bad.dtype and bad.tobytes() == want_bad.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.binary(max_size=8), st.integers(0, 12)), max_size=40),
    st.sampled_from(list(_FIELD_TABLES)),
)
def test_field_translate_matches_fancy_index(fields, name):
    """Coded bytes and high-bit flags of random words, NULs past a word's
    bytes, fields of 0-12 bytes: the same as fancy-indexing the table."""
    words = np.array([int.from_bytes(b, "little") for b, _ in fields], dtype="<u8")
    _fields_match(words, np.array([n for _, n in fields], dtype=np.int64), name)


@pytest.mark.parametrize("name", list(_FIELD_TABLES))
def test_field_translate_every_byte(name):
    """Every byte value at every place of a word, fields of 0-12 bytes and
    the flag's fixed length: the same as fancy-indexing the table."""
    first = np.arange(13 * 256) % 256
    words = sum((((first + i) % 256).astype("<u8") << np.uint64(8 * i)) for i in range(8))
    _fields_match(words, np.repeat(np.arange(13), 256), name)
    _fields_match(words, 5, name)


_SOURCE = st.text("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZab", min_size=1, max_size=8)


@st.composite
def _crosswalk_lines(draw):
    """The lines of random maps, no-match maps among them, sometimes with a
    line that may fail a group check; grouped by map, sorted by source,
    interleaved or shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = []
    for source in draw(st.lists(_SOURCE, min_size=1, max_size=20)):
        if draw(st.integers(0, 4)) == 0:
            maps.append([f"{source} NODX 11000"] * draw(st.integers(1, 2)))
        else:
            maps.append(list(map(gem_line, make_map_entries(rng, source, max_m=6))))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(maps) - 1))
        extra = draw(st.sampled_from(["NOPCS 11000", "X9 10121", "X9 10113", "X9 10000"]))
        maps[k].append(maps[k][0].split()[0] + " " + extra)
    order = draw(st.sampled_from(["grouped", "sorted", "interleaved", "shuffled"]))
    if order == "sorted":
        maps.sort(key=lambda lines: lines[0].split()[0].upper())
    if order == "interleaved":
        return [m[i] for i in range(max(map(len, maps))) for m in maps if i < len(m)]
    lines = [line for m in maps for line in m]
    return [lines[i] for i in rng.permutation(len(lines))] if order == "shuffled" else lines


def _grouped(group, lines):
    try:
        maps = group(lines)
    except GemError as err:
        return type(err), str(err)
    columns = (maps.rows, maps.starts, maps.source, maps.m, maps.m0, maps.v)
    return [(a.dtype, a.shape, a.tolist()) for a in columns]


def _wide_map_lines(source="W1", lists=9, size=90):
    """One map whose one scenario has ``lists`` choice lists of ``size``
    codes: v = size ** lists, past int64's safe range at 9 x 90."""
    return [f"{source} C{c}{j:03d} 1011{c}" for c in range(1, lists + 1) for j in range(size)]


def _group_matches_oracle(lines):
    lines = gem_io.parse_gem_file("\n".join(lines).encode())
    assert _grouped(gem_io.group_maps, lines) == _grouped(_oracle_group_maps, lines)


@settings(max_examples=600, deadline=None)
@given(_crosswalk_lines())
def test_group_matches_little_endian_keys(lines):
    """The same maps in the same order, rows and counts (dtypes and shapes
    too), or the same error type and text."""
    _group_matches_oracle(lines)


def test_group_matches_frozen_grouping():
    """Maps from runs of equal consecutive sources and combination keys
    grouped by one sort, at the edges: the little-endian grouping's maps,
    rows and counts (v as Python ints in an object array where it must be),
    or the same error type and text."""
    for lines in (
        [],  # no line
        ["A1 X1 00000", "B2 X2 00000", "A1 X3 00000"],  # A B A
        ["B2 X1 10111", "A1 X2 00000", "B2 X3 10112", "B2 X4 10121", "A1 X5 00000"],
        _wide_map_lines() + ["A1 X1 00000"] + _wide_map_lines()[:3],  # v past int64
        ["A1 X1 10112", "B2 X2 00000", "A1 X3 10111"],  # a choice-list gap
    ):
        _group_matches_oracle(lines)


def test_group_wide_map_counts_v_as_python_ints():
    """The explicit case of the test above reaches the object-dtype v."""
    lines = gem_io.parse_gem_file("\n".join(_wide_map_lines() + ["A1 X1 00000"]).encode())
    maps = gem_io.group_maps(lines)
    assert maps.v.dtype == object and maps.v.tolist() == [90**9, 1]


# Tokens of random crosswalk lines: code characters, bytes that are ASCII
# whitespace (\x0b, \x0c) or not (NUL, \x1c, U+00A0, which ``str.split``
# takes for a separator), non-ASCII letters that upper-case to ASCII or
# not, the sentinels, and flags of 4-6 digits, from 0-9 and from 0-2.
_ALNUM = "0123456789ABCDXYZabcdxyz"
_TOKEN_CHAR = st.sampled_from(
    list(_ALNUM) + ["\x00", "\x0b", "\x0c", "\x1c", "\u00a0", "\ufb01", "\u00e9", "-"]
)
_CODE_TOKEN = st.one_of(
    st.text(_ALNUM, min_size=1, max_size=9),
    st.text(_TOKEN_CHAR, min_size=1, max_size=9),
    st.sampled_from(["NODX", "nopcs"]),
)
_FLAG_TOKEN = st.one_of(
    st.text("0123456789", min_size=4, max_size=6),
    st.text("012", min_size=4, max_size=6),
    st.sampled_from(
        ["00000", "11000", "10111", "10010", "10001", "10102", "10120", "11100", "20000", "00200"]
    ),
)
# a line that passes the line rules but for its target and flag, from a few
# sources, so maps of several lines form and may fail a group check
_SOURCE_POOL = st.sampled_from(["A1", "a1", "B2", "c3"])
_GEM_LINE = st.one_of(
    st.builds(
        "{} {} {}".format,
        _SOURCE_POOL,
        st.text(_ALNUM, min_size=1, max_size=8),
        st.sampled_from(["00000", "10000", "11000", "10111", "00111"]
                        + ["10112", "10121", "10122", "10113", "10131"]),
    ),
    st.builds(
        "{} {} {}".format,
        _SOURCE_POOL,
        st.sampled_from(["NODX", "nopcs"]),
        st.sampled_from(["11000", "01000", "00000"]),
    ),
)
_ODD_LINE = st.one_of(
    st.builds("{} {} {}".format, _CODE_TOKEN, _CODE_TOKEN, _FLAG_TOKEN),
    st.lists(st.one_of(_CODE_TOKEN, _FLAG_TOKEN), max_size=4).map(" ".join),
)


@st.composite
def _gem_crosswalk(draw):
    """1-8 lines with LF, CRLF and CR breaks, the last with or without one;
    at most one line drawn from the odd tokens, the rest from a few maps."""
    lines = draw(st.lists(st.tuples(_GEM_LINE, LINE_BREAK), max_size=8))
    if not lines or draw(st.booleans()):
        odd = draw(st.tuples(_ODD_LINE, LINE_BREAK))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    text = "".join(line + end for line, end in lines[:8])
    return (text if draw(st.booleans()) else text.rstrip("\r\n")).encode()


def _corpus_lines(rng):
    """Lines of a valid crosswalk: random maps, no-match maps and duplicate
    lines, sometimes interleaved across maps."""
    sources = set()
    lines = []
    for _ in range(int(rng.integers(1, 25))):
        source = random_code(rng, 6)
        if source in sources:
            continue
        sources.add(source)
        if rng.random() < 0.15:
            for _ in range(int(rng.integers(1, 3))):
                target = sorted(gem_io.NO_MATCH_SENTINELS)[int(rng.integers(0, 2))]
                lines.append(f"{source} {target} {'11000' if rng.random() < 0.7 else '10000'}")
            continue
        entries = make_map_entries(rng, source, max_m=12)
        lines.extend(map(gem_line, entries))
        if rng.random() < 0.3:
            lines.append(gem_line(entries[int(rng.integers(0, len(entries)))]))
    if rng.random() < 0.5:
        lines = [lines[i] for i in rng.permutation(len(lines))]
    return lines


def _render(rng, lines):
    """Crosswalk text with random separators, case, blank lines and endings."""
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    out = []
    for line in lines:
        if rng.random() < 0.1:
            out.append(" \t " if rng.random() < 0.5 else "")
        fields = line.split(" ")
        if rng.random() < 0.2:
            fields = [f.lower() for f in fields]
        seps = [" \t"[int(rng.integers(0, 2))] * int(rng.integers(1, 3)) for _ in fields]
        text = "".join(f + s for f, s in zip(fields, seps))
        out.append(text.rstrip() if rng.random() < 0.8 else " " + text)
    return newline.join(out) + (newline if rng.random() < 0.5 else "")


def _inject(rng, lines):
    """The lines with one or two bad lines, or one or two bad groups,
    injected."""
    lines = list(lines)
    if rng.random() < 0.6:
        for _ in range(int(rng.integers(1, 3))):
            bad = BAD_LINES[int(rng.integers(0, len(BAD_LINES)))]
            lines.insert(int(rng.integers(0, len(lines) + 1)), bad)
    else:
        for _ in range(int(rng.integers(1, 3))):
            source = lines[int(rng.integers(0, len(lines)))].split()[0]
            bad = [
                f"{source} NODX 11000",  # mixes no-match and regular unless all no-match
                f"{source} ZZ1 10191",  # scenario 9: a gap
                f"{source} ZZ1 10119",  # choice list 9 of scenario 1: a gap
                f"GAP{len(lines)} ZZ1 10121",
                f"GAP{len(lines)} ZZ1 10112",
            ][int(rng.integers(0, 5))]
            lines.insert(int(rng.integers(0, len(lines) + 1)), bad)
    return lines


@st.composite
def _random_corpus(draw):
    """A crosswalk of up to 24 random maps of up to 12 rows (see
    ``_corpus_lines``), rendered with random separators, case, blank lines
    and endings; half of them with bad lines or bad groups injected."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = _corpus_lines(rng)
    return _render(rng, _inject(rng, lines) if draw(st.booleans()) else lines).encode()


def _scalar_outcome(data):
    """The frozen scalar grammar over a crosswalk: every non-blank line
    through ``_parse_line``, then every source's entries, in first-appearance
    order, through ``_make_record``; the entries and records, or the first
    error's type and text."""
    try:
        entries = [
            _parse_line(raw, "gems.txt", number)
            for number, raw in enumerate(re.split(rb"\r\n?|\n", data), start=1)
            if raw.split()
        ]
        groups = {}
        for entry in entries:
            groups.setdefault(entry.source, []).append(entry)
        records = [_make_record(source, group, "gems.txt") for source, group in groups.items()]
        return entries, records
    except GemError as err:
        return type(err), str(err)


def _alphabet_entropy(codes):
    """H(A) of a map: the entropies of the columns of its codes, right-padded
    to the longest, from each column's character counts."""
    m, width = len(codes), max(map(len, codes))
    columns = zip(*(code.ljust(width, "*") for code in codes))
    return -sum(c / m * math.log2(c / m) for column in columns for c in Counter(column).values())


@settings(max_examples=1000, deadline=None)
@given(_gem_crosswalk() | _random_corpus())
@example(b"X\xc2\xa0Y A1 00000\n")  # one field to the scalar grammar, two to str.split
@example(b"A1 B2 10112\n")  # a gap in the choice lists
@example(b"A1 B2 10121\r\nA1 B3 10111\r")  # a gap in the scenarios
@example(b"A1 NODX 11000\ra1 B2 00000")  # mixed no-match
@example(b"0010 A1 10000\n0052 02H43JZ 10111\n0052 02H43KZ 10131\n")  # a gap on line 2
def test_crosswalk_errors_match_scalar_grammar(data):
    """The line rules and group checks read a crosswalk as the frozen scalar
    grammar does: the same entries and records, or the same error type and
    text, in blocks of 1 byte and the default. A crosswalk that reads scores
    each map's m, m0 and v as its record counts them (v by enumeration) and
    its H(A) within 1e-12 of its character counts', and excludes the
    no-match maps."""
    expected = _scalar_outcome(data)
    for block in (1, gem_io._PARSE_BLOCK):
        with mock.patch.object(gem_io, "_PARSE_BLOCK", block):
            try:
                lines = gem_io.parse_gem_file(data, "gems.txt")
                maps = gem_io.group_maps(lines)
                got = list(lines), list(maps)
            except GemError as err:
                got = type(err), str(err)
        assert got == expected
    if isinstance(got[0], type):
        return
    records = got[1]
    assert maps.source.tolist() == [r.source for r in records]
    scored = [r for r in records if r.m > 0]
    scores, excluded = entropy.score_maps(maps)
    assert list(zip(*(getattr(scores, name).tolist() for name in ("source", "m", "m0", "v")))) == [
        (r.source, r.m, r.m0, brute_force_valid_representations(r)) for r in scored
    ]
    assert len(scores.h_a) == len(scored)
    for h_a, r in zip(scores.h_a.tolist(), scored):
        assert abs(h_a - _alphabet_entropy([e.target for e in r.entries])) <= 1e-12
    assert excluded.source.tolist() == [r.source for r in records if r.m == 0]


# ---------------------------------------------------------------------------
# Entropy kernel

# column counts whose keys just fit in, or just pass, uint8 and uint16
_KEY_TYPE_EDGES = [
    limit // N_SYMBOLS + step for limit in (2**8, 2**16) for step in (-1, 0, 1)
]


def _kernel_batch(n_cols, seed, max_height):
    """Maps of ``n_cols`` columns in all, each column of 1, 2 or more distinct
    symbols, as the kernel's (flat, heights, widths)."""
    rng = np.random.default_rng(seed)
    widths = []
    while sum(widths) < n_cols:
        widths.append(min(int(rng.integers(1, 9)), n_cols - sum(widths)))
    heights = rng.integers(1, max_height + 1, len(widths))
    matrices = []
    for height, width in zip(heights, widths):
        kinds = rng.integers(1, N_SYMBOLS + 1, width)
        kinds = np.where(rng.random(width) < 0.6, rng.integers(1, 3, width), kinds)
        matrices.append(
            np.stack(
                [rng.choice(N_SYMBOLS, k, replace=False)[rng.integers(0, k, height)] for k in kinds],
                axis=1,
            ).ravel()
        )
    flat = np.concatenate(matrices or [np.zeros(0)]).astype(np.uint8)
    return flat, heights.astype(np.int64), np.array(widths, dtype=np.int64)


def _tall_batches(seed, count):
    """``count`` batches of 1-199 maps of heights 1-59 and widths 1-8, each
    batch's symbols drawn uniformly from its first 2-37, as the kernel's
    (flat, heights, widths)."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(count):
        n = int(rng.integers(1, 200))
        heights = rng.integers(1, int(rng.integers(2, 60)), n).astype(np.int64)
        widths = rng.integers(1, 9, n).astype(np.int64)
        flat = rng.integers(0, int(rng.integers(2, N_SYMBOLS + 1)), int(np.sum(heights * widths)))
        batches.append((flat.astype(np.uint8), heights, widths))
    return batches


@settings(max_examples=150, deadline=None)
@given(
    st.builds(
        lambda *args: [_kernel_batch(*args)],
        st.one_of(st.integers(0, 40), st.sampled_from(_KEY_TYPE_EDGES)),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 9, 40]),
    )
    | st.integers(0, 2**32 - 1).map(lambda seed: _tall_batches(seed, 1))
)
@example([_kernel_batch(0, 0, 1)]).via("the empty batch")
@example([_kernel_batch(_KEY_TYPE_EDGES[1], 1, 3)]).via("uint8 keys")
@example([_kernel_batch(_KEY_TYPE_EDGES[2], 2, 3)]).via("uint16 keys")
@example([_kernel_batch(_KEY_TYPE_EDGES[4], 3, 3)]).via("uint16 keys")
@example([_kernel_batch(_KEY_TYPE_EDGES[5], 4, 3)]).via("uint32 keys")
@example(_tall_batches(404, 50)).via("50 batches of tall maps")
def test_kernel_matches_unique_counts(batches):
    """Every column entropy bit-equal to the ``np.unique`` kernel, so
    near-ties between maps order and cut outliers as the dense rows did; a
    zero entropy is +0.0, so equal values share their sign."""
    for flat, heights, widths in batches:
        got = _kernels.batch_column_entropies(flat, heights, widths)
        assert got.tobytes() == _oracle_column_entropies(flat, heights, widths).tobytes()
        assert not np.signbit(got).any()


def _matrix(columns):
    """One map's (flat cells, height, width) from its columns of symbols."""
    cells = np.array(columns, dtype=np.uint8).T
    return cells.ravel(), len(cells), cells.shape[1]


_ALL_SYMBOLS = list(range(N_SYMBOLS))
_KERNEL_EDGE_BATCHES = {
    # columns of exactly three distinct symbols, beside one and two
    "three symbols": [
        _matrix([[0, 1, 2], [5, 5, 5], [3, 4, 3], [36, 9, 0]]),
        _matrix([[7, 8, 9, 7, 8, 9]]),
    ],
    # one column holding every symbol, its height past N_SYMBOLS
    "all symbols": [
        _matrix([_ALL_SYMBOLS + [0, 36, 5], [1] * (N_SYMBOLS + 3)]),
        _matrix([[2, 2]]),
    ],
    # a dense column first and last in the batch
    "dense at both ends": [
        _matrix([[0, 1, 2, 3], [4, 4, 4, 4]]),
        _matrix([[6, 6, 7, 7]]),
        _matrix([[1, 1, 1, 1], [36, 35, 34, 33]]),
    ],
    # no column of three or more distinct symbols
    "no dense column": [
        _matrix([[0, 1, 0], [2, 2, 2]]),
        _matrix([[36]]),
        _matrix([[4, 5], [6, 6], [7, 8]]),
    ],
}


@pytest.mark.parametrize("name", list(_KERNEL_EDGE_BATCHES))
def test_kernel_edge_batches_match_unique_counts(name):
    """Dense columns of three and of all symbols, at the ends of a batch or
    absent: bit-equal to the ``np.unique`` kernel."""
    flat, heights, widths = zip(*_KERNEL_EDGE_BATCHES[name])
    flat, heights, widths = np.concatenate(flat), np.array(heights), np.array(widths)
    got = _kernels.batch_column_entropies(flat, heights, widths)
    assert got.tobytes() == _oracle_column_entropies(flat, heights, widths).tobytes()


def test_kernel_key_type_edges():
    """The pinned column counts cross the key types' limits."""
    types = [np.min_scalar_type(n * N_SYMBOLS) for n in _KEY_TYPE_EDGES]
    assert types[1:3] == [np.uint8, np.uint16] and types[4:] == [np.uint16, np.uint32]


_TARGET = st.text("AB12", min_size=1, max_size=7)
# a two-row map: rows equal, or one the other with a symbol where it pads
_TWO_ROWS = _TARGET.flatmap(lambda c: st.sampled_from([[c, c], [c, c + "Z"], [c + "Z", c]]))
_MAP = st.one_of(st.lists(_TARGET, min_size=1, max_size=6), _TWO_ROWS)
_CORPORA = st.one_of(
    st.lists(_MAP, min_size=1, max_size=12),
    st.lists(_TARGET.map(lambda c: [c]), min_size=1, max_size=8),  # the kernel gets no cell
)


@settings(max_examples=300, deadline=None)
@given(_CORPORA, st.sampled_from([1, 2, 3, entropy._KERNEL_BLOCK]))
@example([["A"], ["A", "A"], ["A", "AZ"], ["B1", "A"], ["A", "B", "A"]], 2)
@example([["A"], ["A", "A"], ["A", "AZ"], ["B1", "A", "B"], ["A", "B", "A"], ["AB12"]], 2)
@example([["A", "B", "A"]] * 3 + [["1"]] * 4, 3)  # blocks holding no map of three rows
def test_column_entropies_match_kernel_on_every_map(corpus, block):
    """One- and two-row maps written in closed form, maps of three or more
    rows through the kernel: the columns and widths of sending every map
    through the kernel, bit for bit (dtypes and shapes too), in blocks of
    1-3 maps and the default. ``test_entropy`` counts the kernel calls."""
    text = "".join(f"S{i} {target} 10000\n" for i, m in enumerate(corpus) for target in m)
    maps = gem_io.group_maps(gem_io.parse_gem_file(text.encode()))
    with mock.patch.object(entropy, "_KERNEL_BLOCK", block):
        got = entropy.column_entropies(maps)
        want = _oracle_map_column_entropies(maps)
    assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [
        (a.dtype, a.shape, a.tobytes()) for a in want
    ]


# ---------------------------------------------------------------------------
# Centrality


@st.composite
def _weighted_graphs(draw):
    """Random weighted graphs over up to 30 words, usually of several
    components, some without any edge: (nodes, edges) dicts."""
    n = draw(st.integers(1, 30))
    words = [f"w{i:02d}" for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    edges = draw(st.dictionaries(pairs, st.integers(1, 20), max_size=3 * n)) if n > 1 else {}
    return dict.fromkeys(words, 1), {(words[a], words[b]): w for (a, b), w in edges.items()}


@settings(max_examples=200, deadline=None)
@given(_weighted_graphs(), st.integers(1, 300))
def test_centrality_matches_dense_power_iteration(dicts, max_iterations):
    graph = word_graph(*dicts)
    try:
        expected = _oracle_centrality(*dicts, max_iterations=max_iterations)
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
    graph = word_graph(dict.fromkeys(words, 1), edges)
    tracemalloc.start()
    try:
        scores = textnet.eigenvector_centrality(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(v > 0 for v in scores.values())
    assert peak < 20e6


# ---------------------------------------------------------------------------
# Text network graph

# words that sort in every way against each other: prefixes, case, non-ASCII
_WORDS = ["a", "ab", "b", "ba", "bb", "c", "d", "x", "y", "Z", "é", ""]
_token_lists = st.lists(
    st.lists(st.one_of(st.sampled_from(_WORDS), st.text(max_size=3)), max_size=6),
    max_size=12,
)


def _bits(scores, words):
    return np.array([scores[w] for w in words], dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(_token_lists, st.integers(1, 300))
def test_graph_matches_dict_graph(token_lists, max_iterations):
    """Random descriptions, empty, one-word and repeating ones among them,
    so graphs of several components, tied component sizes and isolated
    words; centralities bit-equal to the edge-list kernel over the dict."""
    nodes, edges = _oracle_graph(token_lists)
    graph = textnet.build_cooccurrence_graph(token_lists)
    columns = {name: c.tolist() for name, c in textnet.edge_rows(graph).items()}
    frequencies = {name: c.tolist() for name, c in textnet.word_frequencies(graph).items()}
    assert frequencies == _oracle_word_frequencies(nodes)
    assert columns == _oracle_edge_rows(edges)
    assert len(graph.edges) == len(edges)
    rows = list(zip(*columns.values()))
    assert [rows[i] for i in graph.first_order] == [(*pair, w) for pair, w in edges.items()]
    component = graph.words[textnet.largest_component(graph)].tolist()
    assert component == _oracle_largest_component(nodes, edges)
    assert textnet.to_dot(graph) == _oracle_to_dot(nodes, edges)
    rebuilt = word_graph(nodes, edges)
    for name in ("words", "counts", "edges", "weights", "first_order"):
        assert getattr(rebuilt, name).tolist() == getattr(graph, name).tolist()
    try:
        expected = _oracle_edge_list_centrality(nodes, edges, max_iterations=max_iterations)
    except ConvergenceError as err:
        with pytest.raises(ConvergenceError) as raised:
            textnet.eigenvector_centrality(graph, max_iterations=max_iterations)
        assert str(raised.value) == str(err)
        return
    got = textnet.eigenvector_centrality(graph, max_iterations=max_iterations)
    assert list(got) == sorted(expected)
    assert _bits(got, expected) == _bits(expected, expected)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**62), max_size=40) | st.lists(st.integers(-3, 3), max_size=40)
       | st.builds(lambda k, n: [k] * n, st.integers(-2**63, 2**63 - 1), st.integers(0, 40)))
@example([]).via("no pairs")
@example([-2**63] * 3).via("all equal, at the int64 minimum")
def test_distinct_pairs_match_unique(keys):
    """Distinct keys, first indices and counts as ``np.unique`` gives them:
    no keys, all keys equal and the int64 extremes among them."""
    keys = np.array(keys, dtype=np.int64)
    expected = np.unique(keys, return_index=True, return_counts=True)
    got = textnet._distinct(keys)
    for want, have in zip(expected, got):
        assert have.dtype == want.dtype and have.tolist() == want.tolist()


def test_graph_memory_grows_with_pairs():
    # 5,000 descriptions of 15 words from a 5,000-word vocabulary: 75,000
    # tokens, 525,000 word pairs, 514,132 edges; 40.0 MB measured (the
    # graph's own arrays take 16.4 MB; a dense adjacency, 200 MB)
    rng = np.random.default_rng(8)
    vocabulary = [f"w{i:04d}" for i in range(5_000)]
    token_lists = [
        [vocabulary[i] for i in rng.choice(5_000, size=15, replace=False)] for _ in range(5_000)
    ]
    tracemalloc.start()
    try:
        graph = textnet.build_cooccurrence_graph(token_lists)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph.edges) > 500_000
    assert peak < 50e6


# ---------------------------------------------------------------------------
# Outlier cut

_tied_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -3.0, 5e-324]),
    st.floats(-4, 4, width=16),
)


@st.composite
def _scores_with_ties(draw):
    n = draw(st.integers(1, 40))
    codes = st.text("AB09", min_size=1, max_size=3)
    sources = draw(st.lists(codes, min_size=n, max_size=n, unique=True))
    z = [np.array(draw(st.lists(_tied_values, min_size=n, max_size=n))) for _ in range(3)]
    return ZScoreTable(np.array(sources), *z)


_cuts = st.one_of(
    st.tuples(
        st.just("threshold"),
        st.one_of(st.sampled_from([-5.0, -0.0, 0.0, 1.0, np.inf, -np.inf]), _tied_values),
    ),
    st.tuples(
        st.just("top_fraction"),
        st.one_of(st.sampled_from([0.05, 0.2, 1.0]), st.floats(0, 1, exclude_min=True)),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_scores_with_ties(), st.sampled_from(OUTLIER_MEASURES), _cuts)
def test_outliers_match_row_sort(table, measure, cut):
    """Tied values, -0.0 beside 0.0 included: the same list, signs too."""
    kwargs = dict([cut])
    expected = repr(_oracle_detect_outliers(list(table), measure, **kwargs))
    assert repr(outlier_pairs(table, measure, **kwargs)) == expected


# ---------------------------------------------------------------------------
# Side tables: class files against the pairwise loop, description and
# frequency files against the frozen loaders

# code cells among good ones: quoted line breaks, blank, 9-character,
# non-ASCII, '_', NUL, spaced, dashed and sentinel codes
_ODD_CODES = ["A1\nB2", "A1\n", "\nB2", "AB\n\nCD", "\n", "", " ", "ABCDEFGHI", "ABCDEFGH",
              "é1", "A١", "ǅ", "A ", "a1\r", "\r\nA", "A1\r\nB2", "A1\rB2", "A1 B2", "NODX",
              "A-1", "A_1", "ﬁx", "A\x00"]
_TEXTS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['a "quoted" one', "x,y", "line\nbreak", "cr\rhere", "  padded  ", "", " ",
                     "é", "a_b"]),
)
# the parent read a probability with float, which takes non-ASCII digits
# ("٠.٥" as 0.5); those cells are left out here, and their rejection is
# checked by test_gem_io.TestSideTables.test_frequency_not_a_number
_PROBABILITIES = st.one_of(
    st.floats(0, 1).map(repr),
    st.sampled_from(["0", "1", "0.5", " 0.25 ", "1e-3", "+.5", "-0", "1.5", "-0.1", "nan", "inf",
                     "1e999", "often", "", "0_5", "0.0_1", "1_0e-1", "0x1", "0.5.5"]),
)
_LABELS = st.sampled_from(["A", "B", "C", "Block 1", "", " ", "é", "a,b", "x\ny", "a_b"])
_HEADERS = {
    "classes": [["low", "high", "label"]] * 8 + [[" LOW", "High", "label "], ["low", "high"]],
    "descriptions": [["code", "description"]] * 8 + [[" Code", "DESCRIPTION "], ["code", "desc"]],
    "frequencies": [["code", "probability"]] * 8 + [["Code ", " PROBABILITY"], ["code"]],
}
_INSERTS = [b",", b'"', b"\r", b"\n", b"\x00", b"\xff", b" ", b"_", "é".encode(), "ﬁ".encode(),
            "\u00a0".encode()]


@st.composite
def _keyed_codes(draw):
    """Distinct codes (upper-cased), sometimes with one odd code, one
    repeated in another case, or spaces around one."""
    codes = draw(st.lists(st.text("AB019ab", min_size=1, max_size=4), max_size=10,
                          unique_by=str.upper))
    if codes and draw(st.booleans()):
        at = draw(st.integers(0, len(codes) - 1))
        codes[at] = draw(st.one_of(st.sampled_from(_ODD_CODES), st.text(min_size=1, max_size=9)))
    if codes and draw(st.booleans()):
        codes.insert(draw(st.integers(0, len(codes))), draw(st.sampled_from(codes)).swapcase())
    return [f" {c} " if draw(st.integers(0, 4)) == 0 else c for c in codes]


@st.composite
def _side_table_files(draw):
    """(kind, bytes) of a class, description or frequency file, mostly well
    formed, then mutated: bytes inserted, lines dropped, duplicated, blanked
    or given an extra column, a BOM prefixed."""
    kind = draw(st.sampled_from(["classes", "descriptions", "frequencies"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])))
    writer.writerow(draw(st.sampled_from(_HEADERS[kind])))
    if kind == "classes":
        rows = [(lo.lower() if draw(st.integers(0, 5)) == 0 else lo, hi, label)
                for lo, hi, label in draw(_class_tables())]
        if rows and draw(st.booleans()):
            at = draw(st.integers(0, len(rows) - 1))
            low, high, label = rows[at]
            rows[at] = draw(st.sampled_from([
                (draw(st.sampled_from(_ODD_CODES)), high, label),
                (low, draw(st.sampled_from(_ODD_CODES)), label),
                (low, high, draw(_LABELS)),
                (high, low, draw(_LABELS)),  # inverted unless low == high
            ]))
    else:
        cells = _TEXTS if kind == "descriptions" else _PROBABILITIES
        rows = [(code, draw(cells)) for code in draw(_keyed_codes())]
    writer.writerows(rows)
    lines = buf.getvalue().encode("utf-8").splitlines(keepends=True)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["insert", "drop", "duplicate", "blank", "column"]))
        if op == "insert":
            line = lines[at] if at < len(lines) else b""
            cut = draw(st.integers(0, len(line)))
            lines[at : at + 1] = [line[:cut] + draw(st.sampled_from(_INSERTS)) + line[cut:]]
        elif op == "blank":
            lines.insert(at, draw(st.sampled_from([b"\n", b",\n", b" , \n", b" \n", b",,\n",
                                                    b"\r\n", b"\t,\xc2\xa0\n"])))
        elif at < len(lines):
            lines[at : at + 1] = {
                "drop": [],
                "duplicate": [lines[at]] * 2,
                "column": [lines[at].rstrip(b"\r\n") + b",extra\n"],
            }[op]
    data = b"".join(lines)
    return kind, (b"\xef\xbb\xbf" + data) if draw(st.booleans()) else data


_LOADERS = {  # the loader of each kind, and its oracle
    "classes": (gem_io.load_class_defs, _oracle_load_class_defs),
    "descriptions": (gem_io.load_descriptions, frozen_load_descriptions),
    "frequencies": (gem_io.load_frequencies, frozen_load_frequencies),
}


@settings(max_examples=1500, deadline=None)
@given(_side_table_files())
@example(("descriptions", b"code,description\nA1,x\nA1,y\nB2,\"z\n"))  # read error wins
@example(("descriptions", b"code,description\nA1,x\nA1,y\nB2,z,w\n"))  # column count wins
@example(("frequencies", b"code,probability\nA_1,x\n\"B2\",1\"0\n"))
@example(("frequencies", b"code,probability\nA1,often\nB2,2\nb2,0\n"))
@example(("classes", b"low,high,label\n10,19,A\n15,12,B\n1\xff,1,C\n"))  # decode error wins
@example(("classes", b"low,high,label\n\n10,19,A\n,,\n18,\"2\n0\",B\n"))
@example(("classes", b"low,high,label\n10,19,\nA_,1,B\n"))
@example(("classes", b"low,high,label\n19,10,\n"))  # inverted range before empty label
@example(("classes", b"low,high,label\nA_,B_,\n"))  # range low before range high
@example(("frequencies", b"code,probability\nA1,0.5\na1,x\nB_,2\n"))  # duplicate first
def test_side_tables_match_frozen_loaders(file):
    """The oracle's outcome: the same table in the same order, or the same
    error type, text, file and line; of several errors in a file, the same
    one wins."""
    kind, data = file
    load, oracle = _LOADERS[kind]
    assert _outcome(load, data) == _outcome(oracle, data)


# ---------------------------------------------------------------------------
# Rank files: CSV rank files of ``corr`` against the frozen reader's
# ``csv.DictReader``

_RANK_IDS = ["A", "B", "C", "a", "é", "A B", "x\ny", "Z,9", 'q"t', ""]
_RANK_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["3", "2.5", "-1", "0", "1e3", "+.5", "nan", "inf", "-inf", "1e999", "1_0",
                     "١", "０.５", "high", ""]),
)
_RANK_EXTRAS = st.one_of(st.text(max_size=5),
                         st.sampled_from(["", " ", "x,y", 'a "q"', "l\nb", "é"]))
_PADS = st.sampled_from(["", "", "", " ", "\t", "\u00a0", " \t"])  # no line break
_SPELLINGS = {  # the header names as the side-table reader reads them
    "class_id": ["class_id"] * 3 + ["Class_ID", " class_id", "CLASS_ID\t"],
    "score": ["score"] * 3 + ["Score", "score ", " SCORE"],
}


@st.composite
def _rank_csvs(draw):
    """(bytes, plain bytes) of a rank CSV: a header naming class_id and score
    in any order among 0-2 other columns (score again among them, which
    reads its last column), then empty lines and rows of ids, scores and
    other cells (duplicate ids, ``nan``, ``inf``, ``1_0`` and non-ASCII
    digits among them), quoted where they must be or everywhere, ended by
    LF, CRLF or CR; a row may lose or gain cells. The bytes spell the header
    names in other cases and spaces and pad some id and score cells with
    whitespace; where they hold a row of blank cells, the plain bytes hold
    an empty line. In the bytes alone, a byte that is not UTF-8 may go in, or
    the file be empty. Both may start with a BOM."""
    names = draw(st.permutations(["class_id", "score"] + draw(
        st.lists(st.sampled_from(["rank", "label", "member_count", "score"]), max_size=2))))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))

    def line(cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator=end, quoting=quoting).writerow(cells)
        return buf.getvalue()

    data = [line([draw(st.sampled_from(_SPELLINGS.get(n, [n]))) for n in names])]
    plain = [line(names)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 5 + ["blank", "empty"]))
        if kind == "empty":
            data.append(end)
            plain.append(end)
            continue
        if kind == "blank":
            cells = draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=1,
                                  max_size=len(names) + 1))
            data.append(line(cells))
            plain.append(end)
            continue
        cells = [draw(st.sampled_from(_RANK_IDS)) if n == "class_id" else draw(_RANK_SCORES)
                 if n == "score" else draw(_RANK_EXTRAS) for n in names]
        padded = [draw(_PADS) + c + draw(_PADS) if n in _SPELLINGS else c
                  for n, c in zip(names, cells)]
        width = draw(st.sampled_from([len(names)] * 6 + list(range(1, len(names) + 3))))
        more = draw(st.lists(_RANK_EXTRAS, min_size=width, max_size=width))
        cells = (cells + more)[:width]
        data.append(line((padded + more)[:width]))
        plain.append(line(cells) if any(cell.strip() for cell in cells) else end)
    bom = "\ufeff" * draw(st.booleans())
    data, plain = (bom + "".join(lines) for lines in (data, plain))
    data = data.encode()
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff", b"\xc3"])) + data[at:]
    if draw(st.integers(0, 15)) == 0:
        data = bom.encode()
    return data, plain.encode()


def _rank_outcome(read, path):
    try:
        return list(read(str(path)).scores.items())
    except GemError as err:
        return str(err)


def _rank_expected(data, plain, path):
    """The frozen reader's outcome on the plain bytes, which hold the header
    names and cells as the side-table grammar reads them and an empty line
    for a row of blank cells, with the other changes that grammar makes: an
    empty file and bytes that are not UTF-8 are worded as in a side table,
    the first row of another column count that is not blank is an error
    before any cell's, and an error names the first line of its row, not
    the last."""
    path.write_bytes(data)
    frozen = _rank_outcome(frozen_read_rank_file, path)
    data = data.removeprefix(b"\xef\xbb\xbf")
    if not data:
        assert frozen == f"{path}: rank file needs class_id and score columns"
        return f"{path}:1: file is empty, expected a header row"
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        assert frozen == f"{path}: not UTF-8: {exc.reason}"
        line = len(re.findall(rb"\r\n?|\n", data[: exc.start])) + 1  # LF, CRLF or CR
        return f"{path}:{line}: not UTF-8: {exc.reason} (byte 0x{data[exc.start]:02x})"
    path.write_bytes(plain)
    frozen = _rank_outcome(frozen_read_rank_file, path)
    reader = csv.reader(io.StringIO(plain.decode("utf-8-sig"), newline=""))
    first, start = {}, 1  # the first line of the row that ends on a line
    for row in reader:
        if first and len(row) != len(header) and any(cell.strip() for cell in row):
            if len(row) > len(header):
                assert isinstance(frozen, str)  # the frozen reader rejected it too
            return f"{path}:{start}: expected {len(header)} columns, got {len(row)}"
        header = header if first else row
        first[reader.line_num], start = start, reader.line_num + 1
    if isinstance(frozen, str):
        at = re.match(rf"{re.escape(str(path))}:(\d+): ", frozen)
        if at:
            frozen = f"{path}:{first[int(at[1])]}: {frozen[at.end():]}"
    return frozen


@settings(max_examples=1500, deadline=None)
@given(_rank_csvs())
@example((b"class_id,score\nA,1\nB,2\n", b"class_id,score\nA,1\nB,2\n"))
@example((b"score,class_id,score\n1,A,3\n2,B,4\n",) * 2)  # the last score column
@example((b'class_id,score\n"A\nB",1\nB,nan\n',) * 2)  # a row of two lines
@example((b"class_id,score\nA,1\nA,2\n",) * 2)  # an id listed twice
def test_rank_csvs_match_frozen_reader(tmp_path_factory, file):
    """The same pairs in the same order, or the same error text, but for the
    changes :func:`_rank_expected` names (each pinned in
    ``test_cli.TestCorr``)."""
    data, plain = file
    path = tmp_path_factory.getbasetemp() / "r.csv"
    expected = _rank_expected(data, plain, path)
    path.write_bytes(data)
    assert _rank_outcome(cli._read_rank_file, path) == expected


def _oracle_tokenize(description):
    """``tokenize`` as it was: every letter run, short words and stopwords
    dropped before repeats collapse."""
    dropped = textnet._dropped_words()
    seen = dict.fromkeys(
        w
        for w in re.findall(r"[a-z]+", description.lower())
        if len(w) >= textnet.MIN_TOKEN_LENGTH and w not in dropped
    )
    return list(seen)


_TOKEN_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["a", "ab", "abc", "of", "the", "and", "nos", "Nec", "other", "graft",
                         "GRAFT", "x1y", "ab3cd", "abc9def", "3rd", "4th", "İ", "ǅa", "é"]),
        st.text("abcAB19 -", max_size=6),
    ),
    max_size=12,
).map(" ".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_TOKEN_TEXT, st.text(max_size=20)))
def test_tokenize_matches_filtered_letter_runs(description):
    """Words of three letters or more, deduplicated before the stopwords go:
    the same list as filtering every letter run."""
    assert textnet.tokenize(description) == _oracle_tokenize(description)
