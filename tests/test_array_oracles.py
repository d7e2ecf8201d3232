"""Differential checks of the vectorized paths against the loops they
replaced.

The oracles below are frozen as they were before each rewrite: the byte
matrices of the crosswalk reader's ``_read_block``, the little-endian keys
and ``S8`` source cast of ``group_maps``, the per-code range scan of
``assign_classes``, the prefix-truncation overlap test of ``load_class_defs``
and a pairwise loop over its ranges, the per-map ``aggregate_by_class`` loop
and its per-class member gather into ``ClassScore`` rows, the row sort of
``rank_classes`` and its later Python sort over a class table, its
``average_ranks``, the n x n pair signs of the Kendall tau-b, the dense
power iteration of ``eigenvector_centrality``, the dict word graph of the
text network (its ``combinations`` loop, depth-first component search,
edge-list centrality kernel and report rows) and the ``np.unique`` of its
pair keys, the row sort of ``detect_outliers``, the numbered per-row reader
of ``load_descriptions`` and the per-code match of its one-pass reader, the
filtered letter runs of ``tokenize``, and the ``np.unique`` counts and
searchsorted dense rows of the entropy kernel, the ``column_entropies``
that sent every map through that kernel, and the fancy-indexed tables of
the crosswalk reader's ``_field``. Parsed and grouped columns,
crosswalk errors, class assignment, range checks, class sums, class orders
and average ranks, graphs, components, reports, outlier lists, description
tables and token lists must match exactly, and taus, centralities and
column entropies bit for bit; against the dense power iteration, whose
sums run in another order, centralities match within 1e-12.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import re
import tracemalloc
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gementropy import _kernels, analysis, entropy, gem_io, textnet
from gementropy.analysis import OUTLIER_MEASURES, RANK_MEASURES, ClassTable, RankTable
from gementropy.entropy import NormalizedScores, ZScoreTable
from gementropy.errors import ConvergenceError, GemError, StructuralError
from gementropy.gem_io import MAX_CODE, N_SYMBOLS, UNCLASSIFIED

from conftest import (
    BAD_LINE,
    LINE_BREAK,
    class_rows,
    class_table,
    crosswalk_text,
    gem_line,
    make_map_entries,
    outlier_pairs,
    parsed_columns,
    table_of,
    word_graph,
)

# ---------------------------------------------------------------------------
# Frozen oracles


_ORACLE_IS_SPACE = np.zeros(256, dtype=bool)
_ORACLE_IS_SPACE[list(b" \t\n\r\x0b\x0c")] = True


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
    src_sym = gem_io._CODE_SYMBOL[src_raw]
    tgt_len = end[t + 1] - start[t + 1]
    tgt_raw, tgt_in = _oracle_field(buf, start[t + 1], tgt_len, gem_io.MAX_CODE)
    tgt_sym = gem_io._CODE_SYMBOL[tgt_raw]
    flag_raw, _ = _oracle_field(buf, start[t + 2], end[t + 2] - start[t + 2], 5)
    digits = flag_raw - np.uint8(48)
    lines = gem_io.GemLines(
        sources=np.where(src_in, gem_io._SYMBOL_BYTE[src_sym], np.uint8(0)),
        targets=np.where(tgt_in, tgt_sym, np.uint8(gem_io.PAD_SYMBOL)),
        target_len=tgt_len.astype(np.uint8),
        flags=digits,
        line=line_index[n_tokens == 3] + 1,
    )

    approximate, no_map, comb, scenario, choice = digits.T
    bad = (
        (end[t] - start[t] > gem_io.MAX_CODE)
        | np.any(src_in & (src_sym == 255), axis=1)
        | (tgt_len > gem_io.MAX_CODE)
        | np.any(tgt_in & (tgt_sym == 255), axis=1)
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
        gem_io._parse_line(data[lo:hi], filename, line)
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
        gem_io._make_record(str(source[k]), lines._rows(rows[map_id[rows] == k]))
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


def _oracle_load_class_defs(source):
    """(ids, labels) of ``load_class_defs``, comparing every pair of ranges
    of two classes; of the overlapping pairs it names the one the sweep
    does: the first range in (low, high, class, line) order that overlaps
    an earlier range of another class, and of those earlier ranges the one
    reaching highest, the last of several."""
    filename, rows = gem_io._read_csv(source, None, ("low", "high", "label"))
    checked = []
    for line_number, (low, high, label) in rows:
        low = gem_io._validate_code(low, "range low", filename, line_number)
        high = gem_io._validate_code(high, "range high", filename, line_number)
        interval = gem_io._range_interval(low, high)
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
        (*gem_io._range_interval(low, high), index[label], line, (low, high))
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
    return [c for c, _, _ in classes], [label for _, label, _ in classes]


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
    for z in normalized:
        class_id = _oracle_assign_class(z.source, classes)
        bucket = buckets.setdefault(class_id, [class_id, labels[class_id], 0.0, 0.0, 0.0, []])
        bucket[2] += z.z_alpha
        bucket[3] += z.z_beta
        bucket[4] += z.z_ur
        bucket[5].append((z.source, z.z_alpha, z.z_beta, z.z_ur))
    return [tuple(b) for b in buckets.values()]


@dataclass
class ClassScore:
    """Summed z-scores of every map assigned to one clinical class."""

    class_id: str
    label: str
    sum_z_alpha: float = 0.0
    sum_z_beta: float = 0.0
    sum_z_ur: float = 0.0
    # (source, z_alpha, z_beta, z_ur) per member map, for box-plot exports
    members: list[tuple[str, float, float, float]] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.sum_z_alpha + self.sum_z_beta + self.sum_z_ur

    def value(self, measure: str) -> float:
        if measure == "total":
            return self.total
        return getattr(self, f"sum_{measure}")


def _oracle_rank_classes(scores, measure):
    """(class_id, score, display rank 1..k) rows, highest first; display
    ties break by id."""
    ordered = sorted(scores, key=lambda cs: (-cs.value(measure), cs.class_id))
    return tuple(
        (cs.class_id, cs.value(measure), rank)
        for rank, cs in enumerate(ordered, start=1)
    )


def _oracle_rank_order(classes, measure):
    """The class order of ``rank_classes`` on a ``ClassTable`` before its
    lexsort: one Python sort by (-value, id)."""
    if measure not in RANK_MEASURES:
        raise ValueError(f"measure must be one of {RANK_MEASURES}, got {measure!r}")
    if not len(classes):
        raise ValueError("no class scores to rank")
    values, ids = classes.value(measure).tolist(), classes.ids
    return sorted(range(len(ids)), key=lambda k: (-values[k], ids[k]))


def _oracle_average_ranks(rows):
    """Ranks with tied scores sharing the average of their positions."""
    out = {}
    i = 0
    while i < len(rows):
        j = i
        while j < len(rows) and rows[j][1] == rows[i][1]:
            j += 1
        avg = (i + 1 + j) / 2.0
        for k in range(i, j):
            out[rows[k][0]] = avg
        i = j
    return out


def _oracle_aggregate_per_class(normalized, table):
    """``aggregate_by_class`` gathering each class's members with its own
    ``np.flatnonzero(index == k)``."""
    sources = normalized.source
    zs = [normalized.z_alpha, normalized.z_beta, normalized.z_ur]
    index = gem_io.assign_classes(sources.tolist(), table)
    sums = [np.bincount(index, weights=z, minlength=len(table) + 1).tolist() for z in zs]
    ids = table.ids + [UNCLASSIFIED]
    labels = table.labels + ["Unclassified"]
    rows = list(zip(sources.tolist(), *(z.tolist() for z in zs)))
    present, first = np.unique(index, return_index=True)
    out = []
    for k in present[np.argsort(first)].tolist():
        members = [rows[i] for i in np.flatnonzero(index == k).tolist()]
        out.append(ClassScore(ids[k], labels[k], *(s[k] for s in sums), members))
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
    return sorted(nodes.items(), key=lambda item: (-item[1], item[0]))


def _oracle_edge_rows(edges):
    return [(a, b, w) for (a, b), w in sorted(edges.items())]


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


def _oracle_load_descriptions(source, filename=None):
    filename, rows = gem_io._read_csv(source, filename, ("code", "description"))
    table = {}
    for line_number, (code, description) in rows:
        code = gem_io._validate_code(code, "described", filename, line_number)
        if code in table:
            raise gem_io.ParseError(f"duplicate code {code}", filename, line_number)
        table[code] = description
    return table


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
        flat = maps.lines.targets[rows][cut]
        cols.append(_kernels.batch_column_entropies(flat, heights, block_widths))
    return np.concatenate(cols), widths


def _oracle_fancy_field(words, length, table, pad=np.uint64(0)):
    """``gem_io._field`` fancy-indexing the table, as a numpy array, with the
    (n, 8) array of the words' bytes."""
    table = np.frombuffer(table, dtype=np.uint8)
    mask = gem_io._LOW[np.minimum(length, MAX_CODE)]
    coded = table[gem_io._bytes(words)].view("<u8")[:, 0] & mask
    return gem_io._bytes(coded | (pad & ~mask)), (coded & gem_io._HIGH_BITS) != 0


# ---------------------------------------------------------------------------
# Class assignment and class sums

_UPPER = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_bound = st.text(_UPPER, min_size=1, max_size=8)
# the bounds of the paper's obstetrics chapter: a letter in the last place
_O9A = ("O00", "O9A")


def _class_csv(rows):
    return io.StringIO("low,high,label\n" + "".join(f"{lo},{hi},{lab}\n" for lo, hi, lab in rows))


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
    classes, loaded, _, table = case
    expected = _oracle_aggregate(list(table), classes)
    assert class_rows(analysis.aggregate_by_class(table, loaded), table) == expected


@settings(max_examples=200, deadline=None)
@given(_classes_and_scores())
def test_aggregate_matches_per_class_gather(case):
    """Members in map order and sums bit for bit (``repr`` tells -0.0 from
    0.0)."""
    _, loaded, _, table = case
    expected = _oracle_aggregate_per_class(table, loaded)
    got = class_rows(analysis.aggregate_by_class(table, loaded), table)
    assert repr([ClassScore(*row) for row in got]) == repr(expected)


# few distinct sums, so ties are common; 0.0 and -0.0 tie
_sum = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]), st.floats(-1e6, 1e6))


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.text("ABab", min_size=1, max_size=3), st.tuples(_sum, _sum, _sum)),
    st.sampled_from(RANK_MEASURES),
)
def test_rank_matches_row_sort(sums, measure):
    """The same class order, scores (signs too) and average ranks as the row
    sort, the ``total`` measure included; no classes is an error."""
    if not sums:
        with pytest.raises(ValueError, match="no class scores to rank"):
            analysis.rank_classes(class_table(sums), measure)
        return
    expected = _oracle_rank_classes([ClassScore(c, c, *s) for c, s in sums.items()], measure)
    classes = class_table(sums)
    order = analysis.rank_classes(classes, measure)
    ids = [classes.ids[k] for k in order]
    scores = classes.value(measure)[order].tolist()
    assert repr(list(zip(ids, scores, range(1, len(ids) + 1)))) == repr(list(expected))
    assert dict(zip(ids, analysis.average_ranks(scores))) == _oracle_average_ranks(expected)


# ids that sort in every way against each other: prefixes, case, a NUL,
# non-ASCII; repeated ids keep their table order
_class_ids = st.lists(st.sampled_from(["a", "a\x00", "ab", "B", "b", "é", ""]) | st.text(max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.data(), _class_ids, st.sampled_from(RANK_MEASURES))
@example(data=None, ids=["b", "a", "c", "a"], measure="total").via("ties and -0.0")
def test_rank_lexsort_matches_sorted(data, ids, measure):
    """The lexsort of ``rank_classes`` orders a class table as the Python
    sort it replaced: ties, -0.0 against 0.0 and repeated ids included."""
    if data is None:  # 0.0 against -0.0, both ways, and a tie between different ids
        sums = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [1.0, -1.0, 0.0], [0.0, -0.0, 0.0]])
    else:
        sums = np.array(data.draw(st.lists(st.tuples(_sum, _sum, _sum), min_size=len(ids),
                                           max_size=len(ids))), dtype=np.float64).reshape(-1, 3)
    classes = ClassTable(ids, ids, *sums.T, np.zeros(0, np.intp), np.zeros(len(ids) + 1, np.intp))
    try:
        expected = _oracle_rank_order(classes, measure)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            analysis.rank_classes(classes, measure)
        return
    assert analysis.rank_classes(classes, measure).tolist() == expected


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


def _class_defs_outcome(load, rows):
    try:
        result = load(_class_csv(rows))
    except GemError as err:
        return type(err), str(err)
    return result if isinstance(result, tuple) else (result.ids, result.labels)


@settings(max_examples=500, deadline=None)
@given(_class_tables())
@example([("ZZZZZZZY", "ZZZZZZZZ", "A"), ("ZZZZZZZZ", "ZZZZZZZZ", "B")])  # low bound = high bound
@example([("10", "19", "A"), ("12", "13", "A"), ("15", "15", "B")])  # past a range nested in one
@example([("10", "19", "A"), ("12", "19", "A"), ("15", "15", "B")])  # two ranges reach the top
@example([("10", "60", "A"), ("50", "55", "B"), ("30", "35", "C")])  # not the first class pair
def test_class_overlap_sweep_matches_pairwise_loop(rows):
    """The same classes, or the same error naming the same pair of ranges
    and line."""
    expected = _class_defs_outcome(_oracle_load_class_defs, rows)
    assert _class_defs_outcome(gem_io.load_class_defs, rows) == expected


# ---------------------------------------------------------------------------
# Crosswalk parse and grouping


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
    data = b"\xef\xbb\xbf" * bom + (head + "".join(bad) + tail).encode()
    for block in (1, 7, 64, gem_io._PARSE_BLOCK):
        with mock.patch.object(gem_io, "_read_block", _oracle_read_block):
            expected = parsed_columns(data, block)
        assert parsed_columns(data, block) == expected


_FIELD_TABLES = {
    "source": (gem_io._SOURCE_BYTE, np.uint64(0)),
    "target": (gem_io._TARGET_BYTE, gem_io._PAD_WORD),
    "flag": (gem_io._DIGIT_BYTE, np.uint64(0)),
}


def _fields_match(words, length, name):
    table, pad = _FIELD_TABLES[name]
    coded, bad = gem_io._field(words, length, table, pad)
    want_coded, want_bad = _oracle_fancy_field(words, length, table, pad)
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


@settings(max_examples=300, deadline=None)
@given(_crosswalk_lines())
def test_group_matches_little_endian_keys(lines):
    """The same maps in the same order, or the same error."""
    lines = gem_io.parse_gem_file("\n".join(lines).encode())
    assert _grouped(gem_io.group_maps, lines) == _grouped(_oracle_group_maps, lines)


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


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.integers(0, 40), st.sampled_from(_KEY_TYPE_EDGES)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3, 9, 40]),
)
@example(0, 0, 1)  # the empty batch
@example(_KEY_TYPE_EDGES[1], 1, 3)  # uint8 keys
@example(_KEY_TYPE_EDGES[2], 2, 3)  # uint16 keys
@example(_KEY_TYPE_EDGES[4], 3, 3)  # uint16 keys
@example(_KEY_TYPE_EDGES[5], 4, 3)  # uint32 keys
def test_kernel_matches_unique_counts(n_cols, seed, max_height):
    """Every column entropy bit-equal to the ``np.unique`` kernel."""
    flat, heights, widths = _kernel_batch(n_cols, seed, max_height)
    got = _kernels.batch_column_entropies(flat, heights, widths)
    assert got.tobytes() == _oracle_column_entropies(flat, heights, widths).tobytes()


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
def test_column_entropies_match_kernel_on_every_map(corpus, block):
    """One- and two-row maps written in closed form, maps of three or more
    rows through the kernel: the columns and widths of sending every map
    through the kernel, bit for bit, in blocks of 1-3 maps and the default."""
    text = "".join(f"S{i} {target} 10000\n" for i, m in enumerate(corpus) for target in m)
    maps = gem_io.group_maps(gem_io.parse_gem_file(text.encode()))
    with mock.patch.object(entropy, "_KERNEL_BLOCK", block):
        cols, widths = entropy.column_entropies(maps)
        want_cols, want_widths = _oracle_map_column_entropies(maps)
    assert cols.tobytes() == want_cols.tobytes()
    assert widths.tobytes() == want_widths.tobytes()


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
    rows = textnet.edge_rows(graph)
    assert textnet.word_frequencies(graph) == _oracle_word_frequencies(nodes)
    assert rows == _oracle_edge_rows(edges)
    assert len(graph.edges) == len(edges)
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
# Description files

_BAD_CODES = ["A1\r\nB2", "ABCDEFGHI", "A1\nB2", "A1\rB2", "A1 B2", "", "NODX", "é1", "A-1"]
_descriptions = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['a "quoted" one', "x,y", "line\nbreak", "cr\rhere", "  padded  ", ""]),
)
_INSERTS = [b",", b'"', b"\r", b"\n", b"\x00", b"\xff", b" "]


@st.composite
def _description_files(draw):
    """A `code,description` file, mostly well formed, then mutated: bytes
    inserted, lines dropped, duplicated or blanked, a BOM prefixed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    headers = [["code", "description"]] * 3 + [[" Code", "DESCRIPTION "], ["code", "desc"]]
    writer.writerow(draw(st.sampled_from(headers)))
    codes = st.text("AB019ab", min_size=1, max_size=4)
    codes = draw(st.lists(codes, max_size=10, unique_by=str.upper))
    if codes and draw(st.booleans()):
        codes[draw(st.integers(0, len(codes) - 1))] = draw(st.sampled_from(_BAD_CODES))
    codes = [f" {c} " if draw(st.integers(0, 4)) == 0 else c for c in codes]
    writer.writerows((code, draw(_descriptions)) for code in codes)
    lines = buf.getvalue().encode("utf-8").splitlines(keepends=True)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["insert", "drop", "duplicate", "blank", "column"]))
        if op == "insert":
            line = lines[at] if at < len(lines) else b""
            cut = draw(st.integers(0, len(line)))
            lines[at : at + 1] = [line[:cut] + draw(st.sampled_from(_INSERTS)) + line[cut:]]
        elif op == "blank":
            lines.insert(at, draw(st.sampled_from([b"\n", b",\n", b" , \n", b" \n"])))
        elif at < len(lines):
            lines[at : at + 1] = {
                "drop": [],
                "duplicate": [lines[at]] * 2,
                "column": [lines[at].rstrip(b"\r\n") + b",extra\n"],
            }[op]
    data = b"".join(lines)
    return (b"\xef\xbb\xbf" + data) if draw(st.booleans()) else data


def _outcome(load, data):
    try:
        return list(load(data, "d.csv").items())
    except GemError as err:
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(_description_files())
def test_descriptions_match_numbered_reader(data):
    """The same table in the same order, or the same error type and text."""
    assert _outcome(gem_io.load_descriptions, data) == _outcome(_oracle_load_descriptions, data)


def _oracle_well_formed_descriptions(data):
    """``_well_formed_descriptions`` as it was: each code matched alone."""
    try:
        header, *rows = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
    except (ValueError, csv.Error):
        return None
    rows = [row for row in rows if row]
    if [h.strip().lower() for h in header] != ["code", "description"] or set(map(len, rows)) - {2}:
        return None
    codes = [row[0].strip() for row in rows]
    if not all(map(gem_io._CODE_RE.fullmatch, codes)):
        return None
    table = dict(zip(map(str.upper, codes), [row[1].strip() for row in rows]))
    return table if len(table) == len(codes) else None


# quoted newlines, blank, 9-character and non-ASCII codes among good ones
_ODD_CODES = ["A1\nB2", "A1\n", "\nB2", "AB\n\nCD", "\n", "", " ", "ABCDEFGHI", "ABCDEFGH",
              "é1", "A١", "ǅ", "A ", "a1\r", "\r\nA"]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.one_of(st.text("AB019ab", min_size=1, max_size=9), st.sampled_from(_ODD_CODES)),
             max_size=8),
    st.sampled_from(["\n", "\r\n"]),
)
def test_one_match_checks_codes_as_each_alone(codes, line_end):
    """One match over the joined codes takes the files and codes the per-code
    match took, and builds the same table."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=line_end)
    writer.writerow(["code", "description"])
    writer.writerows((code, f"d{i}") for i, code in enumerate(codes))
    data = buf.getvalue().encode("utf-8")
    got = gem_io._well_formed_descriptions(data)
    want = _oracle_well_formed_descriptions(data)
    assert (got and list(got.items())) == (want and list(want.items()))


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
