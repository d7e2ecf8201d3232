"""Entropic complexity measures of a map, computed a corpus at a time.

Three per-map measures, all in bits:

* alphabet entropy: sum of the Shannon entropies of the columns of the
  map's padded code matrix (character-variation complexity);
* row entropy: log2 of the number of valid representations v of the source
  code (one stand-alone pick, or one full selection across a scenario's
  choice lists);
* the uncertainty-rate baseline log2(m) used by prior work for comparison.

:func:`score_maps` scores a whole :class:`~gementropy.gem_io.MapTable`: it
lays the padded code matrices of every scored map into one flat buffer,
calls the column kernel once and sums each map's columns; m, m0 and v come
from the table. It returns a :class:`ScoreTable` of columns, which
:func:`normalize_scores` turns into corpus z-scores (a :class:`ZScoreTable`).
Both tables read as sequences of :class:`MapScores` and
:class:`NormalizedScores` built on access; :func:`adjust_by_frequency` adds
the optional frequency-adjusted columns to a :class:`ZScoreTable`. Plus
single-map helpers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateMeasureError, EmptyMapError
from .gem_io import (
    ALPHABET,
    MAX_CODE,
    PAD_CHAR,
    CodeMatrix,
    MapRecord,
    MapTable,
    RowTable,
    encode_codes,
    offsets,
)

# Finite positive per-position weights, one per matrix column.
WeightVector = Sequence[float]


@dataclass(frozen=True)
class MapScores:
    """Raw entropic measures of one map."""

    source: str
    m: int
    m0: int
    v: int
    h_a: float
    h_b: float
    ur: float
    h_a_weighted: float | None = None


@dataclass(frozen=True)
class NormalizedScores:
    """Corpus-normalized z-scores of one map, optionally frequency-adjusted."""

    source: str
    z_alpha: float
    z_beta: float
    z_ur: float
    adjusted_z_alpha: float | None = None
    adjusted_z_beta: float | None = None
    adjusted_z_ur: float | None = None


class _Columns(RowTable):
    """A dataclass of one array per leading field of the row type ``_type``
    (None for an absent optional field), read as rows of ``_type``."""

    _type: type

    def __len__(self) -> int:
        return len(self.source)

    def _rows(self, part: slice):
        columns = [getattr(self, f.name) for f in fields(self)]
        return itertools.starmap(
            self._type,
            zip(*(itertools.repeat(None) if c is None else c[part].tolist() for c in columns)),
        )


@dataclass(eq=False, repr=False)
class ScoreTable(_Columns):
    """Raw measures of the scored maps, one array per :class:`MapScores`
    field; ``v`` is int64, or Python ints when a count exceeds int64."""

    _type = MapScores
    source: np.ndarray
    m: np.ndarray
    m0: np.ndarray
    v: np.ndarray
    h_a: np.ndarray
    h_b: np.ndarray
    ur: np.ndarray
    h_a_weighted: np.ndarray | None = None


@dataclass(eq=False, repr=False)
class ZScoreTable(_Columns):
    """Corpus z-scores, one array per :class:`NormalizedScores` field; the
    adjusted ones come from :func:`adjust_by_frequency` (None: no frequency)."""

    _type = NormalizedScores
    source: np.ndarray
    z_alpha: np.ndarray
    z_beta: np.ndarray
    z_ur: np.ndarray
    adjusted_z_alpha: np.ndarray | None = None
    adjusted_z_beta: np.ndarray | None = None
    adjusted_z_ur: np.ndarray | None = None


def score_column(scores: Sequence, name: str) -> np.ndarray:
    """One field of every score: the array of a :class:`ScoreTable` or
    :class:`ZScoreTable`, or gathered from a sequence of score objects."""
    if isinstance(scores, _Columns):
        return getattr(scores, name)
    return np.array([getattr(s, name) for s in scores])


def column_entropy(column: Sequence[str]) -> float:
    """Shannon entropy (bits) of one column of alphabets.

    Probabilities are empirical frequencies count/m with 0*log(0) = 0.
    """
    chars = list(column)
    if not chars:
        raise ValueError("column is empty")
    valid = set(ALPHABET + PAD_CHAR)
    for c in chars:
        if c not in valid:
            raise ValueError(f"alphabet {c!r} outside [A-Z0-9] and pad")
    codes = encode_codes(chars, 1)
    return float(_kernels.matrix_column_entropies(codes)[0])


def alphabet_entropy(matrix: CodeMatrix) -> float:
    """Sum of column entropies over all n columns of the matrix."""
    return float(np.sum(_kernels.matrix_column_entropies(matrix.codes)))


def _check_weights(weights: WeightVector, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != n:
        raise ValueError(f"expected {n} weights, got {w.shape}")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("weights must all be finite and positive")
    return w


def weighted_alphabet_entropy(matrix: CodeMatrix, weights: WeightVector) -> float:
    """Weighted average of the column entropies: sum(w_j * H_j) / sum(w_j)."""
    w = _check_weights(weights, matrix.n)
    cols = _kernels.matrix_column_entropies(matrix.codes)
    return float(np.dot(w, cols) / np.sum(w))


def count_valid_representations(record: MapRecord) -> int:
    """Number of valid representations of the source code.

    Each stand-alone code counts once; each scenario contributes the product
    of its choice-list sizes. Stand-alone-only maps give v = m0 = m; no-match
    maps give 0.
    """
    if record.m == 0:
        return 0
    v = record.m0
    for scenario in record.scenarios:
        product = 1
        for choice_list in scenario:
            product *= len(choice_list)
        v += product
    return v


def row_entropy(v: int) -> float:
    """log2 of the number of valid representations; undefined for v = 0."""
    if v < 1:
        raise EmptyMapError(message=f"row entropy undefined for v = {v}")
    return math.log2(v)


def ur_measure(m: int) -> float:
    """Prior-work uncertainty-rate baseline log2(m); undefined for m = 0."""
    if m < 1:
        raise EmptyMapError(message=f"UR undefined for m = {m}")
    return math.log2(m)


def score_map(record: MapRecord, weights: WeightVector | None = None) -> MapScores:
    """All raw measures of one map (:func:`score_maps` on a batch of one).
    Raises for no-match maps."""
    scores, _ = score_maps([record], weights)
    if not scores:
        raise EmptyMapError(record.source)
    return scores[0]


def score_maps(
    records: Sequence[MapRecord], weights: WeightVector | None = None
) -> tuple[ScoreTable, MapTable]:
    """Score every map of a corpus in one batched kernel pass.

    ``records`` is a :class:`MapTable` or any sequence of records. Returns
    (scores for maps with m >= 1, excluded no-match maps). When ``weights``
    is given it must cover the widest map; each map uses its first n
    positions.
    """
    maps = records if isinstance(records, MapTable) else MapTable.from_records(records)
    scored = maps.m > 0
    excluded = maps.select(~scored)
    maps = maps.select(scored)
    heights = maps.m
    widths = np.maximum.reduceat(
        maps.lines.target_len[maps.rows], maps.starts[:-1]
    ).astype(np.int64)

    if weights is not None:
        wfull = np.asarray(weights, dtype=np.float64)
        if wfull.ndim != 1 or not np.all(np.isfinite(wfull) & (wfull > 0)):
            raise ValueError("weights must be a flat list of finite positive numbers")
        widest = int(widths.max(initial=0))
        if wfull.shape[0] < widest:
            raise ValueError(
                f"{wfull.shape[0]} weights cannot cover the widest map "
                f"({widest} positions)"
            )

    # each map's rows cut to its own width, row-major
    targets = maps.lines.targets[maps.rows]
    flat = targets[np.arange(MAX_CODE) < np.repeat(widths, heights)[:, None]]
    cols = _kernels.batch_column_entropies(flat, heights, widths)
    col_starts = offsets(widths)[:-1]
    h_a = np.add.reduceat(cols, col_starts)

    h_a_weighted = None
    if weights is not None:
        flat_w = wfull[np.arange(len(cols)) - np.repeat(col_starts, widths)]
        h_a_weighted = np.add.reduceat(cols * flat_w, col_starts) / np.add.reduceat(
            flat_w, col_starts
        )

    scores = ScoreTable(
        source=maps.source,
        m=heights,
        m0=maps.m0,
        v=maps.v,
        h_a=h_a,
        # v >= 1 and m >= 1 for every scored map
        h_b=np.array(list(map(math.log2, maps.v.tolist())), dtype=np.float64),
        ur=np.array(list(map(math.log2, heights.tolist())), dtype=np.float64),
        h_a_weighted=h_a_weighted,
    )
    return scores, excluded


_MEASURES = (("h_a", "z_alpha"), ("h_b", "z_beta"), ("ur", "z_ur"))


def normalize_scores(
    scores: Sequence[MapScores], denominator: str = "std"
) -> ZScoreTable:
    """Center each measure over the corpus and divide by its spread.

    ``scores`` is a :class:`ScoreTable` or any sequence of
    :class:`MapScores`. ``denominator`` is ``"std"`` (sample standard
    deviation, n-1) or ``"variance"`` (sample variance). Excluded maps must
    already be removed; a constant measure raises DegenerateMeasureError.
    """
    if denominator not in ("std", "variance"):
        raise ValueError(f"denominator must be 'std' or 'variance', got {denominator!r}")
    if len(scores) < 2:
        raise ValueError("normalization needs at least 2 scored maps")
    z_columns = {}
    for field, z_name in _MEASURES:
        values = np.array(score_column(scores, field), dtype=np.float64)
        var = float(np.var(values, ddof=1))
        denom = math.sqrt(var) if denominator == "std" else var
        if denom == 0.0:
            raise DegenerateMeasureError(field)
        z_columns[z_name] = (values - values.mean()) / denom
    return ZScoreTable(source=score_column(scores, "source"), **z_columns)


def adjust_by_frequency(
    z: NormalizedScores | ZScoreTable, p: float | Mapping[str, float]
) -> NormalizedScores | ZScoreTable:
    """Scale z-scores by the probability, in [0, 1], of each map's concept.

    ``z`` is a :class:`NormalizedScores` and ``p`` its probability, or a
    :class:`ZScoreTable` and ``p`` maps sources to probabilities; maps it
    lacks keep None adjusted scores (the table is returned as is if all do).
    """
    if one := isinstance(z, NormalizedScores):
        p = {z.source: p}
        z = ZScoreTable(*(np.array([v]) for v in (z.source, z.z_alpha, z.z_beta, z.z_ur)))
    covered = np.array([source in p for source in z.source.tolist()])
    if not covered.any():
        return z
    probs = np.array([p[source] for source in z.source[covered].tolist()], dtype=np.float64)
    bad = ~((probs >= 0.0) & (probs <= 1.0))
    if bad.any():
        raise ValueError(f"probability {probs[bad][0]} outside [0, 1]")
    adjusted = {}
    for name in ("z_alpha", "z_beta", "z_ur"):
        column = np.full(len(z), None, dtype=object)
        column[covered] = (getattr(z, name)[covered] * probs).tolist()
        adjusted[f"adjusted_{name}"] = column
    table = replace(z, **adjusted)
    return table[0] if one else table
