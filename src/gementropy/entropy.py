"""Entropic complexity measures of a map, computed a corpus at a time.

Three per-map measures, all in bits:

* alphabet entropy: sum of the Shannon entropies of the columns of the
  map's padded code matrix (character-variation complexity);
* row entropy: log2 of the number of valid representations v of the source
  code (one stand-alone pick, or one full selection across a scenario's
  choice lists);
* the uncertainty-rate baseline log2(m) used by prior work for comparison.

:func:`column_entropies` computes the columns of the padded code matrices
of the maps of a :class:`~gementropy.gem_io.MapTable`. A one-row map's
columns are +0.0, and a two-row map's column is 1.0 where its two rows
differ and +0.0 where they agree: these are the kernel's values bit for bit,
since their terms (0.0 and -0.5) sum exactly. The widths, each map's kind by
height and the two-row columns are computed once per table; only the maps of
three or more rows are laid into a flat buffer for the column kernel, one
gather and one call per block of ``_KERNEL_BLOCK`` maps. :func:`score_maps`
splits the scored maps from the excluded ones with one row mask and scores
them: it sums each scored map's columns, and m, m0 and v come from the
table. It returns a :class:`ScoreTable` of columns, which
:func:`normalize_scores` turns into corpus z-scores (a
:class:`ZScoreTable`). Both tables read as sequences of
:class:`MapScores` and :class:`NormalizedScores` built on access;
:func:`adjust_by_frequency` adds the optional frequency-adjusted columns to
a :class:`ZScoreTable`. A single map is scored as a table of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateMeasureError
from .gem_io import MAX_CODE, MapTable, RowTable, offsets

# Finite positive per-position weights, one per matrix column.
WeightVector = Sequence[float]

# Maps per kernel call: the kernel's working arrays take about 45 bytes per
# cell of the maps of three or more rows, 4.3 MB for narrow-score's blocks,
# where its 67,719 scored maps in one call took 25 MB (tracemalloc peaks of
# column_entropies).
_KERNEL_BLOCK = 8192


class MapScores(NamedTuple):
    """Raw entropic measures of one map."""

    source: str
    m: int
    m0: int
    v: int
    h_a: float
    h_b: float
    ur: float
    h_a_weighted: float | None = None


class NormalizedScores(NamedTuple):
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


def column_entropies(maps: MapTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-column entropies (bits) of every map's padded code matrix, and
    each map's width n.

    Map k's matrix has its m target codes as rows, in entry order
    (duplicates kept), right-padded with the pad, which counts as an
    ordinary symbol, to n, the longest code of the map. Its columns are
    ``cols[sum(widths[:k]):][:widths[k]]``. Every map must have m >= 1.

    Only maps of three or more rows reach the kernel. The others have
    closed forms that the kernel would give bit for bit: a one-row map's
    columns are ``0.0 - 1.0 * log2(1.0)`` = +0.0, and a two-row map's column
    is +0.0 where its two padded rows agree and ``0.0 - (-0.5 + -0.5)`` =
    1.0 where they differ, which their bytes tell without the kernel's
    symbols (``_kernels.SYMBOL``). Once per table: the widths, each map's
    kind by height over its rows and columns, and the two-row columns. Once
    per block of ``_KERNEL_BLOCK`` maps: the gather of its cells of maps of
    three or more rows and one kernel call, an empty batch included. A
    column's entropy depends on its own cells alone, so the blocks give the
    values of one call bit for bit.
    """
    widths = np.maximum.reduceat(
        maps.lines.target_len[maps.rows], maps.starts[:-1]
    ).astype(np.int64)
    col_starts = offsets(widths)
    cols = np.zeros(int(col_starts[-1]))
    words = maps.lines.targets.view("<u8")[:, 0]  # a padded row as one word
    position = np.arange(MAX_CODE)
    # each map's kind by its height (3: three rows or more), over its rows and columns
    kind = np.minimum(maps.m, 3).astype(np.uint8)
    row_kind, col_kind = np.repeat(kind, maps.m), np.repeat(kind, widths)
    # two-row maps: rows in pairs, bytes that differ, cut to the map's width
    pairs = words[maps.rows[row_kind == 2]].view(np.uint8).reshape(-1, 2, MAX_CODE)
    cols[col_kind == 2] = (pairs[:, 0] != pairs[:, 1])[position < widths[kind == 2][:, None]]
    del pairs
    # maps of three or more rows, a block of maps at a time: their rows, each
    # cut to its map's width, row-major, as the kernel's symbols
    for k in range(0, len(maps), _KERNEL_BLOCK):
        end = min(k + _KERNEL_BLOCK, len(maps))
        r, c = slice(maps.starts[k], maps.starts[end]), slice(col_starts[k], col_starts[end])
        many = kind[k:end] == 3
        heights, many_widths = maps.m[k:end][many], widths[k:end][many]
        cut = position < np.repeat(many_widths, heights)[:, None]
        rows = maps.rows[r][row_kind[r] == 3]
        flat = _kernels.SYMBOL[words[rows].view(np.uint8).reshape(-1, MAX_CODE)[cut]]
        del rows, cut  # before the kernel's arrays
        cols[c][col_kind[c] == 3] = _kernels.batch_column_entropies(flat, heights, many_widths)
    return cols, widths


def _log2(counts: np.ndarray) -> np.ndarray:
    """``math.log2`` of each count (Python ints past int64 included), taken
    once per distinct count."""
    distinct, inverse = np.unique(counts, return_inverse=True)
    return np.array(list(map(math.log2, distinct.tolist())), dtype=np.float64)[inverse]


def score_maps(
    maps: MapTable, weights: WeightVector | None = None
) -> tuple[ScoreTable, MapTable]:
    """Score every map of a corpus in one batched kernel pass.

    Returns (scores for maps with m >= 1, excluded no-match maps). When
    ``weights`` is given it must cover the widest map; each map uses its
    first n positions.
    """
    maps, excluded = maps.split(maps.m > 0)
    cols, widths = column_entropies(maps)

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

    col_starts = offsets(widths)[:-1]
    h_a = np.add.reduceat(cols, col_starts)

    h_a_weighted = None
    if weights is not None:
        flat_w = wfull[np.arange(len(cols)) - np.repeat(col_starts, widths)]
        h_a_weighted = np.add.reduceat(cols * flat_w, col_starts) / np.add.reduceat(
            flat_w, col_starts
        )
    del cols  # before the logarithms' arrays

    scores = ScoreTable(
        source=maps.source,
        m=maps.m,
        m0=maps.m0,
        v=maps.v,
        h_a=h_a,
        # v >= 1 and m >= 1 for every scored map
        h_b=_log2(maps.v),
        ur=_log2(maps.m),
        h_a_weighted=h_a_weighted,
    )
    return scores, excluded


_MEASURES = (("h_a", "z_alpha"), ("h_b", "z_beta"), ("ur", "z_ur"))


def normalize_scores(scores: ScoreTable, denominator: str = "std") -> ZScoreTable:
    """Center each measure over the corpus and divide by its spread.

    ``denominator`` is ``"std"`` (sample standard deviation, n-1) or
    ``"variance"`` (sample variance). Excluded maps must already be removed;
    a constant measure raises DegenerateMeasureError.
    """
    if denominator not in ("std", "variance"):
        raise ValueError(f"denominator must be 'std' or 'variance', got {denominator!r}")
    if len(scores) < 2:
        raise ValueError("normalization needs at least 2 scored maps")
    z_columns = {}
    for field, z_name in _MEASURES:
        values = getattr(scores, field)
        var = float(np.var(values, ddof=1))
        denom = math.sqrt(var) if denominator == "std" else var
        if denom == 0.0:
            raise DegenerateMeasureError(field)
        z_columns[z_name] = (values - values.mean()) / denom
    return ZScoreTable(source=scores.source, **z_columns)


def adjust_by_frequency(z: ZScoreTable, p: Mapping[str, float]) -> ZScoreTable:
    """Scale z-scores by the probability, in [0, 1], of each map's concept.

    ``p`` maps sources to probabilities; maps it lacks keep None adjusted
    scores (the table is returned as is if all do).
    """
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
    return replace(z, **adjusted)
