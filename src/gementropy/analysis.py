"""Corpus-level statistics and decision support.

Descriptive statistics over the raw measures, aggregation of z-scores into
clinical classes, class rankings per measure, Kendall tau-b agreement
between rankings, and outlier isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .entropy import NormalizedScores, score_column
from .gem_io import UNCLASSIFIED, ClassDef, assign_classes

RANK_MEASURES = ("z_alpha", "z_beta", "z_ur", "total")
OUTLIER_MEASURES = ("z_alpha", "z_beta", "z_ur")


@dataclass(frozen=True)
class Stats:
    """count/mean/std/min/quartiles/max of one measure, stats-table style."""

    count: int
    mean: float
    std: float
    min: float
    q25: float
    q50: float
    q75: float
    max: float


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


@dataclass(frozen=True)
class RankTable:
    """Classes ordered by one measure, best (highest score) first.

    ``rows`` holds (class_id, score, display rank 1..k); display ties break
    by class id, while correlation uses the scores themselves so tied
    classes stay tied.
    """

    measure: str
    rows: tuple[tuple[str, float, int], ...]

    def scores(self) -> dict[str, float]:
        return {class_id: score for class_id, score, _ in self.rows}

    def average_ranks(self) -> dict[str, float]:
        """Ranks with tied scores sharing the average of their positions."""
        out = {}
        i = 0
        rows = self.rows
        while i < len(rows):
            j = i
            while j < len(rows) and rows[j][1] == rows[i][1]:
                j += 1
            avg = (i + 1 + j) / 2.0
            for k in range(i, j):
                out[rows[k][0]] = avg
            i = j
        return out


def descriptive_stats(values: Sequence[float]) -> Stats:
    """Summary statistics: sample std (n-1), linear-interpolation quartiles."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty list")
    # sorting fixes the reduction order, making results permutation-invariant
    arr = np.sort(arr)
    q25, q50, q75 = np.quantile(arr, [0.25, 0.5, 0.75], method="linear")
    return Stats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        min=float(arr.min()),
        q25=float(q25),
        q50=float(q50),
        q75=float(q75),
        max=float(arr.max()),
    )


def aggregate_by_class(
    normalized: Sequence[NormalizedScores], defs: Sequence[ClassDef]
) -> list[ClassScore]:
    """Sum each map's z triple into its clinical class.

    ``normalized`` is a :class:`~gementropy.entropy.ZScoreTable` or any
    sequence of :class:`NormalizedScores`. Maps outside every range land in
    an ``unclassified`` bucket. Only classes with at least one member are
    returned, in first-member order; sums add in map order.
    """
    sources = score_column(normalized, "source")
    zs = [score_column(normalized, name) for name in ("z_alpha", "z_beta", "z_ur")]
    index = assign_classes(sources.tolist(), defs)
    sums = [np.bincount(index, weights=z, minlength=len(defs) + 1).tolist() for z in zs]
    ids = [d.id for d in defs] + [UNCLASSIFIED]
    labels = [d.label for d in defs] + ["Unclassified"]
    rows = list(zip(sources.tolist(), *(z.tolist() for z in zs)))
    present, first = np.unique(index, return_index=True)
    out = []
    for k in present[np.argsort(first)].tolist():
        members = [rows[i] for i in np.flatnonzero(index == k).tolist()]
        out.append(ClassScore(ids[k], labels[k], *(s[k] for s in sums), members))
    return out


def rank_classes(scores: Sequence[ClassScore], measure: str) -> RankTable:
    """Order classes by one measure, highest first; display ties break by id."""
    if measure not in RANK_MEASURES:
        raise ValueError(f"measure must be one of {RANK_MEASURES}, got {measure!r}")
    if not scores:
        raise ValueError("no class scores to rank")
    ordered = sorted(scores, key=lambda cs: (-cs.value(measure), cs.class_id))
    rows = tuple(
        (cs.class_id, cs.value(measure), rank)
        for rank, cs in enumerate(ordered, start=1)
    )
    return RankTable(measure=measure, rows=rows)


def _tau_b(xs: np.ndarray, ys: np.ndarray) -> float:
    """Tau-b from vectorized pair signs.

    The single-sqrt denominator keeps identical and reversed tie-free
    rankings at exactly +/-1.0 (sqrt of a representable perfect square is
    exact), which successive divisions would lose to rounding.
    """
    n = xs.size
    upper = np.triu_indices(n, k=1)
    dx = np.sign(xs[:, None] - xs[None, :])[upper]
    dy = np.sign(ys[:, None] - ys[None, :])[upper]
    product = dx * dy
    concordant = int(np.sum(product > 0))
    discordant = int(np.sum(product < 0))
    not_tied_x = int(np.sum(dx != 0))
    not_tied_y = int(np.sum(dy != 0))
    if not_tied_x == 0 or not_tied_y == 0:
        raise ValueError("tau undefined: one ranking is constant")
    denom = math.sqrt(float(not_tied_x) * float(not_tied_y))
    return (concordant - discordant) / denom


def kendall_tau(rank_a: RankTable, rank_b: RankTable) -> float:
    """Tie-corrected Kendall tau-b between two rankings of the same classes."""
    a_scores = rank_a.scores()
    b_scores = rank_b.scores()
    if set(a_scores) != set(b_scores):
        diff = sorted(set(a_scores) ^ set(b_scores))
        raise ValueError(f"rankings cover different classes: {diff}")
    if len(a_scores) < 2:
        raise ValueError("need at least 2 classes to correlate")
    keys = sorted(a_scores)
    xs = np.array([a_scores[k] for k in keys], dtype=np.float64)
    ys = np.array([b_scores[k] for k in keys], dtype=np.float64)
    return _tau_b(xs, ys)


def detect_outliers(
    normalized: Sequence[NormalizedScores],
    measure: str,
    threshold: float | None = None,
    top_fraction: float | None = None,
) -> list[tuple[str, float]]:
    """Maps whose score strictly exceeds a threshold, highest first.

    ``normalized`` is a :class:`~gementropy.entropy.ZScoreTable` or any
    sequence of :class:`NormalizedScores`. In ``top_fraction`` mode the
    threshold is the smallest value keeping at most that fraction of maps,
    so at most floor(fraction * N) are returned (fewer under ties at the
    cut).
    """
    if (threshold is None) == (top_fraction is None):
        raise ValueError("supply exactly one of threshold or top_fraction")
    if measure not in OUTLIER_MEASURES:
        raise ValueError(f"measure must be one of {OUTLIER_MEASURES}, got {measure!r}")
    if not normalized:
        raise ValueError("no scores to scan for outliers")
    sources = score_column(normalized, "source").tolist()
    values = score_column(normalized, measure).tolist()
    scored = sorted(zip(sources, values), key=lambda pair: (-pair[1], pair[0]))
    if top_fraction is not None:
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError(f"top_fraction {top_fraction} outside (0, 1]")
        allowed = int(top_fraction * len(scored))
        if allowed >= len(scored):
            return scored
        threshold = scored[allowed][1]
    return [pair for pair in scored if pair[1] > threshold]
