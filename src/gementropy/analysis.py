"""Corpus-level statistics and decision support.

Descriptive statistics over the raw measures, aggregation of z-scores into
clinical classes, class rankings per measure, Kendall tau-b agreement
between rankings, and outlier isolation. Results are columns and indices:
``aggregate_by_class`` returns a :class:`ClassTable`, ``rank_classes`` the
order of its classes and ``detect_outliers`` the indices of the selected
maps, which the reports read from the z-score table they already hold.

Importing this module loads only the standard library: the four array
functions (``descriptive_stats``, ``aggregate_by_class``, ``rank_classes``
and ``detect_outliers``) import numpy and the scoring layers when they are
called, so ``gementropy corr`` runs without them. Kendall tau-b is Knight's
O(n log n) method in plain Python (W. R. Knight, JASA 61, 1966): sort the
(x, y) pairs, count the discordant pairs as the inversions of a bottom-up
merge sort of the y values, and count the x, y and joint ties from sorted
runs.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

    from .entropy import ZScoreTable
    from .gem_io import ClassRanges

RANK_MEASURES = ("z_alpha", "z_beta", "z_ur", "total")
OUTLIER_MEASURES = ("z_alpha", "z_beta", "z_ur")


class Stats(NamedTuple):
    """count/mean/std/min/quartiles/max of one measure, stats-table style."""

    count: int
    mean: float
    std: float
    min: float
    q25: float
    q50: float
    q75: float
    max: float


class ClassTable:
    """Summed z-scores of the maps of each clinical class that has any, in
    first-member order.

    ``ids`` and ``labels`` are lists (a ``<U`` array would drop trailing
    NULs) and the sums float64 arrays. ``members`` holds map indices, class
    by class and in map order within a class: class k's members are
    ``members[starts[k]:starts[k + 1]]``. Its length is the class count.

    Not a dataclass: ``dataclasses`` imports ``inspect``, which ``corr``,
    the one command that loads this module without numpy, would load only
    for this class, about 10 ms per process.
    """

    def __init__(
        self,
        ids: list[str],
        labels: list[str],
        sum_z_alpha: np.ndarray,
        sum_z_beta: np.ndarray,
        sum_z_ur: np.ndarray,
        members: np.ndarray,
        starts: np.ndarray,
    ):
        self.ids, self.labels = ids, labels
        self.sum_z_alpha, self.sum_z_beta, self.sum_z_ur = sum_z_alpha, sum_z_beta, sum_z_ur
        self.members, self.starts = members, starts

    def __len__(self) -> int:
        return len(self.ids)

    def value(self, measure: str) -> np.ndarray:
        """The class sums of one of ``RANK_MEASURES``; ``total`` adds the
        three."""
        if measure == "total":
            return self.sum_z_alpha + self.sum_z_beta + self.sum_z_ur
        return getattr(self, f"sum_{measure}")


class RankTable(NamedTuple):
    """One ranking for :func:`kendall_tau`: its name (its measure, or the
    file it was read from) and each class's score."""

    name: str
    scores: dict[str, float]


def _quartiles(arr: np.ndarray) -> np.ndarray:
    """``np.quantile(arr, [0.25, 0.5, 0.75], method="linear")`` of a sorted
    array without NaN, bit for bit, without the ``numpy.ma`` import of its
    first call: numpy's indices (n-1)q and its ``_lerp``."""
    import numpy as np

    virtual = (len(arr) - 1) * np.array([0.25, 0.5, 0.75])
    # past the last index (n = 1) numpy takes the last value at both ends
    below = np.where(virtual >= len(arr) - 1, -1, np.floor(virtual).astype(np.intp))
    above = np.where(below == -1, -1, below + 1)
    arr = arr.copy()  # numpy partitions a copy, which can swap 0.0 and -0.0
    arr.partition(sorted({0, -1, *below.tolist(), *above.tolist()}))
    a, b, t = arr[below], arr[above], virtual - below
    # _lerp counts from the upper end when t >= 0.5
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def descriptive_stats(values: Sequence[float]) -> Stats:
    """Summary statistics: sample std (n-1), linear-interpolation quartiles."""
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty list")
    # sorting fixes the reduction order, making results permutation-invariant
    arr = np.sort(arr)
    q25, q50, q75 = _quartiles(arr)
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


def aggregate_by_class(normalized: ZScoreTable, table: ClassRanges) -> ClassTable:
    """Sum each map's z triple into its clinical class of ``table`` (see
    :func:`gementropy.gem_io.assign_classes`).

    Maps outside every range land in an ``unclassified`` bucket. Only
    classes with at least one member are kept, in first-member order; sums
    add in map order, and one stable sort of the maps by class gathers the
    members, also in map order.
    """
    import numpy as np

    from .gem_io import UNCLASSIFIED, assign_classes

    index = assign_classes(normalized.source.tolist(), table)
    present, first = np.unique(index, return_index=True)
    kept = present[np.argsort(first)].tolist()
    place = np.empty(len(table) + 1, dtype=np.intp)
    place[kept] = np.arange(len(kept))
    place = place[index]  # each map's class, numbered in first-member order
    ids = table.ids + [UNCLASSIFIED]
    labels = table.labels + ["Unclassified"]
    zs = (normalized.z_alpha, normalized.z_beta, normalized.z_ur)
    return ClassTable(
        [ids[k] for k in kept],
        [labels[k] for k in kept],
        *(np.bincount(place, weights=z) for z in zs),
        np.argsort(place, kind="stable"),
        np.concatenate([[0], np.cumsum(np.bincount(place))]),
    )


def rank_classes(classes: ClassTable, measure: str) -> np.ndarray:
    """The order of the classes by one measure: highest first, ties by class
    id (0.0 and -0.0 tie). One ``lexsort`` of the negated values, with each
    id's place among the sorted ids as the tie-break."""
    import numpy as np

    if measure not in RANK_MEASURES:
        raise ValueError(f"measure must be one of {RANK_MEASURES}, got {measure!r}")
    if not len(classes):
        raise ValueError("no class scores to rank")
    ids = classes.ids
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return np.lexsort((id_rank, -(classes.value(measure) + 0.0)))


def average_ranks(ordered: Sequence[float]) -> list[float]:
    """The rank of each score of a ranking, highest first: positions 1..n,
    with tied scores sharing the average of their positions."""
    out: list[float] = []
    for _, run in itertools.groupby(ordered):
        i, j = len(out), len(out) + sum(1 for _ in run)
        out += [(i + 1 + j) / 2.0] * (j - i)
    return out


def _tied_pairs(ordered: Sequence) -> int:
    """Pairs of equal items in a sorted sequence, from its runs."""
    runs = (sum(1 for _ in run) for _, run in itertools.groupby(ordered))
    return sum(k * (k - 1) // 2 for k in runs)


def _inversions(values: list) -> int:
    """Pairs i < j with values[i] > values[j], counted while a bottom-up
    merge sort sorts ``values`` in place."""
    n = len(values)
    count = 0
    width = 1
    while width < n:
        merged = []
        for lo in range(0, n, 2 * width):
            i, mid = lo, min(lo + width, n)
            j, hi = mid, min(lo + 2 * width, n)
            while i < mid and j < hi:
                if values[j] < values[i]:  # passes every left item still unmerged
                    merged.append(values[j])
                    count += mid - i
                    j += 1
                else:
                    merged.append(values[i])
                    i += 1
            merged += values[i:mid]
            merged += values[j:hi]
        values[:] = merged
        width *= 2
    return count


def _tau_b(xs: Sequence[float], ys: Sequence[float], pair: str) -> float:
    """Tau-b of two finite score lists by Knight's counts.

    Sorted by (x, y), a pair is discordant exactly when its y values are
    inverted, and ties are runs of the sorted x, y and (x, y) lists; 0.0
    and -0.0 compare equal, so they tie. The counts are the integers the
    n x n pair signs give. The single-sqrt denominator keeps identical and
    reversed tie-free rankings at exactly +/-1.0 (sqrt of a representable
    perfect square is exact), which successive divisions would lose to
    rounding.
    """
    n = len(xs)
    pairs = sorted(zip(xs, ys))
    all_pairs = n * (n - 1) // 2
    tied_x = _tied_pairs([x for x, _ in pairs])
    tied_xy = _tied_pairs(pairs)
    ys_by_x = [y for _, y in pairs]
    discordant = _inversions(ys_by_x)
    tied_y = _tied_pairs(ys_by_x)
    not_tied_x = all_pairs - tied_x
    not_tied_y = all_pairs - tied_y
    if not_tied_x == 0 or not_tied_y == 0:
        raise ValueError(f"{pair}: tau undefined: one ranking is constant")
    concordant = all_pairs - tied_x - tied_y + tied_xy - discordant
    denom = math.sqrt(float(not_tied_x) * float(not_tied_y))
    return (concordant - discordant) / denom


def kendall_tau(rank_a: RankTable, rank_b: RankTable) -> float:
    """Tie-corrected Kendall tau-b between two rankings of the same classes."""
    a_scores = rank_a.scores
    b_scores = rank_b.scores
    pair = f"{rank_a.name} and {rank_b.name}"
    if set(a_scores) != set(b_scores):
        diff = sorted(set(a_scores) ^ set(b_scores))
        raise ValueError(f"{pair}: rankings cover different classes: {diff}")
    if len(a_scores) < 2:
        raise ValueError(f"{pair}: need at least 2 classes to correlate")
    keys = sorted(a_scores)
    xs = [a_scores[k] for k in keys]
    ys = [b_scores[k] for k in keys]
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError(f"{pair}: scores must be finite")
    return _tau_b(xs, ys, pair)


def detect_outliers(
    normalized: ZScoreTable,
    measure: str,
    threshold: float | None = None,
    top_fraction: float | None = None,
) -> np.ndarray:
    """The indices of the maps whose z-score on ``measure`` strictly exceeds
    a threshold, highest first, ties by source.

    In ``top_fraction`` mode the threshold is the smallest value keeping at
    most that fraction of maps, so at most floor(fraction * N) are returned
    (fewer under ties at the cut).
    """
    import numpy as np

    if (threshold is None) == (top_fraction is None):
        raise ValueError("supply exactly one of threshold or top_fraction")
    if threshold is not None and math.isnan(threshold):
        raise ValueError("threshold must be a number, got nan")
    if measure not in OUTLIER_MEASURES:
        raise ValueError(f"measure must be one of {OUTLIER_MEASURES}, got {measure!r}")
    if not normalized:
        raise ValueError("no scores to scan for outliers")
    sources = normalized.source
    values = getattr(normalized, measure)
    order = np.lexsort((sources, -values))
    if top_fraction is not None:
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError(f"top_fraction {top_fraction} outside (0, 1]")
        allowed = int(top_fraction * len(order))
        if allowed < len(order):
            threshold = values[order[allowed]]
    if threshold is not None:
        # highest first, so the maps above the threshold lead the order
        order = order[: np.count_nonzero(values > threshold)]
    return order
