"""Entropy-based complexity analysis of medical code crosswalks.

Parses general-equivalence-mapping (GEM) crosswalk files between an old and
a new coding system and computes per-map entropic complexity measures,
corpus z-scores, clinical-class rankings, rank agreement, outlier lists,
and description-text co-occurrence networks.
"""

from .analysis import (
    ClassScore,
    RankTable,
    Stats,
    aggregate_by_class,
    descriptive_stats,
    detect_outliers,
    kendall_tau,
    rank_classes,
)
from .entropy import (
    MapScores,
    NormalizedScores,
    adjust_by_frequency,
    alphabet_entropy,
    column_entropy,
    count_valid_representations,
    normalize_scores,
    row_entropy,
    score_map,
    score_maps,
    ur_measure,
    weighted_alphabet_entropy,
)
from .errors import (
    ConvergenceError,
    DegenerateMeasureError,
    EmptyMapError,
    GemError,
    ParseError,
    StructuralError,
)
from .gem_io import (
    ClassDef,
    CodeMatrix,
    Flag,
    GemEntry,
    MapRecord,
    assign_class,
    build_matrix,
    group_maps,
    load_class_defs,
    load_descriptions,
    load_frequencies,
    parse_flag,
    parse_gem_file,
)
from .textnet import (
    WordGraph,
    build_cooccurrence_graph,
    eigenvector_centrality,
    tokenize,
    word_frequencies,
)

__version__ = "0.1.0"
