"""Entropy-based complexity analysis of medical code crosswalks.

Parses general-equivalence-mapping (GEM) crosswalk files between an old and
a new coding system and computes per-map entropic complexity measures,
corpus z-scores, clinical-class rankings, rank agreement, outlier lists,
and description-text co-occurrence networks.
"""

__version__ = "0.1.0"
