"""Entropy-based complexity analysis of medical code crosswalks.

Parses general-equivalence-mapping (GEM) crosswalk files between an old and
a new coding system and computes per-map entropic complexity measures,
corpus z-scores, clinical-class rankings, rank agreement, outlier lists,
and description-text co-occurrence networks.

Importing the package loads none of its modules: ``gementropy.<module>``
imports one on first access, so ``getattr(gementropy, "entropy")`` works
before anything has imported ``gementropy.entropy``.
"""

__version__ = "0.1.0"

_MODULES = frozenset({"_kernels", "analysis", "cli", "entropy", "errors", "gem_io", "textnet"})


def __getattr__(name):
    if name in _MODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
