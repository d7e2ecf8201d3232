"""Exception types raised while parsing crosswalks and computing scores."""


class GemError(Exception):
    """Base class for all gementropy errors."""


def _located(message, filename, line):
    """The message behind a ``file:line: `` prefix; an absent part is left
    out, and so is the prefix when both are."""
    prefix = "".join(f"{part}:" for part in (filename, line) if part is not None)
    return f"{prefix} {message}" if prefix else message


class ParseError(GemError):
    """A line or field could not be parsed. Carries file/line context."""

    def __init__(self, message, filename=None, line=None):
        self.filename = filename
        self.line = line
        super().__init__(_located(message, filename, line))


class StructuralError(GemError):
    """Parsed values violate a structural invariant (flag combinations,
    scenario numbering gaps, mixed no-match sources, overlapping classes)."""

    def __init__(self, message, filename=None, line=None, source=None):
        self.filename = filename
        self.line = line
        self.source = source
        super().__init__(_located(message, filename, line))


class DegenerateMeasureError(GemError):
    """Normalization is impossible because a measure has zero spread."""

    def __init__(self, measure):
        self.measure = measure
        super().__init__(
            f"measure {measure!r} is constant across all maps; z-scores are undefined"
        )


class ConvergenceError(GemError):
    """Power iteration failed to converge within the iteration budget."""

    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"eigenvector centrality did not converge after {iterations} "
            f"iterations (residual {residual:.3e})"
        )
