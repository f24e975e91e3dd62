"""Exception hierarchy shared across the package."""


class HermlabError(Exception):
    """Base class for all package errors."""


class SingularEvaluationError(HermlabError):
    """Division by a zero-valued jet or a branch-domain violation."""

    def __init__(self, message, point=None):
        if point is not None:
            message = f"{message} (at point {point})"
        super().__init__(message)
        self.point = point


class DegenerateMetricError(HermlabError):
    """Metric value is not Hermitian positive definite where required."""


class OutOfDomainError(HermlabError):
    """Evaluation point violates a domain constraint."""


class InsufficientJetOrderError(HermlabError):
    """A derivative was requested from a jet that has none left."""


class MetricSyntaxError(HermlabError):
    """Expression parse failure, carrying the byte offset of the problem."""

    def __init__(self, message, offset, expected=None):
        self.offset = offset
        self.expected = tuple(sorted(expected)) if expected else ()
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownMetricError(HermlabError):
    """Catalog lookup with an unrecognized name."""


class InvalidConfigError(UnknownMetricError):
    """Metric config with a missing or malformed field."""


class InvalidFamilyError(HermlabError):
    """Matrix family violates the square-zero / anti-commutation contract."""


class ChainExhaustedError(HermlabError):
    """Constructive kernel walk ran out of candidates without a verified vector."""


class DomainSamplingError(HermlabError):
    """Could not draw enough admissible points from the sampling box."""
