"""Exception hierarchy shared across the package."""


class SchwarzballError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SchwarzballError, ValueError):
    """Mismatched variable counts, truncation degrees, or array shapes."""


class CompositionCenterError(SchwarzballError, ValueError):
    """Inner series of a composition has a nonzero constant term."""


class SingularDifferentialError(SchwarzballError, ValueError):
    """Map differential is singular at the requested center."""


class VanishingDenominatorError(SchwarzballError, ZeroDivisionError):
    """Rational map denominator (or a jet reciprocal) vanishes."""


class OutsideDomainError(SchwarzballError, ValueError):
    """Point lies outside the open unit ball."""


class BasePointMismatchError(SchwarzballError, ValueError):
    """Tensors or jets were taken at inconsistent base points."""


class NormalizationError(SchwarzballError, ValueError):
    """Map or jet fails the F(0)=0, DF(0)=Id normalization."""


class InfeasibleSearchError(SchwarzballError, ValueError):
    """Extremal search was given an empty or unusable parameterization."""


class MapSpecError(SchwarzballError, ValueError):
    """Malformed map-specification payload."""
