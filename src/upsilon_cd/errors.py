"""Exception hierarchy shared by all modules, and the checks' kappa guard."""

import math


class UpsilonCDError(Exception):
    """Base class for all library errors."""


class ChainSpecError(UpsilonCDError):
    """Malformed chain specification document."""


class NonPositiveRate(ChainSpecError):
    """A transition rate is zero or negative."""


class NotReversible(UpsilonCDError):
    """No reversible measure exists (or the supplied one fails detailed balance)."""


class NotIrreducible(UpsilonCDError):
    """The support graph of the rates is not connected."""


class InvalidParameter(UpsilonCDError):
    """A builder or operation parameter is outside its admissible range."""


def _finite_kappa(*kappas: float) -> None:
    """Reject a nan or +-inf kappa, which no check can compare with."""
    for kappa in kappas:
        if not math.isfinite(kappa):
            raise InvalidParameter(f"kappa must be finite, got {kappa}")


class DimensionMismatch(UpsilonCDError):
    """A field does not match the chain's state count."""


class DomainError(UpsilonCDError):
    """A scalar kernel was evaluated outside its domain."""


class NonPositiveField(UpsilonCDError):
    """An operation requiring a strictly positive field got one that is not."""


class NotUnweighted(UpsilonCDError):
    """An operation restricted to unit-rate chains got a weighted one."""


class FieldTooLarge(UpsilonCDError):
    """Field amplitude exceeds the small-field comparison window."""


class IsolatedVertex(UpsilonCDError):
    """The vertex has no neighbours."""


class NonConvergence(UpsilonCDError):
    """The curvature optimizer failed to converge; diagnostics attached."""

    def __init__(self, message, best=None, diagnostics=None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics or {}


class ConditionNotMet(UpsilonCDError):
    """The divergence-witness precondition fails at the requested edge."""


class MonotonicityViolated(UpsilonCDError):
    """Birth/death rates are not strictly monotone where required."""


class NotAStar(UpsilonCDError):
    """The chain is not a star graph."""


class SizeOverflow(UpsilonCDError):
    """A product chain would exceed the configured state cap."""


class PrerequisiteFailed(UpsilonCDError):
    """A prerequisite check (e.g. factor curvature) did not hold."""


class NonDensity(UpsilonCDError):
    """The initial field is not a probability density."""


class PositivityLoss(UpsilonCDError):
    """The integrator produced a nonpositive density value."""


class GridTooCoarse(UpsilonCDError):
    """The flow grid is too coarse for finite-difference verification."""


class NonPositiveEntropy(UpsilonCDError):
    """Entropy of the initial density vanishes; decay check is vacuous."""
