"""Exception hierarchy shared by all gapinterp modules."""


class GapInterpError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GapInterpError):
    """Bad inputs: parameters, supports, grids."""


class NumericalError(GapInterpError):
    """A computation failed for numerical reasons; diagnostics holds the
    values that show why."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# -- validation ---------------------------------------------------------------

class InvalidParameters(ValidationError):
    pass


class SupportMismatch(ValidationError):
    pass


class IndexOutOfPath(ValidationError):
    pass


class WeightsNotPositive(ValidationError):
    pass


class NotCovered(ValidationError):
    """Parameter regime outside the supported analysis conditions."""


class InfeasibleClass(ValidationError):
    pass


# -- numerical ----------------------------------------------------------------

class NonPositiveDensity(NumericalError):
    pass


class LagOutOfRange(NumericalError):
    pass


class NotPositiveDefinite(NumericalError):
    pass


class NonFiniteSolution(NumericalError):
    """A solve gave coefficients or an error that are not finite."""


class NotConverged(NumericalError):
    pass


class PositivityLost(NumericalError):
    pass


class SingularCovariance(NumericalError):
    pass


class EmbeddingNotPSD(NumericalError):
    pass
