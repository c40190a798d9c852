"""Exception hierarchy shared by all hyploop modules."""


class HyploopError(Exception):
    """Base class for all errors raised by this package."""


class FieldSyntaxError(HyploopError):
    """Curvature-field text failed to parse.

    Carries ``offset`` (byte position of the offending token) and
    ``expected`` (human-readable description of what would have been legal).
    """

    def __init__(self, message, offset, expected=None):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class EvalDomainError(HyploopError):
    """Field evaluation left the domain (log/sqrt of a negative, division by zero).

    The Melnikov value and gradient raise it too where K is not finite on their disk.
    """


class DegenerateLoop(HyploopError):
    """Loop is numerically constant or its speed vanishes somewhere."""


class QuadratureFailure(HyploopError):
    """Adaptive quadrature exceeded its refinement budget without meeting tolerance."""


class NewtonDiverged(HyploopError):
    """The correction chord or Newton iteration stagnated, blew up, or left the admissible set."""


class StepTooLarge(HyploopError):
    """Damping could not keep the iterate in the half-plane; retry with smaller |eps|."""


class NoCritical(HyploopError):
    """No critical point of the reduced problem was found in the search region."""


class NotEmbedded(HyploopError):
    """A loop was solved to tolerance but self-intersects.

    The offending report is attached as ``report``.
    """

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)
