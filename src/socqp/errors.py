"""Exception hierarchy shared by all socqp modules.

The command line maps a failure to its exit code by class: ``ParseError``
exits 2, the ``PreconditionViolated`` family (an instance or a certificate
that does not meet what the operation needs) exits 3, and every other
``SocqpError`` exits 4 as a solver failure.
"""


class SocqpError(Exception):
    """Base class for all errors raised by socqp."""


class PreconditionViolated(SocqpError):
    """A documented precondition of the operation is violated."""


class InvalidMatrix(SocqpError):
    """Matrix input is malformed (non-finite, wrong shape, not symmetric)."""


class NotPsd(PreconditionViolated):
    """Matrix has an eigenvalue below the PSD tolerance."""


class InvalidInput(SocqpError):
    """Generic invalid argument (dimension mismatch, bad value)."""


class InvalidBounds(PreconditionViolated):
    """Lower/upper bound pair is inconsistent."""


class InvalidInstance(PreconditionViolated):
    """Problem instance violates a structural requirement."""


class EmptyInterior(PreconditionViolated):
    """Feasible region has no strictly interior point."""


class InvalidProgram(SocqpError):
    """Cone program dimensions are inconsistent."""


class InvalidMultiplier(SocqpError):
    """Dual multiplier pairs with an infinite bound; dual term undefined."""


class WrongShape(PreconditionViolated):
    """Instance shape does not match the requested reformulation."""


class ConditionNotMet(PreconditionViolated):
    """An exactness condition required by a recovery routine does not hold."""


class TightenFailed(PreconditionViolated):
    """Cone-gap tightening did not close the gap; carries the partial trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class IdentityViolated(SocqpError):
    """An identity that holds in exact arithmetic failed numerically beyond
    its tolerance, so the quantities derived from it cannot be trusted."""


class SelectionBoundViolated(SocqpError):
    """No candidate of the approximation satisfies the sqrt(2) selection
    bound that the construction guarantees."""


class SolverFailed(SocqpError):
    """A cone solve ended without the Optimal status the operation needs."""


class EmptyFeasibleGrid(PreconditionViolated):
    """No grid point is feasible at the oracle's resolution."""


class UnboundedBox(PreconditionViolated):
    """No finite search box can be inferred for the grid oracle."""


class ParseError(SocqpError):
    """Instance file cannot be parsed; message carries field diagnostics."""
