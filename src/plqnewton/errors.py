"""Exception taxonomy shared across the package.

Exit-code mapping for the CLI, covering every PLQError: errors that
describe the input exit with 2 (INPUT_ERRORS: SchemaError, ValidationFailure,
a missing file, PreconditionError, RepresentationError, MembershipError,
ExprSyntaxError); errors that describe where the evaluation or the iteration
went exit with 3 (REGIME_ERRORS: RegimeError, StepError, DivergenceError,
DomainError, EvalDomainError).
"""


class PLQError(Exception):
    """Base class for all package errors."""


class RepresentationError(PLQError):
    """The shared-hyperplane representation is internally inconsistent."""


class DomainError(PLQError):
    """A point lies outside the domain required by the operation."""


class MembershipError(PLQError):
    """A vector fails a required set-membership contract (e.g. y not a subgradient)."""


class PreconditionError(PLQError):
    """A stated precondition of the operation does not hold."""


class StepError(PLQError):
    """A Newton-type step could not be computed (singular system, empty subproblem)."""


class DivergenceError(PLQError):
    """Iterates left the regime in which the local method is defined."""


class RegimeError(PLQError):
    """The problem structure at the current point does not match the solver variant."""


class SchemaError(PLQError):
    """A problem file violates the input schema."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer}: {message}")


class ValidationFailure(PLQError):
    """A loaded problem failed representation validation."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))


class ExprSyntaxError(PLQError):
    """Expression text could not be parsed."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class EvalDomainError(PLQError):
    """Evaluation hit a domain fault (log/sqrt of a negative, division by zero)
    or gave a non-finite value, derivative or weighted Hessian."""

    def __init__(self, message, component=None):
        self.component = component
        super().__init__(message if component is None else f"component {component}: {message}")


INPUT_ERRORS = (SchemaError, ValidationFailure, FileNotFoundError, PreconditionError,
                RepresentationError, MembershipError, ExprSyntaxError)
REGIME_ERRORS = (RegimeError, StepError, DivergenceError, DomainError, EvalDomainError)
