"""Exception types shared by all trajrot modules.

Two families: :class:`PreconditionError` means the inputs violate a
documented precondition of an operation (CLI exit code 2), while
:class:`NumericalError` means the computation itself could not be carried
out or trusted at the requested accuracy (CLI exit code 3).
"""


class TrajrotError(Exception):
    """Base class for all library-specific errors."""


class PreconditionError(TrajrotError):
    """An input violates a documented precondition."""


class NumericalError(TrajrotError):
    """A computation failed or its result cannot be trusted."""


class DistanceTooSmall(PreconditionError):
    """A curve passes too close to an observation point or subspace."""


class DimensionMismatch(PreconditionError):
    """Operands live in incompatible ambient dimensions."""


class CodimensionError(PreconditionError):
    """The subspace has the wrong codimension for the requested mode."""


class CurvesTooClose(PreconditionError):
    """Two curves approach each other below the separation guard."""


class NotClosed(PreconditionError):
    """A closed curve was required."""


class NotPlanar(PreconditionError):
    """A planar curve was required."""


class NonTransversal(PreconditionError):
    """A curve meets a reference plane non-transversally."""


class NotStationary(PreconditionError):
    """The field does not vanish at the supplied point."""


class NotInvariant(PreconditionError):
    """The subspace is not invariant under the field."""


class EigenvalueSignError(PreconditionError):
    """A sink matrix has an eigenvalue with non-negative real part."""


class PreconditionLength(PreconditionError):
    """The curve is too short for the witness search to be guaranteed."""


class StepUnderflow(NumericalError):
    """An integrator step fell below the minimal step size or below the
    float spacing of the times."""


class SampleBudgetExceeded(NumericalError):
    """Integration output would exceed the configured sample budget."""


class QuadratureInconclusive(NumericalError):
    """A quadrature result is not accurate enough to draw the conclusion."""


class WitnessNotFound(NumericalError):
    """No witness satisfying the required inequality was found."""
