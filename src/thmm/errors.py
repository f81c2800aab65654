"""Exception types shared across the package."""

import math


class ThmmError(Exception):
    """Base class for all errors raised by this package.

    The CLI writes "<label>: <message>" to stderr and exits with exit_code.
    point is the index of the point a stacked evaluation refused, None for
    a refusal that does not depend on z.
    """

    exit_code, label, point = 3, "error", None


class InputError(ThmmError):
    """Input that is malformed, or whose parts do not fit together."""

    exit_code, label = 2, "input error"


class PreconditionFailure(ThmmError):
    """A mathematical precondition of the computation fails on valid input."""

    exit_code, label = 3, "precondition failure"


class InvalidMomentSequence(InputError, ValueError):
    """Moment data violates a structural requirement (shape, Hermiticity, interval)."""


class InsufficientMoments(PreconditionFailure):
    """A requested quantity needs moments beyond those supplied."""


class SingularPivot(PreconditionFailure):
    """A matrix required to be positive definite failed its factorization."""

    def __init__(self, family, index):
        super().__init__(
            f"{family}[{index}] is not positive definite (pivot at or below threshold)"
        )
        self.family = family
        self.index = index


class SingularNormalization(PreconditionFailure):
    """A polynomial value used as a normalizer is numerically singular."""


class RouteMismatch(ThmmError):
    """Two independent computation routes for the same quantity disagree."""

    exit_code, label = 4, "route mismatch"

    def __init__(self, what, where, residual):
        super().__init__(
            f"route disagreement for {what} at {where}: relative residual {residual:.3e}"
        )
        self.what = what
        self.where = where
        self.residual = residual


class IllConditioned(ThmmError):
    """A Hankel member is too ill-conditioned for a result to reach its accuracy target.

    cond is the 2-norm condition number of the member scaled to unit diagonal.
    """

    exit_code, label = 4, "ill-conditioned"

    def __init__(self, family, index, cond, target):
        super().__init__(
            f"{family}[{index}] scaled to unit diagonal has cond ~ {cond:.1e}: about "
            f"{math.log10(cond):.0f} digits lost, accuracy {target:g} unattainable"
        )
        self.family = family
        self.index = index
        self.cond = cond


class PoleAtZ(PreconditionFailure):
    """The chosen factorized route has a scalar pole at the requested z."""


class SingularDenominator(PreconditionFailure):
    def __init__(self, cond):
        super().__init__(
            f"linear-fractional denominator is numerically singular (cond ~ {cond:.3e})"
        )
        self.cond = cond


class PointOnInterval(PreconditionFailure):
    """Extremal solutions are only defined off the moment interval [a, b]."""


class SingularLevel(PreconditionFailure):
    def __init__(self, depth):
        super().__init__(f"continued-fraction level {depth} is not invertible")
        self.depth = depth


class NonPositiveParameter(PreconditionFailure):
    def __init__(self, name, index):
        super().__init__(f"parameter {name}[{index}] must be Hermitian positive definite")
        self.name = name
        self.index = index


class InconsistentLengths(InputError):
    """Parameter chains have lengths that cannot drive the moment recursion."""


class EmptyMeasure(InputError):
    """A discrete measure needs at least one atom."""


class PointOutsideInterval(InputError):
    """A measure atom lies outside [a, b]."""


class WrongMatrixSize(InputError):
    """Operation restricted to scalar (q = 1) sequences."""

    def __init__(self, q):
        super().__init__(f"scalar determinant route needs q = 1, got q = {q}")
