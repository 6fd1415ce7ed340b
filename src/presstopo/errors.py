"""Exception hierarchy shared by all presstopo modules."""


class PresstopoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(PresstopoError, ValueError):
    """An argument violates a documented precondition."""


class GeometryError(PresstopoError):
    """Degenerate or non-convex element geometry."""


class PointOutsideElementError(GeometryError):
    """Evaluation point lies on or outside the element boundary."""


class MeshError(PresstopoError):
    """Mesh-level inconsistency (connectivity, missing symmetry pairing, ...)."""


class SolverError(PresstopoError):
    """A linear solve failed or did not reach the required residual."""


class SingularSystemError(SolverError):
    """System is singular, e.g. unconstrained rigid-body modes."""


class IllPosedError(SolverError):
    """Problem lacks the boundary data needed for a unique solution."""


class OptimizerError(PresstopoError):
    """The optimizer subproblem is infeasible or its solve failed."""


class ConfigError(PresstopoError):
    """Configuration file is missing, malformed, or inconsistent."""
