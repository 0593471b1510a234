"""Exception types shared across the package.

Each failure mode gets its own class so callers (and the command line
driver) can react to the cause rather than parsing messages.
"""


class DimensionError(ValueError):
    """An array has the wrong shape, or a row lacks the ghost cells its
    reconstruction order requires."""


class PositivityError(RuntimeError):
    """Density or pressure on a physical cell is not finite and above 0."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class BoundaryError(ValueError):
    """Unknown or inconsistent boundary condition tag."""


class ParamsFormatError(ValueError):
    """A network parameter file is malformed (bad JSON, missing keys,
    non-finite entries)."""


class ParamsVersionError(ParamsFormatError):
    """A network parameter file declares an unsupported format version."""


class ParamsDimensionError(ParamsFormatError):
    """A network parameter file holds arrays of the wrong shape."""


class NetworkEvalError(RuntimeError):
    """The weighting network produced non-finite values, which signals
    corrupt parameters rather than bad input."""


class RiemannConvergenceError(RuntimeError):
    """The star-state pressure iteration failed to converge."""
