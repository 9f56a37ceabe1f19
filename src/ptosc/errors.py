"""Exception types shared across the package."""


class PtoscError(Exception):
    """Base class for all package exceptions."""


class ParameterError(PtoscError, ValueError):
    """A usage error: parameters, shapes or an input document break a documented rule."""


class NumericalError(PtoscError, RuntimeError):
    """A numerical routine failed to reach its accuracy target."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class BrokenPTError(PtoscError, ValueError):
    """PT-broken parameter regime: the spectrum is complex."""


class DegenerateNormError(PtoscError, ValueError):
    """A ket has (numerically) vanishing PT norm and cannot be normalized."""


class ConstructionError(PtoscError, RuntimeError):
    """An operator construction failed its defining property checks."""
