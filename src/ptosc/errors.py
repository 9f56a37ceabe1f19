"""Exception types shared across the package."""

import numpy as np


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
    """PT-broken parameter regime: the spectrum is complex.

    Carries the offending eigenvalues so callers can report them.  For h8v
    and h8r the phase rule is |m2| >= m0 at every momentum, so at
    p^2 > m2^2 - m0^2 the reported eigenvalues +/-sqrt(p^2 + m0^2 - m2^2)
    are in fact real (ROADMAP item 2's open phase-rule bullet).
    """

    def __init__(self, message: str, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = None if eigenvalues is None else np.asarray(eigenvalues)


class DegenerateNormError(PtoscError, ValueError):
    """A ket has (numerically) vanishing PT norm and cannot be normalized."""


class ConstructionError(PtoscError, RuntimeError):
    """An operator construction failed its defining property checks."""
