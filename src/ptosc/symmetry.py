"""Parity and time-reversal operators for the T-odd (T^2 = -1) bases.

Parity acts as a linear matrix S with S^2 = 1.  Time reversal is antilinear,
T = Z K with K complex conjugation, so a pair holds Z and never a matrix for T.

The pairs of the fixed representations (:func:`canonical_pair`,
:func:`block_pair`, :func:`dirac_pair`) are built and validated once (per
``n_pairs``) and shared; :class:`SymmetryPair` alone holds the rules of a pair.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ParameterError
from .linalg import E2, kron, operator_norm, require_square

PAIR_TOL = 1e-14

# Block-swap parity: exchanges the upper and lower pairs of (spinor) blocks.
BLOCK_SWAP = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)


@dataclass(frozen=True)
class SymmetryPair:
    """The linear parts (S, Z) of parity and time reversal for one basis.

    Construction validates the defining algebra:
    S^2 = 1, Z conj(Z) = -1 (T odd), S Z = Z conj(S) ([P, T] = 0) and
    Z antisymmetric, each to 1e-14 in operator norm.  It also checks that
    the two equivalent forms of the PT inner product, (PT a)^T Z b and
    a^dag S b, agree for all vectors, i.e. Z^T S^T Z = S to the same
    tolerance.  S and Z are stored as read-only copies.
    """

    s: np.ndarray
    z: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        s = require_square(self.s).copy()
        z = require_square(self.z).copy()
        s.flags.writeable = z.flags.writeable = False
        if s.shape != z.shape:
            raise ParameterError(f"S and Z shapes differ: {s.shape} vs {z.shape}")
        n = s.shape[0]
        if n < 2 or n % 2:
            raise ParameterError(f"T-odd symmetry pairs require a positive even dimension, got {n}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "dim", n)
        eye = np.eye(n)
        defects = {
            "S^2 = 1": operator_norm(s @ s - eye),
            "Z conj(Z) = -1": operator_norm(z @ z.conj() + eye),
            "S Z = Z conj(S)": operator_norm(s @ z - z @ s.conj()),
            "Z^T = -Z": operator_norm(z.T + z),
        }
        for name, defect in defects.items():
            if defect > PAIR_TOL:
                raise ParameterError(f"symmetry pair violates {name} (defect {defect:.3e})")
        # (PT a)^T Z b = a^dag (Z^T S^T Z) b, so the two forms agree for all a, b
        if operator_norm(z.T @ s.T @ z - s) > PAIR_TOL:
            raise ParameterError("(PT a)^T Z b does not reproduce a^dag S b in this basis")


@cache
def canonical_pair(n_pairs: int) -> SymmetryPair:
    """Canonical-basis pair: S = diag(+1 x n_pairs, -1 x n_pairs), Z = diag(e2, ...)."""
    # lists, not np.ones: a negative count gives a 0x0 pair, which SymmetryPair rejects
    return SymmetryPair(np.diag([1.0] * n_pairs + [-1.0] * n_pairs), kron(np.diag([1.0] * n_pairs), E2))


@cache
def dirac_pair() -> SymmetryPair:
    """8D Dirac-basis pair: S = (block swap) x 1_2, Z acts as e2 on each spin doublet."""
    return SymmetryPair(kron(BLOCK_SWAP, np.eye(2)), kron(np.eye(4), E2))


@cache
def block_pair() -> SymmetryPair:
    """4x4 pair for the helicity-reduced Dirac blocks.

    S is the block-swap parity (the 8D Dirac S at block level) and Z is the
    canonical diag(e2, e2).
    """
    return SymmetryPair(BLOCK_SWAP, kron(np.eye(2), E2))

