"""Construction and validation of the C operator.

C is built spectrally from a PT-orthonormal eigenbasis.  With K the kets at
the working momentum p as columns and B the same kets at -p (the bra side of
the CS convention; B = K for static models),

    C(p) = K B^dag S = sum_j e_j(p) (e_j(-p)^dag S),    C(-p) = B K^dag S,

with *no* PT-sign weights: acting on the basis this gives C e_k = s_k e_k,
so C has eigenvalues equal to the PT signs, squares to the identity and
commutes with the Hamiltonian.  The sign-weighted sum K diag(s) B^dag S is
instead the resolution of the identity in the CPT inner product, measured by
:func:`completeness_defect`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError
from .linalg import DEFAULT_TOL, operator_norm, require_square
from .symmetry import SymmetryPair


@dataclass(frozen=True)
class COperator:
    """A validated C operator.

    ``matrix`` is C at the working momentum p and ``reflected`` is C(-p), as
    needed for the bra side of CPT products; for static models the two are
    equal.  :func:`build_C` records the defects it measured:
    ``square_defect`` = ||C^2 - 1|| and ``commutator_defect`` = ||[C, H]||
    (None when it was given no Hamiltonian).
    """

    matrix: np.ndarray
    reflected: np.ndarray
    square_defect: float | None = None
    commutator_defect: float | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def at(self, sign: int) -> np.ndarray:
        """C at momentum sign * p: ``matrix`` for +1, ``reflected`` for -1.

        Unused by the package; kept with the entry points at the end of
        :mod:`ptosc.inner` (see there).
        """
        return self.reflected if sign < 0 else self.matrix


def build_C(sym: SymmetryPair, eigensystem, hamiltonian=None, tol: float = DEFAULT_TOL) -> COperator:
    """Assemble C from a PT-orthonormal eigensystem and validate it.

    Checks C^2 = 1 and, when the Hamiltonian is supplied, [C, H] = 0, both
    to ``tol`` in operator norm (the commutator relative to max(1, ||H||));
    a violation raises :class:`ConstructionError`.  The measured defects are
    kept on the result.
    """
    kets, bra_kets = eigensystem.K, eigensystem.B
    # einsum accumulates each entry term by term, as the spectral sum does;
    # BLAS gemm rounds worse where large ket entries cancel (|m2| -> m0) and
    # there fails the C^2 check markedly more often.
    c = np.einsum("ij,jk->ik", kets, bra_kets.conj().T @ sym.s)
    defect = operator_norm(c @ c - np.eye(sym.dim))
    if defect > tol:
        raise ConstructionError(f"C^2 != 1 (defect {defect:.3e} > {tol:.1e})")
    comm = None
    if hamiltonian is not None:
        h = require_square(hamiltonian)
        comm = operator_norm(c @ h - h @ c)
        if comm > tol * max(1.0, operator_norm(h)):
            raise ConstructionError(f"[C, H] != 0 (defect {comm:.3e})")
    reflected = np.einsum("ij,jk->ik", bra_kets, kets.conj().T @ sym.s)
    return COperator(matrix=c, reflected=reflected, square_defect=defect, commutator_defect=comm)


def closed_form_C_h8v(m0: float, m2: float, p: float) -> np.ndarray:
    """Analytic C of the reduced h8v block: H(p) / eps.

    Independent of the spectral construction; used as its cross-check.  As
    p -> infinity this tends to diag(1, 1, -1, -1) + O(1/p).
    """
    from .models import effective_mass, h8v_reduced_hamiltonian

    eps = float(np.hypot(p, effective_mass(m0, m2)))
    return h8v_reduced_hamiltonian(m0, m2, p) / eps


def completeness_defect(sym: SymmetryPair, eigensystem, drop: int | None = None) -> float:
    """Operator-norm defect of the CPT resolution of the identity.

    ``K diag(s) B^dag S`` should equal the identity; dropping any term
    (``drop`` = index) makes the defect at least 1.
    """
    weights = np.array(eigensystem.signs, dtype=float)
    if drop is not None:
        weights[drop] = 0.0
    total = np.einsum("ij,jk->ik", eigensystem.K * weights, eigensystem.B.conj().T @ sym.s)
    return operator_norm(total - np.eye(sym.dim))
