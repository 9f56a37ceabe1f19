"""Inner products: PT (indefinite) and CPT, and PT normalization.

The PT product is evaluated in its matrix form a^dag S b, which the symmetry
pair construction has already checked to agree with the formal antilinear
expression (PT a)^T Z b.  For momentum-carrying kets the CS convention is
used: the bra spinor is evaluated at -p (parity flips the momentum), so a
state has a nonvanishing overlap with itself.
"""

import numpy as np

from .errors import DegenerateNormError, ParameterError
from .linalg import as_cvector, require_square
from .symmetry import SymmetryPair

#: PT self-overlaps smaller than this are treated as vanishing norm.
NORM_FLOOR = 1e-12


def pt_adjoint(sym: SymmetryPair, h) -> np.ndarray:
    """PT adjoint S^-1 H^dag S (S is involutive, so S^-1 = S)."""
    h = require_square(h)
    if h.shape[0] != sym.dim:
        raise ParameterError(f"operator dimension {h.shape[0]} != symmetry dimension {sym.dim}")
    return sym.s @ h.conj().T @ sym.s


def pt_normalize_rows(sym: SymmetryPair, vs) -> tuple[np.ndarray, np.ndarray]:
    """Scale every row of ``vs`` to unit |PT norm|: the kets as rows and the
    signs of their PT norms.

    The overall phase of each ket is fixed by making its first component of
    magnitude above 1e-12 real and positive, so normalized kets are
    reproducible.  The first row that fails raises: DegenerateNormError for a
    vanishing PT norm, ParameterError for a non-finite entry.
    """
    vs = np.asarray(vs, dtype=complex)
    if vs.ndim != 2 or vs.shape[1] != sym.dim:
        raise ParameterError(f"expected rows of dimension {sym.dim}, got shape {vs.shape}")
    finite = np.isfinite(vs).all(axis=1)
    head = vs if finite.all() else vs[: int(np.argmin(finite))]
    bras = head.conj()[:, None, :]
    # (m, 1, d) @ (d, d) and (m, 1, d) @ (m, d, 1) make, row by row, the
    # vector-matrix and dot BLAS calls of v.conj() @ S @ v, so each norm is
    # bit-identical to that of its row alone
    norms = ((bras @ sym.s) @ head[:, :, None])[:, 0, 0].real
    if np.any(np.abs(norms) <= NORM_FLOOR * (bras @ head[:, :, None])[:, 0, 0].real):
        raise DegenerateNormError("vector has vanishing PT norm")
    if len(head) < len(vs):
        raise ParameterError("vector entries must be finite")
    out = head / np.sqrt(np.abs(norms))[:, None]
    first = np.argmax(np.abs(out) > 1e-12, axis=1)
    out = out * np.exp(-1j * np.angle(out[np.arange(len(out)), first]))[:, None]
    return out, np.where(norms > 0, 1, -1)


def cpt_ip(sym: SymmetryPair, c, a, b) -> complex:
    """Positive-definite CPT inner product (C a)^dag S b.

    ``c`` is a valid C operator for the model the vectors live in; with
    [C, PT] = 0 this equals the formal (CPT a)^T Z b.
    """
    c = require_square(c)
    a = as_cvector(a, sym.dim)
    b = as_cvector(b, sym.dim)
    return complex((c @ a).conj() @ sym.s @ b)


# The former momentum-state entry points, on arrays.  Nothing in the package
# calls them; they stay only while the traced benchmark still names them
# (ROADMAP item 1) and go with that change.


def superpose(coeffs, kets) -> np.ndarray:
    """The ket sum_j coeffs[j] kets[:, j], for kets given as columns."""
    return np.asarray(kets, dtype=complex) @ as_cvector(coeffs)


def cpt_ip_momentum(sym: SymmetryPair, c_reflected, bra_ket, ket) -> complex:
    """CS-convention CPT product (C(-p) a(-p))^dag S b(p); ``bra_ket`` is a(-p)."""
    return cpt_ip(sym, c_reflected, bra_ket, ket)
