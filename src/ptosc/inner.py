"""Inner products: Dirac, PT (indefinite) and CPT.

The PT product is evaluated in its matrix form a^dag S b, which the symmetry
pair construction has already checked to agree with the formal antilinear
expression (PT a)^T Z b.  For momentum-carrying kets the CS convention is
used: the bra spinor is evaluated at -p (parity flips the momentum), so a
state has a nonvanishing overlap with itself.  The historical JSM convention,
under which that self-overlap vanishes, survives only inside
:func:`jsm_cs_comparison`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNormError, ShapeError
from .linalg import adjoint, as_cvector, require_square
from .symmetry import SymmetryPair

#: PT self-overlaps smaller than this are treated as vanishing norm.
NORM_FLOOR = 1e-12


def dirac_ip(a, b) -> complex:
    """Conventional Dirac inner product a^dag b (antilinear in the first slot)."""
    a, b = as_cvector(a), as_cvector(b)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(a.conj() @ b)


def pt_ip(sym: SymmetryPair, a, b) -> complex:
    """Indefinite PT inner product a^dag S b."""
    a = as_cvector(a, sym.dim)
    b = as_cvector(b, sym.dim)
    return complex(a.conj() @ sym.s @ b)


@dataclass(frozen=True)
class InnerProductComparison:
    """Self-overlap of a momentum state under the JSM and CS conventions."""

    p: float
    jsm_self: complex
    cs_self: complex

    @property
    def conventions_coincide(self) -> bool:
        return abs(self.jsm_self - self.cs_self) < 1e-12


def jsm_cs_comparison(sym: SymmetryPair, ket, bra_ket, p: float) -> InnerProductComparison:
    """Contrast the JSM and CS self-overlaps of a momentum ket.

    ``ket`` is the spinor at p and ``bra_ket`` the same spinor at -p.  JSM
    pairs momenta k and -k, so for p != 0 the self-overlap is identically
    zero (the selection rule k = -p is never met by the state itself); CS
    pairs equal momenta and gives the finite value bra_ket^dag S ket.  At
    p = 0 both coincide.
    """
    cs = pt_ip(sym, bra_ket, ket)
    jsm = cs if p == 0 else 0j
    return InnerProductComparison(p=p, jsm_self=jsm, cs_self=cs)


def pt_adjoint(sym: SymmetryPair, h) -> np.ndarray:
    """PT adjoint S^-1 H^dag S (S is involutive, so S^-1 = S)."""
    h = require_square(h)
    if h.shape[0] != sym.dim:
        raise ShapeError(f"operator dimension {h.shape[0]} != symmetry dimension {sym.dim}")
    return sym.s @ adjoint(h) @ sym.s


def pt_normalize(sym: SymmetryPair, v) -> tuple[np.ndarray, int]:
    """Scale v to unit |PT norm| and return (ket, sign of the PT norm).

    The overall phase is fixed by making the first component of magnitude
    above 1e-12 real and positive, so normalized kets are reproducible.
    """
    kets, signs = pt_normalize_rows(sym, as_cvector(v, sym.dim)[None])
    return kets[0], int(signs[0])


def pt_normalize_rows(sym: SymmetryPair, vs) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pt_normalize` of every row of ``vs`` in one pass: the kets as
    rows and their PT signs.

    Raises what :func:`pt_normalize` raises for the first row that fails.
    """
    vs = np.asarray(vs, dtype=complex)
    if vs.ndim != 2 or vs.shape[1] != sym.dim:
        raise ShapeError(f"expected rows of dimension {sym.dim}, got shape {vs.shape}")
    finite = np.isfinite(vs).all(axis=1)
    head = vs if finite.all() else vs[: int(np.argmin(finite))]
    bras = head.conj()[:, None, :]
    # (m, 1, d) @ (d, d) and (m, 1, d) @ (m, d, 1) make, row by row, the
    # vector-matrix and dot BLAS calls of pt_ip, so the norms are bit-identical
    norms = ((bras @ sym.s) @ head[:, :, None])[:, 0, 0].real
    if np.any(np.abs(norms) <= NORM_FLOOR * (bras @ head[:, :, None])[:, 0, 0].real):
        raise DegenerateNormError("vector has vanishing PT norm")
    if len(head) < len(vs):
        raise ShapeError("vector entries must be finite")
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
