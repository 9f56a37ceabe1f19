"""Dense complex linear algebra for the small (dim <= 8) model matrices.

Everything is a plain ``numpy.ndarray`` with ``complex128`` entries.  The
helpers here add the shape discipline the model code relies on (square,
dimension cap, finite entries) and a numerical eigensolver that is used as an
independent cross-check against the analytic eigensystems.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError

MAX_DIM = 8

# Pauli matrices sigma_0..sigma_3 and the antisymmetric unit e2 = i*sigma_2.
SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA = (SIGMA0, SIGMA1, SIGMA2, SIGMA3)
E2 = 1j * SIGMA2

DEFAULT_TOL = 1e-10


def as_cmatrix(a, max_dim: int | None = MAX_DIM) -> np.ndarray:
    """Coerce to a finite 2-d complex array, enforcing the dimension cap."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ParameterError(f"expected a matrix, got ndim={a.ndim}")
    if max_dim is not None and max(a.shape) > max_dim:
        raise ParameterError(f"matrix shape {a.shape} exceeds supported dimension {max_dim}")
    # isfinite of a complex entry tests both parts
    if not np.isfinite(a).all():
        raise ParameterError("matrix entries must be finite")
    return a


def as_cvector(v, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ParameterError(f"expected a vector, got ndim={v.ndim}")
    if dim is not None and v.shape[0] != dim:
        raise ParameterError(f"expected dimension {dim}, got {v.shape[0]}")
    # isfinite of a complex entry tests both parts
    if not np.isfinite(v).all():
        raise ParameterError("vector entries must be finite")
    return v


def require_square(a: np.ndarray) -> np.ndarray:
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    return a


def kron(a, b) -> np.ndarray:
    a, b = as_cmatrix(a, max_dim=None), as_cmatrix(b, max_dim=None)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > MAX_DIM:
        raise ParameterError(f"Kronecker product shape ({rows}, {cols}) exceeds dimension {MAX_DIM}")
    # the broadcast product np.kron forms, without its generic-rank set-up
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def operator_norm(a) -> float:
    """Largest singular value; the defect measure used throughout."""
    return float(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)[0])


def operator_norms(a) -> np.ndarray:
    """:func:`operator_norm` of each matrix of an (N, n, n) stack, from one
    batched SVD; inf for a matrix with a non-finite entry, on which the SVD
    would fail for the whole stack."""
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(1, 2))
        return np.where(finite, operator_norms(np.where(finite[:, None, None], a, 0.0)), np.inf)
    return np.linalg.svd(a, compute_uv=False)[:, 0]


@dataclass
class Eigendecomposition:
    """Numerically computed spectrum with degeneracy bookkeeping.

    ``values`` are sorted ascending by real part; ``vectors[:, k]`` is the
    (unit Euclidean norm) eigenvector of ``values[k]``; ``clusters`` partitions
    the index range into groups of numerically degenerate eigenvalues;
    ``norm`` is the operator norm of the decomposed matrix.
    """

    values: np.ndarray
    vectors: np.ndarray
    clusters: list[list[int]]
    norm: float

    def cluster_projector(self, cluster: list[int]) -> np.ndarray:
        """Euclidean orthogonal projector onto the span of a cluster."""
        return span_projector(self.vectors[:, cluster])


def span_projector(vectors: np.ndarray) -> np.ndarray:
    """Euclidean orthogonal projector onto the span of the columns."""
    q, _ = np.linalg.qr(vectors)
    return q @ q.conj().T


def cluster_indices(values: np.ndarray, scale: float) -> list[list[int]]:
    """Group sorted eigenvalues that lie within 1e-8 * max(1, scale) of each other."""
    gap = 1e-8 * max(scale, 1.0)
    clusters: list[list[int]] = []
    for k, lam in enumerate(values):
        if clusters and abs(lam - values[clusters[-1][0]]) <= gap:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


def eig_oracle(a) -> Eigendecomposition:
    """Full eigendecomposition of a general complex matrix.

    Serves as the independent numerical oracle for the analytic eigensystems:
    it never sees the closed forms.  Residuals ``||A v - lam v||`` are checked
    against ``DEFAULT_TOL * max(1, ||A||)`` and a failure raises :class:`NumericalError`.
    """
    a = require_square(a)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(values.real, kind="stable")
    values, vectors = values[order], vectors[:, order]
    scale = operator_norm(a)
    worst = float(np.linalg.norm(a @ vectors - vectors * values, axis=0).max())
    if worst > DEFAULT_TOL * max(scale, 1.0):
        raise NumericalError("eigenpair residual exceeds tolerance", residual=worst)
    return Eigendecomposition(values, vectors, cluster_indices(values, scale), scale)

