"""Model Hamiltonians and their closed-form eigensystems.

Covers the canonical-basis 4D model (``sfdm``), the generic T-odd block form,
and the 8D Dirac-representation family ``h8`` with its restrictions
``h8r`` (m3 = 0) and ``h8v`` (m1 = m3 = 0), at zero and nonzero momentum;
:func:`realize` builds a spec's working model and records what fails.

Closed-form eigenvectors follow the published displays; sfdm writes one ket
per level and takes the other as its Kramers partner under Theta = PT
(T^2 = -1).  Two corrections were fixed against the numerical eigensolver:

* the 4D model's second eigenvalue pair is +1 (the appendix restates -1);
* the ``h8r`` kets' third component carries an overall sign flip relative to
  the printed form; the constants collapse to a = (sqrt(m0^2 - m2^2) + i m2)/m0
  and its conjugate, and the printed normalization n is then exact.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BrokenPTError, ConstructionError, NumericalError, ParameterError, PtoscError
from .inner import pt_normalize_rows
from .io import json_finite, json_object, matrix_from_json
from .linalg import (
    DEFAULT_TOL,
    SIGMA,
    SIGMA0,
    Eigendecomposition,
    as_cmatrix,
    cluster_indices,
    eig_oracle,
    kron,
    operator_norm,
    span_projector,
)
from .symmetry import SymmetryPair, block_pair, canonical_pair

# ---------------------------------------------------------------------------
# eigensystem containers


@dataclass(frozen=True)
class EigenPair:
    value: float
    ket: np.ndarray
    pt_sign: int


@dataclass(frozen=True)
class EigenSystem:
    """Ordered eigenvalues with PT-normalized kets and degeneracy clusters.

    Pairs are sorted ascending by eigenvalue.  ``reflected`` holds the same
    kets evaluated at the reflected momentum -p, as columns; it is None for
    static models, whose bra kets are the kets themselves.
    """

    pairs: tuple[EigenPair, ...]
    reflected: np.ndarray | None = None

    @cached_property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """The index range partitioned into groups of equal eigenvalues."""
        values = self.values
        scale = float(np.max(np.abs(values))) if len(values) else 1.0
        return tuple(tuple(g) for g in cluster_indices(values, scale))

    @property
    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.pairs])

    @property
    def signs(self) -> list[int]:
        return [p.pt_sign for p in self.pairs]

    @cached_property
    def K(self) -> np.ndarray:
        """The kets at the working momentum, as columns."""
        return np.column_stack([p.ket for p in self.pairs])

    @property
    def B(self) -> np.ndarray:
        """The bra kets (kets at -p), as columns; K itself for static models."""
        return self.K if self.reflected is None else self.reflected

    def cluster_projector(self, cluster) -> np.ndarray:
        return span_projector(self.K[:, list(cluster)])


def pt_normalized_eigensystem(sym: SymmetryPair, entries) -> EigenSystem:
    """The EigenSystem of (eigenvalue, ket) entries, the kets PT-normalized
    together by :func:`pt_normalize_rows`.

    Entries are sorted ascending by eigenvalue; the sort is stable, so kets
    of equal eigenvalue keep their given order.
    """
    ordered = sorted(entries, key=lambda entry: entry[0])
    kets, signs = pt_normalize_rows(sym, [ket for _, ket in ordered])
    return EigenSystem(tuple(EigenPair(lam, ket, sign) for (lam, _), ket, sign in zip(ordered, kets, signs.tolist())))


# ---------------------------------------------------------------------------
# quaternion helpers


def real_quaternion(b0: float, b1: float, b2: float, b3: float) -> np.ndarray:
    """2x2 complex form b0 sigma_0 + i (b1 sigma_1 + b2 sigma_2 + b3 sigma_3)."""
    return b0 * SIGMA[0] + 1j * (b1 * SIGMA[1] + b2 * SIGMA[2] + b3 * SIGMA[3])


def _beyond_rounding(defect: float, m: np.ndarray) -> bool:
    """defect > 1e-12 * max(1, ||m||).  The bound is at least 1e-12, so
    ||m|| is taken only where the defect exceeds that."""
    return defect > 1e-12 and defect > 1e-12 * max(1.0, operator_norm(m))


def quaternion_coefficients(b) -> np.ndarray:
    """Inverse of :func:`real_quaternion`; raises if b is not a real quaternion."""
    b = as_cmatrix(b)
    if b.shape != (2, 2):
        raise ParameterError("quaternions are 2x2 complex matrices")
    coeffs = np.array([np.trace(s @ b) / 2 for s in SIGMA])
    q = np.array([coeffs[0].real, coeffs[1].imag, coeffs[2].imag, coeffs[3].imag])
    if _beyond_rounding(operator_norm(real_quaternion(*q) - b), b):
        raise ParameterError("matrix is not a real quaternion")
    return q


# ---------------------------------------------------------------------------
# SFDM (canonical-basis 4D model)


@dataclass(frozen=True)
class SfdmParams:
    """Hyperbolic parametrization of the det = 1 canonical 4D family.

    a0 = cosh(chi) and the quaternion components b0..b3 sit on the unit
    hyperboloid a0^2 - b0^2 - b1^2 - b2^2 - b3^2 = 1 by construction.  A chi
    whose cosh overflows a float raises :class:`NumericalError`.
    """

    chi: float
    psi: float
    theta: float
    phi: float

    def __post_init__(self):
        try:
            math.cosh(self.chi)
        except OverflowError:
            raise NumericalError(f"sfdm entries cosh(chi), sinh(chi) overflow at chi = {self.chi}") from None

    @property
    def a0(self) -> float:
        return math.cosh(self.chi)

    @property
    def b(self) -> np.ndarray:
        """Quaternion coefficients (b0, b1, b2, b3)."""
        sh = math.sinh(self.chi)
        return np.array(
            [
                sh * math.cos(self.psi),
                sh * math.sin(self.psi) * math.sin(self.theta) * math.cos(self.phi),
                sh * math.sin(self.psi) * math.sin(self.theta) * math.sin(self.phi),
                sh * math.sin(self.psi) * math.cos(self.theta),
            ]
        )


def _t_odd_block(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The 4x4 matrix [[A, iB], [iB^dag, D]] of complex 2x2 blocks."""
    h = np.empty((4, 4), dtype=complex)
    h[:2, :2], h[:2, 2:], h[2:, :2], h[2:, 2:] = a, 1j * b, 1j * b.conj().T, d
    return h


def sfdm_hamiltonian(params: SfdmParams) -> np.ndarray:
    """4x4 block matrix [[a0, i b], [i b^dag, -a0]] in the canonical basis."""
    a = params.a0 * SIGMA0
    return _t_odd_block(a, real_quaternion(*params.b), -a)


def sfdm_eigensystem(params: SfdmParams) -> EigenSystem:
    """Closed-form eigensystem: eigenvalues (-1, -1, +1, +1).

    One ket per level, [tilt a, twist / b, 0, b] with (a, b) the (sinh, cosh)
    of chi/2 at -1 and their swap at +1, and its Kramers partner -S Z conj(v),
    as Theta = S Z K commutes with H: the published e1..e4.  At chi = 0, where
    H = diag(1, 1, -1, -1), the coordinate kets e2, e0 and their partners.
    """
    sym = canonical_pair(2)
    sh, ch = math.sinh(params.chi / 2), math.cosh(params.chi / 2)
    if abs(sh) < 1e-12:
        kets = np.eye(4, dtype=complex)[[2, 0]]
    else:
        psi, th, ph = params.psi, params.theta, params.phi
        tilt = math.sin(th) * cmath.exp(-1j * ph) * math.sin(psi)
        twist = -0.5j * math.sinh(params.chi) * (math.cos(psi) - 1j * math.sin(psi) * math.cos(th))
        kets = np.array([[tilt * a, twist / b, 0, b] for a, b in ((sh, ch), (ch, sh))])
    # -S Z is a signed permutation, so each partner is exact
    partners = kets.conj() @ (-sym.s @ sym.z).T
    return pt_normalized_eigensystem(sym, zip((-1.0, -1.0, 1.0, 1.0), (kets[0], partners[0], kets[1], partners[1])))


# ---------------------------------------------------------------------------
# generic T-odd block form


def generic_blocks(a, d, b) -> dict:
    """The blocks {"a": A, "d": D, "b": B} of the generic T-odd Hamiltonian
    [[A, iB], [iB^dag, D]], as complex arrays.

    A and D must be Hermitian 2x2 matrices and B a real quaternion.  Note
    that PT commutation additionally requires A and D to be real multiples
    of the identity (Hermitian and quaternion-real at once); pseudo-
    Hermiticity alone holds for any Hermitian A, D.
    """
    blocks = {"a": as_cmatrix(a), "d": as_cmatrix(d), "b": as_cmatrix(b)}
    for key, m in blocks.items():
        if m.shape != (2, 2):
            raise ParameterError(f"{key.upper()} must be 2x2")
    for key in ("a", "d"):
        if _beyond_rounding(operator_norm(blocks[key] - blocks[key].conj().T), blocks[key]):
            raise ParameterError(f"{key.upper()} must be Hermitian")
    quaternion_coefficients(blocks["b"])  # raises if not a real quaternion
    return blocks


def generic_t_odd_hamiltonian(blocks: dict) -> np.ndarray:
    """[[A, iB], [iB^dag, D]] of the :func:`generic_blocks` dict ``blocks``."""
    return _t_odd_block(**blocks)


# ---------------------------------------------------------------------------
# 8D Dirac-representation family


def sigma_dot_n(theta: float, phi: float) -> np.ndarray:
    """sigma . n_hat for the unit direction (theta, phi)."""
    n = (
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    )
    return n[0] * SIGMA[1] + n[1] * SIGMA[2] + n[2] * SIGMA[3]


def mass_block(m0: float, m1: float, m2: float, m3: float) -> np.ndarray:
    """Block-level (4x4) mass matrix of the 8D Hamiltonian."""
    return np.array(
        [
            [0, 0, m0 + m3, m1 - 1j * m2],
            [0, 0, m1 + 1j * m2, m0 - m3],
            [m0 + m3, m1 + 1j * m2, 0, 0],
            [m1 - 1j * m2, m0 - m3, 0, 0],
        ],
        dtype=complex,
    )


# block-level coefficient of the momentum: +1 on the upper, -1 on the lower blocks
MOMENTUM_BLOCK = np.diag([1.0, 1.0, -1.0, -1.0])


def h8_hamiltonian(spec: "ModelSpec") -> np.ndarray:
    """Full 8x8 Hamiltonian of an h8-family spec in the momentum basis."""
    sp = spec.p * sigma_dot_n(*spec.direction)
    return kron(MOMENTUM_BLOCK, sp) + kron(mass_block(*spec.masses), np.eye(2))


def h8_alphas() -> list[np.ndarray]:
    """The three 8x8 velocity matrices (coefficients of the momentum components)."""
    return [kron(MOMENTUM_BLOCK, SIGMA[i]) for i in (1, 2, 3)]


def h8_beta() -> np.ndarray:
    """Coefficient matrix of m0; squares to the identity."""
    return kron(mass_block(1.0, 0.0, 0.0, 0.0), np.eye(2))


def effective_mass(m0: float, m2: float) -> float:
    return math.sqrt(m0 * m0 - m2 * m2)


def _require_unbroken(m0: float, m2: float) -> None:
    """Raise BrokenPTError at |m2| >= m0.  The rule ignores the momentum,
    though at p^2 > m2^2 - m0^2 the h8v spectrum is real (ROADMAP item 2)."""
    if m0 <= abs(m2):
        raise BrokenPTError(f"PT-broken regime: |m2| = {abs(m2)} >= m0 = {m0}")


def h8v_reduced_hamiltonian(m0: float, m2: float, p: float) -> np.ndarray:
    """4x4 helicity-reduced block of h8v at signed momentum p."""
    return mass_block(m0, 0.0, m2, 0.0) + p * MOMENTUM_BLOCK


def h8v_p0_eigensystem(m0: float, m2: float) -> EigenSystem:
    """:func:`h8v_reduced_eigensystem` at p = 0; ``realize`` calls that function at the
    spec's momentum.  Unused by the package; kept only while the traced benchmark names it."""
    return h8v_reduced_eigensystem(m0, m2, 0.0)


def h8r_p0_eigensystem(m0: float, m1: float, m2: float) -> EigenSystem:
    """Closed-form eigensystem of the h8r block at p = 0.

    Eigenvalues +/-m1 +/- sqrt(m0^2 - m2^2); kets built from
    a = (sqrt(m0^2 - m2^2) + i m2) / m0 with normalization
    n = 1 / (2 (1 - m2^2/m0^2)^(1/4)).
    """
    _require_unbroken(m0, m2)
    sq = effective_mass(m0, m2)
    a = (sq + 1j * m2) / m0
    n = 1.0 / (2.0 * (1.0 - (m2 / m0) ** 2) ** 0.25)
    tv1 = n * np.array([-1, -a, a, 1], dtype=complex)
    tv2 = n * np.array([1, -a.conjugate(), -a.conjugate(), 1], dtype=complex)
    tu1 = n * np.array([-1, a.conjugate(), -a.conjugate(), 1], dtype=complex)
    tu2 = n * np.array([1, a, a, 1], dtype=complex)
    entries = [(-m1 - sq, tv1), (m1 - sq, tv2), (sq - m1, tu1), (sq + m1, tu2)]
    return pt_normalized_eigensystem(block_pair(), entries)


def h8v_reduced_eigensystem(m0: float, m2: float, p: float) -> EigenSystem:
    """Closed-form eigensystem of the 4x4 reduced h8v block at momentum p.

    Eigenvalues -eps (v kets) and +eps (u kets) with
    eps = sqrt(p^2 + m0^2 - m2^2); the kets carry the 1/sqrt(2 m0 eps)
    normalization.  The closed form is evaluated at p for the kets and at -p
    for the reflected kets that the CS convention uses on the bra side.
    Raises :class:`NumericalError` where m_eff or 2 m0 eps underflows to 0,
    or 2 m0 eps overflows to inf.
    """
    _require_unbroken(m0, m2)
    meff = effective_mass(m0, m2)
    eps = math.hypot(p, meff)
    two_m0_eps = 2.0 * m0 * eps
    if meff == 0.0 or two_m0_eps == 0.0:
        raise NumericalError(f"h8v kets underflow (m_eff or 2 m0 eps is 0) at m0 = {m0}, m2 = {m2}, p = {p}")
    if math.isinf(two_m0_eps):
        raise NumericalError(f"h8v kets overflow (2 m0 eps is inf) at m0 = {m0}, m2 = {m2}, p = {p}")
    norm = 1.0 / math.sqrt(two_m0_eps)

    def rows_at(q: float) -> np.ndarray:
        return norm * np.array(
            [
                [1j * m2 * (eps - q) / meff, m0 * (q - eps) / meff, 0, meff],  # v1
                [1j * (q - eps), 0, 1j * m0, m2],  # v2
                [-1j * m2 * (eps + q) / meff, m0 * (q + eps) / meff, 0, meff],  # u1
                [1j * (q + eps), 0, 1j * m0, m2],  # u2
            ],
            dtype=complex,
        )

    signed = ((-eps, -1), (-eps, -1), (eps, 1), (eps, 1))
    pairs = tuple(EigenPair(lam, ket, sign) for (lam, sign), ket in zip(signed, rows_at(p)))
    return EigenSystem(pairs, reflected=rows_at(-p).T)


# ---------------------------------------------------------------------------
# oracle-backed PT-orthonormal eigensystems


def pt_orthonormal_eigensystem(sym: SymmetryPair, decomposition: Eigendecomposition) -> EigenSystem:
    """PT-orthonormalize the eigenvectors of a matrix's ``eig_oracle`` decomposition.

    Used for family members without closed forms (h8 with m3 != 0).  Within
    each degenerate cluster the indefinite Gram matrix V^dag S V is
    diagonalized, which yields PT-orthogonal kets with signs even when the
    cluster mixes positive and negative PT norms.  Raises
    :class:`BrokenPTError` if the spectrum is complex.
    """
    if np.max(np.abs(decomposition.values.imag)) > DEFAULT_TOL * max(decomposition.norm, 1.0):
        raise BrokenPTError("complex spectrum: no PT-orthonormal basis")
    entries = []
    for cluster in decomposition.clusters:
        block = decomposition.vectors[:, list(cluster)]
        _, u = np.linalg.eigh(block.conj().T @ sym.s @ block)
        value = float(decomposition.values[cluster[0]].real)
        entries.extend((value, ket) for ket in (block @ u).T)
    return pt_normalized_eigensystem(sym, entries)


# ---------------------------------------------------------------------------
# model specification records

# (required, optional) parameter keys, per model
PARAM_KEYS = {
    "sfdm": (("chi", "psi", "theta", "phi"), ()),
    "generic": (("a", "d", "b"), ()),
    "h8": (("m0",), ("m1", "m2", "m3")),
    "h8r": (("m0",), ("m1", "m2")),
    "h8v": (("m0",), ("m2",)),
}
MODEL_NAMES = tuple(PARAM_KEYS)
MOMENTUM_KEYS = ("p", "theta", "phi")
# the members with a static 4D working space: no momentum, no 8D form
STATIC_MODELS = ("sfdm", "generic")


@dataclass(frozen=True)
class ModelSpec:
    """Record selecting a model and its parameters.

    Its JSON document, as :meth:`from_json_dict` reads it::

        {"model": "sfdm" | "generic" | "h8" | "h8r" | "h8v",
         "params": {...},
         "momentum": {"p": x, "theta": t, "phi": f}}

    Construction validates the record, so every reader (CLI flags, model
    files, sweep points) gets the same rules; a violation raises
    :class:`ParameterError`.  ``params`` takes exactly the keys of
    :data:`PARAM_KEYS` for its model: sfdm ``chi``, ``psi``, ``theta``,
    ``phi``; h8 ``m0`` and optionally ``m1``-``m3``; h8r ``m0`` and
    optionally ``m1``, ``m2``; h8v ``m0`` and optionally ``m2`` (an omitted
    mass is 0); generic the blocks ``a``, ``d``, ``b``, given in JSON as complex
    matrices and stored as the dict :func:`generic_blocks` returns.
    ``momentum`` is optional, for the h8 family only, and takes the keys of
    :data:`MOMENTUM_KEYS`.  Every value but the generic blocks is a finite
    number, stored as a float.
    """

    model: str
    params: dict
    momentum: dict | None = None

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ParameterError(f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        json_object(self.params, f"{self.model} params", *PARAM_KEYS[self.model])
        if self.model == "generic":
            object.__setattr__(self, "params", generic_blocks(**self.params))
        else:
            object.__setattr__(self, "params", {key: json_finite(val, f"params.{key}") for key, val in self.params.items()})
        if self.momentum is not None:
            if self.model in STATIC_MODELS:
                raise ParameterError(f"{self.model} takes no momentum; momentum is for the h8 family only")
            momentum = json_object(self.momentum, "momentum", optional=MOMENTUM_KEYS)
            object.__setattr__(self, "momentum", {key: json_finite(val, f"momentum.{key}") for key, val in momentum.items()})

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelSpec":
        """Read a model document; a malformed one raises ParameterError."""
        json_object(doc, "the model document", ("model",), ("params", "momentum"))
        params = doc.get("params", {})
        if doc["model"] == "generic" and isinstance(params, dict):
            params = {key: matrix_from_json(val, f"params.{key}") for key, val in params.items()}
        return cls(model=doc["model"], params=params, momentum=doc.get("momentum"))

    @property
    def p(self) -> float:
        return (self.momentum or {}).get("p", 0.0)

    @property
    def direction(self) -> tuple[float, float]:
        mom = self.momentum or {}
        return mom.get("theta", 0.0), mom.get("phi", 0.0)

    @property
    def masses(self) -> tuple[float, float, float, float]:
        """(m0, m1, m2, m3) of an h8-family spec; an omitted mass is 0."""
        return tuple(self.params.get(key, 0.0) for key in ("m0", "m1", "m2", "m3"))


def model_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Working-space Hamiltonian for a model spec.

    4x4 for sfdm/generic and for the helicity-reduced h8 family; momentum
    enters the reduced block as the signed scalar p.
    """
    if spec.model == "sfdm":
        return sfdm_hamiltonian(SfdmParams(**spec.params))
    if spec.model == "generic":
        # the blocks were checked when the spec was made
        return generic_t_odd_hamiltonian(spec.params)
    return mass_block(*spec.masses) + spec.p * MOMENTUM_BLOCK


def model_full_hamiltonian(spec: ModelSpec) -> np.ndarray | None:
    """Full 8x8 Hamiltonian for the h8 family; None for 4D models."""
    return None if spec.model in STATIC_MODELS else h8_hamiltonian(spec)


def model_symmetry(spec: ModelSpec) -> SymmetryPair:
    """Symmetry pair of the working space."""
    if spec.model in STATIC_MODELS:
        return canonical_pair(2)
    return block_pair()


# ---------------------------------------------------------------------------
# model realization


@dataclass(frozen=True)
class Realization:
    """The working-space model: symmetry pair, Hamiltonian and eigensystem,
    the Hamiltonian's ``eig_oracle`` decomposition if that was made, and the
    PtoscError of the step that failed, if any: no eigensystem then, and no
    Hamiltonian if building that failed."""

    sym: SymmetryPair
    hamiltonian: np.ndarray | None
    eigensystem: EigenSystem | None = None
    error: PtoscError | None = None
    decomposition: Eigendecomposition | None = None


def realize(spec: ModelSpec) -> Realization:
    """Build the working symmetry pair, Hamiltonian and eigensystem for a spec.

    The eigensystem uses the closed form where one exists (sfdm; h8v at any
    momentum; h8r at p = 0), the oracle-backed PT-orthonormalization for
    generic and for full h8 at p = 0, and is absent otherwise, with a
    ConstructionError.  Errors are recorded, never raised; a builder's
    BrokenPTError becomes one whose message starts ``broken PT phase: ``.
    """
    sym = model_symmetry(spec)
    h = eigsys = decomp = error = None
    try:
        h = model_hamiltonian(spec)
        if spec.model == "sfdm":
            eigsys = sfdm_eigensystem(SfdmParams(**spec.params))
        elif spec.model == "generic" or spec.model == "h8" and spec.p == 0:
            decomp = eig_oracle(h)
            eigsys = pt_orthonormal_eigensystem(sym, decomp)
        elif spec.model == "h8v":
            m0, _, m2, _ = spec.masses
            eigsys = h8v_reduced_eigensystem(m0, m2, spec.p)
        elif spec.model == "h8r" and spec.p == 0:
            eigsys = h8r_p0_eigensystem(*spec.masses[:3])
        else:
            error = ConstructionError("no PT-orthonormal eigenbasis construction for this member at p != 0")
    except BrokenPTError as exc:
        error = BrokenPTError(f"broken PT phase: {exc}")
    except PtoscError as exc:
        # without its traceback, the error pins no frame in memory
        error = exc.with_traceback(None)
    return Realization(sym=sym, hamiltonian=h, eigensystem=eigsys, error=error, decomposition=decomp)
