"""The axiom suite: every algebraic condition the framework requires.

Each check measures the operator-norm defect of one identity and reports it
against a tolerance; the suite never mutates or repairs its inputs, and
checks the model that :func:`ptosc.models.realize` builds.  One
convention note, validated numerically: pseudo-Hermiticity at nonzero
momentum relates H(p) to H(-p), S^-1 H(p)^dag S = H(-p).
``check_pseudo_hermiticity`` accepts the reflected Hamiltonian for that case
and defaults to H itself at p = 0.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .coperator import COperator, build_C, completeness_defect
from .errors import PtoscError
from .inner import pt_adjoint
from .linalg import DEFAULT_TOL, Eigendecomposition, eig_oracle, operator_norm, require_square
from .models import EigenSystem, ModelSpec, model_full_hamiltonian, realize
from .oscillate import _certificate, _cpt_bras, standard_flavour_basis
from .symmetry import SymmetryPair, dirac_pair


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check: passed iff defect <= tolerance."""

    name: str
    passed: bool
    defect: float
    tolerance: float
    note: str = ""

    def to_json_line(self) -> str:
        """The fields as one JSON object, in field order."""
        return json.dumps(vars(self))


def _report(name: str, defect: float, tol: float, note: str = "") -> CheckReport:
    return CheckReport(name=name, passed=bool(defect <= tol), defect=float(defect), tolerance=float(tol), note=note)


def check_pt_commute(sym: SymmetryPair, h, tol: float = DEFAULT_TOL, norm: float | None = None) -> CheckReport:
    """[H, PT] = 0 in matrix form: H S Z = S Z conj(H); ``norm`` is ||H|| if known."""
    h = require_square(h)
    defect = operator_norm(h @ sym.s @ sym.z - sym.s @ sym.z @ h.conj())
    return _report("pt_commute", defect, tol * max(1.0, operator_norm(h) if norm is None else norm))


def check_pseudo_hermiticity(sym: SymmetryPair, h, h_reflected=None, tol: float = DEFAULT_TOL, norm: float | None = None) -> CheckReport:
    """S^-1 H^dag S = H (or H(-p) when the reflected Hamiltonian is given); ``norm`` is ||H|| if known."""
    h = require_square(h)
    target = h if h_reflected is None else require_square(h_reflected)
    defect = operator_norm(pt_adjoint(sym, h) - target)
    note = "" if h_reflected is None else "compared against the momentum-reflected Hamiltonian"
    return _report("pseudo_hermiticity", defect, tol * max(1.0, operator_norm(h) if norm is None else norm), note)


def check_real_spectrum(h, tol: float = DEFAULT_TOL, decomposition: Eigendecomposition | None = None) -> CheckReport:
    """max |Im lambda| over the numerically computed spectrum: that of
    ``decomposition``, if given, which must be ``eig_oracle(h)``."""
    decomp = eig_oracle(h) if decomposition is None else decomposition
    defect = float(np.max(np.abs(decomp.values.imag)))
    return _report("real_spectrum", defect, tol * max(1.0, decomp.norm))


def check_alpha_beta_conditions(alphas, beta, sym: SymmetryPair) -> list[CheckReport]:
    """The full set of representation identities for (alpha_i, beta), each to 1e-12."""
    alphas = [require_square(a) for a in alphas]
    beta = require_square(beta)
    s, z = sym.s, sym.z
    s_dag, z_dag = s.conj().T, z.conj().T
    eye = np.eye(sym.dim)
    reports = []

    def add(name, defect, note=""):
        reports.append(_report(name, defect, 1e-12, note))

    add("S_alpha_anticommute", max(operator_norm(s @ a + a @ s) for a in alphas))
    add("Z_alpha_conjugation", max(operator_norm(z @ a.conj() + a @ z) for a in alphas))
    add("alpha_PT_commute", max(operator_norm(a @ s @ z - s @ z @ a.conj()) for a in alphas))
    add("alpha_self_adjoint", max(operator_norm(-a.conj().T @ s_dag - s_dag @ a) for a in alphas))
    add("beta_self_adjoint", operator_norm(beta.conj().T @ s_dag - s_dag @ beta))
    add("beta_quaternion", operator_norm(beta + z.T @ beta.T @ z_dag))
    add("alpha_quaternion", max(operator_norm(a - z.T @ a.T @ z_dag) for a in alphas))
    clifford = 0.0
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            target = 2.0 * eye if i == j else np.zeros_like(eye)
            clifford = max(clifford, operator_norm(a @ b + b @ a - target))
        clifford = max(clifford, operator_norm(a @ beta + beta @ a))
    clifford = max(clifford, operator_norm(beta @ beta - eye))
    add("clifford_algebra", clifford)
    add("alpha_hermitian", max(operator_norm(a - a.conj().T) for a in alphas), "derived consequence")
    return reports


def _pt_gram_defect(sym: SymmetryPair, eigsys: EigenSystem) -> float:
    gram = eigsys.B.conj().T @ sym.s @ eigsys.K
    return operator_norm(gram - np.diag(np.array(eigsys.signs, dtype=float)))


@functools.lru_cache(maxsize=16)
def _cpt_samples(n_random: int, rows: int, dim: int) -> np.ndarray:
    """The (n_random, dim) complex sample vectors of the positivity check.

    Each sample draws ``rows`` real vectors of length dim from
    ``default_rng(0xC0)``; the last two are the real and imaginary parts of
    its vector.  Drawn once per argument tuple and shared, read-only.
    """
    draws = np.random.default_rng(0xC0).standard_normal((n_random, rows, dim))
    x = draws[:, -2] + 1j * draws[:, -1]
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=16)
def _cpt_sample_forms(n_random: int, rows: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The samples x of :func:`_cpt_samples` as the (n_random, dim^2) outer
    products conj(x_i) x_j, one row each, and their norms |x|^2: x^dag M x of
    every sample is then one product with M raveled.  Made once per argument
    tuple and shared, read-only."""
    x = _cpt_samples(n_random, rows, dim)
    pairs = (x.conj()[:, :, None] * x[:, None, :]).reshape(n_random, dim * dim)
    scale = np.einsum("ni,ni->n", x.conj(), x).real
    pairs.flags.writeable = scale.flags.writeable = False
    return pairs, scale


def _cpt_positivity_defect(sym: SymmetryPair, c: COperator, eigsys: EigenSystem, n_random: int) -> float:
    """Worst deviation from positivity/reality of random CPT self-overlaps.

    Static models sample coordinate vectors v, with self-overlap
    (C v)^dag S v = v^dag M v for the metric M = C^dag S; momentum models
    sample coefficient vectors x on the eigenbasis, with self-overlap
    (C(-p) B x)^dag S K x = x^dag M x for M = (C(-p) B)^dag S K.  Each sample
    draws a coefficient vector first, then (static only) the coordinate
    vector.  Every self-overlap comes from one matrix-vector product of the
    cached :func:`_cpt_sample_forms` with M raveled, and is divided by |x|^2
    once.  The defect is the worst |Im| or -Re of those ratios, and at least
    1.0 if any Re <= 0.
    """
    static = eigsys.reflected is None
    pairs, scale = _cpt_sample_forms(n_random, 4 if static else 2, sym.dim)
    if static:
        metric = c.matrix.conj().T @ sym.s
    else:
        metric = (c.reflected @ eigsys.B).conj().T @ sym.s @ eigsys.K
    norms = pairs @ metric.ravel()
    ratios = norms / scale
    worst = max(np.abs(ratios.imag).max(initial=0.0), (-ratios.real).max(initial=0.0))
    if (norms.real <= 0).any():
        worst = max(worst, 1.0)
    return float(worst)


SUITE_NAMES = (
    "pt_commute",
    "pseudo_hermiticity",
    "real_spectrum",
    "pt_orthonormality",
    "c_squares_to_identity",
    "c_commutes_with_h",
    "cpt_positive_definite",
    "completeness",
    "row_stochastic_table",
)


def run_full_suite(spec: ModelSpec, tol: float = DEFAULT_TOL, n_random: int = 1000) -> list[CheckReport]:
    """Ordered axiom checks for one model; downstream checks are skipped
    (reported failed with a reason) when the spectrum is broken or no
    PT-orthonormal eigenbasis exists.  ``row_stochastic_table`` reports the
    ``--golden`` row bound of :func:`ptosc.oscillate._certificate`: how far
    a CPT-route row can sum from 1 over every real t, in exact arithmetic
    (a table sampled in fp64 adds a few eps).  Raises the error of a
    Hamiltonian that :func:`realize` could not build."""
    real = realize(spec)
    if real.hamiltonian is None:
        raise real.error
    # Matrix-level symmetry checks run on the full 8D Hamiltonian for the h8
    # family (the reduced block loses PT covariance at p != 0) and on the
    # working 4D one otherwise.
    h_m = model_full_hamiltonian(spec)
    # the decomposition realize made, if any, is the one eig_oracle would make
    decomp = eig_oracle(real.hamiltonian) if real.decomposition is None else real.decomposition
    if h_m is None:
        sym_m, h_m, norm_m = real.sym, real.hamiltonian, decomp.norm
    else:
        sym_m, norm_m = dirac_pair(), operator_norm(h_m)
    # a static model has p = 0, so H(-p) is built only for the h8 family
    h_m_r = None if spec.p == 0 else model_full_hamiltonian(ModelSpec(spec.model, spec.params, {**spec.momentum, "p": -spec.p}))
    spectrum = check_real_spectrum(real.hamiltonian, tol, decomp)
    reports = [check_pt_commute(sym_m, h_m, tol, norm_m), check_pseudo_hermiticity(sym_m, h_m, h_m_r, tol, norm_m), spectrum]

    def skip_rest(reason: str) -> list[CheckReport]:
        return reports + [_report(name, math.inf, tol, f"skipped: {reason}") for name in SUITE_NAMES[len(reports) :]]

    if not spectrum.passed:
        return skip_rest("broken PT phase (complex spectrum)")
    if real.eigensystem is None:
        return skip_rest(str(real.error))
    eigsys, sym = real.eigensystem, real.sym
    reports.append(_report("pt_orthonormality", _pt_gram_defect(sym, eigsys), tol))
    try:
        c = build_C(sym, eigsys, hamiltonian=real.hamiltonian, tol=tol)
    except PtoscError as exc:
        return skip_rest(f"C construction failed: {exc}")
    # build_C measured both defects; real_spectrum's tolerance is
    # tol * max(1, ||H||), the scale of the commutator check
    reports.append(_report("c_squares_to_identity", c.square_defect, tol))
    reports.append(_report("c_commutes_with_h", c.commutator_defect, spectrum.tolerance))
    reports.append(_report("cpt_positive_definite", _cpt_positivity_defect(sym, c, eigsys, n_random), tol))
    reports.append(_report("completeness", completeness_defect(sym, eigsys), tol))
    try:
        basis = standard_flavour_basis(sym, eigsys, c)
    except PtoscError as exc:
        return skip_rest(f"oscillation table unavailable: {exc}")
    reports.append(_report("row_stochastic_table", _certificate(_cpt_bras(sym, c.reflected, eigsys.B) @ basis)[1], tol))
    return reports
