import json

import numpy as np
import pytest

from ptosc.coperator import COperator, build_C
from ptosc.errors import NumericalError
from ptosc.inner import cpt_ip
from ptosc.linalg import SIGMA, operator_norm
from ptosc.models import (
    GenericTOddParams,
    ModelSpec,
    SfdmParams,
    generic_t_odd_hamiltonian,
    h8_alphas,
    h8_beta,
    h8_hamiltonian,
    Dirac8Params,
    real_quaternion,
    sfdm_hamiltonian,
)
from ptosc.symmetry import canonical_pair, dirac_pair
from ptosc.verify import (
    DEFAULT_TOL,
    _cpt_positivity_defect,
    _cpt_samples,
    check_alpha_beta_conditions,
    check_generator_constraints,
    check_pseudo_hermiticity,
    check_pt_commute,
    check_real_spectrum,
    SUITE_NAMES,
    realize,
    run_full_suite,
)

from random_matrices import random_cmatrix, random_cvector

REF = SfdmParams(chi=0.5, psi=0.3, theta=0.7, phi=0.2)

CATALOGUE = [
    ModelSpec("sfdm", {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}),
    ModelSpec("h8v", {"m0": 2.0, "m2": 1.0}, {"p": 0.0}),
    ModelSpec("h8v", {"m0": 2.0, "m2": 1.0}, {"p": 1.0, "theta": 0.4, "phi": 1.1}),
    ModelSpec("h8v", {"m0": 2.0, "m2": 0.0}, {"p": 0.5}),  # Hermitian limit
    ModelSpec("h8r", {"m0": 2.0, "m1": 0.5, "m2": 1.0}),
    ModelSpec("h8", {"m0": 2.0, "m1": 0.3, "m2": 0.5, "m3": 0.4}),
]


# ---------------------------------------------------------------------------
# individual checks


def test_pt_commute_models_pass():
    sym = canonical_pair(2)
    assert check_pt_commute(sym, sfdm_hamiltonian(REF)).passed
    h8 = h8_hamiltonian(Dirac8Params(m0=2.0, m1=0.3, m2=0.5, m3=0.4, p=1.0, theta_p=0.4, phi_p=1.1))
    assert check_pt_commute(dirac_pair(), h8).passed


def test_pt_commute_detects_breaking():
    sym = canonical_pair(2)
    h = sfdm_hamiltonian(REF) + np.diag([1j, 0, 0, 0])
    report = check_pt_commute(sym, h)
    assert not report.passed and report.defect > 0.1


def test_pseudo_hermiticity_models_pass():
    sym = canonical_pair(2)
    assert check_pseudo_hermiticity(sym, sfdm_hamiltonian(REF)).passed
    # Hermitian h commuting with s reduces to Hermiticity
    herm = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    assert check_pseudo_hermiticity(sym, herm).passed


def test_pseudo_hermiticity_momentum_needs_reflection():
    h, h_reflected = (h8_hamiltonian(Dirac8Params(m0=2.0, m2=1.0, p=p)) for p in (1.0, -1.0))
    assert not check_pseudo_hermiticity(dirac_pair(), h).passed
    assert check_pseudo_hermiticity(dirac_pair(), h, h_reflected=h_reflected).passed


def test_pseudo_hermiticity_random_fails():
    sym = canonical_pair(2)
    rng = np.random.default_rng(73)
    report = check_pseudo_hermiticity(sym, random_cmatrix(rng, 4))
    assert not report.passed and report.defect > 0.1


def test_real_spectrum_both_phases():
    assert check_real_spectrum(sfdm_hamiltonian(REF)).passed
    broken = realize(ModelSpec("h8v", {"m0": 1.0, "m2": 2.0}, {"p": 0.0}))
    report = check_real_spectrum(broken.hamiltonian)
    assert not report.passed
    assert report.defect == pytest.approx(np.sqrt(3.0), abs=1e-10)


def test_alpha_beta_conditions_pass_for_h8():
    reports = check_alpha_beta_conditions(h8_alphas(), h8_beta(), dirac_pair())
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert "clifford_algebra" in names and "alpha_hermitian" in names


def test_alpha_beta_conditions_distinguish_hermitian_dirac():
    # a Hermitian Dirac representation with beta = sigma_2 x 1: Clifford
    # holds but the beta quaternion antisymmetry (the T-odd marker) fails,
    # since sigma_2 is Hermitian yet not symmetric
    alphas = [np.kron(SIGMA[1], SIGMA[i]) for i in (1, 2, 3)]
    beta = np.kron(SIGMA[2], SIGMA[0])
    sym = canonical_pair(2)
    reports = {r.name: r for r in check_alpha_beta_conditions(alphas, beta, sym)}
    assert reports["clifford_algebra"].passed
    assert not reports["beta_quaternion"].passed


def test_alpha_sign_flip_breaks_clifford():
    alphas = h8_alphas()
    alphas[0] = -alphas[0] + 0.5 * np.eye(8)
    reports = {r.name: r for r in check_alpha_beta_conditions(alphas, h8_beta(), dirac_pair())}
    assert not reports["clifford_algebra"].passed


def test_generator_constraints():
    reports = check_generator_constraints(h8_alphas(), dirac_pair())
    assert all(r.passed for r in reports)
    assert {r.name for r in reports} == {
        "boost_P_conjugation",
        "boost_T_conjugation",
        "rotation_so3_closure",
    }


def test_generator_constraints_flag_identity_alphas():
    reports = check_generator_constraints([np.eye(8, dtype=complex)] * 3, dirac_pair())
    assert not all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# generic-form property


def test_generic_form_pt_invariant_for_scalar_blocks():
    sym = canonical_pair(2)
    rng = np.random.default_rng(79)
    for _ in range(100):
        a0, d0 = rng.standard_normal(2)
        q = rng.standard_normal(4)
        h = generic_t_odd_hamiltonian(
            GenericTOddParams(a=a0 * SIGMA[0], d=d0 * SIGMA[0], b=real_quaternion(*q))
        )
        assert check_pt_commute(sym, h).passed
        assert check_pseudo_hermiticity(sym, h).passed


# ---------------------------------------------------------------------------
# full suite


@pytest.mark.parametrize("spec", CATALOGUE, ids=lambda s: f"{s.model}-p{s.p}")
def test_full_suite_catalogue_passes(spec):
    reports = run_full_suite(spec, n_random=100)
    assert all(r.passed for r in reports), [
        (r.name, r.defect, r.note) for r in reports if not r.passed
    ]


def test_full_suite_broken_phase_skips_downstream():
    reports = run_full_suite(ModelSpec("h8v", {"m0": 1.0, "m2": 2.0}, {"p": 0.0}))
    by_name = {r.name: r for r in reports}
    assert by_name["pt_commute"].passed
    assert not by_name["real_spectrum"].passed
    assert by_name["completeness"].note.startswith("skipped")


def test_realize_turns_every_eigensystem_failure_into_a_note(monkeypatch):
    # the sfdm kets lose their PT norm to rounding at large chi
    real = realize(ModelSpec("sfdm", {"chi": 30.0, "psi": 0.3, "theta": 0.7, "phi": 0.2}))
    assert real.eigensystem is None and real.eigensystem_note == "vector has vanishing PT norm"
    broken = realize(ModelSpec("h8v", {"m0": 1.0, "m2": 2.0}))
    assert broken.eigensystem is None and broken.eigensystem_note.startswith("broken PT phase: ")

    def fail(*args):
        raise NumericalError("no accuracy")

    monkeypatch.setattr("ptosc.verify.h8v_reduced_eigensystem", fail)
    spec = ModelSpec("h8v", {"m0": 2.0, "m2": 1.0}, {"p": 1.0})
    assert realize(spec).eigensystem_note == "no accuracy"
    reports = run_full_suite(spec, n_random=10)
    assert [r.name for r in reports] == list(SUITE_NAMES)
    assert reports[3].note == "skipped: no accuracy"


def test_full_suite_generic_model():
    # |b|^2 = 0.39 < 1 keeps the spectrum real (unbroken phase)
    params = {
        "a": 1.0 * SIGMA[0],
        "d": -1.0 * SIGMA[0],
        "b": real_quaternion(0.3, 0.1, -0.2, 0.5),
    }
    reports = run_full_suite(ModelSpec("generic", params), n_random=100)
    assert all(r.passed for r in reports)


def test_reports_serialize_to_json_lines():
    reports = run_full_suite(CATALOGUE[0], n_random=10)
    for report in reports:
        doc = json.loads(report.to_json_line())
        assert set(doc) == {"name", "passed", "defect", "tolerance", "note"}
        assert doc["passed"] == (doc["defect"] <= doc["tolerance"])


def test_suite_is_deterministic():
    a = run_full_suite(CATALOGUE[0], n_random=50)
    b = run_full_suite(CATALOGUE[0], n_random=50)
    assert [(r.name, r.defect) for r in a] == [(r.name, r.defect) for r in b]


# ---------------------------------------------------------------------------
# sampled CPT positivity


def reference_positivity_defect(sym, c, eigsys, n_random, seed=0xC0) -> float:
    """The sampled CPT-positivity check, one sample at a time."""
    rng = np.random.default_rng(seed)
    momentum = eigsys.reflected is not None
    worst = 0.0
    for _ in range(n_random):
        coeffs = random_cvector(rng, sym.dim)
        if momentum:
            bra, ket = eigsys.B @ coeffs, eigsys.K @ coeffs
            norm = complex((c.reflected @ bra).conj() @ sym.s @ ket)
            scale = float(np.vdot(coeffs, coeffs).real)
        else:
            v = random_cvector(rng, sym.dim)
            norm = cpt_ip(sym, c.matrix, v, v)
            scale = float(np.vdot(v, v).real)
        worst = max(worst, abs(norm.imag) / scale, max(0.0, -norm.real) / scale)
        if norm.real <= 0:
            worst = max(worst, 1.0)
    return worst


POSITIVITY_SPECS = [
    ModelSpec("sfdm", {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}),
    ModelSpec("h8", {"m0": 2.0, "m1": 0.3, "m2": 0.5, "m3": 0.4}),
    ModelSpec("h8v", {"m0": 2.0, "m2": 1.0}, {"p": 1.0}),
]


def _realized_c(spec):
    real = realize(spec)
    return real.sym, build_C(real.sym, real.eigensystem, hamiltonian=real.hamiltonian), real.eigensystem


@pytest.mark.parametrize("spec", POSITIVITY_SPECS, ids=lambda s: f"{s.model}@p={s.p}")
def test_cpt_positivity_matches_per_sample_loop(spec):
    sym, c, es = _realized_c(spec)
    vectorised = _cpt_positivity_defect(sym, c, es, 1000)
    assert abs(vectorised - reference_positivity_defect(sym, c, es, 1000)) <= 1e-14
    assert _cpt_positivity_defect(sym, c, es, 0) == 0.0


@pytest.mark.parametrize("spec", [POSITIVITY_SPECS[0], POSITIVITY_SPECS[2]], ids=["static", "momentum"])
def test_cpt_positivity_detects_negated_c(spec):
    sym, c, es = _realized_c(spec)
    negated = COperator(matrix=-c.matrix, reflected=-c.reflected)
    assert _cpt_positivity_defect(sym, negated, es, 1000) >= 1.0
    assert reference_positivity_defect(sym, negated, es, 1000) >= 1.0


@pytest.mark.parametrize("rows", [4, 2], ids=["static", "momentum"])
def test_cpt_samples_are_drawn_once_and_read_only(rows):
    x = _cpt_samples(1000, rows, 4)
    assert _cpt_samples(1000, rows, 4) is x
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0, 0] = 0.0
    draws = np.random.default_rng(0xC0).standard_normal((1000, rows, 4))
    np.testing.assert_array_equal(x, draws[:, -2] + 1j * draws[:, -1])


@pytest.mark.parametrize("spec", POSITIVITY_SPECS, ids=lambda s: f"{s.model}@p={s.p}")
def test_suite_reports_the_c_defects_build_c_measured(spec):
    sym, c, _ = _realized_c(spec)
    h = realize(spec).hamiltonian
    square = operator_norm(c.matrix @ c.matrix - np.eye(sym.dim))
    comm = operator_norm(c.matrix @ h - h @ c.matrix)
    assert (c.square_defect, c.commutator_defect) == (square, comm)
    assert build_C(sym, realize(spec).eigensystem).commutator_defect is None
    by_name = {r.name: r for r in run_full_suite(spec)}
    assert by_name["c_squares_to_identity"].defect == square
    assert by_name["c_commutes_with_h"].defect == comm
    assert by_name["c_commutes_with_h"].tolerance == DEFAULT_TOL * max(1.0, operator_norm(h))


# ---------------------------------------------------------------------------
# the suite's shared small-matrix work

GENERIC = ModelSpec("generic", {"a": SIGMA[0], "d": -SIGMA[0], "b": real_quaternion(0.3, 0.1, -0.2, 0.5)})
BROKEN_GENERIC = ModelSpec("generic", {"a": SIGMA[0], "d": -SIGMA[0], "b": real_quaternion(0.9, 0.5, 0.4, 0.3)})
# the members whose eigensystem realize builds on an eig_oracle decomposition
ORACLE_SPECS = [GENERIC, BROKEN_GENERIC, CATALOGUE[5]]
SUITE_TOLS = [1e-14, 1e-10, 1e-6]


@pytest.mark.parametrize("tol", SUITE_TOLS)
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["generic", "broken-generic", "h8-p0"])
def test_suite_spectrum_from_the_shared_decomposition(spec, tol):
    real = realize(spec)
    assert real.decomposition is not None
    assert (real.eigensystem is None) == (spec is BROKEN_GENERIC)
    reports = run_full_suite(spec, tol=tol, n_random=10)
    assert reports[2] == check_real_spectrum(real.hamiltonian, tol)


@pytest.mark.parametrize("tol", SUITE_TOLS)
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["generic", "broken-generic", "h8-p0"])
def test_suite_raises_the_independent_residual_error(spec, tol, monkeypatch):
    eig = np.linalg.eig

    def inaccurate(a):
        values, vectors = eig(a)
        return values + 1e-6, vectors  # every residual is 1e-6 > 1e-10 * max(1, ||H||)

    monkeypatch.setattr(np.linalg, "eig", inaccurate)
    real = realize(spec)
    assert real.decomposition is None and real.eigensystem_note == "eigenpair residual exceeds tolerance"
    with pytest.raises(NumericalError) as suite:
        run_full_suite(spec, tol=tol, n_random=10)
    with pytest.raises(NumericalError) as alone:
        check_real_spectrum(real.hamiltonian, tol)
    assert str(suite.value) == str(alone.value) and suite.value.residual == alone.value.residual


# upper bounds on the np.linalg.svd and np.linalg.eig calls of one suite run:
# each norm is taken once and the working Hamiltonian decomposed once
CALL_BOUNDS = [
    (CATALOGUE[0], 7, 1),  # sfdm
    (GENERIC, 7, 1),  # generic: its blocks were checked when the spec was made
    (CATALOGUE[5], 8, 1),  # h8 at p = 0
    (CATALOGUE[2], 8, 1),  # h8v at p != 0
]


def count_linalg_calls(monkeypatch) -> dict:
    """Counts of the np.linalg.svd and np.linalg.eig calls from here on."""
    counts = {"svd": 0, "eig": 0}
    for name in counts:

        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("spec, svd, eig", CALL_BOUNDS, ids=["sfdm", "generic", "h8-p0", "h8v-p"])
def test_suite_decomposes_and_takes_each_norm_once(spec, svd, eig, monkeypatch):
    run_full_suite(spec, n_random=10)  # fill the caches of pairs and samples first
    counts = count_linalg_calls(monkeypatch)
    run_full_suite(spec, n_random=10)
    assert counts["svd"] <= svd and counts["eig"] <= eig, counts


def test_generic_blocks_are_checked_once_per_spec(monkeypatch):
    # 6 SVDs check the blocks (||M - M^dag|| and ||M|| for A and D, two for
    # B's quaternion form) when the spec is made, and the suite takes 7
    run_full_suite(GENERIC, n_random=10)
    counts = count_linalg_calls(monkeypatch)
    run_full_suite(ModelSpec("generic", dict(GENERIC.params)), n_random=10)
    assert counts["svd"] <= 13 and counts["eig"] <= 1, counts
