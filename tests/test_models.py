import json
import math

import numpy as np
import pytest

from ptosc.errors import BrokenPTError, ParameterError
from ptosc.inner import pt_ip
from ptosc.linalg import SIGMA, eig_oracle, operator_norm
from ptosc.models import (
    Dirac8Params,
    GenericTOddParams,
    ModelSpec,
    SfdmParams,
    effective_mass,
    generic_t_odd_hamiltonian,
    h8_alphas,
    h8_beta,
    h8_hamiltonian,
    h8r_p0_eigensystem,
    h8v_p0_eigensystem,
    h8v_reduced_eigensystem,
    h8v_reduced_hamiltonian,
    helicity_spinors,
    mass_block,
    model_hamiltonian,
    pt_orthonormal_eigensystem,
    quaternion_coefficients,
    real_quaternion,
    sfdm_eigensystem,
    sfdm_hamiltonian,
    sigma_dot_n,
)
from ptosc.symmetry import block_pair, canonical_pair

REF = SfdmParams(chi=0.5, psi=0.3, theta=0.7, phi=0.2)


def random_sfdm(rng) -> SfdmParams:
    chi, psi, th, ph = rng.uniform(-1.5, 1.5, 4)
    return SfdmParams(chi=chi, psi=psi, theta=th, phi=ph)


# ---------------------------------------------------------------------------
# quaternions


def test_real_quaternion_round_trip():
    q = np.array([0.4, -1.2, 0.3, 2.0])
    np.testing.assert_allclose(quaternion_coefficients(real_quaternion(*q)), q, atol=1e-14)


def test_quaternion_rejects_hermitian_admixture():
    with pytest.raises(ParameterError):
        quaternion_coefficients(SIGMA[1])  # sigma_1 itself is not i*sigma_1


# ---------------------------------------------------------------------------
# SFDM


def test_sfdm_unit_determinant_and_hyperboloid():
    rng = np.random.default_rng(41)
    for _ in range(20):
        params = random_sfdm(rng)
        h = sfdm_hamiltonian(params)
        assert abs(np.linalg.det(h) - 1) < 1e-12
        assert params.a0 ** 2 - np.sum(params.b ** 2) == pytest.approx(1.0)


def test_sfdm_closed_form_matches_oracle():
    rng = np.random.default_rng(43)
    for _ in range(20):
        params = random_sfdm(rng)
        h = sfdm_hamiltonian(params)
        es = sfdm_eigensystem(params)
        np.testing.assert_allclose(es.values, [-1, -1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(np.sort(eig_oracle(h).values.real), es.values, atol=1e-10)
        for pair in es.pairs:
            assert np.linalg.norm(h @ pair.ket - pair.value * pair.ket) < 1e-12
    assert es.clusters == ((0, 1), (2, 3))


def test_sfdm_pt_gram_is_signature():
    sym = canonical_pair(2)
    es = sfdm_eigensystem(REF)
    gram = np.array([[pt_ip(sym, a, b) for b in es.kets] for a in es.kets])
    np.testing.assert_allclose(gram, np.diag([-1.0, -1.0, 1.0, 1.0]), atol=1e-12)
    assert es.signs == [-1, -1, 1, 1]


def test_sfdm_chi_zero_coordinate_basis():
    es = sfdm_eigensystem(SfdmParams(chi=0.0, psi=0.3, theta=0.7, phi=0.2))
    h = sfdm_hamiltonian(SfdmParams(chi=0.0, psi=0.3, theta=0.7, phi=0.2))
    for pair in es.pairs:
        assert np.linalg.norm(h @ pair.ket - pair.value * pair.ket) < 1e-14


# ---------------------------------------------------------------------------
# generic T-odd form


def test_generic_params_validation():
    with pytest.raises(ParameterError):
        GenericTOddParams(a=SIGMA[2] * 1j, d=SIGMA[0], b=real_quaternion(1, 0, 0, 0))
    with pytest.raises(ParameterError):
        GenericTOddParams(a=SIGMA[0], d=SIGMA[0], b=SIGMA[1])
    params = GenericTOddParams(a=SIGMA[3], d=-SIGMA[3], b=real_quaternion(0.3, 0.1, -0.2, 0.5))
    h = generic_t_odd_hamiltonian(params)
    assert h.shape == (4, 4)


def test_generic_scalar_blocks_are_pseudo_hermitian():
    sym = canonical_pair(2)
    rng = np.random.default_rng(47)
    for _ in range(20):
        a0, d0 = rng.standard_normal(2)
        q = rng.standard_normal(4)
        params = GenericTOddParams(a=a0 * SIGMA[0], d=d0 * SIGMA[0], b=real_quaternion(*q))
        h = generic_t_odd_hamiltonian(params)
        assert operator_norm(sym.s @ h.conj().T @ sym.s - h) < 1e-12


# ---------------------------------------------------------------------------
# 8D family


def test_h8_residual_structure():
    params = Dirac8Params(m0=2.0, m1=0.3, m2=0.5, m3=0.4, p=1.0, theta_p=0.4, phi_p=1.1)
    h = h8_hamiltonian(params)
    assert h.shape == (8, 8)
    alphas, beta = h8_alphas(), h8_beta()
    n = (
        math.sin(0.4) * math.cos(1.1),
        math.sin(0.4) * math.sin(1.1),
        math.cos(0.4),
    )
    rebuilt = sum(1.0 * n[i] * alphas[i] for i in range(3))
    rebuilt = params.p * rebuilt + np.kron(mass_block(2.0, 0.3, 0.5, 0.4), np.eye(2))
    assert operator_norm(h - rebuilt) < 1e-12


def test_h8_helicity_factorization():
    # an eigenvector of the reduced block at +/-p, tensored with xi_+/-,
    # is an eigenvector of the full 8x8 Hamiltonian
    def lift_reduced_ket(spinor, theta_p, phi_p, helicity):
        xi_plus, xi_minus = helicity_spinors(theta_p, phi_p)
        return np.kron(spinor, xi_plus if helicity > 0 else xi_minus)

    m0, m2, p, th, ph = 2.0, 1.0, 1.3, 0.7, 2.1
    h8 = h8_hamiltonian(Dirac8Params(m0=m0, m2=m2, p=p, theta_p=th, phi_p=ph))
    for hel, q in ((+1, p), (-1, -p)):
        es = h8v_reduced_eigensystem(m0, m2, q)
        for pair in es.pairs:
            full = lift_reduced_ket(pair.ket, th, ph, hel)
            assert np.linalg.norm(h8 @ full - pair.value * full) < 1e-12


def test_helicity_spinors():
    th, ph = 0.9, 0.3
    sn = sigma_dot_n(th, ph)
    xi_p, xi_m = helicity_spinors(th, ph)
    np.testing.assert_allclose(sn @ xi_p, xi_p, atol=1e-14)
    np.testing.assert_allclose(sn @ xi_m, -xi_m, atol=1e-14)
    xi_p2, _ = helicity_spinors(math.pi / 2, 0.0)
    np.testing.assert_allclose(xi_p2, np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-14)


def test_h8v_p0_closed_form():
    sym = block_pair()
    m0, m2 = 2.0, 1.0
    es = h8v_p0_eigensystem(m0, m2)
    h = h8v_reduced_hamiltonian(m0, m2, 0.0)
    b2 = effective_mass(m0, m2)
    np.testing.assert_allclose(es.values, [-b2, -b2, b2, b2], atol=1e-12)
    for pair in es.pairs:
        assert np.linalg.norm(h @ pair.ket - pair.value * pair.ket) < 1e-12
        assert abs(pt_ip(sym, pair.ket, pair.ket) - pair.pt_sign) < 1e-12
    assert es.signs == [-1, -1, 1, 1]


@pytest.mark.parametrize("m0, m2", [(2.0, 1.0), (3.0, -0.5), (2.0, 0.0)])
def test_h8v_p0_eigensystem_is_the_reduced_one_at_p0(m0, m2):
    # m2 = 0 included: the basis has no 1/m2 pole
    es, reduced = h8v_p0_eigensystem(m0, m2), h8v_reduced_eigensystem(m0, m2, 0.0)
    for name in ("K", "B", "values", "signs"):
        assert np.array_equal(getattr(es, name), getattr(reduced, name)), name


def test_h8v_reduced_closed_form_momentum():
    sym = block_pair()
    for m0, m2, p in ((2.0, 1.0, 1.0), (3.0, 0.5, 2.0), (2.0, 0.0, 0.7), (2.0, 1.0, 0.0)):
        es = h8v_reduced_eigensystem(m0, m2, p)
        h = h8v_reduced_hamiltonian(m0, m2, p)
        eps = math.hypot(p, effective_mass(m0, m2))
        np.testing.assert_allclose(es.values, [-eps, -eps, eps, eps], atol=1e-12)
        # CS momentum-space PT Gram: bra kets at -p, kets at p
        gram = es.B.conj().T @ sym.s @ es.K
        np.testing.assert_allclose(gram, np.diag([-1.0, -1.0, 1.0, 1.0]), atol=1e-12)
        # the -p evaluation solves the reflected problem
        hm = h8v_reduced_hamiltonian(m0, m2, -p)
        for j, pair in enumerate(es.pairs):
            assert np.linalg.norm(h @ pair.ket - pair.value * pair.ket) < 1e-12
            bra = es.B[:, j]
            assert np.linalg.norm(hm @ bra - pair.value * bra) < 1e-12


def test_h8v_reduced_hamiltonian_is_the_working_hamiltonian():
    for m0, m2, p in ((2.0, 1.0, 1.0), (3.0, -0.5, -2.0), (2.0, 0.0, 0.0), (1.5, 1.2, -0.3)):
        spec = ModelSpec("h8v", {"m0": m0, "m2": m2}, {"p": p})
        assert np.array_equal(h8v_reduced_hamiltonian(m0, m2, p), model_hamiltonian(spec))


def test_h8r_p0_closed_form():
    sym = block_pair()
    rng = np.random.default_rng(53)
    for _ in range(20):
        m0 = rng.uniform(1.0, 3.0)
        m2 = rng.uniform(-0.9, 0.9) * m0
        m1 = rng.uniform(-1.0, 1.0)
        es = h8r_p0_eigensystem(m0, m1, m2)
        h = model_hamiltonian(ModelSpec("h8r", {"m0": m0, "m1": m1, "m2": m2}))
        sq = effective_mass(m0, m2)
        expected = sorted([-m1 - sq, m1 - sq, sq - m1, sq + m1])
        np.testing.assert_allclose(es.values, expected, atol=1e-10)
        for pair in es.pairs:
            assert np.linalg.norm(h @ pair.ket - pair.value * pair.ket) < 1e-10
        gram = np.array([[pt_ip(sym, a, b) for b in es.kets] for a in es.kets])
        np.testing.assert_allclose(np.abs(np.diag(gram)), np.ones(4), atol=1e-10)
        np.testing.assert_allclose(gram - np.diag(np.diag(gram)), np.zeros((4, 4)), atol=1e-10)


def test_broken_phase_raises():
    with pytest.raises(BrokenPTError) as info:
        h8v_reduced_eigensystem(1.0, 2.0, 0.0)
    assert info.value.eigenvalues is not None
    with pytest.raises(BrokenPTError):
        h8r_p0_eigensystem(1.0, 0.5, 1.0)  # boundary |m2| = m0 counts as broken


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_broken_phase_reports_true_eigenvalues(p):
    # the reduced h8v block has eigenvalues +/- sqrt(p^2 + m0^2 - m2^2), each twice
    with pytest.raises(BrokenPTError) as info:
        h8v_reduced_eigensystem(1.0, 2.0, p)
    expected = np.linalg.eigvals(h8v_reduced_hamiltonian(1.0, 2.0, p))

    def key(z):
        return round(z.imag, 9), round(z.real, 9)

    np.testing.assert_allclose(sorted(info.value.eigenvalues, key=key), sorted(expected, key=key), atol=1e-12)


def test_pt_orthonormal_eigensystem_oracle_route():
    # full h8 block with all masses nonzero has no closed form here;
    # the oracle route must still produce a PT-orthonormal basis
    sym = block_pair()
    h = model_hamiltonian(ModelSpec("h8", {"m0": 2.0, "m1": 0.3, "m2": 0.5, "m3": 0.4}))
    es = pt_orthonormal_eigensystem(sym, eig_oracle(h))
    gram = np.array([[pt_ip(sym, a, b) for b in es.kets] for a in es.kets])
    np.testing.assert_allclose(gram, np.diag(np.array(es.signs, dtype=float)), atol=1e-10)
    for pair in es.pairs:
        assert np.linalg.norm(h @ pair.ket - pair.value * pair.ket) < 1e-10


def test_pt_orthonormal_eigensystem_broken_raises():
    sym = block_pair()
    h = h8v_reduced_hamiltonian(1.0, 2.0, 0.0)
    with pytest.raises(BrokenPTError):
        pt_orthonormal_eigensystem(sym, eig_oracle(h))


# ---------------------------------------------------------------------------
# model specs


def test_model_spec_json_round_trip():
    spec = ModelSpec("h8v", {"m0": 2.0, "m2": 1.0}, {"p": 1.0, "theta": 0.4, "phi": 1.1})
    again = ModelSpec.from_json_dict(spec.to_json_dict())
    assert again == spec
    assert again.p == 1.0
    assert again.direction == (0.4, 1.1)


def test_model_spec_generic_serializes_matrices():
    params = {"a": SIGMA[0], "d": SIGMA[0], "b": real_quaternion(0.3, 0.1, -0.2, 0.5)}
    spec = ModelSpec("generic", params)
    doc = spec.to_json_dict()
    assert doc["params"]["b"][0][0] == {"re": 0.3, "im": 0.5}
    again = ModelSpec.from_json_dict(doc)
    np.testing.assert_allclose(again.params["b"], params["b"])


def test_model_spec_rejects_unknown_model():
    with pytest.raises(ParameterError):
        ModelSpec("nonesuch", {})


SFDM_DOC = {"model": "sfdm", "params": {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}}


@pytest.mark.parametrize(
    "doc",
    [
        {"model": "h8v", "params": {"m0": 2.0, "m_2": 1.0}},
        {"model": "h8", "params": {"m1": 1.0}},
        {"model": "h8v", "params": {"m0": "two"}},
        {"model": "h8r", "params": {"m0": 2.0, "m1": True}},
        {"model": "h8v", "params": {"m0": float("inf")}},
        {"model": "h8v", "params": [2.0]},
        {"model": "sfdm", "params": {"chi": 0.5, "psi": 0.3, "theta": 0.7}},
        {"model": "sfdm", "params": {**SFDM_DOC["params"], "m0": 1.0}},
        {"model": "sfdm", "params": {**SFDM_DOC["params"], "chi": None}},
        {**SFDM_DOC, "momentum": [1.0]},
        {**SFDM_DOC, "momentum": {"p": "1"}},
        {"model": "h8v", "params": {"m0": 2.0}, "momentum": {"q": 1.0}},
        {"model": "generic", "params": {"a": [[1.0, 0.0], [0.0, 1.0]]}},
        {"model": ["h8v"], "params": {"m0": 2.0}},
        {"model": "h8v", "params": {"m0": 2.0}, "momentun": {"p": 1.0}},
        [SFDM_DOC],
        {**SFDM_DOC, "momentum": {"p": 1.0}},
        {"model": "h8v", "params": {"m0": 2.0, "m1": 0.5}},
        {"model": "h8r", "params": {"m0": 2.0, "m3": 0.5}},
        {"model": "h8", "params": {"m0": 2.0, "p": 0.5}, "momentum": {"p": 1.0}},
    ],
    ids=lambda doc: json.dumps(doc),
)
def test_model_spec_rejects_malformed_documents(doc):
    with pytest.raises(ParameterError):
        ModelSpec.from_json_dict(doc)


GENERIC_PARAMS = {"a": SIGMA[0], "d": -SIGMA[0], "b": real_quaternion(0.3, 0.1, -0.2, 0.5)}


@pytest.mark.parametrize(
    "model, params, momentum",
    [
        ("h8v", {"m0": 2.0, "m1": 0.5}, None),
        ("h8v", {"m0": math.nan}, None),
        ("sfdm", SFDM_DOC["params"], {"p": 0.0}),
        ("generic", GENERIC_PARAMS, {"p": 1.0}),
        ("generic", {**GENERIC_PARAMS, "m0": 1.0}, None),
    ],
    ids=["h8v-m1", "h8v-nan", "sfdm-momentum", "generic-momentum", "generic-extra-key"],
)
def test_model_spec_validates_direct_construction(model, params, momentum):
    with pytest.raises(ParameterError):
        ModelSpec(model, params, momentum)


def test_model_spec_stores_floats_and_reads_momentum_only():
    spec = ModelSpec("h8r", {"m0": 2, "m2": 1}, {"p": 1})
    assert spec.params == {"m0": 2.0, "m2": 1.0} and all(type(v) is float for v in spec.params.values())
    assert spec.masses == (2.0, 0.0, 1.0, 0.0)
    assert (spec.p, spec.direction) == (1.0, (0.0, 0.0))
    assert ModelSpec("h8v", {"m0": 2.0}).p == 0.0
