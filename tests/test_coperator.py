import numpy as np
import pytest

from ptosc.coperator import build_C, closed_form_C_h8v, completeness_defect
from ptosc.errors import ConstructionError
from ptosc.linalg import eig_oracle, operator_norm
from ptosc.models import (
    EigenPair,
    EigenSystem,
    ModelSpec,
    SfdmParams,
    effective_mass,
    h8r_p0_eigensystem,
    h8v_reduced_eigensystem,
    h8v_reduced_hamiltonian,
    model_hamiltonian,
    pt_orthonormal_eigensystem,
    sfdm_eigensystem,
    sfdm_hamiltonian,
)
from ptosc.symmetry import block_pair, canonical_pair

REF = SfdmParams(chi=0.5, psi=0.3, theta=0.7, phi=0.2)


def test_build_C_properties_sfdm():
    sym = canonical_pair(2)
    h = sfdm_hamiltonian(REF)
    es = sfdm_eigensystem(REF)
    c = build_C(sym, es, hamiltonian=h)
    eye = np.eye(4)
    assert operator_norm(c.matrix @ c.matrix - eye) < 1e-12
    assert operator_norm(c.matrix @ h - h @ c.matrix) < 1e-12
    # C also commutes with PT: C S Z = S Z conj(C)
    assert operator_norm(c.matrix @ sym.s @ sym.z - sym.s @ sym.z @ c.matrix.conj()) < 1e-12
    # eigenvalues of C are the PT signs
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(c.matrix).real), [-1, -1, 1, 1], atol=1e-12)


def test_build_C_rejects_non_orthonormal_basis():
    sym = canonical_pair(2)
    es = sfdm_eigensystem(REF)
    broken = EigenSystem(
        tuple(EigenPair(p.value, 2.0 * p.ket, p.pt_sign) for p in es.pairs)
    )
    with pytest.raises(ConstructionError):
        build_C(sym, broken)


def test_build_C_rejects_wrong_hamiltonian():
    sym = canonical_pair(2)
    es = sfdm_eigensystem(REF)
    other = sfdm_hamiltonian(SfdmParams(chi=1.1, psi=0.9, theta=0.2, phi=0.6))
    with pytest.raises(ConstructionError):
        build_C(sym, es, hamiltonian=other)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_closed_form_C_h8v_matches_spectral(p):
    sym = block_pair()
    es = h8v_reduced_eigensystem(2.0, 1.0, p)
    c = build_C(sym, es, hamiltonian=h8v_reduced_hamiltonian(2.0, 1.0, p))
    assert operator_norm(c.matrix - closed_form_C_h8v(2.0, 1.0, p)) < 1e-10
    # the reflected C used on bra sides
    assert operator_norm(c.reflected - closed_form_C_h8v(2.0, 1.0, -p)) < 1e-10


def test_C_large_momentum_asymptote():
    # C(p) -> diag(1, 1, -1, -1) as p -> infinity
    c = closed_form_C_h8v(2.0, 1.0, 1e3)
    assert operator_norm(c - np.diag([1.0, 1.0, -1.0, -1.0])) < 1e-2
    assert operator_norm(c - np.diag([1.0, 1.0, -1.0, -1.0])) > 1e-4


def test_h8r_C_is_m1_independent():
    # the restricted model's C coincides with the m1 = 0 closed form
    sym = block_pair()
    for m1 in (0.2, 0.5, 0.9):
        es = h8r_p0_eigensystem(2.0, m1, 1.0)
        h = model_hamiltonian(ModelSpec("h8r", {"m0": 2.0, "m1": m1, "m2": 1.0}))
        c = build_C(sym, es, hamiltonian=h)
        assert operator_norm(c.matrix - closed_form_C_h8v(2.0, 1.0, 0.0)) < 1e-10


def test_h8v_p0_C_equals_h_over_effective_mass():
    sym = block_pair()
    es = h8v_reduced_eigensystem(2.0, 1.0, 0.0)
    c = build_C(sym, es)
    h = h8v_reduced_hamiltonian(2.0, 1.0, 0.0)
    assert operator_norm(c.matrix - h / effective_mass(2.0, 1.0)) < 1e-12


def test_full_h8_C_via_oracle_route():
    sym = block_pair()
    h = model_hamiltonian(ModelSpec("h8", {"m0": 2.0, "m1": 0.3, "m2": 0.5, "m3": 0.4}))
    es = pt_orthonormal_eigensystem(sym, eig_oracle(h))
    c = build_C(sym, es, hamiltonian=h)
    assert operator_norm(c.matrix @ c.matrix - np.eye(4)) < 1e-10
    assert operator_norm(c.matrix @ sym.s @ sym.z - sym.s @ sym.z @ c.matrix.conj()) < 1e-10


def test_completeness_identity_and_drop_one():
    sym = canonical_pair(2)
    es = sfdm_eigensystem(REF)
    assert completeness_defect(sym, es) < 1e-12
    for j in range(4):
        assert completeness_defect(sym, es, drop=j) >= 1 - 1e-12


def test_completeness_momentum():
    sym = block_pair()
    es = h8v_reduced_eigensystem(2.0, 1.0, 1.0)
    assert completeness_defect(sym, es) < 1e-12
    assert completeness_defect(sym, es, drop=0) >= 1 - 1e-12
