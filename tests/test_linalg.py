import numpy as np
import pytest

from ptosc.errors import NumericalError, ParameterError
from ptosc.linalg import (
    E2,
    SIGMA,
    as_cmatrix,
    as_cvector,
    cluster_indices,
    eig_oracle,
    kron,
    operator_norm,
    require_square,
)

from random_matrices import random_cmatrix


def test_pauli_algebra():
    for i in range(1, 4):
        np.testing.assert_allclose(SIGMA[i] @ SIGMA[i], np.eye(2), atol=1e-15)
    np.testing.assert_allclose(SIGMA[1] @ SIGMA[2], 1j * SIGMA[3], atol=1e-15)
    # e2 = i sigma_2 is the real antisymmetric unit: e2 conj(e2) = -1
    np.testing.assert_allclose(E2 @ E2.conj(), -np.eye(2), atol=1e-15)
    assert np.all(E2.imag == 0)


def test_shape_guards():
    with pytest.raises(ParameterError):
        as_cmatrix(np.zeros((3, 3, 3)))
    with pytest.raises(ParameterError):
        as_cmatrix(np.zeros((9, 9)))  # exceeds the dimension cap
    with pytest.raises(ParameterError):
        as_cvector(np.zeros(3), dim=4)
    with pytest.raises(ParameterError):
        require_square(np.zeros((2, 3)))
    with pytest.raises(ParameterError):
        as_cmatrix(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ParameterError):
        kron(np.eye(4), np.eye(4))  # 16 > 8


def test_operator_norm_of_a_diagonal():
    assert operator_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_operator_norm_matches_numpy_2_norm(dim):
    rng = np.random.default_rng(dim)
    cases = [np.zeros((dim, dim), dtype=complex)]
    for _ in range(50):
        a = random_cmatrix(rng, dim)
        cases += [a, 1e-12 * a]
    for a in cases:
        assert operator_norm(a) == np.linalg.norm(a, 2)


def test_cluster_indices_groups_degenerate_values():
    values = np.array([-1.0, -1.0 + 1e-12, 0.5, 2.0, 2.0])
    clusters = cluster_indices(values, scale=2.0)
    assert clusters == [[0, 1], [2], [3, 4]]


def test_eig_oracle_residuals_and_order():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = random_cmatrix(rng, 6)
        dec = eig_oracle(a)
        assert np.all(np.diff(dec.values.real) >= -1e-12)
        for k in range(6):
            r = np.linalg.norm(a @ dec.vectors[:, k] - dec.values[k] * dec.vectors[:, k])
            assert r <= 1e-10 * max(1.0, operator_norm(a))


def test_eig_oracle_rejects_a_residual_above_tolerance(monkeypatch):
    rng = np.random.default_rng(5)
    a = random_cmatrix(rng, 5)
    eig = np.linalg.eig

    def inaccurate(m):
        values, vectors = eig(m)
        return values + 1e-6, vectors  # every residual is 1e-6 > 1e-10 * max(1, ||a||)

    monkeypatch.setattr(np.linalg, "eig", inaccurate)
    with pytest.raises(NumericalError, match="eigenpair residual exceeds tolerance"):
        eig_oracle(a)


def test_cluster_projector_is_projector():
    a = np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex)
    dec = eig_oracle(a)
    proj = dec.cluster_projector(dec.clusters[0])
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
    assert abs(np.trace(proj) - 2) < 1e-12
