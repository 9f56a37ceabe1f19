import numpy as np
import pytest

from ptosc.errors import ParameterError
from ptosc.linalg import operator_norm
from ptosc.models import real_quaternion
from ptosc.symmetry import (
    SymmetryPair,
    block_pair,
    build_canonical_S,
    build_canonical_Z,
    canonical_pair,
    dirac_pair,
)

from random_matrices import random_cvector

ALL_PAIRS = [canonical_pair(1, m=2), canonical_pair(2), canonical_pair(3, m=2), block_pair(), dirac_pair()]


@pytest.mark.parametrize("sym", ALL_PAIRS)
def test_pair_algebra(sym):
    eye = np.eye(sym.dim)
    assert operator_norm(sym.s @ sym.s - eye) < 1e-14
    assert operator_norm(sym.z @ sym.z.conj() + eye) < 1e-14
    assert operator_norm(sym.z.T + sym.z) < 1e-14
    # S Z = Z conj(S) is the matrix form of [P, T] = 0
    assert operator_norm(sym.s @ sym.z - sym.z @ sym.s.conj()) < 1e-14
    # Z is an isometry of the PT metric
    assert operator_norm(sym.z.T @ sym.s @ sym.z - sym.s) < 1e-13
    # S is Hermitian, so the PT form a^dag S b is a Hermitian form
    assert np.array_equal(sym.s, sym.s.conj().T)


def apply_T(sym, v):
    """Antilinear time reversal: T v = Z conj(v)."""
    return sym.z @ v.conj()


@pytest.mark.parametrize("sym", ALL_PAIRS)
def test_t_squares_to_minus_one(sym):
    rng = np.random.default_rng(17)
    v = random_cvector(rng, sym.dim)
    np.testing.assert_allclose(apply_T(sym, apply_T(sym, v)), -v, atol=1e-13)


@pytest.mark.parametrize("sym", ALL_PAIRS)
def test_pt_product_two_forms_agree(sym):
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = random_cvector(rng, sym.dim)
        b = random_cvector(rng, sym.dim)
        lhs = (sym.s @ apply_T(sym, a)) @ sym.z @ b
        rhs = a.conj() @ sym.s @ b
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_odd_dimension_rejected():
    with pytest.raises(ParameterError):
        build_canonical_S(2, 3)
    with pytest.raises(ParameterError):
        # odd m would make parity split a Kramers doublet
        build_canonical_S(1, 4)


def test_t_even_z_rejected():
    # symmetric Z (T^2 = +1) must not build a pair
    with pytest.raises(ParameterError):
        SymmetryPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex))


def test_incompatible_s_z_rejected():
    # S that fails S Z = Z conj(S)
    s = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ParameterError):
        SymmetryPair(s, build_canonical_Z(1))


def test_dirac_pair_shape():
    sym = dirac_pair()
    assert sym.dim == 8
    # parity swaps the upper and lower 4-blocks
    v = np.arange(8, dtype=complex)
    np.testing.assert_allclose(sym.s @ v, np.concatenate([v[4:], v[:4]]))
    s = np.array(
        [
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(sym.s, s)


@pytest.mark.parametrize(
    "build",
    [lambda: canonical_pair(2), lambda: canonical_pair(3, m=2), block_pair, dirac_pair],
    ids=["canonical", "canonical_m2", "block", "dirac"],
)
def test_fixed_pairs_are_shared_and_read_only(build):
    sym = build()
    assert build() is sym
    for matrix in (sym.s, sym.z):
        with pytest.raises(ValueError):
            matrix[0, 0] = 5.0


def test_pair_keeps_a_copy_of_its_inputs():
    s, z = np.eye(2, dtype=complex), build_canonical_Z(1)
    sym = SymmetryPair(s, z)
    s[0, 0] = -1.0
    assert sym.s[0, 0] == 1.0 and s.flags.writeable


def test_pt_product_mismatch_rejected():
    # S passes the four algebra identities exactly (the message shows the last
    # check fails), but Z^T S^T Z differs from S, so (PT a)^T Z b and a^dag S b
    # disagree
    q = real_quaternion(0.3, 0.2, -0.1, 0.4)
    s = np.block([[np.eye(2), q], [np.zeros((2, 2)), -np.eye(2)]])
    z = build_canonical_Z(2)
    assert operator_norm(z.T @ s.T @ z - s) == pytest.approx(0.548, abs=1e-3)
    with pytest.raises(ParameterError, match=r"\(PT a\)\^T Z b does not reproduce a\^dag S b"):
        SymmetryPair(s, z)
