import numpy as np
import pytest

from ptosc.errors import ParameterError
from ptosc.linalg import E2, kron, operator_norm
from ptosc.models import real_quaternion
from ptosc.symmetry import SymmetryPair, block_pair, canonical_pair, dirac_pair

from random_matrices import random_cvector


# canonical-basis pairs with S = diag(+1 x 2, -1 x (dim - 2)) in dimensions 2 and 6
ALL_PAIRS = [
    SymmetryPair(np.eye(2), kron(np.eye(1), E2)),
    canonical_pair(2),
    SymmetryPair(np.diag([1.0, 1.0, -1.0, -1.0, -1.0, -1.0]), kron(np.eye(3), E2)),
    block_pair(),
    dirac_pair(),
]


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
    with pytest.raises(ParameterError, match="positive even dimension, got 3"):
        SymmetryPair(np.eye(3), np.eye(3))
    with pytest.raises(ParameterError, match="positive even dimension, got 0"):
        SymmetryPair(np.eye(0), np.eye(0))
    with pytest.raises(ParameterError, match=r"S Z = Z conj\(S\)"):
        # a +1 block of odd size would make parity split a Kramers doublet
        SymmetryPair(np.diag([1.0, -1.0, -1.0, -1.0]), kron(np.eye(2), E2))


@pytest.mark.parametrize("n_pairs", [-1, 0, 1, 3, 5])
def test_canonical_pair_outside_its_rules_rejected(n_pairs):
    # no pairs (-1 and 0); a split middle Kramers doublet (1 and 3); dimension 10 > 8
    with pytest.raises(ParameterError):
        canonical_pair(n_pairs)


def test_t_even_z_rejected():
    # symmetric Z (T^2 = +1) must not build a pair
    with pytest.raises(ParameterError):
        SymmetryPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex))


def test_incompatible_s_z_rejected():
    # S that fails S Z = Z conj(S)
    s = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ParameterError):
        SymmetryPair(s, kron(np.eye(1), E2))


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
    [lambda: canonical_pair(2), lambda: canonical_pair(4), block_pair, dirac_pair],
    ids=["canonical", "canonical_8d", "block", "dirac"],
)
def test_fixed_pairs_are_shared_and_read_only(build):
    sym = build()
    assert build() is sym
    for matrix in (sym.s, sym.z):
        with pytest.raises(ValueError):
            matrix[0, 0] = 5.0


def test_pair_keeps_a_copy_of_its_inputs():
    s, z = np.eye(2, dtype=complex), kron(np.eye(1), E2)
    sym = SymmetryPair(s, z)
    s[0, 0] = -1.0
    assert sym.s[0, 0] == 1.0 and s.flags.writeable


def test_pt_product_mismatch_rejected():
    # S passes the four algebra identities exactly (the message shows the last
    # check fails), but Z^T S^T Z differs from S, so (PT a)^T Z b and a^dag S b
    # disagree
    q = real_quaternion(0.3, 0.2, -0.1, 0.4)
    s = np.block([[np.eye(2), q], [np.zeros((2, 2)), -np.eye(2)]])
    z = kron(np.eye(2), E2)
    assert operator_norm(z.T @ s.T @ z - s) == pytest.approx(0.548, abs=1e-3)
    with pytest.raises(ParameterError, match=r"\(PT a\)\^T Z b does not reproduce a\^dag S b"):
        SymmetryPair(s, z)
