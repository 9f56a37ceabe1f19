import numpy as np
import pytest

from ptosc.errors import DegenerateNormError
from ptosc.inner import cpt_ip, pt_adjoint, pt_normalize_rows
from ptosc.linalg import operator_norm
from ptosc.models import h8v_reduced_eigensystem
from ptosc.symmetry import block_pair, canonical_pair

from random_matrices import random_cmatrix, random_cvector

SYM4 = canonical_pair(2)


def test_pt_form_is_indefinite():
    # e1 and e4 have PT norms of opposite sign under S = diag(1, 1, -1, -1)
    _, signs = pt_normalize_rows(SYM4, np.eye(4)[[0, 3]])
    assert signs.tolist() == [1, -1]


def test_pt_adjoint_involution_and_hermitian_case():
    rng = np.random.default_rng(9)
    h = random_cmatrix(rng, 4)
    assert operator_norm(pt_adjoint(SYM4, pt_adjoint(SYM4, h)) - h) < 1e-12
    herm = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    # diagonal Hermitian commutes with diagonal S: PT adjoint reduces to dagger
    assert operator_norm(pt_adjoint(SYM4, herm) - herm) < 1e-14


def test_pt_normalize_rows_fixes_phase_and_sign():
    v = 3j * np.array([0, 0, 1.0, 1.0j])
    [ket], [sign] = pt_normalize_rows(SYM4, v[None])
    assert sign == -1
    assert abs(ket.conj() @ SYM4.s @ ket + 1) < 1e-12
    assert ket[np.argmax(np.abs(ket) > 1e-12)].imag == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DegenerateNormError):
        pt_normalize_rows(SYM4, np.array([[1.0, 0, 1.0, 0]]))  # null vector of the metric


def test_cs_self_overlap_of_a_moving_state():
    # CS pairs the ket at p with the bra spinor at -p, so a moving state's
    # self-overlap B^dag S K is its PT sign; JSM pairs k with -k, under which
    # it is 0 by definition.  At p = 0 the bra kets are the kets themselves.
    sym = block_pair()
    moving = h8v_reduced_eigensystem(2.0, 1.0, 1.0)
    rest = h8v_reduced_eigensystem(2.0, 1.0, 0.0)
    assert abs(moving.B[:, 2].conj() @ sym.s @ moving.K[:, 2] - 1) < 1e-12
    assert not np.array_equal(moving.B, moving.K)
    assert np.array_equal(rest.B, rest.K)


def test_cpt_ip_positive_definite_for_valid_c():
    # C = S gives the CPT product of the trivially Hermitian model H = S
    rng = np.random.default_rng(31)
    for _ in range(50):
        v = random_cvector(rng, 4)
        norm = cpt_ip(SYM4, SYM4.s, v, v)
        assert norm.real > 0
        assert abs(norm.imag) < 1e-12 * norm.real
