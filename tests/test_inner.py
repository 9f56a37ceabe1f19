import numpy as np
import pytest

from ptosc.errors import DegenerateNormError, ShapeError
from ptosc.inner import (
    cpt_ip,
    dirac_ip,
    jsm_cs_comparison,
    pt_adjoint,
    pt_ip,
    pt_normalize,
)
from ptosc.linalg import operator_norm, random_cmatrix, random_cvector
from ptosc.models import h8v_reduced_eigensystem
from ptosc.symmetry import block_pair, canonical_pair

SYM4 = canonical_pair(2)


def test_dirac_ip_basics():
    a = np.array([1.0, 1j])
    assert dirac_ip(a, a) == pytest.approx(2.0)
    with pytest.raises(ShapeError):
        dirac_ip(a, np.zeros(3))


def test_pt_ip_is_indefinite():
    assert pt_ip(SYM4, np.eye(4)[:, 0], np.eye(4)[:, 0]) == pytest.approx(1.0)
    assert pt_ip(SYM4, np.eye(4)[:, 3], np.eye(4)[:, 3]) == pytest.approx(-1.0)


def test_pt_ip_hermitian_sesquilinear():
    rng = np.random.default_rng(3)
    a, b = random_cvector(rng, 4), random_cvector(rng, 4)
    assert pt_ip(SYM4, a, b) == pytest.approx(np.conj(pt_ip(SYM4, b, a)))
    assert pt_ip(SYM4, 2j * a, b) == pytest.approx(-2j * pt_ip(SYM4, a, b))


def test_pt_adjoint_involution_and_hermitian_case():
    rng = np.random.default_rng(9)
    h = random_cmatrix(rng, 4)
    assert operator_norm(pt_adjoint(SYM4, pt_adjoint(SYM4, h)) - h) < 1e-12
    herm = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    # diagonal Hermitian commutes with diagonal S: PT adjoint reduces to dagger
    assert operator_norm(pt_adjoint(SYM4, herm) - herm) < 1e-14


def test_pt_normalize_fixes_phase_and_sign():
    v = 3j * np.array([0, 0, 1.0, 1.0j])
    ket, sign = pt_normalize(SYM4, v)
    assert sign == -1
    assert abs(pt_ip(SYM4, ket, ket) + 1) < 1e-12
    assert ket[np.argmax(np.abs(ket) > 1e-12)].imag == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DegenerateNormError):
        pt_normalize(SYM4, np.array([1.0, 0, 1.0, 0]))  # null vector of the metric


def test_jsm_cs_conventions():
    sym = block_pair()
    moving = h8v_reduced_eigensystem(2.0, 1.0, 1.0)
    rest = h8v_reduced_eigensystem(2.0, 1.0, 0.0)
    cmp_moving = jsm_cs_comparison(sym, moving.K[:, 2], moving.B[:, 2], 1.0)
    assert cmp_moving.p == 1.0
    assert cmp_moving.jsm_self == 0
    assert abs(cmp_moving.cs_self - 1) < 1e-12
    assert not cmp_moving.conventions_coincide
    # the two conventions agree at p = 0
    assert jsm_cs_comparison(sym, rest.K[:, 2], rest.B[:, 2], 0.0).conventions_coincide


def test_cpt_ip_positive_definite_for_valid_c():
    # C = S gives the CPT product of the trivially Hermitian model H = S
    rng = np.random.default_rng(31)
    for _ in range(50):
        v = random_cvector(rng, 4)
        norm = cpt_ip(SYM4, SYM4.s, v, v)
        assert norm.real > 0
        assert abs(norm.imag) < 1e-12 * norm.real
