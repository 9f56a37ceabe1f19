"""Symbolic oracles for the closed forms: sfdm's H^2 = 1 and the reduced h8v
C = H / eps, and the numeric Hamiltonians against the same sympy matrices."""

import numpy as np
import pytest
import sympy as sp

from ptosc.coperator import closed_form_C_h8v
from ptosc.models import SfdmParams, h8v_reduced_hamiltonian, sfdm_hamiltonian

CHI, PSI, THETA, PHI = sp.symbols("chi psi theta phi", real=True)
M0, M2, P = sp.symbols("m0 m2 p", real=True)
I2 = sp.eye(2)
PAULI = [sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]), sp.Matrix([[1, 0], [0, -1]])]


def sfdm_matrix() -> sp.Matrix:
    """[[a0, i B], [i B^dag, -a0]] with a0 = cosh chi and the real quaternion
    B = b0 + i (b1 sigma_1 + b2 sigma_2 + b3 sigma_3), b = sinh chi times the
    unit vector of angles (psi, theta, phi)."""
    direction = [sp.sin(PSI) * sp.sin(THETA) * sp.cos(PHI), sp.sin(PSI) * sp.sin(THETA) * sp.sin(PHI), sp.sin(PSI) * sp.cos(THETA)]
    b = sp.sinh(CHI) * (sp.cos(PSI) * I2 + sp.I * sum((n * s for n, s in zip(direction, PAULI)), sp.zeros(2)))
    a = sp.cosh(CHI) * I2
    return sp.BlockMatrix([[a, sp.I * b], [sp.I * b.H, -a]]).as_explicit()


def h8v_matrix() -> sp.Matrix:
    """The helicity-reduced h8v block: p diag(1, 1, -1, -1) plus the m0, m2 mass block."""
    return sp.Matrix(
        [
            [P, 0, M0, -sp.I * M2],
            [0, P, sp.I * M2, M0],
            [M0, sp.I * M2, -P, 0],
            [-sp.I * M2, M0, 0, -P],
        ]
    )


# sin^2 = 1 - cos^2 of each angle and sinh^2 = cosh^2 - 1
PYTHAGORAS = [(sp.sin(x) ** 2, 1 - sp.cos(x) ** 2) for x in (PHI, THETA, PSI)] + [(sp.sinh(CHI) ** 2, sp.cosh(CHI) ** 2 - 1)]


def reduced(x: sp.Expr) -> sp.Expr:
    """``x``, a polynomial of degree at most 2 in each sine, expanded with its squares replaced by :data:`PYTHAGORAS`."""
    for square, rest in PYTHAGORAS:
        x = sp.expand(sp.expand(x).subs(square, rest))
    return x


def test_sfdm_hamiltonian_squares_to_one():
    h = sfdm_matrix()
    assert (h * h - sp.eye(4)).applyfunc(reduced) == sp.zeros(4)


def test_closed_form_c_h8v_squares_to_one_and_commutes_with_h():
    h = h8v_matrix()
    c = h / sp.sqrt(P**2 + M0**2 - M2**2)
    assert (c * c - sp.eye(4)).applyfunc(sp.cancel) == sp.zeros(4)
    assert (c * h - h * c).applyfunc(sp.expand) == sp.zeros(4)


def as_complex(m: sp.Matrix) -> np.ndarray:
    return np.array(m.evalf(30).tolist(), dtype=complex)


@pytest.mark.parametrize("chi, psi, theta, phi", [(0, 0, 0, 0), ("1/2", "3/10", "7/10", "1/5"), ("3/2", "-5/4", "2", "13/4")])
def test_sfdm_hamiltonian_matches_the_sympy_matrix(chi, psi, theta, phi):
    point = {CHI: sp.Rational(chi), PSI: sp.Rational(psi), THETA: sp.Rational(theta), PHI: sp.Rational(phi)}
    numeric = sfdm_hamiltonian(SfdmParams(*(float(point[s]) for s in (CHI, PSI, THETA, PHI))))
    assert np.abs(numeric - as_complex(sfdm_matrix().subs(point))).max() <= 1e-15


@pytest.mark.parametrize("m0, m2, p", [(2, 1, 0), (2, "-1/2", "7/10"), ("5/4", "3/4", -3)])
def test_h8v_hamiltonian_and_closed_form_c_match_the_sympy_matrices(m0, m2, p):
    point = {M0: sp.Rational(m0), M2: sp.Rational(m2), P: sp.Rational(p)}
    args = [float(point[s]) for s in (M0, M2, P)]
    exact = h8v_matrix().subs(point)
    assert np.abs(h8v_reduced_hamiltonian(*args) - as_complex(exact)).max() <= 1e-15
    c = exact / sp.sqrt(point[P] ** 2 + point[M0] ** 2 - point[M2] ** 2)
    assert np.abs(closed_form_C_h8v(*args) - as_complex(c)).max() <= 1e-15
