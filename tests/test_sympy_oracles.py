"""Symbolic oracles for the closed forms: sfdm's H^2 = 1, the reduced h8v
C = H / eps, the eigen-equations of the sfdm, h8r (p = 0) and reduced h8v
kets, and sfdm's kets as one formula per level and its Kramers partner; and
the numeric Hamiltonians and kets against the same sympy ones."""

import numpy as np
import pytest
import sympy as sp

from ptosc.coperator import closed_form_C_h8v
from ptosc.models import (
    ModelSpec,
    SfdmParams,
    h8r_p0_eigensystem,
    h8v_reduced_eigensystem,
    h8v_reduced_hamiltonian,
    model_hamiltonian,
    sfdm_eigensystem,
    sfdm_hamiltonian,
)
from ptosc.symmetry import canonical_pair

CHI, PSI, THETA, PHI = sp.symbols("chi psi theta phi", real=True)
M0, M1, M2, P = sp.symbols("m0 m1 m2 p", real=True)
# s = sqrt(m0^2 - m2^2) and eps = sqrt(p^2 + s^2), kept as symbols; the
# kets are checked with their squares replaced by those of the roots
S, EPS = sp.symbols("s epsilon", positive=True)
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


def h8r_p0_matrix() -> sp.Matrix:
    """The h8r block at p = 0: the m0, m1, m2 mass block."""
    return sp.Matrix(
        [
            [0, 0, M0, M1 - sp.I * M2],
            [0, 0, M1 + sp.I * M2, M0],
            [M0, M1 + sp.I * M2, 0, 0],
            [M1 - sp.I * M2, M0, 0, 0],
        ]
    )


def h8r_p0_kets() -> list:
    """(eigenvalue, unnormalized ket) of ``h8r_p0_eigensystem``, in its
    order, with a = (s + i m2) / m0."""
    a, a_bar = (S + sp.I * M2) / M0, (S - sp.I * M2) / M0
    kets = [[-1, -a, a, 1], [1, -a_bar, -a_bar, 1], [-1, a_bar, -a_bar, 1], [1, a, a, 1]]
    return list(zip([-M1 - S, M1 - S, S - M1, S + M1], map(sp.Matrix, kets)))


def h8v_kets(q) -> list:
    """(eigenvalue, unnormalized ket) of ``h8v_reduced_eigensystem``'s
    ``rows_at(q)``, in its order: v1, v2 at -eps and u1, u2 at +eps."""
    kets = [
        [sp.I * M2 * (EPS - q) / S, M0 * (q - EPS) / S, 0, S],
        [sp.I * (q - EPS), 0, sp.I * M0, M2],
        [-sp.I * M2 * (EPS + q) / S, M0 * (q + EPS) / S, 0, S],
        [sp.I * (q + EPS), 0, sp.I * M0, M2],
    ]
    return list(zip([-EPS, -EPS, EPS, EPS], map(sp.Matrix, kets)))


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


def with_roots(x: sp.Expr, *squares) -> sp.Expr:
    """``x`` times s (clearing the 1/s of the h8v kets), expanded with each
    (root, square) of ``squares`` substituted in turn for root^2."""
    x = sp.expand(x * S)
    for root, square in squares:
        x = sp.expand(x.subs(root**2, square))
    return x


def test_h8r_p0_kets_solve_the_eigen_equation():
    h = h8r_p0_matrix()
    for value, ket in h8r_p0_kets():
        assert (h * ket - value * ket).applyfunc(lambda x: with_roots(x, (S, M0**2 - M2**2))) == sp.zeros(4, 1)


def test_h8v_kets_solve_the_eigen_equation_at_any_momentum():
    # rows_at(q) holds the kets at q = p and, for the bra side, at q = -p
    q = sp.Symbol("q", real=True)
    h = h8v_matrix().subs(P, q)
    for value, ket in h8v_kets(q):
        residual = h * ket - value * ket
        assert residual.applyfunc(lambda x: with_roots(x, (EPS, q**2 + S**2), (S, M0**2 - M2**2))) == sp.zeros(4, 1)


def parallel(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the complex vectors u and v are parallel to 1e-14."""
    return abs(abs(np.vdot(u, v)) - np.linalg.norm(u) * np.linalg.norm(v)) <= 1e-14 * np.linalg.norm(u) * np.linalg.norm(v)


@pytest.mark.parametrize("m0, m1, m2", [(2, "1/2", 1), ("5/4", "1/4", "3/4"), (5, 1, -3)])
def test_h8r_p0_eigensystem_matches_the_sympy_kets(m0, m1, m2):
    point = {M0: sp.Rational(m0), M1: sp.Rational(m1), M2: sp.Rational(m2)}
    point[S] = sp.sqrt(point[M0] ** 2 - point[M2] ** 2)
    args = [float(point[s]) for s in (M0, M1, M2)]
    exact = h8r_p0_matrix().subs(point)
    assert np.abs(model_hamiltonian(ModelSpec("h8r", dict(zip(("m0", "m1", "m2"), args)))) - as_complex(exact)).max() <= 1e-15
    es = h8r_p0_eigensystem(*args)
    for k, (value, ket) in enumerate(h8r_p0_kets()):
        assert abs(es.values[k] - float(value.subs(point))) <= 1e-15 * max(1.0, abs(es.values[k]))
        assert parallel(es.K[:, k], as_complex(ket.subs(point))[:, 0])


@pytest.mark.parametrize("m0, m2, p", [(2, 1, 0), (2, "-1/2", "7/10"), ("5/4", "3/4", -3)])
def test_h8v_reduced_eigensystem_matches_the_sympy_kets(m0, m2, p):
    point = {M0: sp.Rational(m0), M2: sp.Rational(m2), P: sp.Rational(p)}
    point[S] = sp.sqrt(point[M0] ** 2 - point[M2] ** 2)
    point[EPS] = sp.sqrt(point[P] ** 2 + point[S] ** 2)
    es = h8v_reduced_eigensystem(*(float(point[s]) for s in (M0, M2, P)))
    norm = 1 / sp.sqrt(2 * point[M0] * point[EPS])
    for k, (value, ket) in enumerate(h8v_kets(P)):
        assert abs(es.values[k] - float(value.subs(point))) <= 1e-15 * abs(es.values[k])
        assert np.abs(es.K[:, k] - as_complex(norm * ket.subs(point))[:, 0]).max() <= 1e-15
    for k, (_, ket) in enumerate(h8v_kets(-P)):
        assert np.abs(es.reflected[:, k] - as_complex(norm * ket.subs(point))[:, 0]).max() <= 1e-15


# sinh and cosh of chi / 2 and the sine and cosine of each angle, as symbols
# bound by sinh^2 = cosh^2 - 1 and sin^2 = 1 - cos^2
SH, CH = sp.symbols("sh ch", real=True)
SIN = {x: sp.Symbol(f"sin_{x}", real=True) for x in (PSI, THETA, PHI)}
COS = {x: sp.Symbol(f"cos_{x}", real=True) for x in (PSI, THETA, PHI)}
AS_SYMBOLS = {sp.cosh(CHI): CH**2 + SH**2, sp.sinh(CHI): 2 * SH * CH, **{sp.sin(x): SIN[x] for x in SIN}, **{sp.cos(x): COS[x] for x in COS}}
HALF_ANGLE_IDENTITIES = [(SH, CH**2 - 1)] + [(SIN[x], 1 - COS[x] ** 2) for x in SIN]


def sfdm_kets() -> list:
    """(eigenvalue, ket) of ``sfdm_eigensystem`` at chi != 0, in its order:
    the published e1..e4, with sech and csch of chi / 2, sinh chi and
    exp(+-i phi)."""
    sin, cos = SIN, COS
    sech, csch, sinh_chi = 1 / CH, 1 / SH, 2 * SH * CH
    e_phi, e_phi_bar = cos[PHI] + sp.I * sin[PHI], cos[PHI] - sp.I * sin[PHI]
    e1 = [sin[THETA] * e_phi_bar * sin[PSI] * SH, -sp.I / 2 * sech * sinh_chi * (cos[PSI] - sp.I * sin[PSI] * cos[THETA]), 0, CH]
    e2 = [sech / 2 * (-sp.I * cos[PSI] + sin[PSI] * cos[THETA]) * sinh_chi, sin[THETA] * e_phi * sin[PSI] * SH, CH, 0]
    e3 = [CH * sin[THETA] * sin[PSI] * e_phi_bar, -sp.I / 2 * csch * (cos[PSI] - sp.I * cos[THETA] * sin[PSI]) * sinh_chi, 0, SH]
    e4 = [csch / 2 * (-sp.I * cos[PSI] + cos[THETA] * sin[PSI]) * sinh_chi, CH * sin[THETA] * sin[PSI] * e_phi, SH, 0]
    return list(zip([-1, -1, 1, 1], map(sp.Matrix, [e1, e2, e3, e4])))


def on_half_angle_identities(x: sp.Expr) -> sp.Expr:
    """The polynomial ``x`` reduced by :data:`HALF_ANGLE_IDENTITIES`: of degree at most 1 in sh and each sine."""
    x = sp.expand(x)
    for root, square in HALF_ANGLE_IDENTITIES:
        x = sp.expand(sp.rem(x, root**2 - square, root))
    return x


def test_sfdm_kets_solve_the_eigen_equation():
    h = sfdm_matrix().subs(AS_SYMBOLS)
    for value, ket in sfdm_kets():
        assert (h * ket - value * ket).applyfunc(on_half_angle_identities) == sp.zeros(4, 1)


def kramers_partner(v: sp.Matrix) -> sp.Matrix:
    """-S Z conj(v), with the S and Z of ``canonical_pair(2)`` as integer matrices."""
    sym = canonical_pair(2)
    return -sp.Matrix(sym.s.real.astype(int)) * sp.Matrix(sym.z.real.astype(int)) * v.conjugate()


def test_sfdm_kets_are_one_formula_per_level_and_its_kramers_partner():
    sin, cos = SIN, COS
    tilt = sin[THETA] * (cos[PHI] - sp.I * sin[PHI]) * sin[PSI]
    twist = -sp.I / 2 * 2 * SH * CH * (cos[PSI] - sp.I * sin[PSI] * cos[THETA])
    (_, e1), (_, e2), (_, e3), (_, e4) = sfdm_kets()
    for (a, b), source, partner in (((SH, CH), e1, e2), ((CH, SH), e3, e4)):
        ket = sp.Matrix([tilt * a, twist / b, 0, b])
        # equal, so parallel: the code's ket is the published one, and the
        # published partner is its Kramers image
        assert (ket - source).applyfunc(sp.expand) == sp.zeros(4, 1)
        assert (kramers_partner(source) - partner).applyfunc(sp.expand) == sp.zeros(4, 1)


@pytest.mark.parametrize("chi, psi, theta, phi", [("1/2", "3/10", "7/10", "1/5"), ("3/2", "-5/4", "2", "13/4"), ("-1", "1/3", "5/2", "-7/4")])
def test_sfdm_eigensystem_matches_the_sympy_kets(chi, psi, theta, phi):
    point = {CHI: sp.Rational(chi), PSI: sp.Rational(psi), THETA: sp.Rational(theta), PHI: sp.Rational(phi)}
    values = {SH: sp.sinh(point[CHI] / 2), CH: sp.cosh(point[CHI] / 2), **{SIN[x]: sp.sin(point[x]) for x in SIN}, **{COS[x]: sp.cos(point[x]) for x in COS}}
    es = sfdm_eigensystem(SfdmParams(*(float(point[s]) for s in (CHI, PSI, THETA, PHI))))
    for k, (value, ket) in enumerate(sfdm_kets()):
        assert es.values[k] == value
        assert parallel(es.K[:, k], as_complex(ket.subs(values))[:, 0])
