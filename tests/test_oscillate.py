import json
import math

import numpy as np
import pytest

from ptosc.cli import analytic_pattern, main
from ptosc.coperator import build_C
from ptosc.errors import ConstructionError, NumericalError
from ptosc.inner import cpt_ip
from ptosc.linalg import operator_norm, random_cvector
from ptosc.models import (
    EigenPair,
    EigenSystem,
    ModelSpec,
    SfdmParams,
    h8v_reduced_eigensystem,
    h8v_reduced_hamiltonian,
    sfdm_eigensystem,
    sfdm_hamiltonian,
)
from ptosc.oscillate import (
    TransitionTable,
    default_t_grid,
    evolve,
    naive_flavour_B,
    standard_flavour_basis,
    transition_table,
)
from ptosc.symmetry import block_pair, canonical_pair
from ptosc.verify import realize

REF = SfdmParams(chi=0.5, psi=0.3, theta=0.7, phi=0.2)


def sfdm_setup(params=REF):
    sym = canonical_pair(2)
    es = sfdm_eigensystem(params)
    c = build_C(sym, es, hamiltonian=sfdm_hamiltonian(params))
    return sym, es, c


def h8v_setup(m0=2.0, m2=1.0, p=1.0):
    sym = block_pair()
    es = h8v_reduced_eigensystem(m0, m2, p)
    c = build_C(sym, es, hamiltonian=h8v_reduced_hamiltonian(m0, m2, p))
    return sym, es, c


def realized_setup(spec):
    real = realize(spec)
    es = real.eigensystem
    return real.sym, es, build_C(real.sym, es, hamiltonian=real.hamiltonian)


def h8r_setup():
    return realized_setup(ModelSpec("h8r", {"m0": 2.0, "m1": 0.5, "m2": 1.0}))


def h8_setup():
    return realized_setup(ModelSpec("h8", {"m0": 2.0, "m1": 0.5, "m2": 1.0, "m3": 0.3}))


# ---------------------------------------------------------------------------
# flavour basis


def test_standard_flavour_basis_orthonormal_and_complete():
    sym, es, c = sfdm_setup()
    basis = standard_flavour_basis(sym, es, c)
    gram = np.array([[cpt_ip(sym, c.matrix, a, b) for b in basis.kets] for a in basis.kets])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
    # flavour completeness: sum_i f_i (C f_i)^dag S = identity
    total = sum(np.outer(f, (c.matrix @ f).conj() @ sym.s) for f in basis.kets)
    assert operator_norm(total - np.eye(4)) < 1e-12


def test_standard_flavour_basis_mixing_pattern():
    sym, es, c = sfdm_setup()
    basis = standard_flavour_basis(sym, es, c)
    r = 1 / math.sqrt(2)
    np.testing.assert_allclose(np.abs(basis.mixing), r * np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]), atol=1e-14)
    # mixing reconstructs the eigenkets from the flavour kets
    for l in range(4):
        rebuilt = sum(basis.mixing[l, j] * basis.kets[j] for j in range(4))
        np.testing.assert_allclose(rebuilt, es.kets[l], atol=1e-12)


def test_standard_flavour_basis_rejects_bad_input():
    sym, es, c = sfdm_setup()
    broken = EigenSystem(tuple(EigenPair(p.value, 2 * p.ket, p.pt_sign) for p in es.pairs))
    with pytest.raises(ConstructionError):
        standard_flavour_basis(sym, broken, c)


def test_momentum_flavour_basis_orthonormal():
    sym, es, c = h8v_setup()
    basis = standard_flavour_basis(sym, es, c)
    # flavour kets at p and at -p share the mixing: F = K M^T, F(-p) = B M^T
    flavours = es.K @ basis.mixing.T
    np.testing.assert_allclose(flavours, np.column_stack(basis.kets), atol=1e-15)
    gram = (c.reflected @ es.B @ basis.mixing.T).conj().T @ sym.s @ flavours
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# evolution


def test_evolve_identity_at_t0_and_eigenphase():
    sym, es, c = sfdm_setup()
    rng = np.random.default_rng(61)
    v = random_cvector(rng, 4)
    np.testing.assert_allclose(evolve(sym, es, c, v, 0.0), v, atol=1e-12)
    # eigket with lambda = -1 picks up exp(+it)
    t = 0.37
    np.testing.assert_allclose(
        evolve(sym, es, c, es.kets[0], t), np.exp(1j * t) * es.kets[0], atol=1e-12
    )


def test_evolve_preserves_cpt_products():
    sym, es, c = sfdm_setup()
    rng = np.random.default_rng(67)
    for _ in range(10):
        v, w = random_cvector(rng, 4), random_cvector(rng, 4)
        before = cpt_ip(sym, c.matrix, v, w)
        for t in (0.3, 1.7, 5.0):
            after = cpt_ip(sym, c.matrix, evolve(sym, es, c, v, t), evolve(sym, es, c, w, t))
            assert abs(after - before) < 1e-10 * (1 + abs(before))


# ---------------------------------------------------------------------------
# transition tables


def test_table_t0_is_identity_and_rows_stochastic():
    sym, es, c = sfdm_setup()
    basis = standard_flavour_basis(sym, es, c)
    grid = default_t_grid(es)
    table = transition_table(sym, basis, es, c, grid)
    np.testing.assert_allclose(table.probs[0], np.eye(4), atol=1e-12)
    np.testing.assert_allclose(table.probs.sum(axis=2), 1.0, atol=1e-10)
    assert table.probs.min() >= 0.0 and table.probs.max() <= 1.0


def test_sfdm_table_pattern():
    rng = np.random.default_rng(71)
    for _ in range(5):
        params = SfdmParams(*rng.uniform(-1.2, 1.2, 4))
        sym, es, c = sfdm_setup(params)
        basis = standard_flavour_basis(sym, es, c)
        grid = np.linspace(0.0, math.pi, 32)
        table = transition_table(sym, basis, es, c, grid)
        for k, t in enumerate(grid):
            c2, s2 = math.cos(t) ** 2, math.sin(t) ** 2
            expected = np.array(
                [[c2, 0, s2, 0], [0, c2, 0, s2], [s2, 0, c2, 0], [0, s2, 0, c2]]
            )
            np.testing.assert_allclose(table.probs[k], expected, atol=1e-10)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 5.0])
def test_h8v_table_pattern(p):
    m0, m2 = 2.0, 1.0
    sym, es, c = h8v_setup(m0, m2, p)
    eps = math.sqrt(p * p + m0 * m0 - m2 * m2)
    basis = standard_flavour_basis(sym, es, c)
    grid = np.linspace(0.0, 2 * math.pi / eps, 32)
    table = transition_table(sym, basis, es, c, grid)
    for k, t in enumerate(grid):
        c2, s2 = math.cos(eps * t) ** 2, math.sin(eps * t) ** 2
        expected = np.array(
            [[c2, 0, s2, 0], [0, c2, 0, s2], [s2, 0, c2, 0], [0, s2, 0, c2]]
        )
        np.testing.assert_allclose(table.probs[k], expected, atol=1e-10)


def reference_table(sym, basis, es, c, t_grid) -> np.ndarray:
    """The transition table one time point at a time."""
    coeff = np.array(
        [[complex((c.reflected @ es.B[:, j]).conj() @ sym.s @ f) for f in basis.kets] for j in range(4)]
    )
    bra = coeff.conj().T
    probs = np.empty((len(t_grid), 4, 4))
    for k, t in enumerate(t_grid):
        phases = np.exp(-1j * es.values * t)
        probs[k] = np.abs((bra @ (phases[:, None] * coeff)).T) ** 2
    return probs


@pytest.mark.parametrize("setup", [sfdm_setup, h8v_setup, h8r_setup, h8_setup])
def test_batched_table_matches_per_time_loop(setup):
    sym, es, c = setup()
    basis = standard_flavour_basis(sym, es, c)
    grid = np.linspace(0.0, 40.0, 4096)
    table = transition_table(sym, basis, es, c, grid)
    assert np.max(np.abs(table.probs - reference_table(sym, basis, es, c, grid))) <= 1e-13


def test_table_serialization():
    sym, es, c = sfdm_setup()
    basis = standard_flavour_basis(sym, es, c)
    table = transition_table(sym, basis, es, c, np.array([0.0, math.pi / 4]))
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "t," + ",".join(f"P{i}{j}" for i in range(1, 5) for j in range(1, 5))
    assert len(lines) == 3
    row = lines[2].split(",")
    assert float(row[1]) == pytest.approx(0.5, abs=1e-10)  # P11 at pi/4
    doc = table.to_json_dict()
    assert doc["t_grid"][1] == pytest.approx(math.pi / 4)
    assert doc["probs"][0][0][0] == 1.0


def test_table_rejects_non_stochastic_rows():
    with pytest.raises(NumericalError):
        TransitionTable(np.array([0.0]), 0.5 * np.ones((1, 4, 4)))


@pytest.mark.parametrize(
    "t_grid, probs",
    [
        (np.zeros(0), np.zeros((0, 4, 4))),
        (np.array([math.nan]), np.eye(4)[None]),
        (np.array([math.inf]), np.eye(4)[None]),
        (np.array([0.0]), np.where(np.eye(4) == 1, math.nan, 0.0)[None]),
    ],
    ids=["empty", "nan_t", "inf_t", "nan_probs"],
)
def test_table_rejects_empty_and_non_finite(t_grid, probs):
    with pytest.raises(NumericalError):
        TransitionTable(t_grid, probs)


def test_table_rejects_overflowing_phases():
    sym, es, c = h8v_setup()
    basis = standard_flavour_basis(sym, es, c)
    with pytest.raises(NumericalError):
        transition_table(sym, basis, es, c, np.array([0.0, 1e308]))


def test_clamping_of_tiny_probabilities():
    table = TransitionTable(
        np.array([0.0]),
        np.array([np.eye(4) * (1 - 1e-15) + np.diag([1e-15] * 3, 1) + np.diag([1e-15] * 3, -1)[:, :]]),
    )
    assert np.all(table.probs[0][np.eye(4) == 0] == 0.0)


# ---------------------------------------------------------------------------
# templated writers and the vectorised golden pattern against per-cell references

CATALOGUE = {
    "sfdm": ModelSpec("sfdm", {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}),
    "h8v_p1": ModelSpec("h8v", {"m0": 2.0, "m2": 1.0}, {"p": 1.0, "theta": 0.0, "phi": 0.0}),
    "h8r": ModelSpec("h8r", {"m0": 2.0, "m1": 0.5, "m2": 1.0}, {"p": 0.0, "theta": 0.0, "phi": 0.0}),
    "h8": ModelSpec("h8", {"m0": 2.0, "m1": 0.5, "m2": 1.0, "m3": 0.3}, {"p": 0.0, "theta": 0.0, "phi": 0.0}),
}


def catalogue_table(name, n, default_grid=False):
    sym, es, c = realized_setup(CATALOGUE[name])
    basis = standard_flavour_basis(sym, es, c)
    grid = default_t_grid(es, n) if default_grid else np.linspace(0.3, 40.0, n)
    return transition_table(sym, basis, es, c, grid), es


def reference_csv(table) -> str:
    """The per-cell CSV writer."""
    header = ["t"] + [f"P{i}{j}" for i in range(1, 5) for j in range(1, 5)]
    lines = [",".join(header)]
    for t, mat in zip(table.t_grid, table.probs):
        lines.append(",".join([f"{t:.12g}"] + [f"{x:.12g}" for x in mat.reshape(-1)]))
    return "\n".join(lines) + "\n"


def reference_pattern(eigsys, t_grid) -> np.ndarray:
    """The golden cos^2/sin^2 pattern one time point at a time."""
    values = np.real(eigsys.values)
    g13 = 0.5 * (values[2] - values[0])
    g24 = 0.5 * (values[3] - values[1])
    out = np.zeros((len(t_grid), 4, 4))
    for k, t in enumerate(t_grid):
        for (i, j, g) in ((0, 2, g13), (1, 3, g24)):
            c2, s2 = math.cos(g * t) ** 2, math.sin(g * t) ** 2
            out[k, i, i] = out[k, j, j] = c2
            out[k, i, j] = out[k, j, i] = s2
    return out


def assert_writers_match_references(table):
    assert table.to_csv() == reference_csv(table)
    assert table.to_json() == json.dumps(table.to_json_dict(), indent=2) + "\n"


# 4,097 rows cross the 4,096-row block boundary of the writers.
@pytest.mark.parametrize("n", [1, 4097])
@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_writers_match_per_cell_references(name, n):
    table, _ = catalogue_table(name, n)
    assert_writers_match_references(table)


def test_writers_fold_zero_columns_per_block():
    # P12 is +0.0 in every row of the first 4,096-row block but not in the
    # second; P34 is the other way round.
    rng = np.random.default_rng(7)
    probs = rng.random((4097, 4, 4))
    probs[:4096, 0, 1] = 0.0
    probs[4096, 2, 3] = 0.0
    probs /= probs.sum(axis=2, keepdims=True)
    table = TransitionTable(np.linspace(0.0, 5.0, 4097), probs)
    assert table.probs[4096, 0, 1] > 0.0 and np.all(table.probs[:4096, 2, 3] > 0.0)
    assert_writers_match_references(table)


def test_writers_keep_the_sign_of_negative_zero_times():
    sym, es, c = h8v_setup(m0=2.0, m2=0.5, p=0.0)
    table = transition_table(sym, standard_flavour_basis(sym, es, c), es, c, [0.0, 0.0, -0.0])
    assert_writers_match_references(table)
    assert table.to_csv().split("\n")[3].startswith("-0,1,0,")
    assert "\n    -0.0\n" in table.to_json()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oscillate_keeps_a_negative_zero_end_time(fmt, capsys):
    argv = ["oscillate", "--model", "h8v", "--m0", "2", "--m2", ".5", "--t-points", "3", "--t-max", "-0"]
    assert main([*argv, "--format", fmt]) == 0
    sym, es, c = h8v_setup(m0=2.0, m2=0.5, p=0.0)
    table = transition_table(sym, standard_flavour_basis(sym, es, c), es, c, [0.0, 0.0, -0.0])
    out = capsys.readouterr().out
    assert out == (table.to_csv() if fmt == "csv" else table.to_json())
    assert ("\n-0,1,0," if fmt == "csv" else "\n    -0.0\n") in out


def test_writers_on_one_row_at_t0():
    table = TransitionTable(np.array([0.0]), np.eye(4)[None])
    assert_writers_match_references(table)
    assert table.to_csv().split("\n")[1] == "0,1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_analytic_pattern_matches_per_time_loop(name):
    table, es = catalogue_table(name, 4097)
    # c*c against libm pow(cos, 2): the last bit differs on ~0.08 % of inputs
    assert np.max(np.abs(analytic_pattern(es, table.t_grid) - reference_pattern(es, table.t_grid))) <= 4.5e-16


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_golden_line_matches_per_time_loop(name, capsys):
    spec = CATALOGUE[name]
    flags = [f"--{key}={value}" for key, value in spec.params.items()]
    if spec.momentum:
        flags.append(f"--p={spec.momentum['p']}")
    main(["oscillate", "--model", spec.model, *flags, "--t-points", "4096", "--golden"])
    table, es = catalogue_table(name, 4096, default_grid=True)
    deviation = float(np.max(np.abs(table.probs - reference_pattern(es, table.t_grid))))
    assert capsys.readouterr().err == f"golden max deviation: {deviation:.3e}\n"


# ---------------------------------------------------------------------------
# naive B diagnostic


def test_naive_flavour_B_not_identity():
    sym, es, c = sfdm_setup()
    b = naive_flavour_B(sym, es, c)
    assert operator_norm(b - b.conj().T) < 1e-12
    assert np.min(np.linalg.eigvalsh(b)) > -1e-12
    assert operator_norm(b - np.eye(4)) > 0.01


def test_naive_flavour_B_identity_in_hermitian_limit():
    # chi = 0 gives a Hermitian diagonal model with orthonormal coordinate kets
    params = SfdmParams(chi=0.0, psi=0.3, theta=0.7, phi=0.2)
    sym, es, c = sfdm_setup(params)
    b = naive_flavour_B(sym, es, c)
    assert operator_norm(b - np.eye(4)) < 1e-12


def test_default_t_grid_covers_one_period():
    _, es, _ = sfdm_setup()
    grid = default_t_grid(es)
    assert len(grid) == 64
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(math.pi)  # min gap 2 -> period pi
