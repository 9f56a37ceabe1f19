import json
import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ptosc import oscillate
from ptosc.cli import main
from ptosc.coperator import build_C
from ptosc.errors import ConstructionError, NumericalError, PtoscError
from ptosc.inner import cpt_ip
from ptosc.linalg import DEFAULT_TOL, operator_norm
from ptosc.models import (
    EigenPair,
    EigenSystem,
    ModelSpec,
    SfdmParams,
    h8v_reduced_eigensystem,
    h8v_reduced_hamiltonian,
    model_hamiltonian,
    sfdm_eigensystem,
    sfdm_hamiltonian,
)
from ptosc.oscillate import (
    TransitionTable,
    _cpt_bras,
    _keys,
    _texts,
    analytic_pattern,
    default_t_grid,
    standard_flavour_basis,
    transition_table,
    transition_tables,
)
from ptosc.symmetry import block_pair, canonical_pair
from ptosc.verify import realize

from random_matrices import random_cmatrix

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
    gram = np.array([[cpt_ip(sym, c.matrix, a, b) for b in basis.T] for a in basis.T])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
    # flavour completeness: sum_i f_i (C f_i)^dag S = identity
    total = sum(np.outer(f, (c.matrix @ f).conj() @ sym.s) for f in basis.T)
    assert operator_norm(total - np.eye(4)) < 1e-12


# MIXING[l, j] is the coefficient of flavour ket j in eigenket l:
# e1 = (f'1 + f'3)/sqrt(2), e3 = (f'1 - f'3)/sqrt(2), similarly e2/e4.
MIXING = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]]) / math.sqrt(2)


def test_standard_flavour_basis_mixing_pattern():
    sym, es, c = sfdm_setup()
    basis = standard_flavour_basis(sym, es, c)
    r = 1 / math.sqrt(2)
    np.testing.assert_allclose(np.abs(MIXING), r * np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]), atol=1e-14)
    # mixing reconstructs the eigenkets from the flavour kets
    for l in range(4):
        rebuilt = sum(MIXING[l, j] * basis[:, j] for j in range(4))
        np.testing.assert_allclose(rebuilt, es.K[:, l], atol=1e-12)


def test_standard_flavour_basis_rejects_bad_input():
    sym, es, c = sfdm_setup()
    broken = EigenSystem(tuple(EigenPair(p.value, 2 * p.ket, p.pt_sign) for p in es.pairs))
    with pytest.raises(ConstructionError):
        standard_flavour_basis(sym, broken, c)


def test_momentum_flavour_basis_orthonormal():
    sym, es, c = h8v_setup()
    basis = standard_flavour_basis(sym, es, c)
    # flavour kets at p and at -p share the mixing: F = K M^T, F(-p) = B M^T
    flavours = es.K @ MIXING.T
    np.testing.assert_allclose(flavours, basis, atol=1e-15)
    gram = (c.reflected @ es.B @ MIXING.T).conj().T @ sym.s @ flavours
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


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
        [[complex((c.reflected @ es.B[:, j]).conj() @ sym.s @ f) for f in basis.T] for j in range(4)]
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


def assert_same_text(got: str, want: str):
    """got == want, reported by the first line that differs: pytest's own
    diff of two texts of a few megabytes can run for minutes."""
    if got != want:
        lines = zip(got.split("\n") + [None], want.split("\n") + [None])
        k, (a, b) = next((k, pair) for k, pair in enumerate(lines) if pair[0] != pair[1])
        raise AssertionError(f"line {k}: {a!r} != {b!r}")


def assert_writers_match_references(table):
    assert_same_text(table.to_csv(), reference_csv(table))
    assert_same_text(table.to_json(), json.dumps(table.to_json_dict(), indent=2) + "\n")


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


# ---------------------------------------------------------------------------
# the keys by which a writer formats each printed text once, and the CSV
# writer on flavour twins (P11 and P33, P13 and P31, P22 and P44, P24 and
# P42) that agree to rounding but not in bits


def ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# 12-digit decimal midpoints (N + 0.5) * 10^-(e + 11), down to the 1e-11 edge of the guard
MIDPOINT = st.builds(lambda n, e: (n + 0.5) / 10.0 ** (e + 11), st.integers(10**11, 10**12 - 1), st.integers(0, 11))
# decade edges (1e-4 is the switch to exponent form) and what rounds onto them
EDGE = st.sampled_from([1.0, 0.1, 1e-4, 1e-5, 1e-11, 0.99999999999995, 0.099999999999995, 9.9999999999995e-5, 9.9999999999995e-12])
TINY = st.floats(1e-14, 1e-11)  # below the guard's range; from 1e-14 up, the clamp keeps them
VALUE = st.one_of(MIDPOINT, EDGE, TINY, st.sampled_from([0.0, -0.0]), st.floats(0.0, 1.0))
# the ends of the guard's range, k = 0 (12 integer digits) and k = 22 (below
# 1e-10), with their midpoints, and subnormals
GUARD_END = st.one_of(
    st.builds(lambda n, k: (n + 0.5) / 10.0**k, st.integers(10**11, 10**12 - 1), st.sampled_from([0, 22])),
    st.floats(9e10, 2e12),
    st.floats(9e-12, 2e-10),
    st.floats(0.0, 2.2250738585072014e-308),
)


@st.composite
def twin_pairs(draw, values=VALUE):
    """(source, twin): a value and its twin at 0-3 ulps, at a relative 1e-14, or drawn apart."""
    a = draw(values)
    twin = st.one_of(
        st.integers(-3, 3).map(lambda k: ulps(a, k)),
        st.floats(-1.0, 1.0).map(lambda r: a * (1.0 + 1e-14 * r)),
        values,
    )
    pair = (a, draw(twin))
    return pair[::-1] if draw(st.booleans()) else pair


def twin_rows(p11, p33, p22, p44) -> np.ndarray:
    """A stochastic 4x4 whose twins are (p11, p33), (p13, p31) = (1 - p11, 1 - p33),
    (p22, p44) and (p24, p42) = (1 - p22, 1 - p44); the other entries are 0."""
    x, y, u, v = (min(max(q, 0.0), 1.0) for q in (p11, p33, p22, p44))
    return np.array([[x, 0.0, 1.0 - x, 0.0], [0.0, u, 0.0, 1.0 - u], [1.0 - y, 0.0, y, 0.0], [0.0, 1.0 - v, 0.0, v]])


# The writer properties skip hypothesis's shrink phase and report a failing
# example as drawn, so that a broken guard fails fast.
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


# A shift of log2 by +-log2(10) puts k off by one, as an inexact logarithm
# near a power of ten would; the guard's range checks must then refuse, not
# mismatch.
@pytest.mark.parametrize("shift", [0.0, -math.log2(10.0), math.log2(10.0)], ids=["exact", "k_too_large", "k_too_small"])
@settings(max_examples=300, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(pair=twin_pairs(st.one_of(VALUE, GUARD_END)))
def test_equal_keys_print_alike(shift, pair):
    # the pair and its negatives: every two of the four with one key print alike
    values = [*pair, *(-x for x in pair)]
    log2 = np.log2
    with mock.patch.object(np, "log2", lambda x: log2(x) + shift):
        for spec in ("%.12g", "%r"):
            printed = {}
            for key, x in zip(_keys(np.array(values), spec).tolist(), values):
                assert printed.setdefault(key, spec % x) == spec % x


@settings(max_examples=200, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(st.data())
def test_csv_writer_matches_reference_on_twins_near_rounding_edges(data):
    drawn = [twin_rows(*data.draw(twin_pairs()), *data.draw(twin_pairs())) for _ in range(data.draw(st.integers(1, 6)))]
    # identity rows, whose twins are equal bits, so reused and formatted twin
    # texts interleave within a column
    padding = [np.eye(4)] * data.draw(st.integers(0, 2 * len(drawn)))
    probs = np.array(data.draw(st.permutations(drawn + padding)))
    table = TransitionTable(np.linspace(0.0, 3.0, len(probs)), probs)
    assert table.to_csv() == reference_csv(table)


def test_csv_writer_matches_reference_where_no_twin_matches():
    # 4,097 random rows: no two columns print alike, and the second block has one row
    rng = np.random.default_rng(11)
    probs = rng.random((4097, 4, 4))
    probs /= probs.sum(axis=2, keepdims=True)
    table = TransitionTable(np.linspace(0.0, 5.0, 4097), probs)
    keys = _keys(table.probs.reshape(-1, 16), "%.12g")
    assert not (keys[:, [0, 2, 5, 7]] == keys[:, [10, 8, 15, 13]]).any()
    assert_same_text(table.to_csv(), reference_csv(table))


# ---------------------------------------------------------------------------
# cells of one key take one text: each distinct text of a block is formatted once


def emitted_table(name, n):
    [table] = transition_tables([realize(CATALOGUE[name])], n)
    return table


# On its default grid, a single-frequency table covers one period, so its
# rows mirror: 1 row faces itself, 2 and 4,096 rows are even counts, and 3
# and 255 odd ones with a middle row; 4,097 rows: the second block has one
# row, in which more columns repeat.
@pytest.mark.parametrize("n", [1, 2, 3, 255, 4096, 4097])
@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_writers_match_references_on_emitted_tables(name, n):
    assert_writers_match_references(emitted_table(name, n))


# per catalogue point: the values formatted for its 256-row table, in CSV,
# then in JSON its times and its probabilities.  Each is the number of
# distinct texts of the block written: a key is formatted once, and here no
# two keys print alike.  A default grid covers one period, so under %.12g
# row 255 - k prints as row k: 256 times and 128 texts per distinct column
# (129 for h8's c1; its c2 and s2 print as c1 and s1), less one for the time
# 0, which prints as s1's +0.0 at t = 0.  Under %r only cells equal in bits
# print alike: 43 facing cells per column for sfdm and h8v, and for h8 also
# cells of c2 and s2 equal to cells of c1 and s1.
FORMATTED = {"sfdm": [511, 256, 426], "h8v_p1": [511, 256, 426], "h8r": [511, 256, 469], "h8": [512, 256, 939]}


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_each_printed_text_is_formatted_once(name):
    table, formatted = emitted_table(name, 256), []
    with formatting_spy(formatted):
        table.to_csv()
        table.to_json()
    # CSV: t and the distinct columns, in one block; JSON: its times, then the distinct columns
    [(block, _)] = table._blocks()
    csv, times, probs = ({spec % x for x in values.ravel().tolist()} for spec, values in (("%.12g", block), ("%r", block[:, 0]), ("%r", block[:, 1:])))
    assert formatted == [len(csv), len(times), len(probs)] == FORMATTED[name]


def test_writers_keep_signed_zeros_apart():
    # P11 is -0.0 in every row, P12 +0.0; P13 and P14 are equal under == but
    # not in bits, and P21 repeats P13 (set past the construction's clamp)
    table = TransitionTable(np.array([0.0, 1.0]), np.array([np.eye(4)] * 2))
    table.probs[:, 0, :] = [[-0.0, 0.0, -0.0, 0.0], [-0.0, 0.0, 0.5, 0.5]]
    table.probs[:, 1, 0] = table.probs[:, 0, 2]
    assert_writers_match_references(table)


# ---------------------------------------------------------------------------
# the JSON text is joined a quarter block (1,024 rows) per chunk: its edges


def general_table(n):
    """A table of ``n`` random rows with P12 +0.0 and P34 -0.0 in every row."""
    rng = np.random.default_rng(n)
    probs = rng.random((n, 4, 4))
    probs[:, 0, 1] = 0.0
    probs /= probs.sum(axis=2, keepdims=True)
    table = TransitionTable(np.linspace(0.0, 5.0, n), probs)
    table.probs[:, 2, 3] = -0.0  # set past the construction's clamp, which leaves no -0.0
    return table


JSON_TABLES = {"sfdm": lambda n: emitted_table("sfdm", n), "h8": lambda n: emitted_table("h8", n), "general": general_table}


def json_chunks(table, reuse=None) -> list:
    chunks = []
    assert table.to_json(reuse, chunks.append) == ""
    return chunks


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 4096, 4097, 5121])
@pytest.mark.parametrize("kind", sorted(JSON_TABLES))
def test_json_chunks_join_to_the_reference_a_quarter_block_each(kind, n):
    table = JSON_TABLES[kind](n)
    # sfdm's c2 and s2 are its c1 and s1 in bits, so its blocks keep them once; past t = 0, h8's are not
    place = next(iter(table._blocks()))[1]
    assert place == {"sfdm": oscillate._PATTERN_SHARED, "h8": oscillate._PATTERN, "general": oscillate._ALL}[kind] or n == 1
    want = json.dumps(table.to_json_dict(), indent=2) + "\n"
    assert_same_text(table.to_json(), want)
    chunks = json_chunks(table)
    assert_same_text("".join(chunks), want)
    # a row of times or of probabilities opens with a line of a 4-space indent
    rows = [len(re.findall(r"(?m)^    [^ \]]", chunk)) for chunk in chunks]
    assert sum(rows) == 2 * n and max(rows) <= oscillate.BLOCK_ROWS // 4
    # as a sweep writes: after a table of another shape, then the same table again
    reuse = {}
    json_chunks(general_table(3), reuse)
    for _ in range(2):
        assert_same_text("".join(json_chunks(table, reuse)), want)


# ---------------------------------------------------------------------------
# tables written in sequence: each takes the text of every key that the
# table written before it holds


def assert_json_matches_reference(text, table):
    assert text == json.dumps(table.to_json_dict(), indent=2) + "\n"


# times: zeros of either sign, the probability values, signed, and wider floats
TIME = st.one_of(st.sampled_from([0.0, -0.0]), VALUE, VALUE.map(lambda x: -x), st.floats(-1e3, 1e3))


def neighbour(x: float):
    """x itself, at 0-3 ulps or at a relative 1e-14; a zero may flip its sign,
    so that +0.0 and -0.0 meet."""
    moves = [st.just(x), st.integers(-3, 3).map(lambda k: ulps(x, k)), st.floats(-1.0, 1.0).map(lambda r: x * (1.0 + 1e-14 * r))]
    return st.one_of(*moves, st.just(-x)) if x == 0.0 else st.one_of(*moves)


@st.composite
def table_sequences(draw):
    """2-5 tables, each made from the one before by one step: every value
    moved to a :func:`neighbour`, one row drawn anew, another length, or
    every value drawn anew."""
    n = draw(st.integers(1, 5))
    times = [draw(TIME) for _ in range(n)]
    values = [[draw(VALUE) for _ in range(4)] for _ in range(n)]
    tables = []
    for _ in range(draw(st.integers(2, 5))):
        tables.append(TransitionTable(np.array(times), np.array([twin_rows(*row) for row in values])))
        step = draw(st.sampled_from(["neighbour", "neighbour", "row", "length", "apart"]))
        if step == "neighbour":
            times = [draw(neighbour(t)) for t in times]
            # a probability's flipped zero sign lands on the clamp
            values = [[draw(neighbour(x)) for x in row] for row in values]
        elif step == "row":
            k = draw(st.integers(0, n - 1))
            times[k], values[k] = draw(TIME), [draw(VALUE) for _ in range(4)]
        elif step == "length":
            n = draw(st.integers(1, 5))
            times, values = (times * n)[:n], (values * n)[:n]
        else:
            times = [draw(TIME) for _ in times]
            values = [[draw(VALUE) for _ in range(4)] for _ in values]
    return tables


@settings(max_examples=150, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(tables=table_sequences())
def test_writers_in_sequence_match_references(tables):
    csv, js = {}, {}
    for table in tables:
        assert table.to_csv(csv) == reference_csv(table)
        assert_json_matches_reference(table.to_json(js), table)


def formatting_spy(formatted: list):
    """A stand-in for ``oscillate._texts`` that appends the size of each array it formats to ``formatted``."""
    texts = oscillate._texts
    return mock.patch.object(oscillate, "_texts", lambda values, *spec: formatted.append(values.size) or texts(values, *spec))


def reference_text(table, fmt: str) -> str:
    return reference_csv(table) if fmt == "csv" else json.dumps(table.to_json_dict(), indent=2) + "\n"


def write(table, fmt: str, reuse: dict) -> str:
    return table.to_csv(reuse) if fmt == "csv" else table.to_json(reuse)


def sfdm_spec(chi):
    return ModelSpec("sfdm", {"chi": chi, "psi": 0.3, "theta": 0.7, "phi": 0.2})


def formatted_per_table(tables, fmt: str, reuse: dict | None = None) -> list:
    """Write ``tables`` in order in ``fmt``, sharing ``reuse`` (a new dict if
    None), each checked against its reference: per table, the sizes of the
    arrays formatted for it (none for a table that returns the text of the
    one before it)."""
    reuse = {} if reuse is None else reuse
    counts = []
    for table in tables:
        formatted = []
        with formatting_spy(formatted):
            text = write(table, fmt, reuse)
        assert_same_text(text, reference_text(table, fmt))
        counts.append(formatted)
    return counts


def test_json_time_grid_reused_only_when_bit_equal():
    probs = np.array([np.eye(4)] * 2)
    grids = ([0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, 1.0 + 2.0**-52])
    counts = formatted_per_table([TransitionTable(np.array(times), probs) for times in grids], "json")
    # values formatted per table, times then probabilities: the
    # probabilities print as 1.0 and 0.0, formatted with the first grid.
    # The second table is the first in bits and takes its whole text; later
    # a time takes the text of the time before it only where the two are
    # equal with equal signs
    assert counts == [[2, 2], [], [1, 0], [1, 0], [1, 0]]


def test_json_sequences_keep_the_sign_of_each_zero():
    # -0.0 == 0.0, but -0.0 times and the +0.0 cells of live probability
    # columns (P13 is 0 at t = 0 only) each keep their own text, in one
    # table and across the sequence
    sym, es, c = h8v_setup(m0=2.0, m2=0.5, p=0.0)
    basis = standard_flavour_basis(sym, es, c)
    reuse = {}
    for times in ([-0.0, 0.0, 0.5], [0.0, -0.0, 0.5], [0.5, 0.0, 0.0], [-0.0, -0.0, 0.5]):
        table = transition_table(sym, basis, es, c, times)
        text = table.to_json(reuse)
        assert_json_matches_reference(text, table)
        assert [line.strip(" ,") for line in text.split("\n")[2:5]] == [repr(t) for t in times]


def test_tables_longer_than_a_block_leave_no_texts():
    small, _ = catalogue_table("sfdm", 8)
    big, _ = catalogue_table("sfdm", 4097)
    for fmt in ("csv", "json"):
        reuse = {}
        [alone] = formatted_per_table([small], fmt, reuse)
        assert set(reuse) == {fmt}
        # per table: a 4,097-row table, written twice, formats all its
        # blocks each time, and the small table after it formats as if
        # written alone
        first, again = formatted_per_table([big, big], fmt, reuse)
        assert reuse == {}
        assert first and again == first
        assert formatted_per_table([small], fmt, reuse) == [alone]


def test_sweep_tables_format_only_what_changed():
    # sfdm's spectrum is +-1 at every chi, so its tables are one pattern on
    # one grid: after the first table, nothing is formatted
    specs = [sfdm_spec(chi) for chi in (0.5, 0.6, 0.7)]
    counts = formatted_per_table(transition_tables([realize(spec) for spec in specs], 256), "csv")
    # t and the first 128 rows of the two distinct live columns, less the
    # time 0, which prints as the +0.0 of sin^2 at t = 0: the equal gaps
    # make the four diagonal columns one column, and the four live
    # off-diagonal ones another, and on one period row 255 - k prints as row k
    assert counts == [[256 + 2 * 128 - 1], [], []]


def test_sweep_json_tables_format_only_new_values():
    # sfdm tables share their time grid and their values bit for bit, so
    # every table after the first takes its whole text
    specs = [sfdm_spec(chi) for chi in np.linspace(0.2, 1.6, 8)]
    counts = formatted_per_table(transition_tables([realize(spec) for spec in specs], 256), "json")
    # per table: the time grid, then the two distinct live probability
    # columns (cos^2 and sin^2 of one gap), less the 43 cells of each that
    # equal in bits the cell facing them on one period
    assert counts == [[256, 2 * (256 - 43)]] + [[]] * 7
    # an h8v m2 axis on a set grid end shares its times but changes its gap,
    # and so its probabilities, at every point but t = 0, where they are 1.0 and 0.0
    specs = [ModelSpec("h8v", {"m0": 2.0, "m2": m2}, {"p": 0.7}) for m2 in np.linspace(0.2, 1.6, 8)]
    counts = formatted_per_table(transition_tables([realize(spec) for spec in specs], 256, t_max=12.5), "json")
    assert counts == [[256, 2 * 256]] + [[0, 2 * 256 - 2]] * 7


# ---------------------------------------------------------------------------
# points with one spectrum on one time grid share their table, and a table
# bit-equal to the one written before it takes that table's whole text


def h8v_spec(m0=2.0, m2=1.0, theta=0.0):
    return ModelSpec("h8v", {"m0": m0, "m2": m2}, {"p": 0.7, "theta": theta, "phi": 1.1})


def made_alone(spec, *grid):
    [table] = transition_tables([realize(spec)], *grid)
    return table


def assert_same_point(got, want):
    """Two tables equal in bits, or two errors of one type and text."""
    assert type(got) is type(want)
    if isinstance(want, TransitionTable):
        assert got.t_grid.tobytes() == want.t_grid.tobytes() and got.probs.tobytes() == want.probs.tobytes()
    else:
        assert str(got) == str(want)


# per axis: its points, and per point the index of the first point whose
# table it is.  sfdm's spectrum is -1, -1, +1, +1 at every chi, and h8v's
# ignores the momentum direction; on the m2 axis a point shares only the
# last table made, not an earlier one.
SHARED_AXES = {
    "sfdm_chi": ([sfdm_spec(chi) for chi in np.linspace(0.2, 1.6, 5)], [0] * 5),
    "h8v_theta": ([h8v_spec(theta=theta) for theta in np.linspace(0.0, 3.0, 5)], [0] * 5),
    "h8v_m2": ([h8v_spec(m2=m2) for m2 in (1.0, 1.0, 0.5, 0.5, 1.0)], [0, 0, 2, 2, 4]),
}


@pytest.mark.parametrize("axis", sorted(SHARED_AXES))
def test_points_share_the_table_each_makes_alone(axis):
    specs, shared = SHARED_AXES[axis]
    tables = transition_tables([realize(spec) for spec in specs], 64)
    for spec, table in zip(specs, tables):
        assert_same_point(table, made_alone(spec, 64))
    assert [next(k for k, each in enumerate(tables) if each is table) for table in tables] == shared


# a failing point between two points of one spectrum: its realization fails
# (sfdm chi = 711, where cosh overflows, and chi = 30, where a ket's PT norm
# vanishes), or its table does (h8v at m0 = 100, whose lambda * t overflows
# on a grid end of 1e307 where m0 = 2's does not)
FAILING_BETWEEN = {
    "sfdm_chi_711": ([sfdm_spec(chi) for chi in (0.5, 711.0, 0.7)], (64,)),
    "sfdm_chi_30": ([sfdm_spec(chi) for chi in (0.5, 30.0, 0.7)], (64,)),
    "h8v_m0_100": ([h8v_spec(m0=m0) for m0 in (2.0, 100.0, 2.0)], (16, 1e307)),
}


@pytest.mark.parametrize("case", sorted(FAILING_BETWEEN))
def test_a_failing_point_keeps_its_own_error_between_shared_tables(case):
    specs, grid = FAILING_BETWEEN[case]
    tables = transition_tables([realize(spec) for spec in specs], *grid)
    assert isinstance(tables[1], PtoscError)
    for spec, table in zip(specs, tables):
        assert_same_point(table, made_alone(spec, *grid))
    assert tables[2] is tables[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("where", ["t_grid", "probs"])
def test_one_signed_zero_cell_blocks_whole_text_reuse(where, fmt):
    table = TransitionTable(np.array([0.0, 0.5, 1.0]), np.array([np.eye(4)] * 3))
    signed = TransitionTable(table.t_grid.copy(), table.probs.copy())
    # -0.0 == 0.0 but prints with its sign: the first time, or P12 in the
    # first row (the clamp leaves no -0.0 probability, so it is set past it)
    getattr(signed, where).flat[1 if where == "probs" else 0] = -0.0
    counts = formatted_per_table([table, signed, signed, table], fmt)
    assert counts[1] and counts[2] == [] and counts[3]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_with_times_all_zero_matches_references(fmt):
    # a sweep on t_max 0: every table's time column is +0.0 in every row,
    # and its probabilities are the identity
    specs = [ModelSpec("h8v", {"m0": 2.0, "m2": m2}, {"p": 0.7}) for m2 in (0.5, 1.0, 1.5)]
    reuse = {}
    for table in transition_tables([realize(spec) for spec in specs], 16, t_max=0.0):
        assert not table.t_grid.any()
        assert write(table, fmt, reuse) == reference_text(table, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_live_column_near_a_dead_one_before_matches_references(fmt):
    # the time column and P13 are +0.0 in every row of the first table, and
    # live, within 1e-11 of those zeros, in the second
    dead = TransitionTable(np.zeros(3), np.array([twin_rows(1.0, 1.0, 1.0, 1.0)] * 3))
    live = TransitionTable(np.array([0.0, 1e-12, 2e-12]), np.array([twin_rows(1.0 - 1e-12, 1.0, 1.0, 1.0)] * 3))
    assert live.probs[:, 0, 2].all()
    reuse = {}
    for table in (dead, live, dead, live):
        assert write(table, fmt, reuse) == reference_text(table, fmt)


# one flavour gap, so c2 and s2 are c1 and s1 and a block holds 3 columns,
# and two gaps, the first the same, whose block holds 5
ONE_GAP, TWO_GAPS = np.array([-1.0, -1.0, 1.0, 1.0]), np.array([-1.0, -2.0, 1.0, 2.0])
GRID = np.linspace(0.0, 10.0, 256)
# (table before, table after): 256 rows after the first 255 of them, and 5 pattern columns after 3
RESHAPED = {
    "rows": (TransitionTable.pattern(ONE_GAP, GRID[:255]), TransitionTable.pattern(ONE_GAP, GRID)),
    "columns": (TransitionTable.pattern(ONE_GAP, GRID), TransitionTable.pattern(TWO_GAPS, GRID)),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(RESHAPED))
def test_table_of_another_shape_takes_the_texts_of_the_one_before(case, fmt):
    before, after = RESHAPED[case]
    [alone] = formatted_per_table([after], fmt)
    _, taken = formatted_per_table([before, after], fmt)
    # per part, the values formatted: the new row's, or half the cells of the
    # new columns c2 and s2, as 2 t_k = t_2k puts row k <= 127 of each on a
    # cell of c1 or s1
    assert taken == {"rows": {"csv": [3], "json": [1, 2]}, "columns": {"csv": [256], "json": [0, 256]}}[case][fmt]
    assert sum(taken) < sum(alone)


# ---------------------------------------------------------------------------
# columns that take their texts from a near twin in their own block, or from
# their own rows reversed


@st.composite
def mirrored_tables(draw):
    """A table of 1-9 rows whose columns equal their own reverse, but for
    cells moved to a :func:`neighbour`: by an ulp across a rounding edge,
    or a zero to -0.0 facing +0.0.  P33 is a neighbour of P11 or a column
    of its own."""
    n = draw(st.integers(1, 9))

    def column(values):
        head = [draw(values) for _ in range((n + 1) // 2)]
        return [draw(neighbour(x)) if draw(st.booleans()) else x for x in head + head[: n // 2][::-1]]

    p11 = column(VALUE)
    p33 = [draw(neighbour(x)) for x in p11] if draw(st.booleans()) else column(VALUE)
    probs = [twin_rows(*row) for row in zip(p11, p33, column(VALUE), column(VALUE))]
    # the times keep their signed zeros; the clamp makes each -0.0 probability +0.0
    return TransitionTable(np.array(column(TIME)), np.array(probs))


@settings(max_examples=120, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(table=mirrored_tables())
def test_writers_match_references_on_mirrored_columns(table):
    assert table.to_csv() == reference_csv(table)
    assert_json_matches_reference(table.to_json(), table)


# 0.1234567890125 prints as 0.123456789012, and one ulp above it as 0.123456789013
EDGE_CELL = (123456789012 + 0.5) / 1e12


def near_twin_table(moves):
    """Five rows whose P33 is P11 moved by ``moves[r]`` ulps in row r: P33
    and P31 are near twins of P11 and P13, which print apart from them
    where a move crosses the rounding edge at EDGE_CELL."""
    p11 = [0.25, EDGE_CELL, 0.75, EDGE_CELL, 0.5]
    rows = [twin_rows(x, ulps(x, k), 1.0, 1.0) for x, k in zip(p11, moves)]
    return TransitionTable(np.linspace(0.0, 1.0, 5), np.array(rows))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_near_twin_across_a_rounding_edge_matches_references(fmt):
    # P33 and P31 print as P11 and P13 save where a move crosses the
    # rounding edge; ``before`` holds every key of ``twin``
    twin, before = near_twin_table([0, 1, 1, -1, 0]), near_twin_table([1, 1, 0, -1, 1])
    formatted = []
    with formatting_spy(formatted):
        assert write(twin, fmt, {}) == reference_text(twin, fmt)
        reuse = {}
        for table in (before, twin):
            assert write(table, fmt, reuse) == reference_text(table, fmt)
    # values formatted per table (JSON: times, then probabilities).  In CSV,
    # each table alone formats its 9 keys, which print 8 texts: the guard
    # proves no rounding at the edge, so two cells there print alike from
    # their bits; after ``before``, ``twin`` formats nothing.  Under %r a key
    # is the bits: each table formats its distinct floats, and ``twin`` after
    # ``before`` the 2 that ``before`` lacks.
    assert formatted == {"csv": [9, 9, 0], "json": [5, 11, 5, 12, 0, 2]}[fmt]


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
    es = h8v_reduced_eigensystem(2.0, 0.5, 0.0)
    table = TransitionTable(np.array([0.0, 0.0, -0.0]), analytic_pattern(es.values, [0.0, 0.0, -0.0]))
    out = capsys.readouterr().out
    assert out == (table.to_csv() if fmt == "csv" else table.to_json())
    assert ("\n-0,1,0," if fmt == "csv" else "\n    -0.0\n") in out


def test_writers_on_one_row_at_t0():
    table = TransitionTable(np.array([0.0]), np.eye(4)[None])
    assert_writers_match_references(table)
    assert table.to_csv().split("\n")[1] == "0,1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"


# ---------------------------------------------------------------------------
# the JSON kernel: Ryu's digits are repr's, and repr keeps the magnitudes
# that Ryu writes in another notation


def assert_texts_are_repr(values):
    values = np.array(values, dtype=float)
    assert _texts(values, "%r") == list(map(repr, values.tolist()))


@settings(max_examples=200, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=32))
def test_json_kernel_is_repr_on_finite_floats(values):
    assert_texts_are_repr(values)


# both zeros, the smallest subnormal and normal, an integer past 2^53, the
# largest double, and the two edges of Ryu's notation with their neighbours
KERNEL_PINS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9007199254740993.0, 1.7976931348623157e308]
KERNEL_PINS += [np.nextafter(edge, edge + step).item() for edge in (1e-4, 1e16) for step in (-edge, 0.0, edge)]


def test_json_kernel_is_repr_at_its_pins():
    assert_texts_are_repr(KERNEL_PINS + [-x for x in KERNEL_PINS])


def test_json_kernel_is_repr_on_a_cos2_column():
    # 4,096 values from 1 down to tiny and back, some below 1e-4
    assert_texts_are_repr(np.cos(np.linspace(0.0, 7.0, 4096)) ** 2)


@pytest.mark.parametrize("t_max", ["1e-6", "1e20"], ids=["times_below_1e-4", "times_from_1e16"])
def test_oscillate_json_times_out_of_ryu_range(t_max, capsys):
    argv = ["oscillate", "--model", "sfdm", "--chi", ".5", "--psi", ".3", "--theta", ".7", "--phi", ".2"]
    assert main([*argv, "--t-points", "64", "--t-max", t_max, "--format", "json"]) == 0
    [table] = transition_tables([realize(CATALOGUE["sfdm"])], 64, float(t_max))
    assert_same_text(capsys.readouterr().out, json.dumps(table.to_json_dict(), indent=2) + "\n")


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_analytic_pattern_matches_per_time_loop(name):
    table, es = catalogue_table(name, 4097)
    # c*c against libm pow(cos, 2): the last bit differs on ~0.08 % of inputs
    assert np.max(np.abs(analytic_pattern(es.values, table.t_grid) - reference_pattern(es, table.t_grid))) <= 4.5e-16


# ---------------------------------------------------------------------------
# dynamics against an independent oracle: scipy's expm(-iHt), which uses no
# eigenvalue phases, over one default period of 64 times


# the catalogue and sfdm at chi = 2 and 4, where ||C|| is 7.4 and 55; at
# chi = 6.5 the table errs by about 60 eps ||C||^2 (item 4's fp64 question)
EXPM_POINTS = {**CATALOGUE, **{f"sfdm_chi_{chi}": ModelSpec("sfdm", {**CATALOGUE["sfdm"].params, "chi": chi}) for chi in (2.0, 4.0)}}


def expm_setup(name):
    """The point's (sym, eigensystem, C), its default 64-point time grid and
    U(t) = expm(-iHt) at each time."""
    sym, es, c = realized_setup(EXPM_POINTS[name])
    h = model_hamiltonian(EXPM_POINTS[name])
    grid = default_t_grid(es, 64)
    return sym, es, c, grid, [expm(-1j * h * t) for t in grid]


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_expm_moves_eigenkets_by_their_phases(name):
    _, es, _, grid, evolutions = expm_setup(name)
    for t, u in zip(grid, evolutions):
        assert np.abs(u @ es.K - es.K * np.exp(-1j * es.values * t)).max() <= 1e-13


@pytest.mark.parametrize("name", sorted(name for name, spec in CATALOGUE.items() if spec.p == 0))
def test_expm_is_cpt_unitary(name):
    # U(t)^dag (C^dag S) U(t) = C^dag S; at p = 0 the bra side's C(-p) is C
    sym, _, c, _, evolutions = expm_setup(name)
    metric = c.matrix.conj().T @ sym.s
    for u in evolutions:
        assert np.abs(u.conj().T @ metric @ u - metric).max() <= 1e-13


@pytest.mark.parametrize("name", sorted(EXPM_POINTS))
def test_transition_table_matches_expm(name):
    # P[t, i, m] = |(C(-p) f'_m(-p))^dag S expm(-iH(p)t) f'_i(p)|^2, where the
    # flavour kets at -p mix the bra kets B as those at p mix K
    sym, es, c, grid, evolutions = expm_setup(name)
    flavours = standard_flavour_basis(sym, es, c)
    bras = (c.reflected @ es.B @ MIXING.T).conj().T @ sym.s
    expected = np.array([np.abs(bras @ u @ flavours).T ** 2 for u in evolutions])
    table = transition_table(sym, flavours, es, c, grid)
    # both sides round products of size ||C||^2; the catalogue's ||C|| is small
    bound = 1e-13 if name in CATALOGUE else 16.0 * EPS * operator_norm(c.matrix) ** 2
    assert np.abs(table.probs - expected).max() <= bound


# ---------------------------------------------------------------------------
# emitted tables against the exact pattern, from 50-digit mpmath eigenvalues
# of the model's Hamiltonian, over one default period of 64 times

EPS = np.finfo(float).eps
# the catalogue and sfdm across its chi band, where ||C|| grows to 665
ORACLE_POINTS = {
    **CATALOGUE,
    **{f"sfdm_chi_{chi}": ModelSpec("sfdm", {**CATALOGUE["sfdm"].params, "chi": chi}) for chi in (0.5, 2.0, 4.0, 6.5)},
}


def exact_hamiltonian(spec, h) -> mpmath.matrix:
    """The working Hamiltonian at the working precision: the h8 family's
    entries are its masses and p, which the stored ``h`` holds exactly;
    sfdm's are made from its parameters, [[a0, i B], [i B^dag, -a0]] with
    a0 = cosh chi and B = b0 + i (b1 s1 + b2 s2 + b3 s3)."""
    if spec.model != "sfdm":
        return mpmath.matrix(h.tolist())
    chi, psi, theta, phi = (mpmath.mpf(spec.params[key]) for key in ("chi", "psi", "theta", "phi"))
    sh, i = mpmath.sinh(chi), mpmath.mpc(0, 1)
    b0, b3 = sh * mpmath.cos(psi), sh * mpmath.sin(psi) * mpmath.cos(theta)
    b1, b2 = (sh * mpmath.sin(psi) * mpmath.sin(theta) * f(phi) for f in (mpmath.cos, mpmath.sin))
    b = [[b0 + i * b3, i * b1 + b2], [i * b1 - b2, b0 - i * b3]]
    exact = mpmath.diag([mpmath.cosh(chi)] * 2 + [-mpmath.cosh(chi)] * 2)
    for r in range(2):
        for k in range(2):
            exact[r, k + 2], exact[r + 2, k] = i * b[r][k], i * mpmath.conj(b[k][r])
    return exact


def exact_pattern(spec, h, values, t_grid) -> np.ndarray:
    """The cos^2/sin^2 pattern of the 50-digit eigenvalues, each paired with
    the nearest of ``values`` so that the levels keep their order."""
    with mpmath.workdps(50):
        exact = list(mpmath.eig(exact_hamiltonian(spec, h), left=False, right=False))
        levels = [mpmath.re(exact.pop(min(range(len(exact)), key=lambda k: abs(exact[k] - complex(v))))) for v in values]
        out = np.zeros((len(t_grid), 4, 4))
        for n, (i, j) in enumerate(((0, 2), (1, 3))):
            gap = (levels[j] - levels[i]) / 2
            for k, t in enumerate(t_grid.tolist()):
                out[k, i, i] = out[k, j, j] = float(mpmath.cos(gap * t) ** 2)
                out[k, i, j] = out[k, j, i] = float(mpmath.sin(gap * t) ** 2)
    return out


def beyond_clamp(table, exact) -> np.ndarray:
    """|table - exact| per cell, less the clamp where the table holds a clamped 0."""
    err = np.abs(table.probs - exact)
    return np.where(table.probs == 0.0, np.maximum(err - oscillate.CLAMP, 0.0), err)


@pytest.mark.parametrize("name", sorted(ORACLE_POINTS))
def test_tables_against_50_digit_eigenvalues(name):
    spec = ORACLE_POINTS[name]
    real = realize(spec)
    [table] = transition_tables([real], 64)
    es = real.eigensystem
    exact = exact_pattern(spec, real.hamiltonian, es.values, table.t_grid)
    # the emitted table errs only by the rounding of lambda t and of cos^2
    phase = EPS * (1.0 + float(np.abs(es.values).max()) * table.t_grid)[:, None, None]
    assert (beyond_clamp(table, exact) <= 8.0 * phase).all()
    # the CPT route adds the rounding of its products, of order eps ||C||^2
    c = build_C(real.sym, es, hamiltonian=real.hamiltonian)
    cpt = transition_table(real.sym, standard_flavour_basis(real.sym, es, c), es, c, table.t_grid)
    assert (beyond_clamp(cpt, exact) <= 8.0 * phase + 16.0 * EPS * operator_norm(c.matrix) ** 2).all()


# ---------------------------------------------------------------------------
# the --golden certificate, which bounds |CPT route - pattern| over every real t
# from the coefficients, against both sampled on grids


def allowance(values, t_grid) -> np.ndarray:
    """The rounding of the sampled |CPT route - pattern| beyond the certificate, per time.

    The certificate bounds the two in exact arithmetic, from the same float
    spectrum and coefficients; sum_k |c_ki conj(c_km)| is 1 + D, taken as 1.
    In units of u = EPS / 2, at time t, with L = max |lambda|:

    - CPT route: lambda_k t rounds once (u L |t|) and each part of its phase
      factor is within 1 ulp (u, below 1), so each factor moves by
      u (L |t| + sqrt 2); two complex products (sqrt 5 u each) and a sum of 4
      (3 sqrt 2 u) add 8.7 u.  The amplitude, of modulus at most 1, is then
      off by u (L |t| + 10.2), its square by twice that, and abs and the
      square round by 3 u more: u (2 L |t| + 23.4).
    - Pattern: the half-gap and g t each round once, so the angle is off by
      2 u L |t|, which cos^2 carries at slope at most 1; cos (1 ulp) and
      c * c add 3 u: u (2 L |t| + 3).
    - The bound's own sums: each c_ki conj(c_km) rounds by sqrt 5 u, so D may
      read 2.3 u low and D (2 + D) 4.5 u low.

    In all u (4 L |t| + 30.9), rounded up to EPS (2 L |t| + 16)."""
    return EPS * (16.0 + 2.0 * float(np.abs(values).max()) * np.abs(t_grid))[:, None, None]


def golden_and_sampled(spec, n, t_max=None) -> tuple:
    """``golden_table``'s bound at one point, and on its grid the unclamped
    CPT route and pattern of the coefficients that bound is made of, the grid
    and the real spectrum."""
    real = realize(spec)
    table, bound = oscillate.golden_table(real, n, t_max)
    [(values, coeff, t_grid)] = oscillate._gated([real], n, t_max, DEFAULT_TOL)
    assert t_grid.tobytes() == table.t_grid.tobytes()
    values = np.real(values)
    return bound, oscillate._cpt_probs(values, coeff, t_grid), analytic_pattern(values, t_grid), t_grid, values


def cli_flags(spec) -> list:
    flags = ["--model", spec.model, *(f"--{key}={value}" for key, value in spec.params.items())]
    return flags + [f"--p={spec.momentum['p']}"] if spec.momentum else flags


@pytest.mark.parametrize("n", [64, 4097])
@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_golden_deviation_is_that_of_the_whole_tables(name, n):
    # the bound covers the deviation of every row of the unclamped CPT route
    bound, cpt, pattern, t_grid, values = golden_and_sampled(CATALOGUE[name], n)
    assert (np.abs(cpt - pattern) <= bound + allowance(values, t_grid)).all()


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_golden_line_matches_per_time_loop(name, capsys):
    # the line prints golden_table's bound, which covers the emitted CPT-route
    # table against the pattern made one time point at a time
    assert main(["oscillate", *cli_flags(CATALOGUE[name]), "--t-points", "4096", "--golden"]) == 0
    bound = oscillate.golden_table(realize(CATALOGUE[name]), 4096)[1]
    assert capsys.readouterr().err == f"golden max deviation: {bound:.3e}\n"
    table, es = catalogue_table(name, 4096, default_grid=True)
    deviation = beyond_clamp(table, reference_pattern(es, table.t_grid))
    assert (deviation <= bound + allowance(np.real(es.values), table.t_grid)).all()


@settings(max_examples=60, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(name=st.sampled_from(sorted(CATALOGUE)), n=st.integers(1, 300), t_max=st.floats(-1e6, 1e6))
def test_golden_bound_covers_the_sampled_deviation_on_t_max_grids(name, n, t_max):
    bound, cpt, pattern, t_grid, values = golden_and_sampled(CATALOGUE[name], n, t_max)
    assert (np.abs(cpt - pattern) <= bound + allowance(values, t_grid)).all()


@pytest.mark.parametrize("name", sorted(ORACLE_POINTS))
def test_golden_bound_against_50_digit_eigenvalues(name):
    # the CPT route is within the bound and the allowance of the pattern of the
    # float spectrum, which is within 8 phase roundings of the exact pattern,
    # as the emitted table is in the test above
    spec = ORACLE_POINTS[name]
    bound, cpt, _, t_grid, values = golden_and_sampled(spec, 64)
    exact = exact_pattern(spec, realize(spec).hamiltonian, values, t_grid)
    phase = EPS * (1.0 + float(np.abs(values).max()) * t_grid)[:, None, None]
    assert (np.abs(cpt - exact) <= bound + allowance(values, t_grid) + 8.0 * phase).all()


# coefficients off the flavour matrix by up to 1e-2, whose bounds stand far
# above rounding, on spectra whose pair gaps are incommensurate
@pytest.mark.parametrize("seed", range(12))
def test_certificate_bounds_perturbed_coefficients_on_a_dense_grid(seed):
    rng = np.random.default_rng(seed)
    coeff = oscillate._SQRT2_F / math.sqrt(2.0) + 10.0 ** rng.uniform(-6, -2) * random_cmatrix(rng, 4)
    values, t_grid = rng.uniform(-3.0, 3.0, 4), np.linspace(0.0, 200.0, 20001)
    entry, row = oscillate._certificate(coeff)
    cpt = oscillate._cpt_probs(values, coeff, t_grid)
    slack = allowance(values, t_grid)
    assert (np.abs(cpt - analytic_pattern(values, t_grid)) <= entry + slack).all()
    # a row adds 4 entries, each within the CPT route's share of the slack, with
    # 3 roundings, and its bound's 16 terms round by about 10 u: within 4 slacks
    assert (np.abs(cpt.sum(axis=2) - 1.0) <= row + 4.0 * slack[:, 0]).all()


# ---------------------------------------------------------------------------
# naive B diagnostic


def naive_flavour_B(sym, eigsys, c) -> np.ndarray:
    """B_jk = sum_l alpha_lj conj(alpha_lk) for coordinate flavour kets.

    alpha_lk is the CPT coefficient of the k-th coordinate basis vector on
    eigenket l.  B equals the identity only when the eigenbasis is
    Dirac-orthonormal; its deviation from 1 quantifies the failure of the
    canonical completeness relation in the coordinate flavour basis.
    """
    alpha = _cpt_bras(sym, c.matrix, eigsys.K)
    return alpha.T @ alpha.conj()


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


# ---------------------------------------------------------------------------
# the default grid is one period of the flavour oscillation


DEFAULT_GRID_POINTS = {
    **CATALOGUE,
    **{f"h8r_m1_{m1}": ModelSpec("h8r", {"m0": 2.0, "m1": m1, "m2": 1.0}) for m1 in (0.001, 0.3)},
}


@pytest.mark.parametrize("name", sorted(DEFAULT_GRID_POINTS))
def test_default_grid_is_one_flavour_period(name):
    real = realize(DEFAULT_GRID_POINTS[name])
    [table] = transition_tables([real], 64)
    probs = table.probs
    # every flavour returns to itself at both ends, and row T - t repeats row t
    np.testing.assert_allclose(np.diagonal(probs[[0, -1]], axis1=1, axis2=2), 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(probs, probs[::-1], rtol=0.0, atol=1e-12)
    spectrum = np.sort(real.eigensystem.values.real)
    assert table.t_grid[-1] == 2.0 * math.pi / float((spectrum[2:] - spectrum[:2]).min())


def test_default_grid_of_a_spectrum_with_no_gap_is_refused():
    grids, errors = oscillate._default_t_grids(np.array([[0.5, 0.5, 0.5, 0.5], [-1.0, -1.0, 1.0, 1.0]]), 8)
    assert isinstance(errors[0], ConstructionError) and errors[1] is None
    assert grids[1, -1] == math.pi


# ---------------------------------------------------------------------------
# an emitted table, made from its spectrum and grid block by block, against
# the table of its probabilities


def pattern_twin(table, values):
    """The table ``TransitionTable(t, analytic_pattern(values, t))`` of an emitted table."""
    return TransitionTable(table.t_grid, analytic_pattern(values, table.t_grid))


def streamed(table, fmt: str) -> str:
    """The text ``table`` passes, block by block, to a ``write``."""
    chunks = []
    assert (table.to_csv if fmt == "csv" else table.to_json)(None, chunks.append) == ""
    return "".join(chunks)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", [(1,), (256,), (4097,), (3, -0.0)], ids=["1", "256", "4097", "t_max_minus_0"])
@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_emitted_table_is_its_pattern_table(name, grid, fmt):
    real = realize(CATALOGUE[name])
    [table] = transition_tables([real], *grid)
    twin = pattern_twin(table, real.eigensystem.values)
    assert table.probs.tobytes() == twin.probs.tobytes()
    text = write(twin, fmt, None)
    assert_same_text(write(table, fmt, None), text)
    assert_same_text(streamed(table, fmt), text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitted_tables_in_sequence_are_their_pattern_tables(fmt):
    # every catalogue member at 256 times, then again, then at 1 and 4,097
    # times; a table written twice in a row takes its whole text
    reals = {name: realize(spec) for name, spec in sorted(CATALOGUE.items())}
    made = [(transition_tables([real], n)[0], real) for n in (256, 256, 1, 4097) for real in reals.values()]
    made.insert(1, made[0])
    emitted, twins = {}, {}
    for table, real in made:
        assert write(table, fmt, emitted) == write(pattern_twin(table, real.eigensystem.values), fmt, twins)


def test_pattern_refused_with_the_residual_of_its_whole_table(monkeypatch):
    # c1 moved off cos^2 by up to 1e-9, a function of t alone, so that each
    # block moves as the whole grid does
    block = oscillate._pattern_block
    monkeypatch.setattr(oscillate, "_pattern_block", lambda t, gaps: block(t, gaps) * [1.0, 1.0 + 1e-9, 1.0, 1.0, 1.0] ** np.sin(t)[:, None])
    real = realize(CATALOGUE["h8"])
    t = default_t_grid(real.eigensystem, 4097)
    with pytest.raises(NumericalError) as whole:
        TransitionTable(t, analytic_pattern(real.eigensystem.values, t))
    with pytest.raises(NumericalError) as blocks:
        TransitionTable.pattern(real.eigensystem.values, t)
    assert str(blocks.value) == str(whole.value) == "transition rows are not stochastic"
    assert blocks.value.residual == whole.value.residual > 1e-10
