"""The direct small-matrix constructions give, bit for bit and signed zeros
included, what the numpy routines and the two-part finiteness test they
replaced give; so do a transition table's row sums and clamp."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ptosc import oscillate
from ptosc.coperator import build_C
from ptosc.errors import NumericalError, ParameterError
from ptosc.linalg import MAX_DIM, SIGMA0, as_cmatrix, as_cvector, kron
from ptosc.models import (
    ModelSpec,
    SfdmParams,
    generic_blocks,
    generic_t_odd_hamiltonian,
    real_quaternion,
    sfdm_hamiltonian,
)
from ptosc.oscillate import CLAMP, TransitionTable, default_t_grid, standard_flavour_basis, transition_table
from ptosc.verify import realize

# finite parts seeded with signed zeros; products of two stay finite
PART = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e150, 1e150))
COMPLEX = st.builds(complex, PART, PART)
# (rows of a, rows of b) or (cols of a, cols of b) within the dimension cap
FACTORS = st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda f: f[0] * f[1] <= MAX_DIM)
ANGLE = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, math.pi]), st.floats(-7.0, 7.0))


def matrices(rows: int, cols: int):
    return arrays(np.complex128, (rows, cols), elements=COMPLEX)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_kron_is_np_kron(data):
    (ra, rb), (ca, cb) = data.draw(FACTORS), data.draw(FACTORS)
    a, b = data.draw(matrices(ra, ca)), data.draw(matrices(rb, cb))
    if data.draw(st.booleans()):  # a real operand, as MOMENTUM_BLOCK and np.eye(2) are
        a = a.real.copy()
    assert_same_bits(kron(a, b), np.kron(a.astype(complex), b))


def _np_block_sfdm(params: SfdmParams) -> np.ndarray:
    b = real_quaternion(*params.b)
    a = params.a0 * SIGMA0
    return np.block([[a, 1j * b], [1j * b.conj().T, -a]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-20.0, 20.0)), ANGLE, ANGLE, ANGLE)
def test_sfdm_hamiltonian_is_the_np_block_assembly(chi, psi, theta, phi):
    params = SfdmParams(chi, psi, theta, phi)
    assert_same_bits(sfdm_hamiltonian(params), _np_block_sfdm(params))


HERMITIAN = st.builds(
    lambda x, y, z: np.array([[x, z], [z.conjugate(), y]], dtype=complex), PART, PART, COMPLEX
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(HERMITIAN, HERMITIAN, st.tuples(PART, PART, PART, PART))
def test_generic_hamiltonian_is_the_np_block_assembly(a, d, q):
    blocks = generic_blocks(a=a, d=d, b=real_quaternion(*q))
    want = np.block([[blocks["a"], 1j * blocks["b"]], [1j * blocks["b"].conj().T, blocks["d"]]])
    assert_same_bits(generic_t_odd_hamiltonian(blocks), want)


def _two_part_cmatrix(a, max_dim=MAX_DIM) -> np.ndarray:
    """as_cmatrix as it was, testing the real and imaginary parts apart."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ParameterError(f"expected a matrix, got ndim={a.ndim}")
    if max_dim is not None and max(a.shape) > max_dim:
        raise ParameterError(f"matrix shape {a.shape} exceeds supported dimension {max_dim}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ParameterError("matrix entries must be finite")
    return a


def _two_part_cvector(v, dim=None) -> np.ndarray:
    """as_cvector as it was, testing the real and imaginary parts apart."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ParameterError(f"expected a vector, got ndim={v.ndim}")
    if dim is not None and v.shape[0] != dim:
        raise ParameterError(f"expected dimension {dim}, got {v.shape[0]}")
    if not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
        raise ParameterError("vector entries must be finite")
    return v


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ParameterError as exc:
        return str(exc)


ANY_PART = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]), st.floats(-1e3, 1e3))


# matrices on both sides of the dimension cap, and arrays of every other ndim
SHAPES = st.one_of(array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=MAX_DIM + 1), array_shapes(min_dims=0, max_dims=3, max_side=2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    arrays(np.complex128, SHAPES, elements=st.builds(complex, ANY_PART, ANY_PART)),
    st.sampled_from([MAX_DIM, None]),
    st.booleans(),
)
def test_as_cmatrix_accepts_and_rejects_as_the_two_part_test(a, max_dim, real):
    if real:
        a = a.real.copy()
    got, want = _outcome(as_cmatrix, a, max_dim), _outcome(_two_part_cmatrix, a, max_dim)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_bits(got, want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    arrays(np.complex128, array_shapes(min_dims=0, max_dims=3, max_side=5), elements=st.builds(complex, ANY_PART, ANY_PART)),
    st.sampled_from([None, 2, 4]),
    st.booleans(),
)
def test_as_cvector_accepts_and_rejects_as_the_two_part_test(v, dim, real):
    if real:
        v = v.real.copy()
    got, want = _outcome(as_cvector, v, dim), _outcome(_two_part_cvector, v, dim)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_bits(got, want)


NON_FINITE_ENTRIES = [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0), complex(0, -math.inf)]


@pytest.mark.parametrize("entry", NON_FINITE_ENTRIES)
def test_as_cmatrix_rejects_a_non_finite_part(entry):
    with pytest.raises(ParameterError, match="^matrix entries must be finite$"):
        as_cmatrix(np.array([[1.0, entry], [0.0, 1.0]]))


@pytest.mark.parametrize("entry", NON_FINITE_ENTRIES)
def test_as_cvector_rejects_a_non_finite_part(entry):
    with pytest.raises(ParameterError, match="^vector entries must be finite$"):
        as_cvector(np.array([1.0, entry]))


# ---------------------------------------------------------------------------
# a transition table's row sums and clamp

TABLE_SPECS = [
    ModelSpec("sfdm", {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}),
    ModelSpec("h8v", {"m0": 2.0, "m2": 1.0}, {"p": 1.0}),
    ModelSpec("h8", {"m0": 2.0, "m1": 0.5, "m2": 1.0, "m3": 0.3}),
]


def unclamped_probs(spec, monkeypatch) -> np.ndarray:
    """The |amplitude|^2 array a catalogue table is made from, before its checks and clamp."""
    real = realize(spec)
    es = real.eigensystem
    c = build_C(real.sym, es, hamiltonian=real.hamiltonian)
    basis = standard_flavour_basis(real.sym, es, c)
    monkeypatch.setattr(oscillate, "TransitionTable", lambda t_grid, probs: probs)
    return transition_table(real.sym, basis, es, c, default_t_grid(es, 4097))


def random_probs(seed: int) -> np.ndarray:
    """Random stochastic rows with entries at and around the clamp, signed
    zeros, and some rows just outside [0, 1]."""
    rng = np.random.default_rng(seed)
    probs = rng.random((4097, 4, 4))
    probs /= probs.sum(axis=2, keepdims=True)
    edges = np.array([0.0, -0.0, 1e-15, CLAMP, np.nextafter(CLAMP, 0.0), 2e-14, -1e-12])
    spots = rng.random(probs.shape) < 0.2
    spots[..., 0] = False
    probs[spots] = rng.choice(edges, size=np.count_nonzero(spots))
    probs[..., 0] = 1.0 - probs[..., 1:].sum(axis=2)  # the row's remainder, at least its old entry
    probs[rng.random(probs.shape[:2]) < 0.05] = [1.0 + 1e-12, -1e-12, 0.0, 0.0]
    return probs


def assert_clamped_as_the_boolean_mask(probs):
    want = np.clip(probs, 0.0, 1.0)
    want[want < CLAMP] = 0.0
    got = TransitionTable(np.zeros(len(probs)), probs).probs
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def assert_residual_is_that_of_sum(probs):
    with pytest.raises(NumericalError) as exc:
        TransitionTable(np.zeros(len(probs)), probs)
    assert exc.value.residual == float(np.max(np.abs(probs.sum(axis=2) - 1.0)))


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda spec: spec.model)
def test_catalogue_table_clamp_and_row_sums_are_those_of_numpy(spec, monkeypatch):
    probs = unclamped_probs(spec, monkeypatch)
    assert_clamped_as_the_boolean_mask(probs)
    # rows scaled off stochastic by up to 1e-9: the residual comes from the sums
    factors = 1.0 + np.random.default_rng(3).uniform(-1e-9, 1e-9, (len(probs), 1, 1))
    assert_residual_is_that_of_sum(probs * factors)


@pytest.mark.parametrize("seed", range(4))
def test_random_table_clamp_and_row_sums_are_those_of_numpy(seed):
    probs = random_probs(seed)
    assert_clamped_as_the_boolean_mask(probs)
    factors = 1.0 + np.random.default_rng(seed).uniform(-1e-9, 1e-9, (len(probs), 1, 1))
    assert_residual_is_that_of_sum(probs * factors)
