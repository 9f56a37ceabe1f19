"""The stacked core over N points gives, bit for bit, what it gives one point
at a time, and what the two-dimensional per-point forms it replaced give."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptosc.coperator import build_C, stacked_C
from ptosc.errors import ConstructionError
from ptosc.inner import pt_normalize_rows
from ptosc.linalg import operator_norm
from ptosc.models import ModelSpec
from ptosc.oscillate import (
    TransitionTable,
    _cpt_bras,
    _default_t_grids,
    _stacked_flavours,
    analytic_pattern,
    default_t_grid,
    standard_flavour_basis,
    transition_tables,
)
from ptosc.symmetry import block_pair, canonical_pair
from ptosc.verify import realize

ANGLE = st.floats(0.1, 3.0)
RATIO = st.floats(-0.9, 0.9)
MASS = st.floats(0.5, 3.0)

SFDM = st.builds(
    lambda chi, psi, theta, phi: ModelSpec("sfdm", {"chi": chi, "psi": psi, "theta": theta, "phi": phi}),
    st.floats(0.05, 3.0), ANGLE, ANGLE, st.floats(0.0, 6.2),
)
H8V = st.builds(
    lambda m0, r2, p: ModelSpec("h8v", {"m0": m0, "m2": r2 * m0}, {"p": p}),
    MASS, RATIO, st.floats(-3.0, 3.0),
)
H8R = st.builds(lambda m0, r1, r2: ModelSpec("h8r", {"m0": m0, "m1": r1 * m0, "m2": r2 * m0}), MASS, RATIO, RATIO)
# unbroken points of one model, as a sweep has them
POINTS = st.one_of(*(st.lists(specs, min_size=1, max_size=6) for specs in (SFDM, H8V, H8R)))
# an h8v point near the exceptional point, where C fails [C, H] = 0 inside the core
NEAR_EP = ModelSpec("h8v", {"m0": 2.0, "m2": 1.99999999}, {"p": 0.5})
# an h8v point that realize records as PT-broken, before the core
BROKEN = ModelSpec("h8v", {"m0": 1.0, "m2": 2.0}, {"p": 0.5})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(POINTS, st.integers(1, 40), st.integers(0, 6))
def test_stacked_core_equals_the_one_point_path(specs, t_points, position):
    # an h8v list gets the broken point, then the failing one, at the drawn position
    near_ep = min(position, len(specs)) if specs[0].model == "h8v" else None
    if near_ep is not None:
        specs = specs[:near_ep] + [BROKEN, NEAR_EP] + specs[near_ep:]
    reals = [realize(spec) for spec in specs]
    tables = transition_tables(reals, t_points)
    if near_ep is not None:
        # the broken point gets its own error back and takes no part in the stacks below
        broken = reals.pop(near_ep)
        assert broken.eigensystem is None and tables.pop(near_ep) is broken.error
    sym = reals[0].sym
    eigs = [real.eigensystem for real in reals]
    kets = np.stack([es.K for es in eigs])
    bra_kets = np.stack([es.B for es in eigs])
    hamiltonians = np.stack([real.hamiltonian for real in reals])
    c, errors = stacked_C(sym, kets, bra_kets, hamiltonians)
    flavours, bras, defects, _ = _stacked_flavours(sym, c.reflected, kets, bra_kets)
    coeffs = bras @ flavours
    grids, grid_errors = _default_t_grids(np.array([es.values for es in eigs]), t_points)
    for n, (real, es) in enumerate(zip(reals, eigs)):
        if n == near_ep:
            with pytest.raises(ConstructionError, match=r"^\[C, H\] != 0") as failure:
                build_C(sym, es, hamiltonian=real.hamiltonian)
            assert type(tables[n]) is ConstructionError and str(tables[n]) == str(failure.value)
            continue
        one = build_C(sym, es, hamiltonian=real.hamiltonian)
        assert errors[n] is None and grid_errors[n] is None
        # the per-point forms of C, C(-p) and the C^2 defect
        c2 = np.einsum("ij,jk->ik", es.K, es.B.conj().T @ sym.s)
        assert np.array_equal(one.matrix, c2)
        assert np.array_equal(one.reflected, np.einsum("ij,jk->ik", es.B, es.K.conj().T @ sym.s))
        assert one.square_defect == operator_norm(c2 @ c2 - np.eye(4))
        assert np.array_equal(c.matrix[n], one.matrix)
        assert np.array_equal(c.reflected[n], one.reflected)
        assert c.square_defect[n] == one.square_defect
        assert c.commutator_defect[n] == one.commutator_defect
        assert defects[n] == _stacked_flavours(sym, one.reflected[None], es.K[None], es.B[None])[2][0]
        basis = standard_flavour_basis(sym, es, one)
        assert np.array_equal(coeffs[n], _cpt_bras(sym, one.reflected, es.B) @ basis)
        grid = default_t_grid(es, t_points)
        assert np.array_equal(grids[n], grid)
        # the per-point form of the default grid
        spectrum = np.sort(es.values)
        gaps = np.diff(spectrum)
        gaps = gaps[gaps > 1e-12 * max(1.0, float(np.max(np.abs(spectrum))))]
        assert np.array_equal(grid, np.linspace(0.0, 2.0 * np.pi / float(gaps.min()), t_points))
        # the emitted table is the pattern of the spectrum on that grid
        table = TransitionTable(grid, analytic_pattern(es.values, grid))
        assert np.array_equal(tables[n].t_grid, table.t_grid)
        assert np.array_equal(tables[n].probs, table.probs)


def reference_pt_normalize(sym, v):
    """pt_normalize_rows of one vector with a non-vanishing PT norm, with 1-d products."""
    norm = complex(v.conj() @ sym.s @ v).real
    out = v / np.sqrt(abs(norm))
    out = out * np.exp(-1j * np.angle(out[int(np.argmax(np.abs(out) > 1e-12))]))
    return out, (1 if norm > 0 else -1)


COMPONENT = st.floats(-1e3, 1e3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([block_pair(), canonical_pair(2)]), st.lists(st.lists(COMPONENT, min_size=8, max_size=8), min_size=1, max_size=6))
def test_pt_normalize_rows_equals_one_row_at_a_time(sym, rows):
    vs = np.array([row[:4] for row in rows]) + 1j * np.array([row[4:] for row in rows])
    try:
        singles = [pt_normalize_rows(sym, v[None]) for v in vs]
    except Exception as exc:
        # the rows fail as the first failing vector does
        try:
            pt_normalize_rows(sym, vs)
        except type(exc) as again:
            assert str(again) == str(exc)
        else:
            raise AssertionError(f"pt_normalize_rows did not raise {exc!r}")
        return
    kets, signs = pt_normalize_rows(sym, vs)
    for v, ([ket], [sign]), row, row_sign in zip(vs, singles, kets, signs):
        assert np.array_equal(ket, row) and sign == row_sign
        reference_ket, reference_sign = reference_pt_normalize(sym, v)
        assert np.array_equal(reference_ket, row) and reference_sign == row_sign
