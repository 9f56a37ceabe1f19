"""Micro-benchmarks of a sweep's compute: the stacked core against the
one-point path run once per grid point.

    python3 -m pytest perf --benchmark-only -q

Run from the repository root.  ``perf`` is outside ``testpaths``, so the
plain test run never collects these.  A grid is 27 points of one model at
256 times, the size of a ``sweep_grid`` benchmark op: an sfdm chi axis and
an h8v m2 axis at p 0.7.  ``stacked`` times what ``ptosc sweep`` runs,
``one_point`` the same tables made point by point with ``build_C``,
``standard_flavour_basis``, ``default_t_grid`` and ``transition_table``;
both include ``realize``.
"""

import numpy as np
import pytest

from ptosc.cli import _tables
from ptosc.coperator import build_C
from ptosc.models import ModelSpec
from ptosc.oscillate import default_t_grid, standard_flavour_basis, transition_table
from ptosc.verify import realize

POINTS = 27
T_POINTS = 256
GRIDS = {
    "sfdm": [ModelSpec("sfdm", {"chi": chi, "psi": 0.3, "theta": 0.7, "phi": 0.2}) for chi in np.linspace(0.2, 1.6, POINTS)],
    "h8v": [ModelSpec("h8v", {"m0": 2.0, "m2": m2}, {"p": 0.7}) for m2 in np.linspace(-1.6, 1.6, POINTS)],
}
GRID_ARGS = (T_POINTS, None)  # _tables' (t_points, t_max)


def one_point_tables(specs):
    tables = []
    for spec in specs:
        real = realize(spec)
        es = real.eigensystem
        c = build_C(real.sym, es, hamiltonian=real.hamiltonian)
        basis = standard_flavour_basis(real.sym, es, c)
        tables.append(transition_table(real.sym, basis, es, c, default_t_grid(es, T_POINTS)))
    return tables


@pytest.mark.parametrize("model", GRIDS)
def test_stacked(benchmark, model):
    results = benchmark(_tables, GRIDS[model], GRID_ARGS, 1e-10)
    assert len(results) == POINTS


@pytest.mark.parametrize("model", GRIDS)
def test_one_point(benchmark, model):
    tables = benchmark(one_point_tables, GRIDS[model])
    stacked = [table for table, _ in _tables(GRIDS[model], GRID_ARGS, 1e-10)]
    assert all(np.array_equal(a.probs, b.probs) for a, b in zip(tables, stacked))
