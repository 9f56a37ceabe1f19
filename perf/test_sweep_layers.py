"""Micro-benchmarks of a sweep: its compute, the stacked core against the
one-point path run once per grid point, and its CSV and JSON writers.

    python3 -m pytest perf --benchmark-only -q

Run from the repository root.  ``perf`` is outside ``testpaths``, so the
plain test run never collects these.  A grid is 27 points of one model at
256 times, the size of a ``sweep_grid`` benchmark op: an sfdm chi axis, an
h8v m2 axis at p 0.7 and an h8r m2 axis at p 0.  ``stacked`` times what
``ptosc sweep`` runs: the gates (C, the flavour Grams) and the time grids
of all 27 points as stacked arrays in one pass, then one table per point,
the pattern of its spectrum, which a point with the spectrum and grid of
the point before takes as it is (sfdm's spectrum is the same at every
chi, so its 27 points share one table).  ``one_point`` makes the same
tables point by point with ``build_C``, ``standard_flavour_basis``,
``default_t_grid`` and ``analytic_pattern``.  Both include ``realize``.
``write_csv`` times ``to_csv`` over a grid's 27 tables in sequence, as
``ptosc sweep`` writes them: ``reuse`` passes one dict to every call, so
a table bit-equal to the one before returns its whole text (the sfdm
path: one table formatted, then 26 texts returned), and any other takes
the text of every ``%.12g`` key of its cells that the one before holds.
On a one-period default grid the probabilities of every point print
alike and only the times are new: of the values that ``fresh`` formats
for the h8v and h8r grids, 52 % are still formatted.  ``fresh`` formats
every table on its own.  ``write_json`` does the same with ``to_json``,
whose keys are the values' bits: 61 % and 62 % are still formatted.
"""

import numpy as np
import pytest

from ptosc.coperator import build_C
from ptosc.models import ModelSpec, realize
from ptosc.oscillate import TransitionTable, analytic_pattern, default_t_grid, standard_flavour_basis, transition_tables

POINTS = 27
T_POINTS = 256
GRIDS = {
    "sfdm": [ModelSpec("sfdm", {"chi": chi, "psi": 0.3, "theta": 0.7, "phi": 0.2}) for chi in np.linspace(0.2, 1.6, POINTS)],
    "h8v": [ModelSpec("h8v", {"m0": 2.0, "m2": m2}, {"p": 0.7}) for m2 in np.linspace(-1.6, 1.6, POINTS)],
    "h8r": [ModelSpec("h8r", {"m0": 2.0, "m1": 0.5, "m2": m2}) for m2 in np.linspace(-1.6, 1.6, POINTS)],
}


def stacked_tables(specs):
    return transition_tables([realize(spec) for spec in specs], T_POINTS)


def one_point_tables(specs):
    tables = []
    for spec in specs:
        real = realize(spec)
        es = real.eigensystem
        # the gates, then the emitted pattern on the point's grid
        standard_flavour_basis(real.sym, es, build_C(real.sym, es, hamiltonian=real.hamiltonian))
        grid = default_t_grid(es, T_POINTS)
        tables.append(TransitionTable(grid, analytic_pattern(es.values, grid)))
    return tables


@pytest.mark.parametrize("model", GRIDS)
def test_stacked(benchmark, model):
    results = benchmark(stacked_tables, GRIDS[model])
    assert len(results) == POINTS


@pytest.mark.parametrize("model", GRIDS)
def test_one_point(benchmark, model):
    tables = benchmark(one_point_tables, GRIDS[model])
    stacked = stacked_tables(GRIDS[model])
    assert all(np.array_equal(a.probs, b.probs) for a, b in zip(tables, stacked))


def write(method, tables, reuse):
    shared = {} if reuse else None
    return [method(table, shared) for table in tables]


def check(texts, method, model, reuse):
    tables = stacked_tables(GRIDS[model])
    assert texts == [method(table) for table in tables]
    if reuse and model == "sfdm":
        # the whole-text path: one table, whose text every later call returns
        assert all(table is tables[0] for table in tables) and all(text is texts[0] for text in texts)


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "fresh"])
@pytest.mark.parametrize("model", GRIDS)
def test_write_csv(benchmark, model, reuse):
    tables = stacked_tables(GRIDS[model])
    texts = benchmark(write, TransitionTable.to_csv, tables, reuse)
    check(texts, TransitionTable.to_csv, model, reuse)


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "fresh"])
@pytest.mark.parametrize("model", GRIDS)
def test_write_json(benchmark, model, reuse):
    tables = stacked_tables(GRIDS[model])
    texts = benchmark(write, TransitionTable.to_json, tables, reuse)
    check(texts, TransitionTable.to_json, model, reuse)
