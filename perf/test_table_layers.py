"""Micro-benchmarks of the table layers: the amplitude table and its two writers.

    python3 -m pytest perf --benchmark-only -q

Run from the repository root.  ``perf`` is outside ``testpaths``, so the
plain test run never collects these.  The model is the h8v point of the
``oscillate`` examples (m0 2, m2 1, p 1) on its default one-period grid.
"""

import pytest

from ptosc.coperator import build_C
from ptosc.models import ModelSpec
from ptosc.oscillate import default_t_grid, standard_flavour_basis, transition_table
from ptosc.verify import realize

SPEC = ModelSpec("h8v", {"m0": 2.0, "m2": 1.0}, {"p": 1.0, "theta": 0.0, "phi": 0.0})


@pytest.fixture(scope="module")
def setup():
    real = realize(SPEC)
    es = real.eigensystem
    c = build_C(real.sym, es, hamiltonian=real.hamiltonian)
    return real.sym, standard_flavour_basis(real.sym, es, c), es, c


@pytest.mark.parametrize("points", [256, 4096])
def test_transition_table(benchmark, setup, points):
    sym, basis, es, c = setup
    grid = default_t_grid(es, points)
    table = benchmark(transition_table, sym, basis, es, c, grid)
    assert table.probs.shape == (points, 4, 4)


@pytest.mark.parametrize("writer", ["to_csv", "to_json"])
@pytest.mark.parametrize("points", [256, 4096])
def test_writer(benchmark, setup, points, writer):
    sym, basis, es, c = setup
    table = transition_table(sym, basis, es, c, default_t_grid(es, points))
    text = benchmark(getattr(table, writer))
    assert text.count("\n") > points
