"""Micro-benchmarks of the table layers: the amplitude table and its two writers,
and the CSV writer on a table whose flavour twins never print alike.

    python3 -m pytest perf --benchmark-only -q

Run from the repository root.  ``perf`` is outside ``testpaths``, so the
plain test run never collects these.  The model is the h8v point of the
``oscillate`` examples (m0 2, m2 1, p 1) on its default one-period grid.
"""

import numpy as np
import pytest

from ptosc.coperator import build_C
from ptosc.models import ModelSpec
from ptosc.oscillate import TransitionTable, default_t_grid, standard_flavour_basis, transition_table
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


def test_to_csv_with_no_twin_text_reused(benchmark):
    # random stochastic rows: every column is live and no flavour twin
    # prints like its source, the CSV writer's worst case
    rng = np.random.default_rng(0)
    probs = rng.random((4096, 4, 4))
    probs /= probs.sum(axis=2, keepdims=True)
    table = TransitionTable(np.linspace(0.0, 5.0, 4096), probs)
    text = benchmark(table.to_csv)
    assert text.count("\n") > 4096
