"""Micro-benchmarks of the table layers: the CPT-route amplitude table and
its two writers, the CSV writer on a table whose flavour twins never print
alike, and both writers on the tables the CLI emits.

    python3 -m pytest perf --benchmark-only -q

Run from the repository root.  ``perf`` is outside ``testpaths``, so the
plain test run never collects these.  The CPT-route model is the h8v point
of the ``oscillate`` examples (m0 2, m2 1, p 1) on its default one-period
grid.  The emitted tables are those of ``transition_tables`` at 4,096 times,
the size of an ``oscillate_long`` op: sfdm and h8r, whose doubled levels
make one diagonal and one live off-diagonal column distinct, and h8, whose
four columns differ in bits but print as two: its two flavour pairs
oscillate at one frequency from levels that differ in ulps.
"""

import numpy as np
import pytest

from ptosc.coperator import build_C
from ptosc.models import ModelSpec
from ptosc.oscillate import TransitionTable, default_t_grid, standard_flavour_basis, transition_table, transition_tables
from ptosc.verify import realize

SPEC = ModelSpec("h8v", {"m0": 2.0, "m2": 1.0}, {"p": 1.0, "theta": 0.0, "phi": 0.0})
EMITTED = {
    "sfdm": ModelSpec("sfdm", {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}),
    "h8r": ModelSpec("h8r", {"m0": 2.0, "m1": 0.5, "m2": 1.0}),
    "h8": ModelSpec("h8", {"m0": 2.0, "m1": 0.5, "m2": 1.0, "m3": 0.3}),
}


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


@pytest.mark.parametrize("writer", ["to_csv", "to_json"])
@pytest.mark.parametrize("model", EMITTED)
def test_emitted_writer(benchmark, model, writer):
    [table] = transition_tables([realize(EMITTED[model])], 4096)
    text = benchmark(getattr(table, writer))
    assert text.count("\n") > 4096
