"""Micro-benchmarks of the ``verify`` path: the parser, in-process CLI calls,
the sampled CPT-positivity check and the whole axiom suite.

    python3 -m pytest perf --benchmark-only -q

Run from the repository root.  ``perf`` is outside ``testpaths``, so the
plain test run never collects these.  ``build_parser`` is timed as ``main``
calls it.  The models are the h8v point of the README examples
(m0 2, m2 1, p 1) and the reference sfdm point.
"""

import contextlib
import io

import pytest

from ptosc.cli import build_parser, main
from ptosc.coperator import build_C
from ptosc.models import ModelSpec
from ptosc.verify import _cpt_positivity_defect, realize, run_full_suite

SPECS = {
    "h8v": ModelSpec("h8v", {"m0": 2.0, "m2": 1.0}, {"p": 1.0}),
    "sfdm": ModelSpec("sfdm", {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}),
}
ARGV = {
    "h8v": ["verify", "--model", "h8v", "--m0", "2", "--m2", "1", "--p", "1"],
    "sfdm": ["verify", "--model", "sfdm", "--chi", "0.5", "--psi", "0.3", "--theta", "0.7", "--phi", "0.2"],
}


def test_build_parser(benchmark):
    benchmark(build_parser)


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("model", ["h8v", "sfdm"])
def test_cli_verify(benchmark, model):
    assert benchmark(_quiet_main, ARGV[model]) == 0


@pytest.mark.parametrize("model", ["h8v", "sfdm"])
def test_cpt_positivity_defect(benchmark, model):
    real = realize(SPECS[model])
    c = build_C(real.sym, real.eigensystem, hamiltonian=real.hamiltonian)
    assert benchmark(_cpt_positivity_defect, real.sym, c, real.eigensystem, 1000) < 1.0


@pytest.mark.parametrize("model", ["h8v", "sfdm"])
def test_run_full_suite(benchmark, model):
    reports = benchmark(run_full_suite, SPECS[model])
    assert all(r.passed for r in reports)
