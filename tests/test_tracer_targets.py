"""Every function the benchmark's tracer times must exist in ``ptosc``.

The benchmark reports a per-layer metric for each traced name; deleting or
renaming one makes that metric absent.  This checks the names quickly in
tier-1, importing ``benchmarks/tracer.py`` without changing it.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().absent == {}
