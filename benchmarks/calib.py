"""Calibrated time: a fixed probe that measures how fast the machine is now.

The probe does the same kinds of work a ``ptosc`` command does -- small
complex-matrix numpy calls, a Python loop and float-to-string formatting, in
about equal shares -- without calling ``ptosc``.  A wall-clock time ``t``
measured while the probe takes ``p`` ms is reported as
``t * PROBE_REF_MS / p``: the time the same work would take on a machine
where the probe takes ``PROBE_REF_MS``.  Machine-wide
speed changes then cancel, because they slow the probe and the op alike.

Cold starts are calibrated the same way, by a probe of their own kind: a
reference cold start (``COLD_REF_CODE``) that does everything a ``ptosc``
cold start does except import ``ptosc`` -- exec, numpy and the standard
library, the benchmark's input generation.  In-process work tracks a cold
start's exec, dynamic loading and imports poorly.

The probe code, ``COLD_REF_CODE`` and both reference times are frozen:
changing any of them changes every calibrated number the benchmark reports.
"""

import statistics
import time

import numpy as np

#: Reference probe time.  On the 2-core VM the benchmark was built on (Python
#: 3.11, numpy 2.4, OPENBLAS_NUM_THREADS=1) the probe took 2.7-5.1 ms, median
#: 4.4 ms, over ten minutes.  Frozen.
PROBE_REF_MS = 4.0

_RNG = np.random.default_rng(20261017)
_MATS = [(_RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))) / 4.0 for _ in range(4)]
_VEC = _RNG.standard_normal(4) + 1j * _RNG.standard_normal(4)
_FLOATS = [float(x) for x in _RNG.random(240)]


def _numpy_work() -> float:
    """Small complex-matrix calls, where numpy's per-call overhead dominates."""
    m = np.eye(4, dtype=complex)
    acc = 0.0
    for k in range(60):
        m = _MATS[k % 4] @ m
        m = m / np.max(np.abs(m))
        acc += abs(np.vdot(_VEC, m @ _VEC))
        acc += float(np.max(np.abs(m.conj().T - m)))
        acc += float(np.exp(-1j * np.real(np.diag(m))).real.sum())
    acc += float(np.linalg.norm(m, 2)) + float(np.abs(np.linalg.eigvals(m)).sum())
    return acc


def _python_work() -> float:
    """Interpreter work: dict and list traffic, int-to-string, float arithmetic."""
    table = {}
    total = 0.0
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        total += len(str(i))
    scaled = [x * 1.0001 for x in _FLOATS for _ in range(4)]
    return total + sum(scaled) + sum(table.values())


def _format_work() -> int:
    """Float-to-string formatting and joining, as in table serialization."""
    return len(",".join(f"{x * k:.12g}" for k in range(12) for x in _FLOATS))


def _probe_work() -> float:
    return _numpy_work() + _python_work() + _format_work()


def probe_ms() -> float:
    """Wall-clock ms of one fixed unit of probe work."""
    start = time.perf_counter()
    _probe_work()
    return (time.perf_counter() - start) * 1e3


def local_probe(probes: list[float], i: int, half_width: int = 4) -> float:
    """Median of the probes taken around position ``i``."""
    lo = max(0, i - half_width)
    return statistics.median(probes[lo : i + half_width + 1])


def calibrate(raw: float, probe: float) -> float:
    """Rescale a raw time measured at probe speed ``probe`` to reference speed."""
    return raw * PROBE_REF_MS / probe


#: A reference cold start, run as ``python -c COLD_REF_CODE BENCH_DIR WORKLOAD
#: SEED``: the modules ``ptosc`` imports today from numpy and the standard
#: library, then the workload inputs.  Frozen.
COLD_REF_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy, numpy.random, json, argparse, dataclasses, concurrent.futures, tempfile, inputs
inputs.make_inputs(sys.argv[2], int(sys.argv[3]))
print("ready", flush=True)
"""

#: Reference cold-start time.  On the 2-core VM the benchmark was built on
#: the median reference cold start of a run was 0.14-0.20 s, median 0.18 s,
#: over sixty runs.  Frozen.
COLD_REF_S = 0.15


def calibrate_cold_start(raw: float, ref: float) -> float:
    """Rescale a cold start measured next to reference starts of ``ref`` s."""
    return raw * COLD_REF_S / ref
