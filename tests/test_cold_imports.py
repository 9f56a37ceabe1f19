"""Which heavy modules a fresh interpreter loads for each ``ptosc`` command.

``numpy.random`` and ``concurrent.futures`` cost a cold start about 14 ms and
9 ms; only ``verify`` (its CPT samples) and ``sweep`` (its worker pool) use
them, so importing the CLI or running ``oscillate`` or ``spectrum`` must not
load them.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HEAVY = ("numpy.random", "concurrent.futures")
SFDM = ["--model", "sfdm", "--chi", "0.5", "--psi", "0.3", "--theta", "0.7", "--phi", "0.2"]


def loaded_after(argv: list | None) -> dict:
    """Which of HEAVY a fresh interpreter holds after importing ptosc.cli
    and, if ``argv`` is given, running ``main(argv)`` with stdout captured."""
    code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {SRC!r})
import ptosc.cli
argv = {argv!r}
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = ptosc.cli.main(argv)
    assert rc == 0, rc
print(json.dumps({{name: name in sys.modules for name in {HEAVY!r}}}))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_neither():
    assert loaded_after(None) == {"numpy.random": False, "concurrent.futures": False}


@pytest.mark.parametrize("argv", [["oscillate", *SFDM, "--t-points", "8"], ["spectrum", *SFDM]], ids=["oscillate", "spectrum"])
def test_command_loads_neither(argv):
    assert loaded_after(argv) == {"numpy.random": False, "concurrent.futures": False}


def test_verify_loads_numpy_random():
    assert loaded_after(["verify", *SFDM])["numpy.random"] is True
