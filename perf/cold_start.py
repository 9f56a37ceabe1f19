"""Cold-start times of the ``ptosc`` command line, one fresh interpreter each.

    python3 perf/cold_start.py                             # this checkout's src/
    python3 perf/cold_start.py --src PARENT/src --src src  # two checkouts, interleaved

Run from the repository root.  Each of ``STARTS`` rounds starts, in a
rotating order, one fresh interpreter per case and times each from spawn to
exit.  The cases, for each ``--src`` given:

- ``import``: ``import ptosc.cli`` and nothing else;
- ``oscillate``: ``ptosc oscillate`` of an sfdm model at 64 points to stdout;
- ``verify``: ``ptosc verify`` of the same model;

and once per round:

- ``reference``: the benchmark's reference cold start
  (``calib.COLD_REF_CODE``, imported and never changed), which does what a
  ``ptosc`` start does except import ``ptosc``; its spread shows how much of
  a difference is the machine.

Every start runs with ``PYTHONDONTWRITEBYTECODE=1`` and one BLAS thread, as
the benchmark's cold starts do, so ``src/ptosc`` is compiled from source
each time.  One line per case gives the median, the quartiles and the IQR
in milliseconds; with two or more ``--src`` each line starts with its
``--src``.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmarks")
SFDM = ["--model", "sfdm", "--chi", "0.5", "--psi", "0.3", "--theta", "0.7", "--phi", "0.2"]
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import ptosc.cli"
MAIN_CODE = "import sys; sys.path.insert(0, sys.argv[1]); from ptosc.cli import main; sys.exit(main(sys.argv[2:]))"
STARTS = 30  # timed starts of each case


def cases(srcs: list) -> dict:
    """The command line of each case, by its printed name."""
    sys.path.insert(0, BENCH_DIR)
    import calib

    python = [sys.executable, "-c"]
    commands = {}
    for src in srcs:
        label = f"{src} " if len(srcs) > 1 else ""
        path = os.path.abspath(src)
        commands[label + "import"] = python + [IMPORT_CODE, path]
        commands[label + "oscillate"] = python + [MAIN_CODE, path, "oscillate", *SFDM, "--t-points", "64"]
        commands[label + "verify"] = python + [MAIN_CODE, path, "verify", *SFDM]
    commands["reference"] = python + [calib.COLD_REF_CODE, BENCH_DIR, "oscillate_long", "1"]
    return commands


def cold_start(cmd: list, env: dict) -> float:
    """Wall milliseconds from spawning ``cmd`` until it exits with status 0."""
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - start) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append", help="a src/ directory whose ptosc to start; repeat to interleave checkouts (default: this checkout's)")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    commands = cases(args.src or [os.path.join(ROOT, "src")])
    names = list(commands)
    for name in names:  # one untimed start each, to warm the file cache
        cold_start(commands[name], env)
    times = {name: [] for name in names}
    for round_ in range(STARTS):
        for k in range(len(names)):
            name = names[(round_ + k) % len(names)]
            times[name].append(cold_start(commands[name], env))
    width = max(map(len, names))
    for name in names:
        q1, median, q3 = statistics.quantiles(times[name], n=4)
        print(f"{name:<{width}} median {median:7.1f} ms  quartiles [{q1:.1f}, {q3:.1f}]  IQR {q3 - q1:5.1f} ms  n {len(times[name])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
