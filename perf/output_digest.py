"""Digests of every benchmark op's outputs, to show a change keeps them byte-identical.

    python3 perf/output_digest.py                     # this checkout's src/
    python3 perf/output_digest.py --src OTHER/src     # another checkout's
    diff <(python3 perf/output_digest.py --src PARENT/src) <(python3 perf/output_digest.py)

Run from the repository root.  The ops are the seeds 1-3 decks of every
workload of ``benchmarks/inputs.py`` (imported, never changed) and each
workload's known-defect panel.  Each op runs in-process through
``ptosc.cli.main`` in a fresh directory.  One line per op gives the
workload, the seed (``known`` for the panel), the op's index and kind, and
the SHA-256 of its exit code, stdout, stderr and every file it wrote (name
and bytes), with the op directory written as ``{dir}``.  The ``all`` line
digests all the lines before it.  After it come the ``extra`` lines, one per
command of :data:`EXTRA`, which no benchmark deck runs.
"""

import os

# one BLAS thread, as in the benchmark, fixed before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)

README_SWEEP = {
    "model": {"model": "h8v", "params": {"m0": 2.0, "m2": 0.0}, "momentum": {"p": 0.0}},
    "sweep": [{"param": "m2", "start": 0.1, "stop": 1.9, "steps": 10}],
    "t_grid": {"points": 64},
    "out_dir": "{dir}/out",
    "format": "csv",
}
GENERIC_BLOCK_SWEEP = {
    "model": {"model": "generic", "params": {"a": [[1, 0], [0, 1]], "d": [[-1, 0], [0, -1]], "b": [[0.3, 0], [0, 0.3]]}},
    "sweep": [{"param": "a", "start": 0.5, "stop": 1.5, "steps": 3}],
    "out_dir": "{dir}/out",
}
H8V_M2_0_P_0 = ("--model", "h8v", "--m0", "2", "--m2", "0", "--p", "0")
# (kind, argv, files): README's CLI examples (the sweep with its sample
# configuration), h8v at m2 = 0 and p = 0, and a sweep over a generic block
EXTRA = (
    ("readme_verify_sfdm", ("verify", "--model", "sfdm", "--chi", "0.5", "--psi", "0.3", "--theta", "0.7", "--phi", "0.2"), {}),
    ("readme_verify_h8v", ("verify", "--model", "h8v", "--m0", "2", "--m2", "1", "--p", "1"), {}),
    ("readme_spectrum_h8r", ("spectrum", "--model", "h8r", "--m0", "2", "--m1", "0.5", "--m2", "1"), {}),
    ("readme_oscillate_h8v", ("oscillate", "--model", "h8v", "--m0", "2", "--m2", "1", "--p", "1", "--out", "{dir}/table.csv", "--golden"), {}),
    ("readme_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(README_SWEEP)}),
    ("h8v_m2_0_p_0_verify", ("verify", *H8V_M2_0_P_0), {}),
    ("h8v_m2_0_p_0_spectrum", ("spectrum", *H8V_M2_0_P_0), {}),
    ("h8v_m2_0_p_0_oscillate", ("oscillate", *H8V_M2_0_P_0, "--t-points", "16", "--golden"), {}),
    ("generic_block_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(GENERIC_BLOCK_SWEEP)}),
)


def op_digest(main, op, op_dir: str) -> str:
    """Run one op in ``op_dir`` and digest what it returned, printed and wrote."""
    for name, text in op.files.items():
        with open(os.path.join(op_dir, name), "w") as fh:
            fh.write(text.replace("{dir}", op_dir))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([arg.replace("{dir}", op_dir) for arg in op.argv])
    digest = hashlib.sha256()
    for part in (str(rc), stdout.getvalue(), stderr.getvalue()):
        digest.update(part.replace(op_dir, "{dir}").encode() + b"\0")
    for folder, dirs, names in sorted(os.walk(op_dir)):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(folder, name)
            if os.path.relpath(path, op_dir) in op.files:
                continue
            with open(path, "rb") as fh:
                digest.update(os.path.relpath(path, op_dir).encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src/ directory whose ptosc to run")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "benchmarks")]
    import inputs
    from ptosc.cli import main as ptosc_main

    decks = [(workload, str(seed), inputs.make_inputs(workload, seed)) for workload in inputs.WORKLOADS for seed in SEEDS]
    decks += [(workload, "known", inputs.known_defects(workload)) for workload in inputs.WORKLOADS]
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:

        def digest_line(label: str, n: int, op) -> str:
            op_dir = os.path.join(work, f"{label.replace(' ', '-')}-{n:02d}")
            os.makedirs(op_dir)
            return f"{label} {n:02d} {op.kind} {op_digest(ptosc_main, op, op_dir)}"

        for workload, seed, ops in decks:
            for n, op in enumerate(ops):
                line = digest_line(f"{workload} {seed}", n, op)
                total.update(line.encode() + b"\n")
                print(line)
        print(f"all {total.hexdigest()}")
        for n, (kind, argv, files) in enumerate(EXTRA):
            print(digest_line("extra -", n, inputs.Op(kind, argv, files)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
