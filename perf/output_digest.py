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
and bytes), with the op directory written as ``{dir}``.  A last line
digests all the lines before it.
"""

import os

# one BLAS thread, as in the benchmark, fixed before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)


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
        for workload, seed, ops in decks:
            for n, op in enumerate(ops):
                op_dir = os.path.join(work, f"{workload}-{seed}-{n:02d}")
                os.makedirs(op_dir)
                line = f"{workload} {seed} {n:02d} {op.kind} {op_digest(ptosc_main, op, op_dir)}"
                total.update(line.encode() + b"\n")
                print(line)
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
