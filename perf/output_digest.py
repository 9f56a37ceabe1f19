"""Digests of every benchmark op's outputs, to show a change keeps them byte-identical.

    python3 perf/output_digest.py                     # this checkout's src/
    python3 perf/output_digest.py --src OTHER/src     # another checkout's
    diff <(python3 perf/output_digest.py --src PARENT/src) <(python3 perf/output_digest.py)

Run from the repository root.  The ops are the seeds 1-3 decks of every
workload of ``benchmarks/inputs.py`` (imported, never changed) and each
workload's known-defect panel.  Each op runs in-process through
``ptosc.cli.main`` in a fresh directory.  One line per op gives the
workload, the seed (``known`` for the panel), the op's index and kind, the
SHA-256 of its exit code, stdout, stderr and every file it wrote (name and
bytes), the SHA-256 of the same without the file bytes, and the SHA-256 of
the files alone (names and bytes), with the op directory written as
``{dir}``.  A change that may move only table cells shows it where the first
hash differs and the second does not:

    diff <(python3 perf/output_digest.py --src PARENT/src | cut -d' ' -f1-4,6) \\
         <(python3 perf/output_digest.py | cut -d' ' -f1-4,6)

and one that may move only stderr digits (a ``--golden`` bound, a defect in
a note) shows its files unchanged in the third:

    diff <(python3 perf/output_digest.py --src PARENT/src | cut -d' ' -f1-4,7) \\
         <(python3 perf/output_digest.py | cut -d' ' -f1-4,7)

The ``all`` line digests all the lines before it.  After it come the ``extra`` lines, one per
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
# sweeps whose tables are written reusing the texts of the table before:
# an h8v m2 axis broken at both ends (|m2| >= m0), an sfdm chi axis in JSON
# on a set grid end, a grid of 4,097 times, more than one writer block,
# that grid in JSON, and an h8v p axis in JSON, whose default time grids
# differ from point to point
H8V_BROKEN_ENDS_SWEEP = {
    "model": {"model": "h8v", "params": {"m0": 2.0, "m2": 0.0}, "momentum": {"p": 0.7, "theta": 0.4, "phi": 1.1}},
    "sweep": [{"param": "m2", "start": -2.5, "stop": 2.5, "steps": 11}],
    "t_grid": {"points": 256},
    "out_dir": "{dir}/out",
}
SFDM_JSON_T_MAX_SWEEP = {
    "model": {"model": "sfdm", "params": {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}},
    "sweep": [{"param": "chi", "start": 0.2, "stop": 1.6, "steps": 6}],
    "t_grid": {"points": 256, "t_max": 12.5},
    "out_dir": "{dir}/out",
    "format": "json",
}
LONG_SWEEP = {
    "model": {"model": "h8v", "params": {"m0": 2.0, "m2": 0.0}, "momentum": {"p": 0.7}},
    "sweep": [{"param": "m2", "start": 0.5, "stop": 1.5, "steps": 3}],
    "t_grid": {"points": 4097},
    "out_dir": "{dir}/out",
}
LONG_JSON_SWEEP = {**LONG_SWEEP, "format": "json"}
H8V_P_JSON_SWEEP = {
    "model": {"model": "h8v", "params": {"m0": 2.0, "m2": 1.2}, "momentum": {"p": 0.0, "theta": 0.4, "phi": 1.1}},
    "sweep": [{"param": "p", "start": 0.0, "stop": 3.0, "steps": 8}],
    "t_grid": {"points": 256},
    "out_dir": "{dir}/out",
    "format": "json",
}
# sweeps through every route by which ``realize`` records a failure: an
# sfdm chi axis up to 711, where cosh overflows and no Hamiltonian is built,
# one across the band where the sfdm kets lose their PT norm, and an h8r p
# axis, which has no eigenbasis construction at p != 0
SFDM = {"model": "sfdm", "params": {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}}
SFDM_CHI_711_SWEEP = {"model": SFDM, "sweep": [{"param": "chi", "start": 1, "stop": 711, "steps": 9}], "out_dir": "{dir}/out"}
SFDM_CHI_35_SWEEP = {"model": SFDM, "sweep": [{"param": "chi", "start": 5, "stop": 35, "steps": 7}], "out_dir": "{dir}/out"}
H8R_P_SWEEP = {
    "model": {"model": "h8r", "params": {"m0": 2.0, "m1": 0.5, "m2": 1.0}},
    "sweep": [{"param": "p", "start": 0.0, "stop": 1.0, "steps": 3}],
    "out_dir": "{dir}/out",
}
# sweeps written with the texts of the table before: an h8v m2 axis in JSON
# on a set grid end, whose times are bit-equal from table to table and
# whose probabilities are not, and an h8v m2 axis on t_max 0, whose time
# column is +0.0 in every row
H8V_M2_JSON_T_MAX_SWEEP = {
    "model": {"model": "h8v", "params": {"m0": 2.0, "m2": 0.0}, "momentum": {"p": 0.7, "theta": 0.4, "phi": 1.1}},
    "sweep": [{"param": "m2", "start": 0.1, "stop": 1.9, "steps": 7}],
    "t_grid": {"points": 256, "t_max": 9.0},
    "out_dir": "{dir}/out",
    "format": "json",
}
T_MAX_0_SWEEP = {**H8V_M2_JSON_T_MAX_SWEEP, "t_grid": {"points": 32, "t_max": 0}, "format": "csv"}
T_MAX_0_JSON_SWEEP = {**T_MAX_0_SWEEP, "format": "json"}
# a sweep whose tables take the texts of a near twin column in their own
# block: h8's second flavour pair against its first, in JSON
H8_M3_JSON_SWEEP = {
    "model": {"model": "h8", "params": {"m0": 2.0, "m1": 0.5, "m2": 1.0, "m3": 0.0}},
    "sweep": [{"param": "m3", "start": -1.2, "stop": 1.2, "steps": 9}],
    "t_grid": {"points": 256},
    "out_dir": "{dir}/out",
    "format": "json",
}
# sweeps whose points all have one spectrum on one time grid, so they
# share one table and its text: an h8v theta axis in JSON (the h8 family
# ignores the momentum direction) and an sfdm psi axis in CSV (sfdm's
# spectrum is -1, -1, +1, +1 everywhere); no deck sweeps either axis
H8V_THETA_JSON_SWEEP = {
    "model": {"model": "h8v", "params": {"m0": 2.0, "m2": 1.0}, "momentum": {"p": 0.7, "phi": 1.1}},
    "sweep": [{"param": "theta", "start": 0.0, "stop": 3.0, "steps": 28}],
    "t_grid": {"points": 256},
    "out_dir": "{dir}/out",
    "format": "json",
}
SFDM_PSI_SWEEP = {"model": SFDM, "sweep": [{"param": "psi", "start": -1.5, "stop": 1.5, "steps": 27}], "t_grid": {"points": 256}, "out_dir": "{dir}/out"}
H8_M3 = ("--model", "h8", "--m0", "2", "--m1", "0.5", "--m2", "1", "--m3", "0.3")
SFDM_ARGV = ("--model", "sfdm", "--chi", "0.5", "--psi", "0.3", "--theta", "0.7", "--phi", "0.2")
H8V_M2_0_P_0 = ("--model", "h8v", "--m0", "2", "--m2", "0", "--p", "0")
EYE2 = [[1, 0], [0, 1]]


def generic_model(a) -> dict:
    """A generic model document whose block A is ``a``."""
    return {"model": "generic", "params": {"a": a, "d": EYE2, "b": EYE2}}


RAGGED = [[1, 0], [0]]
RAGGED_TEMPLATE_SWEEP = {
    "model": generic_model(RAGGED),
    "sweep": [{"param": "d", "start": 0.5, "stop": 1.5, "steps": 3}],
    "out_dir": "{dir}/out",
}
MODEL_FILE = ("verify", "--model-file", "{dir}/model.json")
# (kind, argv, files): README's CLI examples (the sweep with its sample
# configuration), h8v at m2 = 0 and p = 0, a sweep over a generic block,
# the sweeps above, generic blocks that are not a 2x2 complex matrix
# (usage errors: a ragged one, a complex entry that is not {"re", "im"}, a
# 3x3 one, and a sweep template with the ragged one), and tables that
# cannot be made (physics failures: h8v with |m2| >= m0 at a momentum
# where its spectrum is real, a generic model with a complex spectrum, and
# h8r at p != 0).  The ops added later come last, so the lines before them
# keep their indices: two JSON sweeps, the three failure sweeps above,
# verify at sfdm chi = 30, whose realization fails with a vanishing PT norm,
# then the h8v m2 JSON sweep on a set grid end, the t_max 0 sweep in CSV
# and in JSON, h8 in JSON at 4,096 times (near twin columns under %r),
# sfdm in CSV at 4,095 and at 2 times (mirrored rows, an odd count with a
# middle row and one row facing the other), the h8 m3 sweep in JSON, and
# the h8v theta sweep in JSON and the sfdm psi sweep in CSV, then verify on
# the two spectra with no nonzero gap, where H is proportional to 1: h8 with
# every mass 0 at p = 0, and a generic model with a = d and b = 0; then
# oscillate where the h8r kets overflow to non-finite entries (a physics
# failure, once a usage error), where the h8v normalization 2 m0 eps
# overflows (once with a numpy warning), and on h8's spectrum of +-1e-9,
# whose two levels once merged into one cluster.
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
    ("h8v_broken_ends_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(H8V_BROKEN_ENDS_SWEEP)}),
    ("sfdm_json_t_max_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(SFDM_JSON_T_MAX_SWEEP)}),
    ("long_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(LONG_SWEEP)}),
    ("generic_ragged_verify", MODEL_FILE, {"model.json": json.dumps(generic_model(RAGGED))}),
    ("generic_re_only_entry_verify", MODEL_FILE, {"model.json": json.dumps(generic_model([[1, {"re": 1}], [0, 1]]))}),
    ("generic_3x3_block_verify", MODEL_FILE, {"model.json": json.dumps(generic_model([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))}),
    ("generic_ragged_template_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(RAGGED_TEMPLATE_SWEEP)}),
    ("h8v_m2_above_m0_real_spectrum_oscillate", ("oscillate", "--model", "h8v", "--m0", "1", "--m2", "2", "--p", "2"), {}),
    ("generic_complex_spectrum_oscillate", ("oscillate", "--model-file", "{dir}/model.json"), {"model.json": json.dumps(generic_model(EYE2))}),
    ("h8r_p_1_oscillate", ("oscillate", "--model", "h8r", "--m0", "2", "--m1", ".5", "--m2", "1", "--p", "1"), {}),
    ("long_json_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(LONG_JSON_SWEEP)}),
    ("h8v_p_json_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(H8V_P_JSON_SWEEP)}),
    ("sfdm_chi_711_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(SFDM_CHI_711_SWEEP)}),
    ("sfdm_chi_35_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(SFDM_CHI_35_SWEEP)}),
    ("h8r_p_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(H8R_P_SWEEP)}),
    ("sfdm_chi_30_verify", ("verify", "--model", "sfdm", "--chi", "30", "--psi", "0.3", "--theta", "0.7", "--phi", "0.2"), {}),
    ("h8v_m2_json_t_max_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(H8V_M2_JSON_T_MAX_SWEEP)}),
    ("t_max_0_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(T_MAX_0_SWEEP)}),
    ("t_max_0_json_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(T_MAX_0_JSON_SWEEP)}),
    ("h8_json_4096_oscillate", ("oscillate", *H8_M3, "--t-points", "4096", "--format", "json"), {}),
    ("sfdm_4095_oscillate", ("oscillate", *SFDM_ARGV, "--t-points", "4095"), {}),
    ("sfdm_2_oscillate", ("oscillate", *SFDM_ARGV, "--t-points", "2"), {}),
    ("h8_m3_json_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(H8_M3_JSON_SWEEP)}),
    ("h8v_theta_json_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(H8V_THETA_JSON_SWEEP)}),
    ("sfdm_psi_sweep", ("sweep", "--config", "{dir}/sweep.json"), {"sweep.json": json.dumps(SFDM_PSI_SWEEP)}),
    ("h8_m0_0_verify", ("verify", "--model", "h8", "--m0", "0"), {}),
    ("generic_scalar_verify", MODEL_FILE, {"model.json": json.dumps({"model": "generic", "params": {"a": EYE2, "d": EYE2, "b": [[0, 0], [0, 0]]}})}),
    ("h8r_kets_overflow_oscillate", ("oscillate", "--model", "h8r", "--m0", "1e200", "--m1", "0", "--m2", "1e199"), {}),
    ("h8v_norm_overflow_oscillate", ("oscillate", "--model", "h8v", "--m0", "1e200", "--m2", "0", "--p", "1e200"), {}),
    ("h8_tiny_spectrum_oscillate", ("oscillate", "--model", "h8", "--m0", "0", "--m1", "1e-9", "--t-points", "4"), {}),
)


def op_digest(main, op, op_dir: str) -> str:
    """Run one op in ``op_dir`` and digest what it returned, printed and
    wrote: the digest of all of it, then that of its streams (the exit code,
    stdout, stderr and the names of the files it wrote, without their bytes),
    then that of the files it wrote alone (names and bytes)."""
    for name, text in op.files.items():
        with open(os.path.join(op_dir, name), "w") as fh:
            fh.write(text.replace("{dir}", op_dir))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([arg.replace("{dir}", op_dir) for arg in op.argv])
    digest, streams, files = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for part in (str(rc), stdout.getvalue(), stderr.getvalue()):
        for each in (digest, streams):
            each.update(part.replace(op_dir, "{dir}").encode() + b"\0")
    for folder, dirs, names in sorted(os.walk(op_dir)):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(folder, name)
            if os.path.relpath(path, op_dir) in op.files:
                continue
            name = os.path.relpath(path, op_dir).encode()
            with open(path, "rb") as fh:
                named = name + b"\0" + fh.read() + b"\0"
            digest.update(named)
            files.update(named)
            streams.update(name + b"\0")
    return f"{digest.hexdigest()} {streams.hexdigest()} {files.hexdigest()}"


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
