"""Benchmark of the ``ptosc`` command line: one closed-loop client, one workload.

    python3 benchmarks/run.py --workload verify_mix --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every op is one ``ptosc`` command run
in-process through ``ptosc.cli.main(argv)`` with stdout and stderr captured;
its outputs are checked, untimed, after it returns.  Times are calibrated
against the probe in ``calib.py``.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a run whose decks alternate between traced
and untraced.  A diagnostics JSON line (raw wall-clock twins, failures by
kind, output digest, the known-defect panel) comes just before it.  See
README.md.
"""

import os

# one BLAS thread, fixed before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

MIN_OPS = 100
COLD_STARTS = 9
#: stop dealing new decks after this long, whatever --seconds says
LOOP_CAP_S = 130.0

# A cold start: import ptosc, generate the workload inputs, say "ready".
SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import ptosc, ptosc.cli, inputs
inputs.make_inputs(sys.argv[3], int(sys.argv[4]))
print("ready", flush=True)
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken checkout)."""


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "ptosc", "cli.py")):
        raise BenchError(f"no ptosc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import ptosc.cli

    if not os.path.abspath(ptosc.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported ptosc from {ptosc.cli.__file__}, not from {SRC}")
    return ptosc.cli


# ---------------------------------------------------------------------------
# set-up time


def _cold_start(cmd: list) -> float:
    """Wall seconds from spawning ``cmd`` until it prints its ready line."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.close()
        if child.wait(timeout=60) != 0 or ready.strip() != "ready":
            raise BenchError(f"cold start exited with {child.returncode}")
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple[list, list, list]:
    """Raw and calibrated seconds of fresh-interpreter cold starts, and of the reference starts.

    Each start is timed from spawning an interpreter until it has imported
    ptosc and generated the workload inputs.  It is bracketed by two
    reference cold starts (``calib.COLD_REF_CODE``) and calibrated by their
    mean.  One untimed pair first leaves the byte-code caches as every later
    start finds them.
    """
    args = [BENCH_DIR, workload, str(seed)]
    cmd = [sys.executable, "-c", SETUP_CODE, SRC, *args]
    ref_cmd = [sys.executable, "-c", calib.COLD_REF_CODE, *args]
    _cold_start(cmd)
    refs = [_cold_start(ref_cmd)]
    raw, cal = [], []
    for _ in range(COLD_STARTS):
        raw.append(_cold_start(cmd))
        refs.append(_cold_start(ref_cmd))
        cal.append(calib.calibrate_cold_start(raw[-1], (refs[-2] + refs[-1]) / 2))
    return raw, cal, refs


# ---------------------------------------------------------------------------
# ops


class Runner:
    """Materialized ops of one workload and the in-process CLI."""

    def __init__(self, cli, ops: list, workdir: str):
        self.cli = cli
        self.ops = ops
        self.dirs = []
        self.argvs = []
        for n, op in enumerate(ops):
            op_dir = os.path.join(workdir, f"op{n:02d}")
            os.makedirs(op_dir)
            for name, text in op.files.items():
                with open(os.path.join(op_dir, name), "w") as fh:
                    fh.write(text.replace("{dir}", op_dir))
            self.dirs.append(op_dir)
            self.argvs.append([a.replace("{dir}", op_dir) for a in op.argv])

    def prepare(self, n: int):
        """Remove everything but op n's own input files from its directory (untimed)."""
        op_dir = self.dirs[n]
        for entry in os.listdir(op_dir):
            if entry in self.ops[n].files:
                continue
            path = os.path.join(op_dir, entry)
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            else:
                os.remove(path)

    def call(self, n: int) -> tuple[int, str, str, float]:
        """Run op n; return exit code, stdout, stderr and wall seconds."""
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(list(self.argvs[n]))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            rc = -1
            stderr.write(f"uncaught {type(exc).__name__}: {exc}\n")
        elapsed = time.perf_counter() - start
        return rc, stdout.getvalue(), stderr.getvalue(), elapsed

    def outcome(self, n: int, rc: int, stdout: str, stderr: str) -> tuple[str | None, str, int, int]:
        """Check problem (or None), output digest, files and bytes written."""
        op = self.ops[n]
        files = checks.read_outputs(self.dirs[n], set(op.files))
        problem = checks.check_op(op.argv[0], op.expect, rc, stdout, files)
        digest = hashlib.sha256()
        for part in (str(rc), stdout, stderr):
            digest.update(part.encode() + b"\0")
        for name in sorted(files):
            digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
        return problem, digest.hexdigest(), len(files), sum(len(t.encode()) for t in files.values())


def check_known_defects(cli, workload: str, workdir: str) -> dict:
    """Run and check, untimed, the workload's fixed panel of inputs that fail today.

    The panel is kept out of the timed decks, so ``attempted`` and ``failed``
    do not depend on how many decks a run deals; its outcome is reported here
    instead, so a fix (or a new failure) of these inputs shows.
    """
    ops = inputs.known_defects(workload)
    os.makedirs(workdir)
    runner = Runner(cli, ops, workdir)
    failed_by_kind, skipped = {}, 0
    for n, op in enumerate(ops):
        rc, out, err, _ = runner.call(n)
        if runner.outcome(n, rc, out, err)[0] is not None:
            failed_by_kind[op.kind] = failed_by_kind.get(op.kind, 0) + 1
        if op.argv[0] != "verify":
            continue
        for line in out.splitlines():
            with contextlib.suppress(ValueError, AttributeError):
                skipped += json.loads(line).get("note", "").startswith("skipped")
    return {"ops": len(ops), "failed": sum(failed_by_kind.values()), "failed_by_kind": failed_by_kind, "checks_skipped": skipped}


# ---------------------------------------------------------------------------
# per-layer metrics


def _per_op(totals: dict, key: str, field: str, scale: float) -> float:
    return totals.get(key, {}).get(field, 0) * scale


PER_LAYER = (
    # (metric, unit, layer key, field, scale); field "seconds" etc. per traced op
    ("verify.run_full_suite.self_ms", "ms/op", "verify.run_full_suite", "self_seconds", 1e3),
    ("verify.realize.ms", "ms/op", "verify.realize", "seconds", 1e3),
    ("verify.realize.calls", "calls/op", "verify.realize", "calls", 1),
    ("verify.checks_skipped", "count/op", "verify.run_full_suite", "checks_skipped", 1),
    ("linalg.eig_oracle.ms", "ms/op", "linalg.eig_oracle", "seconds", 1e3),
    ("linalg.eig_oracle.calls", "calls/op", "linalg.eig_oracle", "calls", 1),
    ("models.eigensystem.ms", "ms/op", "models.eigensystem", "seconds", 1e3),
    ("models.hamiltonian.ms", "ms/op", "models.hamiltonian", "seconds", 1e3),
    ("symmetry.pairs_built", "count/op", "symmetry.pairs", "calls", 1),
    ("coperator.build_C.ms", "ms/op", "coperator.build_C", "seconds", 1e3),
    ("coperator.build_C.calls", "calls/op", "coperator.build_C", "calls", 1),
    ("coperator.C_at.calls", "calls/op", "coperator.C_at", "calls", 1),
    ("coperator.C_at.ms", "ms/op", "coperator.C_at", "seconds", 1e3),
    ("coperator.completeness_defect.ms", "ms/op", "coperator.completeness_defect", "seconds", 1e3),
    ("inner.cpt_ip.calls", "calls/op", "inner.cpt_ip", "calls", 1),
    ("inner.cpt_ip_momentum.calls", "calls/op", "inner.cpt_ip_momentum", "calls", 1),
    ("inner.cpt_ip_momentum.ms", "ms/op", "inner.cpt_ip_momentum", "seconds", 1e3),
    ("inner.superpose.calls", "calls/op", "inner.superpose", "calls", 1),
    ("oscillate.standard_flavour_basis.ms", "ms/op", "oscillate.standard_flavour_basis", "seconds", 1e3),
    ("oscillate.transition_table.ms", "ms/op", "oscillate.transition_table", "seconds", 1e3),
    ("oscillate.to_csv.ms", "ms/op", "oscillate.to_csv", "seconds", 1e3),
    ("oscillate.to_csv.bytes", "bytes/op", "oscillate.to_csv", "bytes", 1),
    ("oscillate.to_json_dict.ms", "ms/op", "oscillate.to_json_dict", "seconds", 1e3),
    ("cli.main.self_ms", "ms/op", "cli.main", "self_seconds", 1e3),
    ("cli.analytic_pattern.ms", "ms/op", "cli.analytic_pattern", "seconds", 1e3),
    ("io.matrix_from_json.calls", "calls/op", "io.matrix_from_json", "calls", 1),
)

TIME_FIELDS = ("seconds", "self_seconds")


def layer_metrics(layer: dict, tracer_absent: dict, n_traced: int) -> dict:
    """Per-traced-op layer metrics from calibrated totals; absent targets marked."""
    metrics = {}
    for name, unit, key, field, scale in PER_LAYER:
        if key in tracer_absent:
            metrics[name] = {"value": None, "unit": unit, "absent": tracer_absent[key]}
        else:
            metrics[name] = {"value": _per_op(layer, key, field, scale) / max(1, n_traced), "unit": unit}
    table = layer.get("oscillate.transition_table", {})
    if "oscillate.transition_table" in tracer_absent:
        value, extra = None, {"absent": tracer_absent["oscillate.transition_table"]}
    else:
        points = table.get("points", 0)
        value, extra = (table.get("seconds", 0.0) * 1e6 / points if points else 0.0), {}
    metrics["oscillate.transition_table.us_per_point"] = {"value": value, "unit": "us/point", **extra}
    return metrics


def _accumulate(layer: dict, totals: dict, factor: float):
    """Add one op's raw totals to the run's, times in calibrated seconds."""
    for key, entry in totals.items():
        into = layer.setdefault(key, {})
        for field, value in entry.items():
            into[field] = into.get(field, 0) + (value * factor if field in TIME_FIELDS else value)


# ---------------------------------------------------------------------------
# the run


def pin_to_one_cpu() -> int:
    """Run this process, its sweep worker thread and its cold starts on one CPU.

    The probe then measures the CPU the ops run on; a thread or process
    moved to another CPU of a VM can see a different speed.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(args) -> dict:
    cli = import_cli()
    cpu = pin_to_one_cpu()
    ops = inputs.make_inputs(args.workload, args.seed)
    setup = ([], [], []) if args.trace else measure_setup(args.workload, args.seed)

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(keep_spans=bool(args.spans_out))

    workdir = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(cli, ops, workdir)
        # warm-up deck: lazy imports and caches settle; reference digests
        reference = []
        for n in range(len(ops)):
            runner.prepare(n)
            rc, out, err, _ = runner.call(n)
            reference.append(runner.outcome(n, rc, out, err)[1])

        order_rng = random.Random(f"order:{args.workload}:{args.seed}")
        probes, records = [], []
        layer, op_totals = {}, []
        loop_start = time.perf_counter()
        deck = 0
        while True:
            traced = tracer is not None and deck % 2 == 1
            order = list(range(len(ops)))
            order_rng.shuffle(order)
            for n in order:
                runner.prepare(n)
                probes.append(calib.probe_ms())
                if traced:
                    tracer.install()
                rc, out, err, elapsed = runner.call(n)
                if traced:
                    tracer.uninstall()
                    op_totals.append((len(records), tracer.take()))
                problem, digest, n_files, n_bytes = runner.outcome(n, rc, out, err)
                records.append(
                    {
                        "op": n,
                        "deck": deck,
                        "kind": ops[n].kind,
                        "raw_s": elapsed,
                        "traced": traced,
                        "problem": problem,
                        "stable": digest == reference[n],
                        "files": n_files,
                        "bytes": n_bytes,
                    }
                )
            deck += 1
            elapsed_loop = time.perf_counter() - loop_start
            enough = elapsed_loop >= args.seconds and len(records) >= MIN_OPS and (tracer is None or deck % 2 == 0)
            if enough or elapsed_loop >= LOOP_CAP_S:
                break
        probes.append(calib.probe_ms())
        loop_s = time.perf_counter() - loop_start
        known = check_known_defects(cli, args.workload, os.path.join(workdir, "known"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    for i, rec in enumerate(records):
        rec["probe_ms"] = calib.local_probe(probes, i)
        rec["cal_s"] = calib.calibrate(rec["raw_s"], rec["probe_ms"])
    for i, totals in op_totals:
        _accumulate(layer, totals, calib.PROBE_REF_MS / records[i]["probe_ms"])

    if tracer is not None and args.spans_out:
        with open(args.spans_out, "w") as fh:
            for key, thread, start, end, own in tracer.spans:
                fh.write(json.dumps({"key": key, "thread": thread, "start": start, "end": end, "self": own}) + "\n")

    return summarize(args, records, probes, setup, layer, len(op_totals), tracer, loop_s, reference, cpu, known)


def _deck_sums(recs: list, field: str) -> list[tuple[float, int]]:
    """(seconds, good ops) of every deck in ``recs``."""
    decks = {}
    for r in recs:
        seconds, good = decks.get(r["deck"], (0.0, 0))
        decks[r["deck"]] = (seconds + r[field], good + (r["problem"] is None))
    return list(decks.values())


def _latency_stats(recs: list, field: str) -> dict:
    """p50, p90 over ops; goodput as the median over decks (all decks hold the same op kinds)."""
    deciles = statistics.quantiles([r[field] * 1e3 for r in recs], n=10, method="inclusive")
    return {
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        "goodput_ops_per_s": statistics.median(good / seconds for seconds, good in _deck_sums(recs, field)),
    }


def summarize(args, records, probes, setup, layer, traced_ops, tracer, loop_s, reference, cpu, known) -> dict:
    timed = [r for r in records if not r["traced"]]
    failed = [r for r in records if r["problem"] is not None]
    unstable = [r for r in records if not r["stable"]]
    failed_by_kind = {}
    for r in failed:
        failed_by_kind[r["kind"]] = failed_by_kind.get(r["kind"], 0) + 1
    run_digest = hashlib.sha256("".join(reference).encode()).hexdigest()
    probe_med = statistics.median(probes)
    raw = _latency_stats(timed, "raw_s")
    cal = _latency_stats(timed, "cal_s")

    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu": cpu,
        "ops": len(records),
        "timed_ops": len(timed),
        "loop_s": loop_s,
        "failed_share": len(failed) / len(records),
        "failed_by_kind": failed_by_kind,
        "failures": [f"{r['kind']}: {r['problem']}" for r in failed[:5]],
        "unstable_outputs": len(unstable),
        "output_digest": run_digest,
        "known_defects": known,
        "probe_ms_median": probe_med,
        "raw": raw,
        "raw_over_probe_p50": raw["latency_p50_ms"] / probe_med,
        "kind_p50_ms": {
            kind: statistics.median(r["cal_s"] * 1e3 for r in timed if r["kind"] == kind)
            for kind in sorted({r["kind"] for r in timed})
        },
    }
    setup_raw, setup_cal, setup_refs = setup
    if setup_raw:
        diagnostics["raw"]["setup_s"] = statistics.median(setup_raw)
        diagnostics["raw"]["cold_ref_s"] = statistics.median(setup_refs)
        diagnostics["setup_cold_starts"] = len(setup_raw)

    if args.trace:
        metrics = layer_metrics(layer, tracer.absent, traced_ops)
        untraced = statistics.median(t for t, _ in _deck_sums(timed, "cal_s"))
        traced = statistics.median(t for t, _ in _deck_sums([r for r in records if r["traced"]], "cal_s"))
        overhead = traced / untraced - 1.0
        files = [r["files"] for r in records]
        written = [r["bytes"] for r in records]
        metrics.update(
            {
                "cli.files_written": {"value": sum(files) / len(files), "unit": "count/op"},
                "cli.bytes_written": {"value": sum(written) / len(written), "unit": "bytes/op"},
                "known_defects.failed": {"value": float(known["failed"]), "unit": "count"},
                "known_defects.checks_skipped": {"value": float(known["checks_skipped"]), "unit": "count"},
                "trace.overhead_frac": {"value": overhead, "unit": "frac"},
                "machine.probe_ms": {"value": probe_med, "unit": "ms"},
            }
        )
        if tracer.absent:
            diagnostics["absent_layers"] = tracer.absent
    else:
        metrics = {
            "goodput_ops_per_s": {"value": cal["goodput_ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": cal["latency_p50_ms"], "unit": "ms"},
            "latency_p90_ms": {"value": cal["latency_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_cal), "unit": "s"},
        }
    print(json.dumps({"diagnostics": diagnostics}))
    return {
        "correct": not failed and not unstable,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="with --trace 1: write every span as JSON lines to this file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
