"""Tests of the benchmark itself (not of ptosc).

    python3 -m pytest -q benchmarks
"""

import json
import os
import subprocess
import sys

import pytest

import checks
import inputs
from checks import CSV_HEADER

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _deck(workload, seed):
    return [(op.kind, op.argv, op.files, op.expect) for op in inputs.make_inputs(workload, seed)]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert _deck(workload, 7) == _deck(workload, 7)
    assert _deck(workload, 7) != _deck(workload, 8)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_kind_mix_is_the_same_for_every_seed(workload):
    kinds = [sorted(op.kind for op in inputs.make_inputs(workload, seed)) for seed in range(5)]
    assert all(k == kinds[0] for k in kinds)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_known_defects_are_fixed_and_kept_out_of_the_decks(workload):
    panel = inputs.known_defects(workload)
    assert panel == inputs.known_defects(workload)
    deck_kinds = {op.kind for seed in range(5) for op in inputs.make_inputs(workload, seed)}
    assert not deck_kinds & {op.kind for op in panel}
    assert bool(panel) == (workload != "oscillate_long")


def test_phase_rule():
    assert inputs.phase_unbroken("h8v", {"m0": 2.0, "m2": 1.99})
    assert not inputs.phase_unbroken("h8v", {"m0": 2.0, "m2": -2.0})
    assert inputs.phase_unbroken("sfdm", {})
    assert inputs.phase_unbroken("generic", {"a": 1.0, "d": -1.0, "b": [0.5, 0.5, 0.0, 0.0]})
    assert not inputs.phase_unbroken("generic", {"a": 1.0, "d": 0.0, "b": [0.5, 0.5, 0.0, 0.0]})


def _csv(rows):
    return "\n".join([CSV_HEADER] + [",".join(str(x) for x in row) for row in rows]) + "\n"


def _good_rows(n):
    return [[0.1 * k] + [0.25] * 16 for k in range(n)]


def test_checker_accepts_a_good_table_and_flags_a_corrupted_one():
    rows = _good_rows(3)
    assert checks.check_table(_csv(rows), "csv", 3) is None
    rows[1][6] += 1e-8  # one probability of flavour 2 no longer sums to 1
    assert "do not sum to 1" in checks.check_table(_csv(rows), "csv", 3)
    assert checks.check_table(_csv(_good_rows(2)), "csv", 3) is not None
    assert checks.check_table("t,P11\n0,1\n", "csv", 1) is not None
    doc = {"t_grid": [0.0], "probs": [[[0.5, 0.5, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0.7, 0.2]]]}
    assert "does not sum to 1" in checks.check_table(json.dumps(doc), "json", 1)
    assert checks.check_table("{not json", "json", 1) is not None


def test_checker_flags_a_wrong_verdict():
    stdout = "\n".join(json.dumps({"name": f"c{k}", "passed": True}) for k in range(9))
    assert checks.check_verify({"unbroken": True}, 0, stdout) is None
    assert checks.check_verify({"unbroken": True}, 1, stdout) is not None
    assert checks.check_verify({"unbroken": False}, 0, stdout) is not None
    assert checks.check_verify({"unbroken": False}, 1, stdout) is None


def _sweep_files(statuses, values):
    index, files = [], {}
    for k, (status, value) in enumerate(zip(statuses, values)):
        entry = {"param": "m2", "value": value, "status": status}
        if status == "ok":
            entry["file"] = f"t{k}.csv"
            files[f"out/t{k}.csv"] = _csv(_good_rows(2))
        index.append(entry)
    files["out/index.json"] = json.dumps(index)
    return files


def test_checker_flags_a_wrong_sweep_status():
    expect = {"format": "csv", "t_points": 2, "model": "h8v", "params": {"m0": 1.0, "m2": 0.0}, "param": "m2", "steps": 2}
    good = _sweep_files(["ok", "broken: |m2| >= m0"], [0.5, 1.5])
    assert checks.check_sweep(expect, 0, good) is None
    wrong = _sweep_files(["ok", "ok"], [0.5, 1.5])
    assert "disagrees with the phase" in checks.check_sweep(expect, 0, wrong)
    skipped = _sweep_files(["broken: no eigenbasis", "broken: x"], [0.5, 1.5])
    assert "disagrees with the phase" in checks.check_sweep(expect, 0, skipped)


def test_prepare_leaves_only_the_op_inputs(tmp_path):
    import run

    op = inputs.make_inputs("oscillate_long", 1)[0]
    runner = run.Runner(None, [op], str(tmp_path))
    op_dir = tmp_path / "op00"
    (op_dir / "table.csv").write_text("stale")
    (op_dir / "out").mkdir()
    (op_dir / "out" / "index.json").write_text("[]")
    runner.prepare(0)
    assert sorted(p.name for p in op_dir.iterdir()) == sorted(op.files)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_reported_with_its_unit(trace, section, tmp_path):
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "verify_mix", "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", str(tmp_path / "spans.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert {"cli.main", "verify.run_full_suite"} <= {s["key"] for s in spans}


def test_probe_never_imports_ptosc():
    code = "import sys; sys.path.insert(0, sys.argv[1]); import calib; calib.probe_ms(); print(any(m == 'ptosc' or m.startswith('ptosc.') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code, BENCH_DIR], capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_cold_reference_never_imports_ptosc():
    import calib

    code = calib.COLD_REF_CODE + "print(any(m == 'ptosc' or m.startswith('ptosc.') for m in sys.modules))\n"
    out = subprocess.run([sys.executable, "-c", code, BENCH_DIR, "verify_mix", "1"], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["ready", "False"]


def _import_tracer():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer

    return tracer


def test_tracer_marks_a_missing_function_absent(monkeypatch):
    tracer = _import_tracer()

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("inner.gone", "ptosc.inner", "no_such_function"),))
    t = tracer.Tracer()
    assert "no_such_function" in t.absent["inner.gone"]
    t.install()
    t.uninstall()


def test_tracer_times_the_sweep_worker_thread_and_restores_functions(tmp_path):
    tracer = _import_tracer()
    import ptosc.cli
    import ptosc.oscillate

    config = {
        "model": {"model": "h8v", "params": {"m0": 2.0, "m2": 0.5}, "momentum": {"p": 0.5}},
        "sweep": [{"param": "m2", "start": 0.5, "stop": 2.5, "steps": 3}],
        "t_grid": {"points": 8},
        "out_dir": str(tmp_path / "out"),
    }
    (tmp_path / "sweep.json").write_text(json.dumps(config))
    original_main, original_csv = ptosc.cli.main, ptosc.oscillate.TransitionTable.to_csv
    t = tracer.Tracer(keep_spans=True)
    t.install()
    try:
        assert ptosc.cli.main(["sweep", "--config", str(tmp_path / "sweep.json")]) == 0
    finally:
        t.uninstall()
    assert ptosc.cli.main is original_main
    assert ptosc.oscillate.TransitionTable.to_csv is original_csv
    totals = t.take()
    assert totals["verify.realize"]["calls"] == 3  # one per grid point, in the worker thread
    assert totals["oscillate.to_csv"]["calls"] == 2  # m2 = 2.5 is broken: no table
    main_span = next(s for s in t.spans if s[0] == "cli.main")
    worker = {s[1] for s in t.spans if s[0] == "verify.realize"}
    assert worker and main_span[1] not in worker
    # the worker's time is covered, so cli.main's self time is less than its span
    assert main_span[4] < main_span[3] - main_span[2]
