"""Run every workload and print every metric by name and unit.

    python3 benchmarks/suite.py                      # one run per workload
    python3 benchmarks/suite.py --runs 10            # steadiness check
    python3 benchmarks/suite.py --runs 1 --trace 1   # per-layer metrics

Run from the repository root.  With ``--runs N`` each workload runs with
seeds ``--first-seed`` .. ``--first-seed + N - 1`` (workloads interleaved, so
they share the machine's drift) and the table adds, per metric, the median,
the quartile spread (Q3 - Q1) / median as ``statistics.quantiles(n=4)`` gives
it, and the bound from ``BENCHMARK.json``.  The ``raw`` rows are the
uncalibrated wall-clock twins; ``raw/probe`` is the raw p50 in units of the
probe, whose steadiness is the premise of calibrated time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["diagnostics"]


def spread(values: list) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {w["name"]: [] for w in bench["workloads"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in results:
            result, diag = run_one(workload, seed, bench["run_seconds"], args.trace)
            results[workload].append((result, diag))
            print(f"# {workload} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']} probe {diag['probe_ms_median']:.3f} ms", file=sys.stderr)

    print(f"{'workload':<16} {'metric':<40} {'unit':<9} {'median':>12} {'spread':>8} {'bound':>6}  values")
    for workload, runs in results.items():
        rows = {}
        for result, diag in runs:
            for name, metric in result["metrics"].items():
                rows.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
            for name, value in diag["raw"].items():
                rows.setdefault(f"raw.{name}", ("", []))[1].append(value)
            rows.setdefault("raw/probe.latency_p50", ("", []))[1].append(diag["raw_over_probe_p50"])
            rows.setdefault("ops.attempted", ("count", []))[1].append(result["attempted"])
            rows.setdefault("ops.failed", ("count", []))[1].append(result["failed"])
        for name, (unit, values) in rows.items():
            present = [v for v in values if v is not None]
            median = statistics.median(present) if present else float("nan")
            bound = bounds.get(name)
            shown = " ".join(f"{v:.4g}" if v is not None else "absent" for v in values)
            print(f"{workload:<16} {name:<40} {unit:<9} {median:>12.5g} {spread(present):>8.3f} "
                  f"{'' if bound is None else bound:>6}  {shown}")
    ok = all(r["correct"] for runs in results.values() for r, _ in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
