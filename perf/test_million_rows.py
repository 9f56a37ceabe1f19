"""The 10^6-point gate of ``ptosc oscillate --out``, each run in a fresh process.

    python3 -m pytest perf/test_million_rows.py -q

Run from the repository root.  ``perf`` is outside ``testpaths``, so the
plain test run never collects these.  The point is the h8v one of the
``oscillate`` examples (m0 2, m2 1, p 1) on its default grid.  A table is
made and written one block of ``BLOCK_ROWS`` rows at a time, so a run holds
the grid and one block, not the table or its text:

- in CSV and JSON, with and without ``--golden``, the child's peak RSS
  (``ru_maxrss``) stays under :data:`PEAK_RSS_MB`;
- without ``--golden``, its wall time is no worse than that of the writer
  that held the whole table and text (:data:`WALL_S`, measured with it at
  10^6 points on a 2-core VM with no tuning: 583 MB and 1,034 MB peak),
  scaled up by the benchmark's probe (``benchmarks/calib.py``) when the
  machine runs slower than the probe's reference, as that VM drifts by up
  to 2x;
- the streamed file equals the text ``to_csv()`` / ``to_json()`` return
  whole: at 1,000,003 points in CSV (a 152 MB text, held once by the
  child that hashes it), and at 100,003 in JSON, whose whole text at 10^6
  points would take 432 MB.
"""

import hashlib
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
POINT = ["--model", "h8v", "--m0", "2", "--m2", "1", "--p", "1"]
PEAK_RSS_MB = 75.0
WALL_S = {"csv": 2.19, "json": 5.75}

# the SHA-256 of the whole text of the table `oscillate` writes, from argv
WHOLE_TEXT_SHA = """
import hashlib, sys
from ptosc.models import ModelSpec, realize
from ptosc.oscillate import transition_tables
points, fmt = int(sys.argv[1]), sys.argv[2]
[table] = transition_tables([realize(ModelSpec("h8v", {"m0": 2.0, "m2": 1.0}, {"p": 1.0}))], points)
text, digest = getattr(table, "to_" + fmt)(), hashlib.sha256()
for start in range(0, len(text), 1 << 20):
    digest.update(text[start : start + (1 << 20)].encode())
print(digest.hexdigest())
"""


def slowdown() -> float:
    """How much slower than its reference the benchmark's probe runs now, at least 1."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    try:
        import calib
    finally:
        sys.path.pop(0)
    probes = sorted(calib.probe_ms() for _ in range(15))
    return max(1.0, probes[len(probes) // 2] / calib.PROBE_REF_MS)


def fresh(argv: list) -> tuple:
    """Run ``python -m ptosc.cli argv`` in a new process: its exit code,
    wall time in seconds and peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "ptosc.cli", *argv], env={**os.environ, "PYTHONPATH": SRC}, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024.0


def file_sha(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@pytest.mark.parametrize("golden", [False, True], ids=["plain", "golden"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_million_points_stream_in_bounded_memory(tmp_path, fmt, golden):
    out, scale = tmp_path / f"table.{fmt}", slowdown()
    try:
        code, wall, rss = fresh(["oscillate", *POINT, "--t-points", "1000000", "--format", fmt, *(["--golden"] * golden), "--out", str(out)])
        assert code == 0 and out.stat().st_size > 10**8
    finally:
        out.unlink(missing_ok=True)  # pytest keeps the tmp_path of recent runs
    assert rss < PEAK_RSS_MB
    if not golden:
        assert wall <= WALL_S[fmt] * scale


@pytest.mark.parametrize("fmt, points", [("csv", 1_000_003), ("json", 100_003)])
def test_streamed_file_equals_the_whole_text(tmp_path, fmt, points):
    out = tmp_path / f"table.{fmt}"
    try:
        assert fresh(["oscillate", *POINT, "--t-points", str(points), "--format", fmt, "--out", str(out)])[0] == 0
        streamed = file_sha(out)
    finally:
        out.unlink(missing_ok=True)
    whole = subprocess.run([sys.executable, "-c", WHOLE_TEXT_SHA, str(points), fmt], env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True)
    assert whole.stdout.strip() == streamed
