"""A paired in-process A/B of this checkout's table writers against another checkout's.

    python3 perf/writer_ab.py --src PARENT/src               # 15 rounds
    python3 perf/writer_ab.py --src PARENT/src --rounds 31

Run from the repository root.  Both packages are loaded into one process,
the other checkout's as ``ptosc_b``.  Each side makes the tables of the
``oscillate_long`` and ``sweep_grid`` decks of seeds 1-3 (``benchmarks/inputs.py``,
imported, never changed) through its own ``cli.main``, with ``_atomic_write``
replaced by a recorder, so nothing is written to disk.  A round then writes
every op's tables once per side, as the CLI does: a sweep's tables in order,
sharing one ``reuse`` dict, as ``cmd_sweep`` does, and an oscillate table
alone.  Which side writes an op first alternates from round to round.

Before timing, one pass asserts that both sides write equal text for every
file, and counts the values each side formats (the sizes of the arrays its
``oscillate._texts`` is given).  It also writes each op once more per side
under ``tracemalloc``, each chunk dropped as it is written, as a file write
drops it, and records the peak of the memory that writing allocated.  Per
op kind, then per deck, one line gives: the median over rounds of this
side's time over the other's, the rounds this side was faster, the median
ms per round of each side, the largest peak of an op of each side in KB and
their ratio, and each side's formatted values.
"""

import os

# one BLAS thread, as in the benchmark, fixed before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from unittest import mock  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
WORKLOADS = ("oscillate_long", "sweep_grid")


def load(name: str, src: str):
    """The ``ptosc`` package under ``src``, imported as ``name``: its ``cli`` and ``oscillate`` modules."""
    package = os.path.join(os.path.abspath(src), "ptosc")
    spec = importlib.util.spec_from_file_location(name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli"), importlib.import_module(f"{name}.oscillate")


def writers(cli, op, work: str) -> list:
    """The table writers ``op`` hands to ``_atomic_write``, in order: each a
    function of (reuse, write), the sweep index left out."""
    for name, text in op.files.items():
        with open(os.path.join(work, name), "w") as fh:
            fh.write(text.replace("{dir}", work))
    recorded = []
    with mock.patch.object(cli, "_atomic_write", lambda files: recorded.extend(files.values())), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([arg.replace("{dir}", work) for arg in op.argv])
    assert code == 0, (op.kind, code)
    # a table writer is functools.partial(table.to_csv or to_json, reuse)
    return [fill.func for fill in recorded if hasattr(fill, "func")]


def write_op(fills: list, sweep: bool) -> list:
    """Every table of one op written in order, as texts in chunks."""
    reuse, texts = ({} if sweep else None), []
    for fill in fills:
        chunks = []
        fill(reuse, chunks.append)
        texts.append(chunks)
    return texts


def counted(oscillate, fills: list, sweep: bool) -> tuple:
    """The texts of one op, joined, and the values formatted for them."""
    sizes, texts = [], oscillate._texts
    with mock.patch.object(oscillate, "_texts", lambda values, *spec: sizes.append(values.size) or texts(values, *spec)):
        written = ["".join(chunks) for chunks in write_op(fills, sweep)]
    return written, sum(sizes)


def peak_kb(fills: list, sweep: bool) -> float:
    """The tracemalloc peak, in KB, of writing one op's tables in order, each chunk dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        reuse, base = ({} if sweep else None), tracemalloc.get_traced_memory()[0]
        for fill in fills:
            fill(reuse, lambda chunk: None)
        return (tracemalloc.get_traced_memory()[1] - base) / 1024
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", required=True, help="the src/ directory of the checkout to compare against")
    parser.add_argument("--rounds", type=int, default=15, help="timed rounds (default: 15)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    import inputs

    sides = [load("ptosc", os.path.join(ROOT, "src")), load("ptosc_b", args.src)]
    ops = []  # (workload, kind, sweep, fills per side)
    with tempfile.TemporaryDirectory() as work:
        for workload in WORKLOADS:
            for seed in SEEDS:
                for n, op in enumerate(inputs.make_inputs(workload, seed)):
                    op_dir = os.path.join(work, f"{workload}-{seed}-{n:02d}")
                    fills = []
                    for k, (cli, _) in enumerate(sides):
                        os.makedirs(os.path.join(op_dir, str(k)))
                        fills.append(writers(cli, op, os.path.join(op_dir, str(k))))
                    ops.append((workload, op.kind, op.argv[0] == "sweep", fills))

    formatted, peaks = {}, {}
    for workload, kind, sweep, fills in ops:
        (this, a), (other, b) = (counted(oscillate, each, sweep) for (_, oscillate), each in zip(sides, fills))
        assert this == other, f"{workload} {kind}: the two sides write different text"
        kb = [peak_kb(each, sweep) for each in fills]
        for key in (kind, workload):
            formatted[key] = [x + y for x, y in zip(formatted.get(key, (0, 0)), (a, b))]
            peaks[key] = [max(x, y) for x, y in zip(peaks.get(key, (0.0, 0.0)), kb)]

    times = {}  # per op kind and per deck: per round, ms of each side
    for r in range(args.rounds):
        gc.collect()
        spent = {}
        for workload, kind, sweep, fills in ops:
            order = (0, 1) if r % 2 == 0 else (1, 0)
            ms = [0.0, 0.0]
            for k in order:
                start = time.perf_counter()
                write_op(fills[k], sweep)
                ms[k] = 1e3 * (time.perf_counter() - start)
            for key in (kind, workload):
                spent[key] = [x + y for x, y in zip(spent.get(key, (0.0, 0.0)), ms)]
        for key, pair in spent.items():
            times.setdefault(key, []).append(pair)

    print(f"{'kind':24s} {'ratio':>7s} {'wins':>7s} {'this ms':>9s} {'other ms':>9s} {'peak':>7s} {'this KB':>8s} {'other KB':>8s} {'this fmt':>10s} {'other fmt':>10s}")
    kinds = [key for key in times if key not in WORKLOADS] + list(WORKLOADS)
    for key in kinds:
        pairs = times[key]
        ratio = statistics.median(a / b for a, b in pairs)
        wins = sum(a < b for a, b in pairs)
        this_ms, other_ms = (statistics.median(p[k] for p in pairs) for k in (0, 1))
        this_fmt, other_fmt = formatted[key]
        this_kb, other_kb = peaks[key]
        print(
            f"{key:24s} {ratio:7.3f} {wins:3d}/{len(pairs):<3d} {this_ms:9.2f} {other_ms:9.2f}"
            f" {this_kb / other_kb:7.3f} {this_kb:8.0f} {other_kb:8.0f} {this_fmt:10d} {other_fmt:10d}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
