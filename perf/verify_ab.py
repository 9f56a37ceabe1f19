"""A paired in-process A/B of this checkout's ``ptosc verify`` against another checkout's.

    python3 perf/verify_ab.py --src PARENT/src                        # 15 rounds
    python3 perf/verify_ab.py --src PARENT/src --rounds 31
    python3 perf/verify_ab.py --src PARENT/src --seeds 20 --rounds 0  # parity only

Run from the repository root.  Both packages are loaded into one process,
the other checkout's as ``ptosc_b``, and the process is pinned to one CPU.
The ops are the ``verify_mix`` decks of seeds 1 to ``--seeds`` (default 3)
and its known-defect panel (``benchmarks/inputs.py``, imported, never
changed); each side runs every op through its own ``cli.main``, with stdout
and stderr captured, as the benchmark does.

One parity pass first asserts that both sides give every op the same exit
code, stderr, check names, verdicts and notes; only the defects may differ.
For each check whose defect changed on some line it prints the lines
changed and the least and greatest new/old ratio.  Then each timed round
runs every op once per side, which side goes first alternating from round
to round.  Per op kind, then per deck, one line gives: the median over
rounds of this side's time over the other's, the rounds this side was
faster, and the median ms per round of each side.
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
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECKS = ("verify_mix", "known_defects")


def load(name: str, src: str):
    """The ``cli`` module of the ``ptosc`` package under ``src``, imported as ``name``."""
    package = os.path.join(os.path.abspath(src), "ptosc")
    spec = importlib.util.spec_from_file_location(name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run(cli, argv: list) -> tuple:
    """Exit code, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def ratio(new: float, old: float) -> float:
    return new / old if old != 0 else math.inf


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", required=True, help="the src/ directory of the checkout to compare against")
    parser.add_argument("--rounds", type=int, default=15, help="timed rounds (default: 15)")
    parser.add_argument("--seeds", type=int, default=3, help="run the decks of seeds 1 to this (default: 3)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    import inputs

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sides = [load("ptosc", os.path.join(ROOT, "src")), load("ptosc_b", args.src)]
    with tempfile.TemporaryDirectory() as work:
        decks = [("verify_mix", op) for seed in range(1, args.seeds + 1) for op in inputs.make_inputs("verify_mix", seed)]
        decks += [("known_defects", op) for op in inputs.known_defects("verify_mix")]
        ops = []  # (deck, kind, argv)
        for n, (deck, op) in enumerate(decks):
            op_dir = os.path.join(work, f"{n:03d}")
            os.makedirs(op_dir)
            for name, text in op.files.items():
                with open(os.path.join(op_dir, name), "w") as fh:
                    fh.write(text.replace("{dir}", op_dir))
            ops.append((deck, op.kind, [arg.replace("{dir}", op_dir) for arg in op.argv]))

        changed = {}  # check name -> new/old defect ratio of each line that changed
        for deck, kind, op_argv in ops:
            (code, out, err), (code_b, out_b, err_b) = (run(cli, op_argv) for cli in sides)
            assert (code, err) == (code_b, err_b), f"{kind} {op_argv}: exit code or stderr differ"
            lines, lines_b = ([json.loads(line) for line in text.splitlines()] for text in (out, out_b))
            keys, keys_b = ([(r["name"], r["passed"], r["note"]) for r in each] for each in (lines, lines_b))
            assert keys == keys_b, f"{kind} {op_argv}: check names, verdicts or notes differ"
            for new, old in zip(lines, lines_b):
                if new["defect"] != old["defect"]:
                    changed.setdefault(new["name"], []).append(ratio(new["defect"], old["defect"]))
        print(f"parity: {len(ops)} ops, equal exit codes, stderr, check names, verdicts and notes")
        for name, ratios in changed.items():
            print(f"  {name}: {len(ratios)} defect lines changed, new/old {min(ratios):.6g} to {max(ratios):.6g}")

        times = {}  # per op kind and per deck: per round, ms of each side
        for r in range(args.rounds):
            gc.collect()
            spent = {}
            for deck, kind, op_argv in ops:
                ms = [0.0, 0.0]
                for k in (0, 1) if r % 2 == 0 else (1, 0):
                    start = time.perf_counter()
                    run(sides[k], op_argv)
                    ms[k] = 1e3 * (time.perf_counter() - start)
                for key in (kind, deck):
                    spent[key] = [x + y for x, y in zip(spent.get(key, (0.0, 0.0)), ms)]
            for key, pair in spent.items():
                times.setdefault(key, []).append(pair)

    if times:
        print(f"{'kind':24s} {'ratio':>7s} {'wins':>7s} {'this ms':>9s} {'other ms':>9s}")
    for key in [key for key in times if key not in DECKS] + [deck for deck in DECKS if deck in times]:
        pairs = times[key]
        this_ms, other_ms = (statistics.median(p[k] for p in pairs) for k in (0, 1))
        wins = sum(a < b for a, b in pairs)
        print(f"{key:24s} {statistics.median(a / b for a, b in pairs):7.3f} {wins:3d}/{len(pairs):<3d} {this_ms:9.2f} {other_ms:9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
