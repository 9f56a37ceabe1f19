"""Non-blank lines and AST nodes of ``src/ptosc/*.py`` and ``tests/*.py``, per file and in total.

    python3 perf/source_lines.py                    # this checkout
    python3 perf/source_lines.py --root PARENT      # another checkout
    diff <(python3 perf/source_lines.py --root PARENT) <(python3 perf/source_lines.py)

A line is blank if it holds only whitespace.  The nodes are those
``ast.walk`` visits in the file's tree; the memory that compiling a module
takes follows them, not its lines.  Each group prints one line per file
(lines, then nodes), then its total, so a change reports the ``tests/``
delta next to the ``src/`` one and a moved function reads as a move, not a
deletion.
"""

import argparse
import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GROUPS = ("src/ptosc", "tests")


def counts(path: str) -> tuple:
    """(non-blank lines, AST nodes) of one file."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    return sum(1 for line in source.splitlines() if line.strip()), sum(1 for _ in ast.walk(ast.parse(source, path)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="the checkout to count (default: this one)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(args.root, GROUPS[0])):
        parser.error(f"{args.root!r} has no {GROUPS[0]} directory")
    for group in GROUPS:
        total = [0, 0]
        for path in sorted(glob.glob(os.path.join(args.root, group, "*.py"))):
            lines, nodes = counts(path)
            total = [total[0] + lines, total[1] + nodes]
            print(f"{lines:6d} {nodes:7d}  {group}/{os.path.basename(path)}")
        print(f"{total[0]:6d} {total[1]:7d}  {group}/*.py")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
