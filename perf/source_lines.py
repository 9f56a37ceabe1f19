"""Non-blank lines of ``src/ptosc/*.py`` and ``tests/*.py``, per file and in total.

    python3 perf/source_lines.py                    # this checkout
    python3 perf/source_lines.py --root PARENT      # another checkout
    diff <(python3 perf/source_lines.py --root PARENT) <(python3 perf/source_lines.py)

A line is blank if it holds only whitespace.  Each group prints one line per
file, then its total, so a change reports the ``tests/`` delta next to the
``src/`` one and a moved function reads as a move, not a deletion.
"""

import argparse
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GROUPS = ("src/ptosc", "tests")


def non_blank(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="the checkout to count (default: this one)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(args.root, GROUPS[0])):
        parser.error(f"{args.root!r} has no {GROUPS[0]} directory")
    for group in GROUPS:
        total = 0
        for path in sorted(glob.glob(os.path.join(args.root, group, "*.py"))):
            lines = non_blank(path)
            total += lines
            print(f"{lines:6d}  {group}/{os.path.basename(path)}")
        print(f"{total:6d}  {group}/*.py")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
