"""Correctness checks run, untimed, after every op.

An op is *good* when its check returns no problem.  The checks decide the
expected outcome from the op's own inputs (see ``inputs.phase_unbroken``)
and read only what the command printed and wrote.
"""

import json
import os

from inputs import phase_unbroken

ROW_SUM_TOL = 1e-10
CSV_HEADER = "t," + ",".join(f"P{i}{j}" for i in range(1, 5) for j in range(1, 5))


def check_csv_table(text: str, t_points: int) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "csv header missing or wrong"
    if len(lines) - 1 != t_points:
        return f"csv has {len(lines) - 1} rows, expected {t_points}"
    for n, line in enumerate(lines[1:], start=1):
        try:
            values = [float(x) for x in line.split(",")]
        except ValueError:
            return f"csv row {n} does not parse"
        if len(values) != 17:
            return f"csv row {n} has {len(values)} fields"
        for i in range(4):
            if abs(sum(values[1 + 4 * i : 5 + 4 * i]) - 1.0) > ROW_SUM_TOL:
                return f"csv row {n}: probabilities of flavour {i + 1} do not sum to 1"
    return None


def check_json_table(text: str, t_points: int) -> str | None:
    try:
        doc = json.loads(text)
        t_grid, probs = doc["t_grid"], doc["probs"]
    except (ValueError, KeyError, TypeError):
        return "json table does not parse"
    if len(t_grid) != t_points or len(probs) != t_points:
        return f"json table has {len(probs)} points, expected {t_points}"
    for n, mat in enumerate(probs):
        if len(mat) != 4:
            return f"json point {n} is not 4x4"
        for row in mat:
            if len(row) != 4 or abs(sum(row) - 1.0) > ROW_SUM_TOL:
                return f"json point {n}: a row does not sum to 1"
    return None


def check_table(text: str, fmt: str, t_points: int) -> str | None:
    return check_csv_table(text, t_points) if fmt == "csv" else check_json_table(text, t_points)


def check_verify(expect: dict, rc: int, stdout: str) -> str | None:
    want = 0 if expect["unbroken"] else 1
    if rc != want:
        return f"exit code {rc}, phase says {want}"
    try:
        reports = [json.loads(line) for line in stdout.splitlines()]
    except ValueError:
        return "report line does not parse"
    if len(reports) != 9 or not all("name" in r and "passed" in r for r in reports):
        return f"expected 9 check reports, got {len(reports)}"
    return None


def check_oscillate(expect: dict, rc: int, files: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    text = files.get(expect["out"])
    if text is None:
        return "no output file"
    return check_table(text, expect["format"], expect["t_points"])


def check_sweep(expect: dict, rc: int, files: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        index = json.loads(files["out/index.json"])
    except (KeyError, ValueError):
        return "index.json missing or unparsable"
    if len(index) != expect["steps"]:
        return f"index has {len(index)} entries, expected {expect['steps']}"
    for entry in index:
        params = {**expect["params"], expect["param"]: entry["value"]}
        unbroken = phase_unbroken(expect["model"], params)
        status = entry["status"]
        if unbroken != (status == "ok") or (not unbroken and not status.startswith("broken")):
            return f"status {status!r} at {expect['param']}={entry['value']!r} disagrees with the phase"
        if unbroken:
            text = files.get("out/" + entry.get("file", ""))
            if text is None:
                return f"table for {expect['param']}={entry['value']!r} missing"
            problem = check_table(text, expect["format"], expect["t_points"])
            if problem:
                return problem
    return None


def check_op(command: str, expect: dict, rc: int, stdout: str, files: dict) -> str | None:
    """Problem with one op's outcome, or None when it is good."""
    if command == "verify":
        return check_verify(expect, rc, stdout)
    if command == "oscillate":
        return check_oscillate(expect, rc, files)
    return check_sweep(expect, rc, files)


def read_outputs(directory: str, inputs: set) -> dict:
    """Every file under ``directory`` except the op's own inputs, by relative path."""
    found = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, directory)
            if rel not in inputs:
                with open(path) as fh:
                    found[rel] = fh.read()
    return found
