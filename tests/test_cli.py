import errno
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from ptosc import cli
from ptosc.cli import build_parser, main
from ptosc.oscillate import TransitionTable

SFDM_FLAGS = ["--model", "sfdm", "--chi", "0.5", "--psi", "0.3", "--theta", "0.7", "--phi", "0.2"]


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# verify


def test_verify_sfdm_all_pass(capsys):
    assert run(["verify", *SFDM_FLAGS]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    reports = [json.loads(line) for line in lines]
    assert len(reports) == 9
    assert all(r["passed"] for r in reports)


def test_verify_broken_phase_exit_1(capsys):
    assert run(["verify", "--model", "h8v", "--m0", "1", "--m2", "2", "--p", "0"]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.strip().split("\n")]
    by_name = {r["name"]: r for r in reports}
    assert not by_name["real_spectrum"]["passed"]


def test_verify_hermitian_limit(capsys):
    assert run(["verify", "--model", "h8v", "--m0", "2", "--m2", "0"]) == 0


def test_missing_flag_is_usage_error(capsys):
    assert run(["verify", "--model", "sfdm", "--chi", "0.5"]) == 2
    assert "required" in capsys.readouterr().err


def test_model_file_input(tmp_path, capsys):
    doc = {"model": "h8v", "params": {"m0": 2.0, "m2": 1.0}, "momentum": {"p": 1.0}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", "--model-file", str(path)]) == 0


def test_malformed_model_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["verify", "--model-file", str(path)]) == 2


def _single_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    return line


INPUT_FILES = [("verify", "--model-file", "the model file"), ("sweep", "--config", "the sweep configuration")]


@pytest.mark.parametrize("command, flag, what", INPUT_FILES)
def test_missing_input_file_is_usage_error_naming_it(tmp_path, command, flag, what, capsys):
    path = str(tmp_path / "nonesuch.json")
    assert run([command, flag, path]) == 2
    assert _single_error_line(capsys) == f"error: cannot read {what} {path!r}: No such file or directory"


@pytest.mark.parametrize("command, flag, what", INPUT_FILES)
def test_truncated_input_file_is_usage_error_naming_it(tmp_path, command, flag, what, capsys):
    text = '{"model": "h8v", "params": {"m0": 2'
    path = tmp_path / "truncated.json"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads(text)
    assert run([command, flag, str(path)]) == 2
    assert _single_error_line(capsys) == f"error: {what} {str(path)!r} is not valid JSON: {decode.value}"


def test_model_file_that_is_a_directory_is_usage_error(tmp_path, capsys):
    assert run(["verify", "--model-file", str(tmp_path)]) == 2
    assert _single_error_line(capsys) == f"error: cannot read the model file {str(tmp_path)!r}: Is a directory"


def test_sweep_out_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    cfg_doc = json.loads(sweep_config(tmp_path, 0.1, 0.9, 2).read_text())
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg_doc["out_dir"] = str(taken)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_doc))
    # the sweep fails before it computes any table
    with mock.patch.object(cli, "realize", wraps=cli.realize) as realize:
        assert run(["sweep", "--config", str(path)]) == 2
    assert not realize.called
    assert _single_error_line(capsys) == f"error: cannot make the output directory {str(taken)!r}: File exists"


def test_output_file_in_a_missing_directory_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "table.csv")
    assert run(["oscillate", *H8V_FLAGS, "--t-points", "4", "--out", out]) == 2
    assert _single_error_line(capsys) == f"error: cannot write the output file {out!r}: No such file or directory"


def test_model_file_with_a_misspelt_mass_is_usage_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": "h8v", "params": {"m0": 2.0, "m_2": 1.0}}))
    assert run(["verify", "--model-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert "m_2" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["verify", "spectrum", "oscillate"])
def test_sfdm_overflow_is_numerical_failure(command, capsys):
    flags = ["--model", "sfdm", "--chi", "711", "--psi", "0.3", "--theta", "0.7", "--phi", "0.2"]
    assert run([command, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("physics failure:") and "overflow" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--model", "sfdm", "--chi", "inf", "--psi", "0.3", "--theta", "0.7", "--phi", "0.2"],
        ["--model", "sfdm", "--chi", "0.5", "--psi", "nan", "--theta", "0.7", "--phi", "0.2"],
        ["--model", "h8v", "--m0", "2", "--m2", "1", "--p", "inf"],
        ["--model", "h8r", "--m0", "nan", "--m1", "0.5"],
        ["--model", "h8", "--m0", "2", "--theta-p=-inf"],
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("command", ["verify", "spectrum", "oscillate"])
def test_non_finite_flag_is_usage_error(command, flags, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "must be finite" in captured.err


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--model", "h8v", "--m0", "2", "--m2", "1", "--m1", "0.5"], "m1"),
        (["--model", "h8r", "--m0", "2", "--m3", "0.5"], "m3"),
        (["--model", "h8", "--m0", "2", "--theta", "0.5"], "theta"),
        ([*SFDM_FLAGS, "--p", "1"], "momentum"),
        ([*SFDM_FLAGS, "--theta-p", "0"], "momentum"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else x,
)
def test_flag_outside_the_model_is_usage_error(flags, key, capsys):
    assert run(["verify", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and key in captured.err


@pytest.mark.parametrize(
    "flags, doc",
    [
        (SFDM_FLAGS, {"model": "sfdm", "params": {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}}),
        (["--model", "h8", "--m0", "2", "--m1", "0.3", "--m2", "0.5", "--m3", "0.4"],
         {"model": "h8", "params": {"m0": 2.0, "m1": 0.3, "m2": 0.5, "m3": 0.4}}),
        (["--model", "h8", "--m0", "2", "--m3", "0.4", "--p", "0.7"],
         {"model": "h8", "params": {"m0": 2.0, "m3": 0.4}, "momentum": {"p": 0.7}}),
        (["--model", "h8r", "--m0", "2", "--m1", "0.5", "--m2", "1"],
         {"model": "h8r", "params": {"m0": 2.0, "m1": 0.5, "m2": 1.0}}),
        (["--model", "h8v", "--m0", "2", "--m2", "1", "--p", "1", "--theta-p", "0.4", "--phi-p", "1.1"],
         {"model": "h8v", "params": {"m0": 2.0, "m2": 1.0}, "momentum": {"p": 1.0, "theta": 0.4, "phi": 1.1}}),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_flags_and_model_file_give_the_same_report(tmp_path, flags, doc, capsys):
    code = run(["verify", *flags])
    from_flags = capsys.readouterr().out
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", "--model-file", str(path)]) == code
    assert capsys.readouterr().out == from_flags
    assert len(from_flags.strip().split("\n")) == 9


def test_eigensystem_failure_still_gets_a_report(capsys):
    # at chi = 30 the sfdm closed-form kets lose their PT norm to rounding
    flags = ["--model", "sfdm", "--chi", "30", "--psi", ".3", "--theta", ".7", "--phi", ".2"]
    assert run(["verify", *flags]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.strip().split("\n")]
    assert len(reports) == 9 and not all(r["passed"] for r in reports)


EYE2 = [[1.0, 0.0], [0.0, 1.0]]
# generic blocks A that are not a 2x2 matrix, with the error each one gives
MALFORMED_BLOCKS = [
    (5, "params.a must be a list of equal-length lists, got 5"),
    ([1, 2], "params.a must be a list of equal-length lists, got [1, 2]"),
    ([[1, 0], [0]], "params.a must be a list of equal-length lists, got [[1, 0], [0]]"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "A must be 2x2"),
]
MALFORMED_BLOCK_IDS = [json.dumps(a) for a, _ in MALFORMED_BLOCKS]


@pytest.mark.parametrize("a, message", MALFORMED_BLOCKS, ids=MALFORMED_BLOCK_IDS)
def test_malformed_generic_matrix_is_usage_error(tmp_path, a, message, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": "generic", "params": {"a": a, "d": EYE2, "b": EYE2}}))
    assert run(["verify", "--model-file", str(path)]) == 2
    assert _single_error_line(capsys) == f"error: {message}"


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"re": "1", "im": 0}, "params.a[0][1].re must be a number, got '1'"),
        ({"re": 1, "im": None}, "params.a[0][1].im must be a number, got None"),
        (True, "params.a[0][1] must be a number, got True"),
        (10**400, "params.a[0][1] is an integer too large for a float"),
        ({"re": 1.0}, """params.a[0][1] must be a number or {"re": x, "im": y}, got {'re': 1.0}"""),
        ("1+2j", """params.a[0][1] must be a number or {"re": x, "im": y}, got '1+2j'"""),
    ],
    ids=["string-re", "null-im", "bool", "huge-int", "re-only", "string"],
)
def test_malformed_complex_entry_is_usage_error(tmp_path, entry, message, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": "generic", "params": {"a": [[1.0, entry], [0.0, 1.0]], "d": EYE2, "b": EYE2}}))
    assert run(["verify", "--model-file", str(path)]) == 2
    assert _single_error_line(capsys) == f"error: {message}"


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_non_hermitian_generic_block_is_usage_error(tmp_path, command, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": "generic", "params": {"a": [[1.0, 1.0], [0.0, 1.0]], "d": EYE2, "b": EYE2}}))
    assert run([command, "--model-file", str(path)]) == 2
    assert _single_error_line(capsys) == "error: A must be Hermitian"


def test_mass_too_large_for_a_float_is_usage_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": "h8v", "params": {"m0": 10**400}}))
    assert run(["verify", "--model-file", str(path)]) == 2
    assert _single_error_line(capsys) == "error: params.m0 is an integer too large for a float"


def outputs(argv, capsys):
    """Exit code, stdout and stderr of one in-process call."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code, stream, mark",
    [
        (["verify", "--model", "nonesuch"], 2, "err", "invalid choice"),
        (["sweep"], 2, "err", "--config"),
        (["--help"], 0, "out", "usage: ptosc"),
    ],
    ids=["bad-choice", "missing-config", "help"],
)
def test_main_returns_argparse_exit_codes(argv, code, stream, mark, capsys):
    assert main(argv) == code
    assert mark in getattr(capsys.readouterr(), stream)


H8V_P0_FLAGS = ["--model", "h8v", "--m0", "2", "--m2", "1"]


@pytest.mark.parametrize(
    "first, then, mark",
    [
        (["oscillate", *H8V_P0_FLAGS, "--t-points", "4", "--golden"], ["oscillate", *H8V_P0_FLAGS, "--t-points", "4"],
         "golden max deviation"),
        (["verify", *H8V_P0_FLAGS, "--p", "1"], ["verify", *H8V_P0_FLAGS], "momentum-reflected"),
        (["verify", "--model", "nonesuch"], ["verify", *SFDM_FLAGS], "invalid choice"),
    ],
    ids=["golden", "momentum", "usage-error"],
)
def test_cached_parser_carries_no_state_between_calls(first, then, mark, capsys):
    build_parser.cache_clear()
    alone = outputs(then, capsys)
    assert alone[0] == 0 and mark not in alone[1] + alone[2]
    _, out, err = outputs(first, capsys)
    assert mark in out + err
    assert outputs(then, capsys) == alone
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_h8r(capsys):
    assert run(["spectrum", "--model", "h8r", "--m0", "2", "--m1", "0.5", "--m2", "1"]) == 0
    values = [float(x) for x in capsys.readouterr().out.split()]
    sq = math.sqrt(3.0)
    np.testing.assert_allclose(values, sorted([-0.5 - sq, 0.5 - sq, sq - 0.5, sq + 0.5]), atol=1e-10)


@pytest.mark.parametrize("p", ["1e170", "1e200", "1e300"])
def test_spectrum_and_verify_at_a_huge_momentum(p, capsys):
    # the oracle's residuals, of about eps ||H||, once overflowed when squared
    argv = ["--model", "h8v", "--m0", "2", "--m2", "1", "--p", p]
    assert run(["spectrum", *argv]) == 0
    out, err = capsys.readouterr()
    assert [float(x) for x in out.split()] == [-float(p)] * 2 + [float(p)] * 2 and err == ""
    assert run(["verify", *argv]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.strip().split("\n")]
    assert len(reports) == 9 and all(r["passed"] for r in reports)


# ---------------------------------------------------------------------------
# oscillate


def test_oscillate_csv_rows(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = run(
        ["oscillate", *SFDM_FLAGS, "--t-max", str(math.pi / 4), "--t-points", "2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("t,P11,")
    row0 = [float(x) for x in lines[1].split(",")]
    np.testing.assert_allclose(row0[1:], np.eye(4).reshape(-1), atol=1e-12)
    row = [float(x) for x in lines[2].split(",")]
    # t = pi/4: P11 = P13 = 0.5, P12 = P14 = 0
    assert row[1] == pytest.approx(0.5, abs=1e-10)
    assert row[3] == pytest.approx(0.5, abs=1e-10)
    assert row[2] == 0.0 and row[4] == 0.0


def test_oscillate_h8v_golden(capsys):
    code = run(
        ["oscillate", "--model", "h8v", "--m0", "2", "--m2", "1", "--p", "1",
         "--t-max", str(math.pi / 8), "--t-points", "2", "--golden"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "golden max deviation" in captured.err
    row = [float(x) for x in captured.out.strip().split("\n")[2].split(",")]
    # eps = 2, t = pi/8: P13 = sin^2(pi/4) = 0.5
    assert row[3] == pytest.approx(0.5, abs=1e-10)


def test_oscillate_json_format(tmp_path):
    out = tmp_path / "table.json"
    assert run(["oscillate", *SFDM_FLAGS, "--t-points", "4", "--out", str(out)]) == 0
    assert run(["oscillate", *SFDM_FLAGS, "--t-points", "4", "--format", "json",
                "--out", str(tmp_path / "t2.json")]) == 0
    doc = json.loads((tmp_path / "t2.json").read_text())
    assert len(doc["t_grid"]) == 4
    assert doc["probs"][0][0][0] == 1.0


def test_oscillate_broken_phase_exit_1(capsys):
    assert run(["oscillate", "--model", "h8v", "--m0", "1", "--m2", "2"]) == 1


# h8v near its exceptional point: C and the flavour Gram pass, but the rows
# of the CPT-route table sum to 1 only within 1.6e-10, beyond a table's 1e-10
NEAR_EP_FLAGS = ["--model", "h8v", "--m0", "2", "--m2", "1.999998", "--p", "0", "--t-points", "4"]


def test_oscillate_near_ep_emits_the_pattern_and_golden_keeps_its_failure(capsys):
    assert run(["oscillate", *NEAR_EP_FLAGS]) == 0
    rows = [[float(x) for x in line.split(",")] for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 4 and rows[0][1:] == list(np.eye(4).ravel())
    assert all(abs(sum(row[1 + 4 * i : 5 + 4 * i]) - 1.0) <= 1e-11 for row in rows for i in range(4))
    # the CPT route, made as the check, still refuses its rows
    assert run(["oscillate", *NEAR_EP_FLAGS, "--golden"]) == 1
    assert capsys.readouterr() == ("", "physics failure: transition rows are not stochastic\n")


SFDM_ANGLES = ["--psi", "0.3", "--theta", "0.7", "--phi", "0.2"]
# oscillate --golden at its default grid: the exit code and first word of
# stderr that the CPT-route rows, made at every grid point, gave before the
# coefficient certificate replaced them (golden: its line; physics: refused)
GOLDEN_VERDICTS = {
    "sfdm": (SFDM_FLAGS, 0, "golden"),
    "h8v_p1": (["--model", "h8v", "--m0", "2", "--m2", "1", "--p", "1"], 0, "golden"),
    "h8r": (["--model", "h8r", "--m0", "2", "--m1", "0.5", "--m2", "1", "--p", "0"], 0, "golden"),
    "h8": (["--model", "h8", "--m0", "2", "--m1", "0.5", "--m2", "1", "--m3", "0.3", "--p", "0"], 0, "golden"),
    # sfdm across its chi band: the rows pass up to 6.5 (7.6e-11), C^2 fails from 7
    **{f"sfdm_chi_{chi}": (["--model", "sfdm", "--chi", chi, *SFDM_ANGLES], code, word)
       for chi, code, word in [("4", 0, "golden"), ("6", 0, "golden"), ("6.5", 0, "golden"), ("7", 1, "physics"), ("8", 1, "physics")]},
    # h8v towards its exceptional point: rows within 7.2e-11, then 1.5e-10 and 1.6e-10 off
    **{f"h8v_m2_{m2}": (["--model", "h8v", "--m0", "2", "--m2", m2, "--p", "0"], code, word)
       for m2, code, word in [("1.99999", 0, "golden"), ("1.999995", 1, "physics"), ("1.999998", 1, "physics")]},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERDICTS))
def test_golden_verdicts_are_those_of_the_sampled_rows(name, capsys):
    flags, code, word = GOLDEN_VERDICTS[name]
    assert run(["oscillate", *flags, "--golden"]) == code
    assert capsys.readouterr().err.split()[0] == word


def test_golden_makes_no_cpt_route_row(monkeypatch, capsys):
    # the check costs nothing per time point past the table itself
    def refuse(*args):
        raise AssertionError("a CPT-route row was made")

    monkeypatch.setattr("ptosc.oscillate._cpt_probs", refuse)
    assert run(["oscillate", *H8V_FLAGS, "--t-points", "4097", "--golden"]) == 0
    assert capsys.readouterr().err.startswith("golden max deviation: ")
    assert run(["oscillate", *NEAR_EP_FLAGS, "--golden"]) == 1
    assert capsys.readouterr() == ("", "physics failure: transition rows are not stochastic\n")


def test_identical_invocations_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["oscillate", "--model", "h8v", "--m0", "2", "--m2", "1", "--p", "1", "--t-points", "16"]
    assert run([*args, "--out", str(a)]) == 0
    assert run([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


H8V_FLAGS = ["--model", "h8v", "--m0", "2", "--m2", "1", "--p", "1"]


@pytest.mark.parametrize(
    "grid_flags",
    [
        ["--t-points", "0"],
        ["--t-points", "-3"],
        ["--t-max", "inf", "--golden"],
        ["--t-max", "nan", "--golden"],
        # too many points to allocate; only counts that fail before any array
        # is made, never one that a machine could try to allocate
        ["--t-points", "10000000000000000000"],
        ["--t-points", "10000000000000000000", "--t-max", "3"],
    ],
)
def test_bad_time_grid_is_usage_error(grid_flags, capsys):
    assert run(["oscillate", *H8V_FLAGS, *grid_flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the time grid") and captured.out == ""


# 2**55 - 1 points pass the MAX_POINTS bound, but their arrays exceed a 47-bit
# address space, so allocation fails at once without touching memory; never
# test a count that a machine could try to allocate
TOO_LARGE_FOR_MEMORY = 2**55 - 1
OUT_OF_MEMORY = "error: not enough memory for these inputs: Unable to allocate"


@pytest.mark.parametrize("grid_flags", [[], ["--t-max", "3"]], ids=["period", "t-max"])
def test_time_grid_too_large_for_memory_is_usage_error(tmp_path, grid_flags, capsys):
    out = tmp_path / "table.csv"
    argv = ["oscillate", *SFDM_FLAGS, "--t-points", str(TOO_LARGE_FOR_MEMORY), *grid_flags, "--out", str(out)]
    assert run(argv) == 2
    assert _single_error_line(capsys).startswith(OUT_OF_MEMORY)
    assert not out.exists()


def test_overflowing_time_grid_is_numerical_failure(capsys):
    assert run(["oscillate", *H8V_FLAGS, "--t-max", "1e308", "--golden"]) == 1
    captured = capsys.readouterr()
    assert "overflow" in captured.err and captured.out == ""


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_file_mode_follows_umask(tmp_path, umask, mode):
    out = tmp_path / "table.csv"
    old = os.umask(umask)
    try:
        assert run(["oscillate", *H8V_FLAGS, "--t-points", "4", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode


def test_output_file_is_written_without_touching_the_umask(tmp_path, monkeypatch, capsys):
    args = ["oscillate", *H8V_FLAGS, "--t-points", "4"]
    assert run(args) == 0
    expected = capsys.readouterr().out

    def refuse(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    out = tmp_path / "table.csv"
    assert run([*args, "--out", str(out)]) == 0
    assert out.read_text() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


# ---------------------------------------------------------------------------
# sweep


def sweep_config(tmp_path, start, stop, steps):
    cfg = {
        "model": {"model": "h8v", "params": {"m0": 2.0, "m2": 0.0}, "momentum": {"p": 0.0}},
        "sweep": [{"param": "m2", "start": start, "stop": stop, "steps": steps}],
        "t_grid": {"points": 4},
        "out_dir": str(tmp_path / "out"),
        "format": "csv",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_produces_tables_and_index(tmp_path):
    cfg = sweep_config(tmp_path, 0.1, 1.9, 10)
    assert run(["sweep", "--config", str(cfg)]) == 0
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert len(index) == 10
    assert all(entry["status"] == "ok" for entry in index)
    for entry in index:
        table = (tmp_path / "out" / entry["file"]).read_text().strip().split("\n")
        for line in table[1:]:
            probs = [float(x) for x in line.split(",")[1:]]
            for i in range(4):
                assert sum(probs[4 * i : 4 * i + 4]) == pytest.approx(1.0, abs=1e-10)


def test_sweep_records_broken_points(tmp_path):
    cfg = sweep_config(tmp_path, 1.5, 2.5, 3)
    assert run(["sweep", "--config", str(cfg)]) == 0
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    statuses = [entry["status"] for entry in index]
    assert statuses[0] == "ok"
    assert all(s.startswith("broken") for s in statuses[1:])
    assert "file" not in index[1]


def test_sweep_single_point_matches_oscillate(tmp_path, capsys):
    cfg = sweep_config(tmp_path, 1.0, 1.0, 1)
    assert run(["sweep", "--config", str(cfg)]) == 0
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    sweep_text = (tmp_path / "out" / index[0]["file"]).read_text()
    assert run(["oscillate", "--model", "h8v", "--m0", "2", "--m2", "1", "--p", "0",
                "--t-points", "4"]) == 0
    assert capsys.readouterr().out == sweep_text


def out_dir_contents(out) -> dict:
    """Each entry of ``out``: a file's bytes, or None for a directory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in out.iterdir()}


def rerun_with_five_times(tmp_path):
    """A 5-point h8v m2 sweep written at 4 times, then its configuration at 5 times."""
    path = sweep_config(tmp_path, 0.1, 0.5, 5)
    assert run(["sweep", "--config", str(path)]) == 0
    cfg = json.loads(path.read_text())
    cfg["t_grid"]["points"] = 5
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out"


def test_sweep_with_a_directory_for_a_target_changes_no_file(tmp_path, capsys):
    path, out = rerun_with_five_times(tmp_path)
    (out / "sweep_m2=0.4.csv").unlink()
    (out / "sweep_m2=0.4.csv").mkdir()
    before = out_dir_contents(out)
    assert run(["sweep", "--config", str(path)]) == 2
    target = str(out / "sweep_m2=0.4.csv")
    assert _single_error_line(capsys) == f"error: cannot write the output file {target!r}: Is a directory"
    # every target is checked before the first write: no table, index or temporary file changed
    assert out_dir_contents(out) == before


def test_sweep_that_fails_while_writing_leaves_no_file_changed(tmp_path, capsys):
    path, out = rerun_with_five_times(tmp_path)
    before = out_dir_contents(out)
    to_csv, calls = TransitionTable.to_csv, []

    def full_disk(table, *args):
        calls.append(table)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return to_csv(table, *args)

    with mock.patch.object(TransitionTable, "to_csv", full_disk):
        assert run(["sweep", "--config", str(path)]) == 2
    target = str(out / "sweep_m2=0.3.csv")
    assert _single_error_line(capsys) == f"error: cannot write the output file {target!r}: No space left on device"
    # the temporary files of the first two tables and of the third are gone
    assert out_dir_contents(out) == before


def test_sweep_whose_third_rename_fails_names_the_files_it_replaced(tmp_path, capsys):
    path, out = rerun_with_five_times(tmp_path)
    before = out_dir_contents(out)
    replace, calls = os.replace, []

    def refused_third(src, dst):
        calls.append(dst)
        if len(calls) == 3:
            raise OSError(errno.EACCES, "Permission denied")
        replace(src, dst)

    with mock.patch.object(os, "replace", refused_third):
        assert run(["sweep", "--config", str(path)]) == 2
    first, second, third = (str(out / f"sweep_m2=0.{k}.csv") for k in (1, 2, 3))
    assert _single_error_line(capsys) == f"error: cannot write the output file {third!r}: Permission denied (already replaced: {first!r}, {second!r})"
    # the two tables named are new, every other file is as it was, and no temporary file stays
    after = out_dir_contents(out)
    assert sorted(after) == sorted(before)
    assert [name for name in sorted(after) if after[name] != before[name]] == ["sweep_m2=0.1.csv", "sweep_m2=0.2.csv"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_h8v_theta_sweep_writes_the_tables_of_oscillate(tmp_path, fmt):
    # h8v's spectrum ignores the momentum direction, so every point of a
    # theta axis has one table, made and written once
    cfg = {
        "model": {"model": "h8v", "params": {"m0": 2.0, "m2": 1.0}, "momentum": {"p": 0.7, "phi": 1.1}},
        "sweep": [{"param": "theta", "start": 0.0, "stop": 3.0, "steps": 5}],
        "t_grid": {"points": 256},
        "out_dir": str(tmp_path / "out"),
        "format": fmt,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["sweep", "--config", str(path)]) == 0
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert [entry["status"] for entry in index] == ["ok"] * 5
    one = tmp_path / f"one.{fmt}"
    for entry in index:
        argv = ["oscillate", "--model", "h8v", "--m0", "2", "--m2", "1", "--p", "0.7", "--phi-p", "1.1", "--theta-p", repr(entry["value"])]
        assert run([*argv, "--t-points", "256", "--format", fmt, "--out", str(one)]) == 0
        assert one.read_bytes() == (tmp_path / "out" / entry["file"]).read_bytes()


def test_table_commands_build_no_8d_input(tmp_path, monkeypatch, capsys):
    def refuse(params):
        raise AssertionError("the 8D Hamiltonian is only for the matrix checks of verify")

    monkeypatch.setattr("ptosc.models.h8_hamiltonian", refuse)
    assert run(["oscillate", *H8V_FLAGS, "--t-points", "4"]) == 0
    assert run(["sweep", "--config", str(sweep_config(tmp_path, 0.1, 0.9, 2))]) == 0
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert [entry["status"] for entry in index] == ["ok", "ok"]


def test_sweep_bad_axis_is_usage_error(tmp_path, capsys):
    cfg_doc = json.loads(sweep_config(tmp_path, 0.1, 0.9, 2).read_text())
    cfg_doc["sweep"][0]["param"] = "nonesuch"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg_doc))
    assert run(["sweep", "--config", str(path)]) == 2
    assert "sweep axis 'nonesuch'" in capsys.readouterr().err


# 1e19: too many points to allocate, as in test_bad_time_grid_is_usage_error
@pytest.mark.parametrize("t_grid", [{"points": 0}, {"points": -3}, {"points": 4, "t_max": math.inf}, {"points": 1e19}])
def test_sweep_bad_time_grid_is_usage_error(tmp_path, t_grid, capsys):
    cfg_doc = json.loads(sweep_config(tmp_path, 0.1, 0.9, 2).read_text())
    cfg_doc["t_grid"] = t_grid
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg_doc))
    assert run(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed configuration: the time grid")


@pytest.mark.parametrize(
    "change",
    [
        {"t_grid": {"points": "abc"}},
        {"t_grid": {"points": 4.7}},
        {"t_grid": {"points": True}},
        {"t_grid": {"points": 4, "t_max": "5"}},
        {"t_grid": [4]},
        {"steps": "x"},
        {"steps": 2.5},
        {"start": "a"},
        {"stop": math.nan},
        {"param": 3},
        {"format": "xml"},
        {"out_dir": 7},
        {"sweep": {"param": "m2"}},
        {"sweep": [1]},
        {"sweep": [{"param": "m2", "start": 0.1, "stop": 0.9}]},
        {"steps": 0},
        # too many points to allocate, as in test_bad_time_grid_is_usage_error
        {"steps": 1e19},
        {"steps": 1e300},
        {"sweep": []},
        {"sweep": [{"param": "m2", "start": 0.1, "stop": 0.9, "steps": 2}] * 2},
        {"t_grid": {"point": 8}},
        {"fromat": "json"},
        {"model": {"model": "h8v", "params": {"m0": 2.0, "m2": "one"}}},
        {"param": "nonesuch"},
        {"param": "m1"},
        {"model": {"model": "sfdm", "params": {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}}, "param": "p"},
    ],
    ids=lambda change: json.dumps(change),
)
def test_sweep_malformed_configuration_is_usage_error(tmp_path, change, capsys):
    cfg_doc = json.loads(sweep_config(tmp_path, 0.1, 0.9, 2).read_text())
    for key, value in change.items():
        if key in ("param", "start", "stop", "steps"):
            cfg_doc["sweep"][0][key] = value
        else:
            cfg_doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg_doc))
    assert run(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed configuration:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["t_grid", "steps"])
def test_sweep_too_large_for_memory_is_usage_error(tmp_path, key, capsys):
    # the time grids fail in the worker thread, the axis values while the
    # configuration is read
    cfg_doc = json.loads(sweep_config(tmp_path, 0.1, 0.9, 2).read_text())
    if key == "steps":
        cfg_doc["sweep"][0]["steps"] = TOO_LARGE_FOR_MEMORY
    else:
        cfg_doc["t_grid"] = {"points": TOO_LARGE_FOR_MEMORY}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg_doc))
    assert run(["sweep", "--config", str(path)]) == 2
    assert _single_error_line(capsys).startswith(OUT_OF_MEMORY)
    # no output directory, so no table file and no index.json
    assert not (tmp_path / "out").exists()


def test_sweep_over_an_omitted_mass(tmp_path, capsys):
    cfg_doc = json.loads(sweep_config(tmp_path, 0.1, 0.9, 3).read_text())
    cfg_doc["model"] = {"model": "h8r", "params": {"m0": 2.0, "m1": 0.5}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_doc))
    assert run(["sweep", "--config", str(path)]) == 0
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert [(entry["value"], entry["status"]) for entry in index] == [(0.1, "ok"), (0.5, "ok"), (0.9, "ok")]
    assert run(["oscillate", "--model", "h8r", "--m0", "2", "--m1", "0.5", "--m2", "0.5", "--t-points", "4"]) == 0
    assert capsys.readouterr().out == (tmp_path / "out" / index[1]["file"]).read_text()


@pytest.mark.parametrize("start, stop, steps", [(0.5, 0.5000000000001, 3), (0.5, 0.5, 2)])
def test_sweep_points_sharing_a_file_name_are_usage_error(tmp_path, start, stop, steps, capsys):
    cfg_doc = json.loads(sweep_config(tmp_path, start, stop, steps).read_text())
    cfg_doc["model"] = {"model": "h8v", "params": {"m0": 2.0, "m2": 0.5}}
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(cfg_doc))
    assert run(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed configuration: sweep axis 'm2':")
    assert "'sweep_m2=0.5.csv'" in err
    assert not (tmp_path / "out").exists()


def test_sweep_overflowing_span_is_usage_error(tmp_path, capsys):
    path = sweep_config(tmp_path, -1e308, 1e308, 3)
    assert run(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed configuration: sweep axis 'm2':")
    assert not (tmp_path / "out").exists()


def test_sweep_over_a_generic_block_is_usage_error(tmp_path, capsys):
    # a block axis would set a 2x2 block to a number: every point is malformed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": {"model": "generic", "params": {"a": [[1, 0], [0, 1]], "d": [[-1, 0], [0, -1]], "b": [[0.3, 0], [0, 0.3]]}},
        "sweep": [{"param": "a", "start": 0.5, "stop": 1.5, "steps": 3}],
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["sweep", "--config", str(path)]) == 2
    assert _single_error_line(capsys) == "error: malformed configuration: sweep axis 'a': expected a matrix, got ndim=0"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("a, message", MALFORMED_BLOCKS, ids=MALFORMED_BLOCK_IDS)
def test_sweep_template_with_a_malformed_generic_matrix_is_a_malformed_configuration(tmp_path, a, message, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": {"model": "generic", "params": {"a": a, "d": EYE2, "b": EYE2}},
        "sweep": [{"param": "d", "start": 0.5, "stop": 1.5, "steps": 3}],
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["sweep", "--config", str(path)]) == 2
    assert _single_error_line(capsys) == f"error: malformed configuration: {message}"
    assert not (tmp_path / "out").exists()


def test_sweep_configuration_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([json.loads(sweep_config(tmp_path, 0.1, 0.9, 2).read_text())]))
    assert run(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed configuration:")


def test_sweep_accepts_integral_float_counts(tmp_path):
    cfg_doc = json.loads(sweep_config(tmp_path, 0.1, 0.9, 2).read_text())
    cfg_doc["sweep"][0]["steps"] = 2.0
    cfg_doc["t_grid"] = {"points": 3.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_doc))
    assert run(["sweep", "--config", str(path)]) == 0
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert len(index) == 2
    assert len((tmp_path / "out" / index[0]["file"]).read_text().strip().split("\n")) == 1 + 3


@pytest.mark.parametrize("value", ["abc", "nan", "-1", "0", "inf"])
def test_bad_ptosc_tol_is_usage_error(value, capsys, monkeypatch):
    monkeypatch.setenv("PTOSC_TOL", value)
    assert run(["verify", *SFDM_FLAGS]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: PTOSC_TOL") and captured.out == ""


def test_ptosc_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PTOSC_TOL", "1e-1")
    assert run(["verify", *SFDM_FLAGS]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.strip().split("\n")]
    assert any(r["tolerance"] >= 1e-1 for r in reports)


# (model document, axis, start, stop, steps) of sweeps whose points take
# different routes: broken points, points where C construction fails, and
# static and momentum points on one axis
MIXED_SWEEPS = {
    "sfdm_chi": ({"model": "sfdm", "params": {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}}, "chi", 0.2, 1.4, 4),
    "h8v_m2_crossing_m0": (
        {"model": "h8v", "params": {"m0": 2.0, "m2": 0.0}, "momentum": {"p": 0.7, "theta": 0.4, "phi": 1.1}},
        "m2", 0.5, 3.0, 6,
    ),
    "h8v_near_ep_c_squared": ({"model": "h8v", "params": {"m0": 2.0, "m2": 0.0}}, "m2", 1.9, 1.99999999, 2),
    "h8v_near_ep_commutator": (
        {"model": "h8v", "params": {"m0": 2.0, "m2": 0.0}, "momentum": {"p": 0.5}}, "m2", 1.9, 1.99999999, 2,
    ),
    "h8v_near_ep_first": (
        {"model": "h8v", "params": {"m0": 2.0, "m2": 0.0}, "momentum": {"p": 0.5}}, "m2", 1.99999999, 1.9, 2,
    ),
    "h8v_p_from_0": ({"model": "h8v", "params": {"m0": 2.0, "m2": 1.0}, "momentum": {"p": 0.0}}, "p", 0.0, 3.0, 4),
    "h8r_m2": ({"model": "h8r", "params": {"m0": 2.0, "m1": 0.5, "m2": 0.0}}, "m2", -1.5, 1.5, 4),
    "h8_m3": ({"model": "h8", "params": {"m0": 2.0, "m1": 0.3, "m2": 0.8, "m3": 0.0}}, "m3", -1.0, 1.0, 4),
}
MOMENTUM_FLAG = {"p": "--p", "theta": "--theta-p", "phi": "--phi-p"}


def _point_flags(doc, axis, value):
    """The oscillate model flags of the sweep point ``value`` on ``axis``."""
    params, momentum = dict(doc["params"]), dict(doc.get("momentum", {}))
    (params if axis in params else momentum)[axis] = value
    flags = ["--model", doc["model"]]
    for key, val in params.items():
        flags += [f"--{key}", repr(val)]
    for key, val in momentum.items():
        flags += [MOMENTUM_FLAG[key], repr(val)]
    return flags


def assert_sweep_equals_oscillate(tmp_path, capsys, sweep, fmt, t_points) -> list:
    """Run the sweep (model document, axis, start, stop, steps), check each
    written file against ``ptosc oscillate`` at its point and each broken
    point's status against oscillate's error; return the statuses."""
    doc, axis, start, stop, steps = sweep
    cfg = {
        "model": doc,
        "sweep": [{"param": axis, "start": start, "stop": stop, "steps": steps}],
        "t_grid": {"points": t_points},
        "out_dir": str(tmp_path / "out"),
        "format": fmt,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["sweep", "--config", str(path)]) == 0
    capsys.readouterr()
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert len(index) == steps
    for entry in index:
        code = run(["oscillate", *_point_flags(doc, axis, entry["value"]), "--t-points", str(t_points), "--format", fmt])
        captured = capsys.readouterr()
        if entry["status"] == "ok":
            assert code == 0
            assert (tmp_path / "out" / entry["file"]).read_bytes() == captured.out.encode()
        else:
            assert code == 1 and "file" not in entry
            assert captured.err.startswith("physics failure: ")
            assert entry["status"] == "broken: " + captured.err[len("physics failure: ") : -1]
    return [entry["status"] for entry in index]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", MIXED_SWEEPS)
def test_sweep_equals_oscillate_at_every_point(tmp_path, name, fmt, capsys):
    statuses = assert_sweep_equals_oscillate(tmp_path, capsys, MIXED_SWEEPS[name], fmt, 5)
    steps = MIXED_SWEEPS[name][-1]
    if name == "h8v_m2_crossing_m0":
        assert "ok" in statuses and any(s.startswith("broken: broken PT phase:") for s in statuses)
    elif name == "h8v_near_ep_first":
        assert statuses[0].startswith("broken: [C, H] != 0") and statuses[1] == "ok"
    elif name.startswith("h8v_near_ep"):
        failure = "C^2 != 1" if name.endswith("c_squared") else "[C, H] != 0"
        assert statuses[0] == "ok" and statuses[1].startswith(f"broken: {failure}")
    else:
        assert statuses == ["ok"] * steps


# At the 256 times of a benchmark sweep each table is written reusing the
# texts of the one before it: an sfdm chi axis, whose neighbours print alike
# in almost every cell, and an h8v m2 axis broken at both ends, so that the
# first table follows a broken point and the last is followed by one.
REUSE_SWEEPS = {
    "sfdm_chi": ({"model": "sfdm", "params": {"chi": 0.5, "psi": 0.3, "theta": 0.7, "phi": 0.2}}, "chi", 0.2, 1.6, 8),
    "h8v_m2_broken_ends": ({"model": "h8v", "params": {"m0": 2.0, "m2": 0.0}, "momentum": {"p": 0.7}}, "m2", -2.5, 2.5, 11),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", REUSE_SWEEPS)
def test_sweep_files_equal_oscillate_at_256_times(tmp_path, name, fmt, capsys):
    statuses = assert_sweep_equals_oscillate(tmp_path, capsys, REUSE_SWEEPS[name], fmt, 256)
    if name == "h8v_m2_broken_ends":
        # |m2| >= m0 is broken: the two points at each end
        assert all(s.startswith("broken: ") for s in statuses[:2] + statuses[-2:])
        assert statuses[2:-2] == ["ok"] * 7
    else:
        assert statuses == ["ok"] * 8


class BrokenStdout:
    """A stdout whose reader has gone, as at ``ptosc verify ... | head -4``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [["verify", *SFDM_FLAGS], ["oscillate", *SFDM_FLAGS, "--t-points", "4"]], ids=["verify", "oscillate"])
def test_broken_stdout_is_a_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: cannot write to stdout: Broken pipe\n"


def test_closed_stdout_pipe_prints_one_line_and_exits_2():
    # the pipe's read end is closed before ptosc starts, so every write fails
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    try:
        proc = subprocess.run([sys.executable, "-m", "ptosc.cli", "verify", *SFDM_FLAGS], stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write to stdout: Broken pipe\n")
