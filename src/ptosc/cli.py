"""Command-line front end: verify, oscillate, sweep, spectrum.

Exit codes: 0 success, 1 physics failure (broken phase or a failed check),
2 usage error (an input too large for memory among them).  ``PTOSC_TOL``
overrides the default check tolerance.  Output files are written atomically
(temp file + rename) with mode 0o666 masked by the umask, as ``open`` would
create them, and identical invocations produce byte-identical files.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import ParameterError, PtoscError
from .io import json_finite, json_integer, json_number, json_object, read_json
from .linalg import DEFAULT_TOL, eig_oracle
from .models import PARAM_KEYS, ModelSpec, model_hamiltonian, realize
# analytic_pattern is the emitted table's pattern; the benchmark traces it by this module's name
from .oscillate import analytic_pattern, golden_table, transition_tables  # noqa: F401
from .verify import run_full_suite

EXIT_OK = 0
EXIT_PHYSICS = 1
EXIT_USAGE = 2

# the model flags, named as their parameter keys, and the momentum flags
# (argparse dest -> momentum key)
PARAM_FLAGS = ("chi", "psi", "theta", "phi", "m0", "m1", "m2", "m3")
MOMENTUM_FLAGS = {"p": "p", "theta_p": "theta", "phi_p": "phi"}
# The most points of a time grid or a sweep: each takes 256 bytes in its
# largest array, a (4, 4) complex block, and numpy cannot address an array
# of more than sys.maxsize bytes.
MAX_POINTS = sys.maxsize // 256


def default_tol() -> float:
    """The check tolerance: ``PTOSC_TOL`` if set, else ``DEFAULT_TOL``."""
    raw = os.environ.get("PTOSC_TOL")
    if not raw:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"PTOSC_TOL must be a finite positive number, got {raw!r}")
    return tol


def _atomic_write(files: dict) -> None:
    """Write ``files`` (path -> a function that writes its text through the ``write`` it
    is given) all or none: every path is checked, each text goes to a temporary file
    beside its path as it is made, then each is renamed over its path, in order.  An
    OS error is a usage error naming the path, and no temporary file stays; a rename
    that fails leaves the paths renamed before it replaced, and the error names them."""
    temps, replaced = [], []
    try:
        for path in files:
            if os.path.isdir(path) and not os.path.islink(path):
                raise ParameterError(f"cannot write the output file {path!r}: Is a directory")
        for path, fill in files.items():
            while True:
                tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".ptosc-{os.urandom(6).hex()}")
                try:
                    # the kernel masks 0o666 with the umask, as open() would
                    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    break
                except FileExistsError:
                    continue
            temps.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fill(fh.write)
        for path, tmp in zip(files, temps):
            os.replace(tmp, path)
            replaced.append(path)
    except BaseException as exc:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            note = f" (already replaced: {', '.join(map(repr, replaced))})" if replaced else ""
            raise ParameterError(f"cannot write the output file {path!r}: {exc.strerror or exc}{note}") from None
        raise


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=("sfdm", "h8", "h8r", "h8v"), help="model name")
    parser.add_argument("--model-file", help="JSON ModelSpec file (any model, incl. generic)")
    for flag in PARAM_FLAGS:
        parser.add_argument(f"--{flag}", type=float)
    parser.add_argument("--p", type=float, help="momentum magnitude (h8 family)")
    parser.add_argument("--theta-p", type=float, help="momentum polar angle (h8 family)")
    parser.add_argument("--phi-p", type=float, help="momentum azimuthal angle (h8 family)")


def model_spec_from_args(args) -> ModelSpec:
    """The spec of --model-file, or of --model and the flags given with it."""
    if args.model_file:
        return ModelSpec.from_json_dict(read_json(args.model_file, "the model file"))
    if not args.model:
        raise ParameterError("one of --model or --model-file is required")
    params = {key: getattr(args, key) for key in PARAM_FLAGS if getattr(args, key) is not None}
    momentum = {key: getattr(args, flag) for flag, key in MOMENTUM_FLAGS.items() if getattr(args, flag) is not None}
    return ModelSpec(args.model, params, momentum or None)


def _add_tgrid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t-points", type=int, default=64, help="number of grid points")
    parser.add_argument("--t-max", type=float, help="grid end (default: one period of the slowest flavour oscillation)")


def _grid_args(t_points: int, t_max) -> tuple:
    """The time grid's (t_points, t_max), validated; a bad value is a usage error."""
    if t_points < 1:
        raise ParameterError(f"the time grid needs at least 1 point, got {t_points}")
    if t_points > MAX_POINTS:
        raise ParameterError(f"the time grid can have at most {MAX_POINTS} points to allocate, got {t_points}")
    if t_max is not None and not math.isfinite(t_max):
        raise ParameterError(f"the time grid end must be finite, got {t_max}")
    return t_points, t_max


def cmd_verify(args) -> int:
    spec = model_spec_from_args(args)
    reports = run_full_suite(spec, tol=default_tol())
    for report in reports:
        print(report.to_json_line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_PHYSICS


def cmd_spectrum(args) -> int:
    values = eig_oracle(model_hamiltonian(model_spec_from_args(args))).values
    for lam in values:
        print(f"{lam.real:.12g}" if abs(lam.imag) < 1e-12 else f"{lam.real:.12g}{lam.imag:+.12g}j")
    return EXIT_OK


def cmd_oscillate(args) -> int:
    spec = model_spec_from_args(args)
    grid = _grid_args(args.t_points, args.t_max)
    real = realize(spec)
    tol = default_tol()
    if args.golden:
        table, deviation = golden_table(real, *grid, tol)
    else:
        [table] = transition_tables([real], *grid, tol)
        if isinstance(table, PtoscError):
            raise table
    # the table checked every block as it made it, before any byte is written
    emit = functools.partial(getattr(table, f"to_{args.format}"), None)
    if args.out:
        _atomic_write({args.out: emit})
    else:
        emit(sys.stdout.write)
    if args.golden:
        print(f"golden max deviation: {deviation:.3e}", file=sys.stderr)
        if not deviation <= tol:
            return EXIT_PHYSICS
    return EXIT_OK


def _sweep_spec(template: ModelSpec, axis: str, value: float) -> ModelSpec:
    """The template with the axis set: a parameter key of the model if it is
    one, else a momentum key."""
    if axis in sum(PARAM_KEYS[template.model], ()):
        return ModelSpec(template.model, {**template.params, axis: value}, template.momentum)
    return ModelSpec(template.model, template.params, {**(template.momentum or {}), axis: value})


def _read_sweep(config, out_dir: str | None) -> tuple:
    """(axis name, axis values, their specs, their file names, time grid,
    format, out_dir) of a sweep configuration.  A missing, unknown or
    mistyped field, a count too large to allocate, an axis that is not a key
    of the model, an axis span that overflows, or two points with the same
    file name raise ParameterError."""
    config = json_object(config, "the configuration", ("model",), ("sweep", "t_grid", "out_dir", "format"))
    template = ModelSpec.from_json_dict(config["model"])
    axes = config.get("sweep", [])
    if not isinstance(axes, list):
        raise ParameterError(f"sweep must be a list, got {type(axes).__name__}")
    if len(axes) != 1:
        raise ParameterError("exactly one sweep axis is supported")
    axis = json_object(axes[0], "the sweep axis", ("param", "start", "stop", "steps"))
    name = axis["param"]
    if not isinstance(name, str):
        raise ParameterError(f"sweep param must be a string, got {name!r}")
    start, stop = (json_finite(axis[key], f"sweep {key}") for key in ("start", "stop"))
    steps = json_integer(axis["steps"], "sweep steps")
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    if steps > MAX_POINTS:
        raise ParameterError(f"steps can be at most {MAX_POINTS} to allocate, got {steps:.3g}")
    # Python floats overflow to inf silently, where numpy would warn and return NaN.
    if steps > 1 and not math.isfinite(stop - start):
        raise ParameterError(f"sweep axis {name!r}: stop - start overflows")
    values = [start] if steps == 1 else list(np.linspace(start, stop, steps))
    try:
        specs = [_sweep_spec(template, name, value) for value in values]
    except ParameterError as exc:
        raise ParameterError(f"sweep axis {name!r}: {exc}") from None
    t_grid = json_object(config.get("t_grid", {}), "t_grid", optional=("points", "t_max"))
    t_max = t_grid.get("t_max")
    if t_max is not None:
        t_max = json_number(t_max, "t_grid.t_max")
    grid = _grid_args(json_integer(t_grid.get("points", 64), "t_grid.points"), t_max)
    fmt = config.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ParameterError(f"format must be 'csv' or 'json', got {fmt!r}")
    files = [f"sweep_{name}={value:.12g}.{fmt}" for value in values]
    seen = set()
    for fname in files:
        if fname in seen:
            raise ParameterError(f"sweep axis {name!r}: two points share the file name {fname!r}")
        seen.add(fname)
    out_dir = config.get("out_dir", out_dir or ".")
    if not isinstance(out_dir, str):
        raise ParameterError(f"out_dir must be a string, got {out_dir!r}")
    return name, values, specs, files, grid, fmt, out_dir


def cmd_sweep(args) -> int:
    config = read_json(args.config, "the sweep configuration")
    try:
        name, values, specs, files, grid, fmt, out_dir = _read_sweep(config, args.out_dir)
    except ParameterError as exc:
        raise ParameterError(f"malformed configuration: {exc}") from exc
    tol = default_tol()
    # an existing non-directory fails before the compute, as os.makedirs below would after it
    if os.path.lexists(out_dir) and not os.path.isdir(out_dir):
        raise ParameterError(f"cannot make the output directory {out_dir!r}: File exists")
    # The whole grid is one job for a single worker thread: the benchmark's
    # tracer test asserts that grid points are realized off the main thread,
    # so the pool goes only with a change to the benchmark.  It is imported
    # here so that the other commands never load concurrent.futures.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        tables = pool.submit(lambda: transition_tables([realize(spec) for spec in specs], *grid, tol)).result()
    # made only once the tables exist, so a sweep that fails leaves no directory
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot make the output directory {out_dir!r}: {exc.strerror or exc}") from None
    index, writes, reuse = [], {}, {}  # each table reuses the texts of the one written before it
    for value, fname, table in zip(values, files, tables):
        broken = isinstance(table, PtoscError)
        entry = {"param": name, "value": float(value), "status": f"broken: {table}" if broken else "ok"}
        if not broken:
            writes[os.path.join(out_dir, fname)] = functools.partial(getattr(table, f"to_{fmt}"), reuse)
            entry["file"] = fname
        index.append(entry)
    writes[os.path.join(out_dir, "index.json")] = lambda write: write(json.dumps(index, indent=2) + "\n")
    _atomic_write(writes)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ptosc`` parser, built on first use and shared by later calls;
    parsing keeps no state in it."""
    parser = argparse.ArgumentParser(prog="ptosc", description="T-odd PT-symmetric models: verification and oscillation tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the axiom suite; JSON-lines report")
    _add_model_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_spec = sub.add_parser("spectrum", help="print eigenvalues of the working Hamiltonian")
    _add_model_flags(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_osc = sub.add_parser("oscillate", help="emit a transition-probability table")
    _add_model_flags(p_osc)
    _add_tgrid_flags(p_osc)
    p_osc.add_argument("--out", help="output file (stdout if omitted)")
    p_osc.add_argument("--format", choices=("csv", "json"), default="csv")
    p_osc.add_argument("--golden", action="store_true", help="certify the table over every t: print a bound on |CPT route - pattern|")
    p_osc.set_defaults(func=cmd_oscillate)

    p_sweep = sub.add_parser("sweep", help="run oscillation tables over a parameter grid")
    p_sweep.add_argument("--config", required=True, help="JSON sweep configuration")
    p_sweep.add_argument("--out-dir", help="output directory (overridden by config out_dir)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code, argparse's exits included."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # every array large enough to fail is sized by a count the user gave
        print(f"error: not enough memory for these inputs: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return EXIT_USAGE
    except PtoscError as exc:
        print(f"physics failure: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except BrokenPipeError as exc:
        # the reader is gone (`ptosc verify ... | head`): what stdout still
        # buffers goes to os.devnull, so the flush at exit cannot fail again
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (AttributeError, OSError):
            pass  # a stdout with no file descriptor flushes nothing at exit
        print(f"error: cannot write to stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
