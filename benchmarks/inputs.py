"""Seeded workload inputs: the catalogue of ``ptosc`` commands one run cycles.

Each workload is a fixed *deck* of op kinds; the seed draws every op's
parameters, and the runner deals the deck in a fresh seeded order each round.
The kind mix is the same for every seed, so runs with different seeds cost
about the same and their timings are comparable.  Every op of a deck passes
its check today.  The inputs that fail today form a separate fixed panel per
workload (``known_defects``), the same for every seed, which a run checks
once, untimed, and reports on its own.

The benchmark decides the phase of every input itself (never by asking
``ptosc``): the h8 family is unbroken iff |m2| < m0 at any momentum, the
generic block form iff (a - d)^2 > 4 |b|^2, and sfdm always.  This module
does not import ``ptosc``.
"""

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("verify_mix", "oscillate_long", "sweep_grid")

OSC_T_POINTS = 4096
SWEEP_T_POINTS = 256


@dataclass(frozen=True)
class Op:
    """One ``ptosc`` command.

    ``argv`` and the contents of ``files`` may contain ``{dir}``, the op's own
    scratch directory, substituted when the op is materialized.  ``expect``
    carries what the correctness check needs.
    """

    kind: str
    argv: tuple
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def phase_unbroken(model: str, params: dict) -> bool:
    if model == "sfdm":
        return True
    if model == "generic":
        a, d = params["a"], params["d"]
        b2 = sum(x * x for x in params["b"])
        return (a - d) ** 2 > 4.0 * b2
    return abs(params.get("m2", 0.0)) < params["m0"]


def _f(x: float) -> str:
    return repr(float(x))


def _model_argv(model: str, params: dict, p: float = 0.0, theta_p: float = 0.0, phi_p: float = 0.0) -> list:
    argv = ["--model", model]
    for key, value in params.items():
        argv += [f"--{key}", _f(value)]
    if model != "sfdm":
        argv += ["--p", _f(p), "--theta-p", _f(theta_p), "--phi-p", _f(phi_p)]
    return argv


def _cjson(re: float, im: float = 0.0) -> dict:
    return {"re": float(re), "im": float(im)}


def generic_model_doc(a: float, d: float, b: list) -> dict:
    """ModelSpec JSON of [[a 1, iB], [iB^dag, d 1]], B = b0 + i(b1 s1 + b2 s2 + b3 s3)."""
    b0, b1, b2, b3 = b
    zero = _cjson(0.0)
    quaternion = [[_cjson(b0, b3), _cjson(b2, b1)], [_cjson(-b2, b1), _cjson(b0, -b3)]]
    return {
        "model": "generic",
        "params": {
            "a": [[_cjson(a), zero], [zero, _cjson(a)]],
            "d": [[_cjson(d), zero], [zero, _cjson(d)]],
            "b": quaternion,
        },
    }


# ---------------------------------------------------------------------------
# parameter draws


def _sfdm(rng: random.Random) -> dict:
    return {
        "chi": rng.uniform(0.3, 1.5),
        "psi": rng.uniform(0.2, 2.9),
        "theta": rng.uniform(0.2, 2.9),
        "phi": rng.uniform(0.0, 6.2),
    }


def _h8(rng: random.Random, model: str, m2_ratio: float) -> dict:
    m0 = rng.uniform(0.8, 3.0)
    params = {"m0": m0}
    if model in ("h8", "h8r"):
        params["m1"] = rng.uniform(-0.8, 0.8) * m0
    params["m2"] = m2_ratio * m0
    if model == "h8":
        params["m3"] = rng.uniform(-0.8, 0.8) * m0
    return params


def _unbroken_ratio(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.85)


def _direction(rng: random.Random) -> tuple:
    return rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)


def _generic(rng: random.Random, unbroken: bool) -> tuple:
    b = [rng.uniform(-0.6, 0.6) for _ in range(4)]
    norm_b = math.sqrt(sum(x * x for x in b))
    a = rng.uniform(0.5, 2.0)
    # |a - d| = 2 |b| * ratio, kept well away from the exceptional point at ratio 1
    ratio = rng.uniform(1.3, 2.0) if unbroken else rng.uniform(0.2, 0.7)
    d = a - 2.0 * norm_b * ratio
    return a, d, b


# ---------------------------------------------------------------------------
# verify_mix

# (kind, count) per deck of 16; the counts fix the latency mix for every seed
VERIFY_DECK = (
    ("broken_h8v", 1),
    ("broken_generic", 1),
    ("sfdm", 3),
    ("generic", 2),
    ("h8r_p0", 3),
    ("h8_p0", 2),
    ("h8v_p0", 2),
    ("h8v_p", 2),
)

# The verify inputs that fail today: h8r and h8 at p != 0 (no eigenbasis, 6 of
# 9 checks skipped) and h8v/h8r near the exceptional point, where roundoff
# decides per input whether C construction fails at once or the suite runs on
# and fails; (kind, count).
VERIFY_KNOWN_DEFECTS = (
    ("h8r_p", 2),
    ("h8_p", 2),
    ("near_ep_h8v", 4),
    ("near_ep_h8r", 4),
)


def _verify_op(rng: random.Random, kind: str) -> Op:
    if kind in ("generic", "broken_generic"):
        a, d, b = _generic(rng, unbroken=kind == "generic")
        doc = generic_model_doc(a, d, b)
        unbroken = phase_unbroken("generic", {"a": a, "d": d, "b": b})
        return Op(
            kind,
            ("verify", "--model-file", "{dir}/model.json"),
            files={"model.json": json.dumps(doc)},
            expect={"unbroken": unbroken},
        )
    if kind == "sfdm":
        params = _sfdm(rng)
        return Op(kind, ("verify", *_model_argv("sfdm", params)), expect={"unbroken": True})
    model = {"broken_h8v": "h8v", "near_ep_h8v": "h8v", "near_ep_h8r": "h8r"}.get(kind, kind.split("_")[0])
    p = 0.0
    if kind.startswith("near_ep"):
        # |m2| = m0 (1 - delta): unbroken, but fp64 cannot build C there today
        delta = 10.0 ** rng.uniform(-9.0, -7.5)
        ratio = rng.choice((-1.0, 1.0)) * (1.0 - delta)
        if model == "h8v":
            p = rng.uniform(0.1, 2.0)
    elif kind == "broken_h8v":
        ratio = rng.choice((-1.0, 1.0)) * rng.uniform(1.1, 1.6)
        p = rng.uniform(0.0, 2.0)
    else:
        ratio = _unbroken_ratio(rng)
        if kind.endswith("_p"):
            p = rng.uniform(0.2, 2.5)
    params = _h8(rng, model, ratio)
    theta_p, phi_p = _direction(rng)
    argv = ("verify", *_model_argv(model, params, p, theta_p, phi_p))
    return Op(kind, argv, expect={"unbroken": phase_unbroken(model, params)})


# ---------------------------------------------------------------------------
# oscillate_long

# (model, format) per deck of 8: three ops in four write CSV
OSCILLATE_DECK = (
    ("sfdm", "csv"),
    ("sfdm", "json"),
    ("h8v", "csv"),
    ("h8v", "csv"),
    ("h8r", "csv"),
    ("h8r", "json"),
    ("h8", "csv"),
    ("h8", "csv"),
)


def _oscillate_op(rng: random.Random, model: str, fmt: str) -> Op:
    if model == "sfdm":
        argv = _model_argv("sfdm", _sfdm(rng))
    else:
        p = rng.uniform(0.2, 2.5) if model == "h8v" else 0.0
        argv = _model_argv(model, _h8(rng, model, _unbroken_ratio(rng)), p, *_direction(rng))
    out = f"{{dir}}/table.{fmt}"
    argv = ("oscillate", *argv, "--t-points", str(OSC_T_POINTS), "--golden", "--format", fmt, "--out", out)
    return Op(f"{model}_{fmt}", argv, expect={"format": fmt, "t_points": OSC_T_POINTS, "out": "table." + fmt})


# ---------------------------------------------------------------------------
# sweep_grid

# per deck of 9: (kind, format, grid points).  Grid sizes are fixed per slot
# so every seed costs the same.  Sorted by cost, a deck is: six CSV grids of
# similar cost (the h8v crossing has a third of its points broken), the
# dearer h8v p axis and the two alike JSON grids, so p50 falls inside the six
# and p90 inside the two JSON ops.
SWEEP_DECK = (
    ("h8v_m2_cross", "csv", 32),
    ("h8r_m2_axis", "csv", 28),
    ("h8_m3_axis", "csv", 26),
    ("h8_m3_axis", "csv", 26),
    ("sfdm_chi_axis", "csv", 28),
    ("sfdm_chi_axis", "csv", 28),
    ("h8v_p_axis", "csv", 28),
    ("sfdm_chi_axis", "json", 24),
    ("sfdm_chi_axis", "json", 24),
)

# the sweep that fails today: an h8r grid at p != 0, where no point has an
# eigenbasis
SWEEP_KNOWN_DEFECTS = (("h8r_p_m2_axis", "csv", 28),)


def _sweep_op(rng: random.Random, kind: str, fmt: str, steps: int) -> Op:
    momentum = None
    if kind == "sfdm_chi_axis":
        params = _sfdm(rng)
        axis, start, stop = "chi", 0.2, 0.2 + rng.uniform(1.0, 1.6)
        model = "sfdm"
    else:
        model = kind.split("_")[0]
        params = _h8(rng, model, _unbroken_ratio(rng))
        m0 = params["m0"]
        theta_p, phi_p = _direction(rng)
        p = rng.uniform(0.3, 2.0) if kind in ("h8v_m2_cross", "h8r_p_m2_axis") else 0.0
        momentum = {"p": p, "theta": theta_p, "phi": phi_p}
        if kind == "h8v_m2_cross":
            # about a third of the grid lies in the broken phase; m0 sits
            # halfway between two grid points, clear of the exceptional point
            axis, start = "m2", 0.1 * m0
            below = int(0.65 * (steps - 1))
            step = (m0 - start) / (below + 0.5)
            stop = start + step * (steps - 1)
        elif kind == "h8v_p_axis":
            axis, start, stop = "p", 0.0, rng.uniform(2.0, 4.0)
        elif kind == "h8_m3_axis":
            axis, start, stop = "m3", -0.6 * m0, 0.6 * m0
        else:  # h8r_m2_axis, h8r_p_m2_axis
            axis, start, stop = "m2", -0.8 * m0, 0.8 * m0
    doc = {"model": model, "params": params}
    if momentum is not None:
        doc["momentum"] = momentum
    config = {
        "model": doc,
        "sweep": [{"param": axis, "start": start, "stop": stop, "steps": steps}],
        "t_grid": {"points": SWEEP_T_POINTS},
        "out_dir": "{dir}/out",
        "format": fmt,
    }
    return Op(
        f"{kind}_{fmt}",
        ("sweep", "--config", "{dir}/sweep.json"),
        files={"sweep.json": json.dumps(config)},
        expect={"format": fmt, "t_points": SWEEP_T_POINTS, "model": model, "params": params, "param": axis, "steps": steps},
    )


def make_inputs(workload: str, seed: int) -> list[Op]:
    """The deck of one workload, one op per slot.  Equal seeds give equal decks."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_mix":
        return [_verify_op(rng, kind) for kind, count in VERIFY_DECK for _ in range(count)]
    if workload == "oscillate_long":
        return [_oscillate_op(rng, model, fmt) for model, fmt in OSCILLATE_DECK]
    return [_sweep_op(rng, kind, fmt, steps) for kind, fmt, steps in SWEEP_DECK]


def known_defects(workload: str) -> list[Op]:
    """The fixed panel of inputs of one workload that fail today; the same
    for every seed, so the number that fail is comparable across runs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"known_defects:{workload}")
    if workload == "verify_mix":
        return [_verify_op(rng, kind) for kind, count in VERIFY_KNOWN_DEFECTS for _ in range(count)]
    if workload == "sweep_grid":
        return [_sweep_op(rng, kind, fmt, steps) for kind, fmt, steps in SWEEP_KNOWN_DEFECTS]
    return []
