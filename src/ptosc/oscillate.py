"""Flavour bases, spectral time evolution and transition-probability tables.

Flavour states are the equal-weight superpositions of negative- and
positive-eigenvalue kets (f'1 = (e1 + e3)/sqrt(2), ...).  Evolution is
spectral — exact for diagonalizable H — and probabilities are squared CPT
amplitudes, which makes every table row-stochastic.  Once the CPT Gram
(C(-p) B)^dag S K = 1 holds, those amplitudes are exactly F^T e^(-i Lambda t) F
with F the constant flavour matrix, so the tables the CLI emits are the
cos^2/sin^2 pattern of the spectrum (:func:`analytic_pattern`); the CPT
route (:func:`transition_table`) is kept as their check.
"""

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, starmap

import numpy as np

from .errors import BrokenPTError, ConstructionError, NumericalError, PtoscError
from .coperator import COperator, stacked_C
from .linalg import DEFAULT_TOL
from .symmetry import SymmetryPair

#: Probabilities below this are clamped to zero in emitted tables.
CLAMP = 1e-14

ROW_SUM_TOL = 1e-10

#: Rows formatted by one ``%`` operation; bounds the per-block temporaries.
BLOCK_ROWS = 4096

_CSV_HEADER = ",".join(["t"] + [f"P{i}{j}" for i in range(1, 5) for j in range(1, 5)]) + "\n"
# "%.12g" % x is f"{x:.12g}"; for finite floats "%r" % x is what json.dumps writes.
_JSON_TIME = "    %s"
_JSON_MATRIX = "    [\n" + ",\n".join(["      [\n" + ",\n".join(["        %s"] * 4) + "\n      ]"] * 4) + "\n    ]"


def _dead(block: np.ndarray) -> np.ndarray:
    """The columns that are +0.0 in every row (-0.0 prints with its sign)."""
    return ((block == 0.0) & ~np.signbit(block)).all(axis=0)


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` have one shape and equal bits, compared as
    int64 views (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and bool((a.view(np.int64) == b.view(np.int64)).all())


def _firsts(block: np.ndarray, dead: np.ndarray) -> list:
    """Per column of ``block``: the first live column bit-equal to it, else
    itself.  Columns compare as int64 views, so -0.0 never pairs with +0.0;
    one row picks the candidates, which alone are compared in full."""
    keys = block.view(np.int64)
    row, first = keys[len(keys) // 2].tolist(), list(range(block.shape[1]))
    for j in np.flatnonzero(~dead).tolist():
        first[j] = next((k for k in range(j) if row[k] == row[j] and (keys[:, k] == keys[:, j]).all()), j)
    return first


_POW10 = np.array([float(10**k) for k in range(23)])  # each exact


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """True where ``"%r" % a == "%r" % b``, elementwise, for finite floats:
    equal values of equal sign (``==`` alone would pair -0.0 with 0.0)."""
    return (a == b) & ~(np.signbit(a) ^ np.signbit(b))


def _same_12g(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """True where ``"%.12g" % a == "%.12g" % b`` is proven, elementwise.

    Equal floats of equal sign print alike (:func:`_same_bits`).  Otherwise,
    with k = 11 - floor(log10 a) in [0, 22] and an exact 10^k, both
    f = x 10^k must lie in [1e11, 1e12), round to the same integer
    N < 1e12 and sit more than 1e-3 from a half-integer.  f is exact to
    2^-14, so N is then the 12-digit rounding of both and they print alike.
    A k that is off by one fails the range checks, so log10 need not be
    exact.  Any other pair, such as one below 1e-11, reads False.
    """
    with np.errstate(all="ignore"):
        # log2, not log10: numpy's loop for log10 runs nowhere else in
        # ptosc, and paging its code in raised the peak RSS of a sweep
        # process by about 0.25 MB
        k = 11.0 - np.floor(np.log2(a) * math.log10(2.0))
        ok = (k >= 0.0) & (k <= 22.0)
        scale = _POW10[np.where(ok, k, 0.0).astype(np.intp)]
        fa, fb = a * scale, b * scale
    n = np.rint(fa)
    ok &= (fa >= 1e11) & (fb >= 1e11) & (n < 1e12) & (np.abs(fa - n) < 0.499) & (np.abs(fb - n) < 0.499)
    return ok | _same_bits(a, b)


#: per writer spec, where two floats are proven to print alike
_SAME = {"%.12g": _same_12g, "%r": _same_bits}


def _texts(values: np.ndarray, spec: str) -> list:
    """``[spec % x for x in values.ravel()]``, in one ``%``."""
    return ((spec + "\n") * values.size % tuple(values.ravel().tolist())).splitlines()


#: per writer spec, how far apart the probe cells of a column and an
#: earlier column of its block may be for that column to be tried as its
#: source: under %r only cells equal in bits print alike, so a twin whose
#: probe cell is not equal to its own would prove few
_PROBE = {"%.12g": 1e-11, "%r": 0.0}


def _sources(block: np.ndarray, own: list, previous, spec: str) -> dict:
    """Per distinct live column of ``block`` that has a source, a column
    whose cells all lie within 1e-11 of its own: that source's values, row
    by row, and where its texts are.

    The sources, in the order tried: the same live column of ``previous``
    (its texts), an earlier distinct column of ``block`` (its index) and
    the column's own rows reversed (None: row r faces row n - 1 - r).  As
    in :func:`_firsts`, one row picks the earlier columns that may be near
    (within :data:`_PROBE` of ``spec``), and the first and last rows those
    that may mirror themselves; only these are compared in full.
    """
    sources = {}
    if previous is not None:
        values, old = previous
        near = (np.abs(block - values) <= 1e-11).all(axis=0).tolist()
        sources = {j: (values[:, j], old[j]) for j in own if near[j] and old[j] is not None}
    row, top, bottom = (block[r].tolist() for r in (len(block) // 2, 0, -1))
    ends, probe = [], _PROBE[spec]
    for i, j in enumerate(own):
        if j not in sources:
            k = next((k for k in own[:i] if abs(row[k] - row[j]) <= probe and np.abs(block[:, k] - block[:, j]).max() <= 1e-11), None)
            if k is not None:
                sources[j] = (block[:, k], k)
            elif abs(top[j] - bottom[j]) <= 1e-11:
                ends.append(j)
    if ends:
        flipped = block[::-1]
        near = (np.abs(block[:, ends] - flipped[:, ends]) <= 1e-11).all(axis=0).tolist()
        sources.update((j, (flipped[:, j], None)) for j, ok in zip(ends, near) if ok)
    return sources


def _columns(block: np.ndarray, spec: str, previous=None) -> list:
    """The ``spec`` texts of one block of rows, as one list per column, or
    None for a column that is +0.0 in every row.

    A live column bit-equal to an earlier one (:func:`_firsts`) shares its
    list.  ``previous`` is the (values, column lists) of an earlier block of
    the same shape, or None.  A distinct live column with a source
    (:func:`_sources`: the same column of ``previous``, an earlier distinct
    column, or its own rows reversed) takes the source's text in every row
    where :data:`_SAME` proves the two texts equal; a mirrored column
    formats its first half, middle row included, and takes it for the rows
    facing it.  All other texts are formatted in one ``%``.
    """
    n, half = len(block), (len(block) + 1) // 2
    dead = _dead(block)
    first = _firsts(block, dead)
    live = np.flatnonzero(~dead).tolist()
    own = [j for j in live if first[j] == j]
    sources = _sources(block, own, previous, spec)
    based = sorted(sources)
    fresh = [j for j in own if j not in sources]
    values = block.T[based]
    miss = ~_SAME[spec](values, np.array([sources[j][0] for j in based])) if based else np.zeros((0, n), dtype=bool)
    for k, j in enumerate(based):
        if sources[j][1] is None:
            miss[k, :half] = True
    texts = _texts(np.concatenate([block.T[fresh].ravel(), values[miss]]), spec)
    cols = [None] * block.shape[1]
    for k, j in enumerate(fresh):
        cols[j] = texts[k * n : (k + 1) * n]
    redo = iter(texts[len(fresh) * n :])
    for j, rows in zip(based, miss):
        rows, base = np.flatnonzero(rows).tolist(), sources[j][1]
        if base is None:
            head = list(islice(redo, half))
            cols[j], rows = head + head[: n - half][::-1], rows[half:]
        else:
            cols[j] = (cols[base] if isinstance(base, int) else base).copy()
        # zip draws a row before a text: it leaves the next column's texts in ``redo``
        for r, text in zip(rows, redo):
            cols[j][r] = text
    for j in live:
        cols[j] = cols[first[j]]
    return cols


def _blocks(rows: np.ndarray, spec: str):
    """The blocks of ``BLOCK_ROWS`` rows of ``rows``, each as its length and
    its :func:`_columns`, made as they are drawn."""
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start : start + BLOCK_ROWS]
        yield len(block), _columns(block, spec)


def _write(parts: list, spec: str, reuse: dict | None, key: str, join) -> str:
    """``join`` of the :func:`_blocks` of each array of ``parts`` (all of
    one length): the text of one table.

    With ``reuse``, a table of one block whose parts are bit-equal to those
    of the table written before it, kept under ``key``, returns that
    table's text; otherwise its columns take their first source from that
    table's texts when its parts had the same shapes.  Either way it leaves
    its own parts, column texts and text there; a longer table leaves none.
    """
    previous = None if reuse is None else reuse.pop(key, None)
    if reuse is None or len(parts[0]) > BLOCK_ROWS:
        return join([_blocks(part, spec) for part in parts])
    if previous is None or previous[0][0][0].shape != parts[0].shape:
        olds = [None] * len(parts)
    elif all(_bit_equal(part, old) for part, (old, _) in zip(parts, previous[0])):
        reuse[key] = previous
        return previous[1]
    else:
        olds = previous[0]
    del previous  # the old text is not held while the new one is made
    columns = [(part, _columns(part, spec, old)) for part, old in zip(parts, olds)]
    text = join([[(len(part), cols)] for part, cols in columns])
    reuse[key] = (columns, text)
    return text


def _fill(template: str, n: int, cols: list) -> str:
    """``n`` rows of ``template`` joined by ``",\\n"``, its ``%s`` slots taking
    the texts of ``cols`` (:func:`_columns`); the slot of a None column is
    the literal ``0.0``."""
    gaps = template.split("%s")
    row = gaps[0] + "".join(("0.0" if col is None else "%s") + gap for col, gap in zip(cols, gaps[1:]))
    live = [col for col in cols if col is not None]
    # one live column, such as the times, needs no interleaving
    return ",\n".join([row] * n) % tuple(live[0] if len(live) == 1 else chain.from_iterable(zip(*live)))


def _csv_rows(n: int, cols: list) -> str:
    """The ``n`` rows of ``cols`` (:func:`_columns`, a None column written
    as ``0``), each ending in a newline."""
    zeros = ["0"] * n
    rows = zip(*(zeros if col is None else col for col in cols))
    return "\n".join([*map(",".join, rows), ""])  # the "" ends the last row


def _csv_text(blocks: list) -> str:
    """The CSV text of a table from the :func:`_blocks` of its rows."""
    # starmap keeps no block's texts while it makes the next
    return "".join(chain([_CSV_HEADER], starmap(_csv_rows, blocks[0])))


def _json_text(blocks: list) -> str:
    """The JSON text of a table from the :func:`_blocks` of its times and
    of its probabilities."""
    times, probs = (",\n".join(starmap(partial(_fill, template), part)) for template, part in zip((_JSON_TIME, _JSON_MATRIX), blocks))
    return '{\n  "t_grid": [\n%s\n  ],\n  "probs": [\n%s\n  ]\n}\n' % (times, probs)


@dataclass(frozen=True)
class TransitionTable:
    """P(f_i -> f_j) on a time grid; every row sums to 1.

    ``probs[k]`` is the 4x4 matrix at ``t_grid[k]`` with rows indexed by the
    initial flavour.  Construction rejects an empty grid and any non-finite
    time or probability, enforces row-stochasticity to 1e-10 and clamps
    entries below 1e-14 to exactly 0.
    """

    t_grid: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (len(t), 4, 4):
            raise NumericalError(f"probability array shape {probs.shape} != ({len(t)}, 4, 4)")
        if len(t) == 0:
            raise NumericalError("transition table has no time points")
        if not np.isfinite(t).all():
            raise NumericalError("transition table times are not finite")
        # A NaN or infinite probability makes its row sum and so `worst` NaN or inf.
        # The sum in probs.sum(axis=2)'s order, without its per-row reduction cost.
        sums = ((probs[..., 0] + probs[..., 1]) + probs[..., 2]) + probs[..., 3]
        worst = float(np.max(np.abs(sums - 1.0)))
        if not worst <= ROW_SUM_TOL:
            raise NumericalError("transition rows are not stochastic", residual=worst)
        if probs.min() < -ROW_SUM_TOL or probs.max() > 1 + ROW_SUM_TOL:
            raise NumericalError("transition probabilities leave [0, 1]")
        probs = np.clip(probs, 0.0, 1.0)
        np.putmask(probs, probs < CLAMP, 0.0)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "probs", probs)

    def to_csv(self, reuse: dict | None = None) -> str:
        """CSV with header t,P11,...,P44 and 12-significant-digit floats.

        Each block of ``BLOCK_ROWS`` rows is formatted by :func:`_columns`:
        a column takes the texts of a near source, the same column of the
        table written before, an earlier column of its block or its own rows
        reversed, wherever :func:`_same_12g` proves them equal.  ``reuse``
        is a dict that the calls writing a sequence of tables share: a
        table of one block whose times and probabilities are bit-equal to
        those of the table written before it returns that table's text,
        and any other takes its first source from that table; either leaves
        its own values, column texts and text there for the next (one entry
        per format).  A longer table leaves none.
        """
        rows = np.column_stack([self.t_grid, self.probs.reshape(len(self.t_grid), 16)])
        return _write([rows], "%.12g", reuse, "csv", _csv_text)

    def to_json(self, reuse: dict | None = None) -> str:
        """``json.dumps(self.to_json_dict(), indent=2) + "\\n"``, formatted from a template.

        The times and the probabilities are formatted as in :meth:`to_csv`,
        each on its own and from the same sources, with ``%r``, whose texts
        are equal only for equal floats of equal sign (:func:`_same_bits`);
        ``reuse`` is as there, its text returned again only for a table
        whose times and probabilities are bit-equal to those of the table
        written before it."""
        parts = [self.t_grid[:, None], self.probs.reshape(len(self.t_grid), 16)]
        return _write(parts, "%r", reuse, "json", _json_text)

    def to_json_dict(self) -> dict:
        return {"t_grid": self.t_grid.tolist(), "probs": self.probs.tolist()}


def _real_spectrum(values: np.ndarray) -> np.ndarray:
    if np.max(np.abs(np.imag(values))) > 1e-12 * max(1.0, float(np.max(np.abs(values)))):
        raise BrokenPTError("cannot evolve with a complex spectrum")
    return np.real(values)


def _real_phases(values: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """The real spectrum, once it is known to be real and lambda * t finite on ``t_grid``."""
    values = _real_spectrum(values)
    # Python floats overflow to inf silently, where numpy would warn and fill the table with NaN.
    if not math.isfinite(float(np.abs(values).max()) * float(np.abs(t_grid).max(initial=0.0))):
        raise NumericalError("the phases lambda * t overflow on this time grid")
    return values


def analytic_pattern(values: np.ndarray, t_grid) -> np.ndarray:
    """The cos^2/sin^2 table of a spectrum (its real part) on ``t_grid``.

    Flavours pair eigenkets (1,3) and (2,4); each pair oscillates with half
    its eigenvalue gap and the pairs do not mix.
    """
    values = np.real(values)
    phase = np.outer(t_grid, 0.5 * (values[2:] - values[:2]))
    cos, sin = np.cos(phase), np.sin(phase)
    out = np.zeros((len(t_grid), 4, 4))
    for n, (i, j) in enumerate(((0, 2), (1, 3))):
        out[:, i, i] = out[:, j, j] = cos[:, n] * cos[:, n]
        out[:, i, j] = out[:, j, i] = sin[:, n] * sin[:, n]
    return out


def _cpt_bras(sym: SymmetryPair, c: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Rows (C e_j)^dag S: row j times v is the CPT coefficient of v on ket j.
    Works on (N, d, d) stacks of C and kets as well."""
    return (c @ kets).conj().swapaxes(-1, -2) @ sym.s


# flavour ket j is (e_a + sign e_b)/sqrt(2) for a, b, sign = _FIRST[j], _SECOND[j], _SIGN[j]
_R = 1.0 / math.sqrt(2.0)
_FIRST, _SECOND, _SIGN = [0, 1, 0, 1], [2, 3, 2, 3], np.array([1.0, 1.0, -1.0, -1.0])


def _stacked_flavours(sym: SymmetryPair, c_reflected: np.ndarray, kets: np.ndarray, bra_kets: np.ndarray):
    """:func:`standard_flavour_basis` of N points in one pass, on (N, 4, 4)
    stacks of C(-p), K and B.

    Returns the flavour kets (as columns), the CPT bras (C(-p) e_j(-p))^dag S,
    the Gram defects max |(C(-p) B)^dag S K - 1| and, per point, the
    ConstructionError of a defect above 1e-10, or None.
    """
    if kets.shape[-1] != 4:
        raise ConstructionError("flavour bases require a 4-level eigensystem")
    bras = _cpt_bras(sym, c_reflected, bra_kets)
    defects = np.abs(bras @ kets - np.eye(4)).max(axis=(1, 2))
    errors = [ConstructionError(f"eigenkets are not CPT-orthonormal (defect {d:.3e})") if d > 1e-10 else None for d in defects.tolist()]
    flavours = _R * (kets[..., _FIRST] + _SIGN * kets[..., _SECOND])
    return flavours, bras, defects, errors


def standard_flavour_basis(sym: SymmetryPair, eigsys, c: COperator) -> np.ndarray:
    """The (e1 +/- e3)/sqrt(2), (e2 +/- e4)/sqrt(2) flavour combinations.

    Validates that the input eigenkets are CPT-orthonormal (to 1e-10): the
    Gram matrix (C(-p) B)^dag S K is the identity.  Returns the (4, 4)
    matrix of flavour kets as columns, ordered f'1 = (e1+e3), f'2 = (e2+e4),
    f'3 = (e1-e3), f'4 = (e2-e4), all over sqrt(2).
    """
    flavours, _, _, errors = _stacked_flavours(sym, c.reflected[None], eigsys.K[None], eigsys.B[None])
    if errors[0] is not None:
        raise errors[0]
    return flavours[0]


def _table(values: np.ndarray, coeff: np.ndarray, t_grid: np.ndarray) -> TransitionTable:
    """The CPT-route table of one point from its spectrum and its coefficients
    coeff[j, i] = ((e_j | f'_i)); the time-sized part of :func:`transition_table`."""
    phases = np.exp(-1j * np.outer(t_grid, _real_phases(values, t_grid)))
    # amp[t, i, m] = sum_j ((f'_m | e_j)) exp(-i lam_j t) ((e_j | f'_i)); rows: initial flavour i.
    # By CPT-Hermiticity ((f'_m | e_j)) = conj(((e_j | f'_m))), so the right factor is conj(coeff).
    # One (4T, 4) @ (4, 4) product: a stacked (T, 4, 4) operand costs one BLAS call per time.
    amp = ((phases[:, None, :] * coeff.T).reshape(-1, 4) @ coeff.conj()).reshape(-1, 4, 4)
    return TransitionTable(t_grid=t_grid, probs=np.abs(amp) ** 2)


def transition_table(sym: SymmetryPair, flavours: np.ndarray, eigsys, c: COperator, t_grid) -> TransitionTable:
    """P(f_i -> f_j)(t) = |((f'_j | f'_i(t)))|^2 with the CPT inner product;
    ``flavours`` holds the flavour kets as columns."""
    # coeff[j, i] = ((e_j | f'_i)); the bra side is evaluated at -p.
    coeff = _cpt_bras(sym, c.reflected, eigsys.B) @ flavours
    return _table(eigsys.values, coeff, np.asarray(t_grid, dtype=float))


def _default_t_grids(values: np.ndarray, n: int) -> tuple[np.ndarray, list]:
    """:func:`default_t_grid` of N spectra (N, d) in one pass: the (N, n)
    grids and, per spectrum, the ConstructionError of one with no gap."""
    values = np.sort(np.real(values), axis=1)
    gaps = np.diff(values, axis=1)
    kept = gaps > 1e-12 * np.fmax(1.0, np.abs(values).max(axis=1))[:, None]
    period = 2.0 * math.pi / np.where(kept, gaps, np.inf).min(axis=1)
    # np.linspace(0, period, n) row by row, in its arithmetic (k * step, the
    # end set exactly), without its per-call cost
    grids = np.arange(n) * (period / max(n - 1, 1))[:, None]
    if n > 1:
        grids[:, -1] = period
    error = ConstructionError("spectrum has no nonzero gap; no oscillation period")
    return grids, [None if ok else error for ok in kept.any(axis=1).tolist()]


def default_t_grid(eigsys, n: int = 64) -> np.ndarray:
    """n uniform points on [0, 2 pi / min_gap] (one full oscillation period)."""
    grids, errors = _default_t_grids(eigsys.values[None], n)
    if errors[0] is not None:
        raise errors[0]
    return grids[0]


def _gated(realizations, t_points: int, t_max, tol: float) -> list:
    """Per realization of one model: its own error, else the PtoscError of
    its first failing gate, else its (spectrum, CPT coefficients
    coeff[j, i] = ((e_j | f'_i)), time grid).

    The gates are those of one point: :func:`build_C` against its
    Hamiltonian (C^2 and [C, H]), the flavour Gram of
    :func:`standard_flavour_basis` and a ``t_points`` time grid (on
    [0, t_max], else :func:`default_t_grid`).  They run as stacked arrays
    over the realized points, each matrix on its own, so a point that fails
    one, whose data stay finite, leaves the others as they are.
    """
    live = [real for real in realizations if real.error is None]
    if not live:
        return [real.error for real in realizations]
    sym = live[0].sym
    kets = np.stack([real.eigensystem.K for real in live])
    bra_kets = np.stack([real.eigensystem.B for real in live])
    values = np.array([real.eigensystem.values for real in live])
    c, c_errors = stacked_C(sym, kets, bra_kets, np.stack([real.hamiltonian for real in live]), tol)
    flavours, bras, _, basis_errors = _stacked_flavours(sym, c.reflected, kets, bra_kets)
    if t_max is None:
        grids, grid_errors = _default_t_grids(values, t_points)
    else:
        grids, grid_errors = np.broadcast_to(np.linspace(0.0, t_max, t_points), (len(values), t_points)), [None] * len(values)
    # coeff[j, i] = ((e_j | f'_i)); the bra side is evaluated at -p.
    points = zip(values, bras @ flavours, grids)
    gated = iter([next(filter(None, errors), None) or point for errors, point in zip(zip(c_errors, basis_errors, grid_errors), points)])
    return [next(gated) if real.error is None else real.error for real in realizations]


def transition_tables(realizations, t_points: int, t_max=None, tol: float = DEFAULT_TOL) -> list:
    """The table of each of N :func:`ptosc.models.realize` points of one model,
    or its PtoscError: a failed realization's own, else its first failing step's.

    The steps are the gates of :func:`_gated`, which run as stacked arrays
    over the realized points, then the point's table, made point by point.
    Past the gates the flavour coefficients equal the constant flavour
    matrix F to the Gram tolerance, so the table is |F^T e^(-i Lambda t) F|^2,
    the :func:`analytic_pattern` of the spectrum, checked to be real with
    finite phases; the CPT-route product (:func:`transition_table`) would add
    only its rounding, of order eps ||C||^2.  The table depends on nothing
    else, so a point that passes its gates with the spectrum and time grid
    of the last point that got a table, bit for bit (:func:`_bit_equal`),
    takes that same table: sfdm's spectrum is -1, -1, +1, +1 at every
    point, and the h8 family's ignores the momentum direction.
    """
    tables, last = [], None
    for point in _gated(realizations, t_points, t_max, tol):
        if isinstance(point, tuple):
            values, _, t_grid = point
            if last is not None and _bit_equal(values, last[0]) and _bit_equal(t_grid, last[1]):
                point = last[2]
            else:
                try:
                    point = TransitionTable(t_grid, analytic_pattern(_real_phases(values, t_grid), t_grid))
                    last = (values, t_grid, point)
                except PtoscError as exc:
                    # without its traceback, the error pins no frame in memory
                    point = exc.with_traceback(None)
        tables.append(point)
    return tables


def golden_table(real, t_points: int, t_max=None, tol: float = DEFAULT_TOL) -> tuple:
    """The table :func:`transition_tables` makes of one realization, and the
    max |CPT route - pattern| over it (``oscillate --golden``).

    Both come from one pass of the gates.  The CPT-route table
    (:func:`transition_table` on the same grid) is made first, so the
    point's error, a realization's, a gate's or the CPT route's, is raised
    before any table is returned.
    """
    [point] = _gated([real], t_points, t_max, tol)
    if isinstance(point, PtoscError):
        raise point
    values, coeff, t_grid = point
    cpt = _table(values, coeff, t_grid)
    pattern = analytic_pattern(values, t_grid)
    return TransitionTable(t_grid, pattern), float(np.max(np.abs(cpt.probs - pattern)))
