"""Flavour bases, spectral time evolution and transition-probability tables.

Flavour states are the equal-weight superpositions of negative- and
positive-eigenvalue kets (f'1 = (e1 + e3)/sqrt(2), ...).  Evolution is
spectral and probabilities are squared CPT amplitudes, so every table is
row-stochastic.  Once the CPT Gram (C(-p) B)^dag S K = 1 holds, those
amplitudes are exactly F^T e^(-i Lambda t) F with F the constant flavour
matrix: the CLI emits the cos^2/sin^2 :meth:`TransitionTable.pattern` of
the spectrum, and keeps the CPT route (:func:`transition_table`) as its check.
"""

import math
from itertools import chain, repeat

import numpy as np

from .errors import BrokenPTError, ConstructionError, NumericalError, PtoscError
from .coperator import COperator, stacked_C
from .linalg import DEFAULT_TOL
from .symmetry import SymmetryPair

#: Probabilities below this are clamped to zero in emitted tables.
CLAMP = 1e-14

ROW_SUM_TOL = 1e-10

#: Rows a table makes and formats at once; bounds the per-block temporaries.
BLOCK_ROWS = 4096

_CSV_HEADER = ",".join(["t"] + [f"P{i}{j}" for i in range(1, 5) for j in range(1, 5)]) + "\n"
# "%.12g" % x is f"{x:.12g}"; for finite floats "%r" % x is what json.dumps writes.
_JSON_TIME = "    %s"
_JSON_MATRIX = "    [\n" + ",\n".join(["      [\n" + ",\n".join(["        %s"] * 4) + "\n      ]"] * 4) + "\n    ]"

# A pattern block holds t, c1, s1, c2 and s2, the cos^2 and sin^2 of two flavour half-gaps.
# Per cell P11 ... P44: its column, or None for +0.0; shared, c2 and s2 are c1 and s1 in bits.
_PATTERN = (1, None, 2, None, None, 3, None, 4, 2, None, 1, None, None, 4, None, 3)
_PATTERN_SHARED = tuple(k if k is None or k < 3 else k - 2 for k in _PATTERN)
_ALL = tuple(range(1, 17))  # the cells of a block of t and all 16 probabilities


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` have one shape and equal bits, compared as
    int64 views (so -0.0 differs from 0.0)."""
    return a is b or a.shape == b.shape and bool((a.view(np.int64) == b.view(np.int64)).all())


_POW10 = np.array([float(10**k) for k in range(23)])  # each exact
_OFFSET = np.arange(23) * 2.0**40 - 2.0**52


def _keys(values: np.ndarray, spec: str) -> np.ndarray:
    """Int64 keys of finite ``values``: cells with equal keys print alike under ``spec``.

    A key is the value's bits (-0.0 is not 0.0) or, under ``%.12g`` where it
    is proven, the 12-digit rounding N 10^-k: with k = 11 - floor(log10 x),
    clipped to [0, 22] so that 10^k is exact, f = x 10^k must lie in
    [1e11, 1e12) and round to N < 1e12 from more than 1e-3 off a half-integer.
    f is exact to 2^-14, so N is the 12-digit rounding of x.  Any other k (an
    inexact log10, x = 0 or x < 0) fails the range checks.  These keys,
    N + k 2^40 - 2^52, are bits of negative NaNs, which no finite value has.
    """
    keys = values.view(np.int64)
    if spec == "%r":
        return keys
    keys = keys.copy()
    with np.errstate(all="ignore"):
        # log2, not log10: numpy's log10 loop runs nowhere else in ptosc, and
        # paging it in raised the peak RSS of a sweep process by about 0.25 MB
        k = (11.0 - np.floor(np.log2(values) * math.log10(2.0))).astype(np.intp)
        f = values * _POW10.take(k, mode="clip")
        n = np.rint(f)
        ok = (f >= 1e11) & (n < 1e12) & (np.abs(f - n) < 0.499)
        np.copyto(keys, n + _OFFSET.take(k, mode="clip"), casting="unsafe", where=ok)
    return keys


def _texts(values: np.ndarray, spec: str) -> list:
    """``[spec % x for x in values.ravel()]``: ``%.12g`` in one ``%``, and ``%r`` by
    ``repr``, which is faster than its ``%`` (4.3 against 4.9 ms per 8,201 values)."""
    if spec == "%r":
        return list(map(repr, values.ravel().tolist()))
    return ((spec + "\n") * values.size % tuple(values.ravel().tolist())).splitlines()


def _columns(block: np.ndarray, spec: str, previous=None) -> tuple:
    """The ``spec`` texts of one block, an object array of its transpose, and
    its (sorted keys, texts) for the next block.  Cells of one :func:`_keys`
    key print alike, so each key is formatted once, in one :func:`_texts`,
    unless ``previous``, the (sorted keys, texts) of the block written before, holds it."""
    # column by column, so that a column's sorted or mirrored runs stay runs for the sort
    values = block.T.ravel()
    keys = _keys(values, spec)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    unique, inverse = ordered[first], np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    if previous is None:
        texts, new = np.empty(len(unique), dtype=object), slice(None)
    else:
        old, old_texts = previous
        at = np.searchsorted(old, unique)
        # a key past the last old one meets the last, which differs from it
        texts, new = old_texts.take(at, mode="clip"), old.take(at, mode="clip") != unique
    fresh = _texts(values[order[first][new]], spec)
    texts[new] = np.fromiter(fresh, dtype=object, count=len(fresh))
    return texts[inverse].reshape(block.shape[::-1]), (unique, texts)


def _fill(template: str, cells: np.ndarray, place, lead: str) -> str:
    """``lead``, then a row of ``template`` per column of ``cells``, joined by ``",\\n"``, its
    ``%s`` slots taking the texts of the rows ``place`` names in turn, a None's as ``0.0``:
    one join of the texts and the constant text between them, which one ``%`` takes twice as long to fill."""
    gaps, cols = template.split("%s"), cells.tolist()
    # the constant text before each live slot, and after the last, a None's 0.0 folded in
    *consts, end = (gaps[0] + "".join(("0.0" if j is None else "%s") + gap for j, gap in zip(place, gaps[1:]))).split("%s")
    streams = [each for const, j in zip(consts, [j for j in place if j is not None]) for each in (repeat(const), cols[j])]
    # the first row opens with lead, and each later one with the end of the row before and ",\n"
    streams[0] = [lead + consts[0], *repeat(end + ",\n" + consts[0], cells.shape[1] - 1)]
    return "".join(chain.from_iterable(zip(*streams))) + end


def _csv_rows(cells: np.ndarray, place) -> str:
    """A row per column of ``cells`` of the rows ``place`` names, a None's as ``0``, each ending in a newline."""
    cols, zeros = cells.tolist(), ["0"] * cells.shape[1]
    return "\n".join([*map(",".join, zip(*(zeros if j is None else cols[j] for j in place))), ""])  # the "" ends the last row


def _parts(table, fmt: str) -> list:
    """Per part of the ``fmt`` text, per block: its values and each row slot's column."""
    if fmt == "csv":
        return [((block, (0, *place)) for block, place in table._blocks())]
    probs = ((block[:, 1:], tuple(None if k is None else k - 1 for k in place)) for block, place in table._blocks())
    return [((table.t_grid[s : s + BLOCK_ROWS, None], (0,)) for s in range(0, len(table.t_grid), BLOCK_ROWS)), probs]


def _text(fmt: str, parts: list):
    """The ``fmt`` text, chunk by chunk, from (texts, slot columns) per block per part."""
    json = fmt == "json"
    for i, blocks in enumerate(parts):
        yield ('{\n  "t_grid": [\n', '\n  ],\n  "probs": [\n')[i] if json else _CSV_HEADER
        for k, (cells, place) in enumerate(blocks):
            # in texts of a quarter block: a 1 MB text costs more in page faults than its join
            for s in range(0, cells.shape[1], BLOCK_ROWS // 4):
                quarter = cells[:, s : s + BLOCK_ROWS // 4]
                yield _fill((_JSON_TIME, _JSON_MATRIX)[i], quarter, place, ",\n" * (k + s > 0)) if json else _csv_rows(quarter, place)
    if json:
        yield "\n  ]\n}\n"


def _write(table, fmt: str, reuse: dict | None, write) -> str:
    """The ``fmt`` text of ``table``, or "" once ``write`` has had it (``TransitionTable.to_csv``)."""
    spec = "%.12g" if fmt == "csv" else "%r"
    previous = None if reuse is None else reuse.pop(fmt, None)
    parts = _parts(table, fmt)
    if reuse is None or len(table.t_grid) > BLOCK_ROWS:
        chunks = _text(fmt, [((_columns(v, spec)[0], place) for v, place in part) for part in parts])
    else:
        parts = [next(part) for part in parts]
        olds = [None] * len(parts) if previous is None else previous[0]
        if previous is not None and all(place == old[1] and _bit_equal(v, old[0]) for (v, place), old in zip(parts, olds)):
            reuse[fmt] = previous
        else:
            del previous  # the old text is not held while the new one is made
            made = [(v, place, _columns(v, spec, old and old[2])) for (v, place), old in zip(parts, olds)]
            text = "".join(_text(fmt, [[(cells, place)] for _, place, (cells, _) in made]))
            reuse[fmt] = ([(v, place, known) for v, place, (_, known) in made], text)
        chunks = [reuse[fmt][1]]
    if write is None:
        return "".join(chunks)
    for chunk in chunks:
        write(chunk)
    return ""


def _stats(probs: np.ndarray) -> tuple:
    """(max |row sum - 1|, min, max) of (rows, 4, 4) probabilities, summed in probs.sum(axis=2)'s order."""
    sums = ((probs[..., 0] + probs[..., 1]) + probs[..., 2]) + probs[..., 3]
    return float(np.max(np.abs(sums - 1.0), initial=0.0)), float(probs.min(initial=np.inf)), float(probs.max(initial=-np.inf))


def _check(t: np.ndarray, stats: list) -> None:
    """Refuse a table of times ``t`` whose blocks have these :func:`_stats`."""
    if len(t) == 0:
        raise NumericalError("transition table has no time points")
    if not np.isfinite(t).all():
        raise NumericalError("transition table times are not finite")
    worst, lo, hi = np.array(stats).T
    if not worst.max() <= ROW_SUM_TOL:
        raise NumericalError("transition rows are not stochastic", residual=float(worst.max()))
    if lo.min() < -ROW_SUM_TOL or hi.max() > 1 + ROW_SUM_TOL:
        raise NumericalError("transition probabilities leave [0, 1]")


def _clamp(probs: np.ndarray) -> np.ndarray:
    """``probs`` clipped to [0, 1] and entries below :data:`CLAMP` set to 0, in place."""
    np.clip(probs, 0.0, 1.0, out=probs)
    np.putmask(probs, probs < CLAMP, 0.0)
    return probs


def _half_gaps(values: np.ndarray) -> np.ndarray:
    """Flavours pair eigenkets (1,3) and (2,4), which oscillate with half their gap."""
    return 0.5 * (np.real(values[2:]) - np.real(values[:2]))


def _pattern_block(t: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """The (rows, 5) array of the times ``t``, then c1, s1, c2 and s2, unclamped."""
    phase = np.outer(t, gaps)
    cos, sin = np.cos(phase), np.sin(phase)
    block = np.empty((len(t), 5))
    block[:, 0], block[:, 1::2], block[:, 2::2] = t, cos * cos, sin * sin
    return block


def _placed(block: np.ndarray) -> tuple:
    """A clamped copy of a pattern block and its cells' columns; c2 and s2
    share the texts of c1 and s1 where they are equal in bits."""
    block = np.concatenate([block[:, :1], _clamp(block[:, 1:].copy())], axis=1)
    return (block[:, :3], _PATTERN_SHARED) if _bit_equal(block[:, 3:], block[:, 1:3]) else (block, _PATTERN)


def _expand(block: np.ndarray, place) -> np.ndarray:
    """The (rows, 16) probabilities of a block: each cell from its column, or +0.0."""
    return np.concatenate([block, np.zeros((len(block), 1))], axis=1)[:, [-1 if k is None else k for k in place]]


class TransitionTable:
    """P(f_i -> f_j) on a time grid; every row sums to 1.

    ``probs[k]`` is the 4x4 matrix at ``t_grid[k]`` with rows indexed by the
    initial flavour.  Construction rejects an empty grid and any non-finite
    time or probability, enforces row-stochasticity to 1e-10 and clamps
    entries below 1e-14 to exactly 0.  A :meth:`pattern` table holds only
    its grid and half-gaps; it forms its probabilities on demand."""

    def __init__(self, t_grid, probs):
        probs = np.array(probs, dtype=float)
        if probs.shape != (len(t_grid), 4, 4):
            raise NumericalError(f"probability array shape {probs.shape} != ({len(t_grid)}, 4, 4)")
        self.t_grid, self._gaps, self._one = np.asarray(t_grid, dtype=float), None, None
        _check(self.t_grid, [_stats(probs)])
        self._probs = _clamp(probs)

    @classmethod
    def pattern(cls, values: np.ndarray, t_grid) -> "TransitionTable":
        """``TransitionTable(t_grid, analytic_pattern(values, t_grid))``, made,
        checked and clamped block by block to the same floats.  A table of
        one block keeps it, unclamped and placed, for every write."""
        table, stats = cls.__new__(cls), []
        table.t_grid, table._probs, table._gaps, table._one = np.asarray(t_grid, dtype=float), None, _half_gaps(values), None
        for block in table._unclamped():
            stats.append(_stats(_expand(block, _PATTERN).reshape(-1, 4, 4)))
        _check(table.t_grid, stats)
        table._one = (block, _placed(block)) if len(table.t_grid) <= BLOCK_ROWS else None
        return table

    def _unclamped(self):
        """The unclamped pattern blocks of a :meth:`pattern` table."""
        t = self.t_grid
        return [self._one[0]] if self._one is not None else (_pattern_block(t[s : s + BLOCK_ROWS], self._gaps) for s in range(0, len(t), BLOCK_ROWS))

    def _blocks(self):
        """Per block of ``BLOCK_ROWS`` rows: its times and probability columns,
        and each cell's column (:data:`_PATTERN`)."""
        t = self.t_grid
        if self._probs is not None:
            rows = self._probs.reshape(len(t), 16)
            return ((np.concatenate([t[s : s + BLOCK_ROWS, None], rows[s : s + BLOCK_ROWS]], axis=1), _ALL) for s in range(0, len(t), BLOCK_ROWS))
        return [self._one[1]] if self._one is not None else map(_placed, self._unclamped())

    @property
    def probs(self) -> np.ndarray:
        """The (T, 4, 4) probabilities; a pattern table forms them anew."""
        return self._probs if self._probs is not None else np.concatenate([_expand(b, p) for b, p in self._blocks()]).reshape(-1, 4, 4)

    def to_csv(self, reuse: dict | None = None, write=None) -> str:
        """CSV with header t,P11,...,P44 and 12-significant-digit floats, each block's
        distinct texts formatted once by :func:`_columns`.  With ``write``, the text goes
        to it block by block and "" is returned.  ``reuse``, a dict shared by the calls
        writing a sequence of tables, holds the last one-block table: the next takes
        its whole text if bit-equal to it, else each text it holds."""
        return _write(self, "csv", reuse, write)

    def to_json(self, reuse: dict | None = None, write=None) -> str:
        """The table as ``json.dumps`` writes ``{"t_grid": times, "probs": (T, 4, 4)
        lists}`` with ``indent=2``, and a final newline: the times, then the
        probabilities, each as in :meth:`to_csv`, with ``%r``."""
        return _write(self, "json", reuse, write)

    def to_json_dict(self) -> dict:
        return {"t_grid": self.t_grid.tolist(), "probs": self.probs.tolist()}


def _real_phases(values: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """The real spectrum, once it is known to be real and lambda * t finite on ``t_grid``."""
    if np.max(np.abs(np.imag(values))) > 1e-12 * max(1.0, float(np.max(np.abs(values)))):
        raise BrokenPTError("cannot evolve with a complex spectrum")
    values = np.real(values)
    # Python floats overflow to inf silently, where numpy would warn and fill the table with NaN.
    if not math.isfinite(float(np.abs(values).max()) * float(np.abs(t_grid).max(initial=0.0))):
        raise NumericalError("the phases lambda * t overflow on this time grid")
    return values


def analytic_pattern(values: np.ndarray, t_grid) -> np.ndarray:
    """The unclamped cos^2/sin^2 table of a spectrum's :func:`_half_gaps` on ``t_grid``."""
    return _expand(_pattern_block(np.asarray(t_grid, dtype=float), _half_gaps(values)), _PATTERN).reshape(-1, 4, 4)


def _cpt_bras(sym: SymmetryPair, c: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Rows (C e_j)^dag S: row j times v is the CPT coefficient of v on ket j.
    Works on (N, d, d) stacks of C and kets as well."""
    return (c @ kets).conj().swapaxes(-1, -2) @ sym.s


# flavour ket j is (e_a + sign e_b)/sqrt(2) for a, b, sign = _FIRST[j], _SECOND[j], _SIGN[j]
_R = 1.0 / math.sqrt(2.0)
_FIRST, _SECOND, _SIGN = [0, 1, 0, 1], [2, 3, 2, 3], np.array([1.0, 1.0, -1.0, -1.0])


def _stacked_flavours(sym: SymmetryPair, c_reflected: np.ndarray, kets: np.ndarray, bra_kets: np.ndarray):
    """:func:`standard_flavour_basis` of N points in one pass, on (N, 4, 4)
    stacks of C(-p), K and B: the flavour kets (as columns), the CPT bras
    (C(-p) e_j(-p))^dag S, the Gram defects max |(C(-p) B)^dag S K - 1| and,
    per point, the ConstructionError of a defect above 1e-10, or None."""
    if kets.shape[-1] != 4:
        raise ConstructionError("flavour bases require a 4-level eigensystem")
    bras = _cpt_bras(sym, c_reflected, bra_kets)
    defects = np.abs(bras @ kets - np.eye(4)).max(axis=(1, 2))
    errors = [ConstructionError(f"eigenkets are not CPT-orthonormal (defect {d:.3e})") if d > 1e-10 else None for d in defects.tolist()]
    flavours = _R * (kets[..., _FIRST] + _SIGN * kets[..., _SECOND])
    return flavours, bras, defects, errors


def standard_flavour_basis(sym: SymmetryPair, eigsys, c: COperator) -> np.ndarray:
    """The (4, 4) matrix of flavour kets as columns, f'1 = (e1+e3),
    f'2 = (e2+e4), f'3 = (e1-e3), f'4 = (e2-e4), all over sqrt(2), once the
    Gram matrix (C(-p) B)^dag S K is the identity to 1e-10."""
    flavours, _, _, errors = _stacked_flavours(sym, c.reflected[None], eigsys.K[None], eigsys.B[None])
    if errors[0] is not None:
        raise errors[0]
    return flavours[0]


def _cpt_probs(values: np.ndarray, coeff: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """The unclamped CPT-route probabilities of a real spectrum and its
    coefficients coeff[j, i] = ((e_j | f'_i)), row by row."""
    phases = np.exp(-1j * np.outer(t_grid, values))
    # amp[t, i, m] = sum_j ((f'_m | e_j)) exp(-i lam_j t) ((e_j | f'_i)); rows: initial flavour i.
    # By CPT-Hermiticity ((f'_m | e_j)) = conj(((e_j | f'_m))), so the right factor is conj(coeff).
    # One C-ordered (4T, 4) @ (4, 4) product: a stacked (T, 4, 4) operand costs one BLAS call per time.
    amp = (np.multiply(phases[:, None, :], coeff.T, order="C").reshape(-1, 4) @ coeff.conj()).reshape(-1, 4, 4)
    return np.abs(amp) ** 2


def transition_table(sym: SymmetryPair, flavours: np.ndarray, eigsys, c: COperator, t_grid) -> TransitionTable:
    """P(f_i -> f_j)(t) = |((f'_j | f'_i(t)))|^2 with the CPT inner product;
    ``flavours`` holds the flavour kets as columns."""
    # coeff[j, i] = ((e_j | f'_i)); the bra side is evaluated at -p.
    coeff = _cpt_bras(sym, c.reflected, eigsys.B) @ flavours
    t_grid = np.asarray(t_grid, dtype=float)
    return TransitionTable(t_grid=t_grid, probs=_cpt_probs(_real_phases(eigsys.values, t_grid), coeff, t_grid))


def _default_t_grids(values: np.ndarray, n: int) -> tuple[np.ndarray, list]:
    """:func:`default_t_grid` of N spectra (N, d) in one pass: the (N, n) grids
    and, per spectrum, the ConstructionError of one with no nonzero gap."""
    values = np.sort(np.real(values), axis=1)
    gaps = values[:, 2:] - values[:, :2]
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
    """n uniform points on [0, 2 pi / g], one period of the slowest flavour
    oscillation cos^2(g t / 2): g is the smallest nonzero flavour gap
    lambda[k + 2] - lambda[k] of the sorted spectrum."""
    grids, errors = _default_t_grids(eigsys.values[None], n)
    if errors[0] is not None:
        raise errors[0]
    return grids[0]


def _gated(realizations, t_points: int, t_max, tol: float) -> list:
    """Per realization of one model: its own error, else the PtoscError of
    its first failing gate, else its (spectrum, CPT coefficients
    coeff[j, i] = ((e_j | f'_i)), time grid).  The gates, :func:`build_C`'s
    C^2 and [C, H], the flavour Gram and a ``t_points`` grid on [0, t_max]
    (else :func:`default_t_grid`), run as stacked arrays, each matrix on
    its own, so a point that fails one leaves the others as they are."""
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

    Past the gates of :func:`_gated` the flavour coefficients equal the
    constant flavour matrix F to the Gram tolerance, so the table is
    |F^T e^(-i Lambda t) F|^2, the :meth:`TransitionTable.pattern` of the
    spectrum once it is real with finite phases; the CPT route would add
    only its rounding, of order eps ||C||^2.  A point with the spectrum and
    grid of the last point that got a table, bit for bit, takes that same
    table: sfdm's spectrum is -1, -1, +1, +1 at every point, and the h8
    family's ignores the momentum direction.
    """
    tables, last = [], None
    for point in _gated(realizations, t_points, t_max, tol):
        if isinstance(point, tuple):
            values, _, t_grid = point
            if last is not None and _bit_equal(values, last[0]) and _bit_equal(t_grid, last[1]):
                point = last[2]
            else:
                try:
                    point = TransitionTable.pattern(_real_phases(values, t_grid), t_grid)
                    last = (values, t_grid, point)
                except PtoscError as exc:
                    # without its traceback, the error pins no frame in memory
                    point = exc.with_traceback(None)
        tables.append(point)
    return tables


def golden_table(real, t_points: int, t_max=None, tol: float = DEFAULT_TOL) -> tuple:
    """The table :func:`transition_tables` makes of one realization, and the
    max |CPT route - pattern| over it (``oscillate --golden``), from one
    pass of the gates.  The CPT-route rows are made and checked block by
    block against the table's unclamped columns: the point's error, the CPT
    route's among them, is raised before any table is returned."""
    [point] = _gated([real], t_points, t_max, tol)
    if isinstance(point, PtoscError):
        raise point
    values, coeff, t_grid = point
    values = _real_phases(values, t_grid)
    table, stats, deviation = TransitionTable.pattern(values, t_grid), [], 0.0
    # a quarter block at a time: the page faults of 1 MB temporaries cost more than the product
    for block in (part[s : s + BLOCK_ROWS // 4] for part in table._unclamped() for s in range(0, len(part), BLOCK_ROWS // 4)):
        cpt = _cpt_probs(values, coeff, block[:, 0])
        stats.append(_stats(cpt))
        deviation = max(deviation, float(np.max(np.abs(_clamp(cpt).reshape(-1, 16) - _expand(block, _PATTERN)))))
    _check(t_grid, stats)
    return table, deviation
