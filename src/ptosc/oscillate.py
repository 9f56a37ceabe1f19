"""Flavour bases, spectral time evolution and transition-probability tables.

Flavour states are the equal-weight superpositions of negative- and
positive-eigenvalue kets (f'1 = (e1 + e3)/sqrt(2), ...).  Evolution is
spectral — exact for diagonalizable H — and probabilities are squared CPT
amplitudes, which makes every table row-stochastic.  ``naive_flavour_B``
reproduces the diagnostic showing that coordinate-basis flavour kets fail
the canonical completeness relation (B != 1 generically).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BrokenPTError, ConstructionError, NumericalError, PtoscError
from .coperator import COperator, stacked_C
from .linalg import DEFAULT_TOL, as_cvector
from .symmetry import SymmetryPair

#: Probabilities below this are clamped to zero in emitted tables.
CLAMP = 1e-14

ROW_SUM_TOL = 1e-10


# e1 = (f'1 + f'3)/sqrt(2), e3 = (f'1 - f'3)/sqrt(2), similarly e2/e4.
_R = 1.0 / math.sqrt(2.0)
_MIXING = _R * np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]], dtype=complex)
_MIXING.flags.writeable = False


@dataclass(frozen=True)
class FlavourBasis:
    """Four CPT-orthonormal flavour kets and the eigen/flavour mixing matrix.

    ``mixing[l, j]`` is the coefficient of flavour ket j in eigenket l, the
    same (1/sqrt(2))-scaled signed permutation for every standard basis.
    """

    kets: tuple[np.ndarray, ...]
    mixing = _MIXING


#: Rows formatted by one ``%`` operation; bounds the per-block temporaries.
BLOCK_ROWS = 4096

_CSV_HEADER = ",".join(["t"] + [f"P{i}{j}" for i in range(1, 5) for j in range(1, 5)]) + "\n"
# "%.12g" % x is f"{x:.12g}"; for finite floats "%r" % x is what json.dumps writes.
_CSV_ROW = ",".join(["%.12g"] * 17) + "\n"
_JSON_TIME = "    %r"
_JSON_MATRIX = "    [\n" + ",\n".join(["      [\n" + ",\n".join(["        %r"] * 4) + "\n      ]"] * 4) + "\n    ]"


def _fill(template: str, spec: str, sep: str, rows: np.ndarray) -> str:
    """``sep.join(template % tuple(row) for row in rows)``, one ``%`` per block of rows.

    ``template`` has one ``spec`` slot per column.  A column that is +0.0 in
    every row of a block is written into that block's row template as the
    literal ``spec % 0.0``, so only the live columns are formatted.  -0.0 is
    not folded: it prints with its sign.
    """
    gaps = template.split(spec)
    zero = spec % 0.0
    blocks = []
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start : start + BLOCK_ROWS]
        dead = ((block == 0.0) & ~np.signbit(block)).all(axis=0)
        row = gaps[0] + "".join((zero if d else spec) + gap for d, gap in zip(dead, gaps[1:]))
        blocks.append(sep.join([row] * len(block)) % tuple(block[:, ~dead].ravel().tolist()))
    return sep.join(blocks)


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
        worst = float(np.max(np.abs(probs.sum(axis=2) - 1.0)))
        if not worst <= ROW_SUM_TOL:
            raise NumericalError("transition rows are not stochastic", residual=worst)
        if probs.min() < -ROW_SUM_TOL or probs.max() > 1 + ROW_SUM_TOL:
            raise NumericalError("transition probabilities leave [0, 1]")
        probs = np.clip(probs, 0.0, 1.0)
        probs[probs < CLAMP] = 0.0
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "probs", probs)

    def to_csv(self) -> str:
        """CSV with header t,P11,...,P44 and 12-significant-digit floats."""
        rows = np.column_stack([self.t_grid, self.probs.reshape(len(self.t_grid), 16)])
        return _CSV_HEADER + _fill(_CSV_ROW, "%.12g", "", rows)

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2) + "\\n"``, formatted from a template."""
        times = _fill(_JSON_TIME, "%r", ",\n", self.t_grid[:, None])
        probs = _fill(_JSON_MATRIX, "%r", ",\n", self.probs.reshape(len(self.t_grid), 16))
        return '{\n  "t_grid": [\n%s\n  ],\n  "probs": [\n%s\n  ]\n}\n' % (times, probs)

    def to_json_dict(self) -> dict:
        return {"t_grid": self.t_grid.tolist(), "probs": self.probs.tolist()}


def _real_spectrum(values: np.ndarray) -> np.ndarray:
    if np.max(np.abs(np.imag(values))) > 1e-12 * max(1.0, float(np.max(np.abs(values)))):
        raise BrokenPTError("cannot evolve with a complex spectrum", values)
    return np.real(values)


def _cpt_bras(sym: SymmetryPair, c: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Rows (C e_j)^dag S: row j times v is the CPT coefficient of v on ket j.
    Works on (N, d, d) stacks of C and kets as well."""
    return (c @ kets).conj().swapaxes(-1, -2) @ sym.s


def evolve(sym: SymmetryPair, eigsys, c: COperator, v, t: float) -> np.ndarray:
    """U(t) v = sum_j exp(-i lam_j t) c_j e_j with CPT coefficients c_j = (C e_j)^dag S v."""
    values = _real_spectrum(eigsys.values)
    coeffs = _cpt_bras(sym, c.matrix, eigsys.K) @ as_cvector(v, sym.dim)
    return eigsys.K @ (np.exp(-1j * values * t) * coeffs)


# flavour ket j is (e_a + sign e_b)/sqrt(2) for a, b, sign = _FIRST[j], _SECOND[j], _SIGN[j]
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


def standard_flavour_basis(sym: SymmetryPair, eigsys, c: COperator) -> FlavourBasis:
    """The (e1 +/- e3)/sqrt(2), (e2 +/- e4)/sqrt(2) flavour combinations.

    Validates that the input eigenkets are CPT-orthonormal (to 1e-10): the
    Gram matrix (C(-p) B)^dag S K is the identity.  Returns kets ordered
    f'1 = (e1+e3), f'2 = (e2+e4), f'3 = (e1-e3), f'4 = (e2-e4), all over
    sqrt(2).
    """
    flavours, _, _, errors = _stacked_flavours(sym, c.reflected[None], eigsys.K[None], eigsys.B[None])
    if errors[0] is not None:
        raise errors[0]
    return FlavourBasis(kets=tuple(flavours[0].T))


def _table(values: np.ndarray, coeff: np.ndarray, t_grid: np.ndarray) -> TransitionTable:
    """The table of one point from its spectrum and its coefficients
    coeff[j, i] = ((e_j | f'_i)); the time-sized part of :func:`transition_table`."""
    values = _real_spectrum(values)
    # CPT-Hermiticity: ((f'_m | e_j)) = conj(((e_j | f'_m))).
    bra = coeff.conj().T
    # Python floats overflow to inf silently, where numpy would warn and fill the table with NaN.
    if not math.isfinite(float(np.abs(values).max()) * float(np.abs(t_grid).max(initial=0.0))):
        raise NumericalError("the phases lambda * t overflow on this time grid")
    phases = np.exp(-1j * np.outer(t_grid, values))
    # amp[t, i, m] = sum_j ((f'_m | e_j)) exp(-i lam_j t) ((e_j | f'_i)); rows: initial flavour i.
    # One (4T, 4) @ (4, 4) product: a stacked (T, 4, 4) operand costs one BLAS call per time.
    amp = ((phases[:, None, :] * coeff.T).reshape(-1, 4) @ bra.T).reshape(-1, 4, 4)
    return TransitionTable(t_grid=t_grid, probs=np.abs(amp) ** 2)


def transition_table(sym: SymmetryPair, basis: FlavourBasis, eigsys, c: COperator, t_grid) -> TransitionTable:
    """P(f_i -> f_j)(t) = |((f'_j | f'_i(t)))|^2 with the CPT inner product."""
    # coeff[j, i] = ((e_j | f'_i)); the bra side is evaluated at -p.
    coeff = _cpt_bras(sym, c.reflected, eigsys.B) @ np.column_stack(basis.kets)
    return _table(eigsys.values, coeff, np.asarray(t_grid, dtype=float))


def naive_flavour_B(sym: SymmetryPair, eigsys, c: COperator) -> np.ndarray:
    """B_jk = sum_l alpha_lj conj(alpha_lk) for coordinate flavour kets.

    alpha_lk is the CPT coefficient of the k-th coordinate basis vector on
    eigenket l.  B equals the identity only when the eigenbasis is
    Dirac-orthonormal; its deviation from 1 quantifies the failure of the
    canonical completeness relation in the coordinate flavour basis.
    """
    alpha = _cpt_bras(sym, c.matrix, eigsys.K)
    return alpha.T @ alpha.conj()


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


def transition_tables(sym: SymmetryPair, eigensystems, hamiltonians, t_points: int, t_max=None, tol: float = DEFAULT_TOL) -> list:
    """The table of each of N points, or the PtoscError its first failing
    step raises; the points share ``sym`` and have 4-level eigensystems.

    The steps are those of one point: :func:`build_C` against its
    Hamiltonian, :func:`standard_flavour_basis`, a ``t_points`` time grid
    (on [0, t_max], else :func:`default_t_grid`) and
    :func:`transition_table`.  C, the basis, the grids and the coefficients
    run as stacked arrays over the points still live; only the time-sized
    table is made point by point.
    """
    failed = {}
    live = list(range(len(eigensystems)))

    def keep(errors, *stacks):
        """Record each live point's error and drop those points from ``live`` and the stacks."""
        nonlocal live
        ok = [k for k, exc in enumerate(errors) if exc is None]
        if len(ok) == len(live):
            return stacks
        failed.update((point, exc) for point, exc in zip(live, errors) if exc is not None)
        live = [live[k] for k in ok]
        return [stack[ok] for stack in stacks]

    kets = np.stack([es.K for es in eigensystems])
    bra_kets = np.stack([es.B for es in eigensystems])
    values = np.array([es.values for es in eigensystems])
    c, errors = stacked_C(sym, kets, bra_kets, np.stack(hamiltonians), tol)
    kets, bra_kets, values, c_reflected = keep(errors, kets, bra_kets, values, c.reflected)
    flavours, bras, _, errors = _stacked_flavours(sym, c_reflected, kets, bra_kets)
    flavours, bras, values = keep(errors, flavours, bras, values)
    if t_max is None:
        grids, errors = _default_t_grids(values, t_points)
        grids, flavours, bras, values = keep(errors, grids, flavours, bras, values)
    else:
        grids = np.broadcast_to(np.linspace(0.0, t_max, t_points), (len(live), t_points))
    # coeff[j, i] = ((e_j | f'_i)); the bra side is evaluated at -p.
    rows = zip(values, bras @ flavours, grids)  # the live points, in order
    tables = []
    for point in range(len(eigensystems)):
        if point in failed:
            tables.append(failed[point])
            continue
        try:
            tables.append(_table(*next(rows)))
        except PtoscError as exc:
            # without its traceback, the error keeps no frame alive
            tables.append(exc.with_traceback(None))
    return tables
