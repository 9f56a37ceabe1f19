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

from .errors import BrokenPTError, ConstructionError, NumericalError
from .coperator import COperator
from .linalg import as_cvector
from .symmetry import SymmetryPair

#: Probabilities below this are clamped to zero in emitted tables.
CLAMP = 1e-14

ROW_SUM_TOL = 1e-10


@dataclass(frozen=True)
class FlavourBasis:
    """Four CPT-orthonormal flavour kets and the eigen/flavour mixing matrix.

    ``mixing[l, j]`` is the coefficient of flavour ket j in eigenket l, so
    for the standard basis it is a (1/sqrt(2))-scaled signed permutation.
    """

    kets: tuple[np.ndarray, ...]
    mixing: np.ndarray


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


def _require_real_spectrum(eigsys) -> np.ndarray:
    values = eigsys.values
    if np.max(np.abs(np.imag(values))) > 1e-12 * max(1.0, float(np.max(np.abs(values)))):
        raise BrokenPTError("cannot evolve with a complex spectrum", values)
    return np.real(values)


def _cpt_bras(sym: SymmetryPair, c: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Rows (C e_j)^dag S: row j times v is the CPT coefficient of v on ket j."""
    return (c @ kets).conj().T @ sym.s


def evolve(sym: SymmetryPair, eigsys, c: COperator, v, t: float) -> np.ndarray:
    """U(t) v = sum_j exp(-i lam_j t) c_j e_j with CPT coefficients c_j = (C e_j)^dag S v."""
    values = _require_real_spectrum(eigsys)
    coeffs = _cpt_bras(sym, c.matrix, eigsys.K) @ as_cvector(v, sym.dim)
    return eigsys.K @ (np.exp(-1j * values * t) * coeffs)


def standard_flavour_basis(sym: SymmetryPair, eigsys, c: COperator) -> FlavourBasis:
    """The (e1 +/- e3)/sqrt(2), (e2 +/- e4)/sqrt(2) flavour combinations.

    Validates that the input eigenkets are CPT-orthonormal (to 1e-10): the
    Gram matrix (C(-p) B)^dag S K is the identity.  Returns kets ordered
    f'1 = (e1+e3), f'2 = (e2+e4), f'3 = (e1-e3), f'4 = (e2-e4), all over
    sqrt(2).
    """
    if len(eigsys.pairs) != 4:
        raise ConstructionError("flavour bases require a 4-level eigensystem")
    gram = _cpt_bras(sym, c.reflected, eigsys.B) @ eigsys.K
    defect = float(np.max(np.abs(gram - np.eye(4))))
    if defect > 1e-10:
        raise ConstructionError(f"eigenkets are not CPT-orthonormal (defect {defect:.3e})")
    r = 1.0 / math.sqrt(2.0)
    combos = ((0, 2, 1.0), (1, 3, 1.0), (0, 2, -1.0), (1, 3, -1.0))
    kets = tuple(r * (eigsys.kets[a] + sgn * eigsys.kets[b]) for a, b, sgn in combos)
    # mixing[l, j]: coefficient of flavour ket j in eigenket l
    # e1 = (f'1 + f'3)/sqrt(2), e3 = (f'1 - f'3)/sqrt(2), similarly e2/e4.
    mixing = r * np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]], dtype=complex
    )
    return FlavourBasis(kets=kets, mixing=mixing)


def transition_table(sym: SymmetryPair, basis: FlavourBasis, eigsys, c: COperator, t_grid) -> TransitionTable:
    """P(f_i -> f_j)(t) = |((f'_j | f'_i(t)))|^2 with the CPT inner product."""
    values = _require_real_spectrum(eigsys)
    # coeff[j, i] = ((e_j | f'_i)); the bra side is evaluated at -p.
    coeff = _cpt_bras(sym, c.reflected, eigsys.B) @ np.column_stack(basis.kets)
    # CPT-Hermiticity: ((f'_m | e_j)) = conj(((e_j | f'_m))).
    bra = coeff.conj().T
    t_grid = np.asarray(t_grid, dtype=float)
    # Python floats overflow to inf silently, where numpy would warn and fill the table with NaN.
    if not math.isfinite(float(np.abs(values).max()) * float(np.abs(t_grid).max(initial=0.0))):
        raise NumericalError("the phases lambda * t overflow on this time grid")
    phases = np.exp(-1j * np.outer(t_grid, values))
    # amp[t, i, m] = sum_j ((f'_m | e_j)) exp(-i lam_j t) ((e_j | f'_i)); rows: initial flavour i.
    # One (4T, 4) @ (4, 4) product: a stacked (T, 4, 4) operand costs one BLAS call per time.
    amp = ((phases[:, None, :] * coeff.T).reshape(-1, 4) @ bra.T).reshape(-1, 4, 4)
    return TransitionTable(t_grid=t_grid, probs=np.abs(amp) ** 2)


def naive_flavour_B(sym: SymmetryPair, eigsys, c: COperator) -> np.ndarray:
    """B_jk = sum_l alpha_lj conj(alpha_lk) for coordinate flavour kets.

    alpha_lk is the CPT coefficient of the k-th coordinate basis vector on
    eigenket l.  B equals the identity only when the eigenbasis is
    Dirac-orthonormal; its deviation from 1 quantifies the failure of the
    canonical completeness relation in the coordinate flavour basis.
    """
    alpha = _cpt_bras(sym, c.matrix, eigsys.K)
    return alpha.T @ alpha.conj()


def default_t_grid(eigsys, n: int = 64) -> np.ndarray:
    """64 uniform points on [0, 2 pi / min_gap] (one full oscillation period)."""
    values = np.sort(np.real(eigsys.values))
    gaps = np.diff(values)
    gaps = gaps[gaps > 1e-12 * max(1.0, float(np.max(np.abs(values))))]
    if len(gaps) == 0:
        raise ConstructionError("spectrum has no nonzero gap; no oscillation period")
    return np.linspace(0.0, 2.0 * math.pi / float(gaps.min()), n)
