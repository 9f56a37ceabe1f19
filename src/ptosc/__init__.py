"""T-odd (T^2 = -1) PT-symmetric quantum mechanics.

Model Hamiltonians (4D canonical family, generic T-odd block form, 8D Dirac
family), PT/CPT inner products, C-operator construction, Hilbert-space axiom
verification and probability-conserving flavour-oscillation tables.
"""

from .errors import (
    BrokenPTError,
    ConstructionError,
    DegenerateNormError,
    NumericalError,
    ParameterError,
    PtoscError,
    ShapeError,
)
from .linalg import Eigendecomposition, eig_oracle, operator_norm
from .symmetry import SymmetryPair, apply_PT, apply_T, block_pair, canonical_pair, dirac_pair
from .inner import (
    cpt_ip,
    dirac_ip,
    jsm_cs_comparison,
    pt_adjoint,
    pt_ip,
    pt_normalize,
)
from .models import (
    Dirac8Params,
    EigenPair,
    EigenSystem,
    GenericTOddParams,
    ModelSpec,
    SfdmParams,
    effective_mass,
    generic_t_odd_hamiltonian,
    h8_hamiltonian,
    h8r_p0_eigensystem,
    h8v_p0_eigensystem,
    h8v_reduced_eigensystem,
    h8v_reduced_hamiltonian,
    helicity_spinors,
    pt_orthonormal_eigensystem,
    sfdm_eigensystem,
    sfdm_hamiltonian,
)
from .coperator import COperator, build_C, closed_form_C_h8v, completeness_defect
from .oscillate import (
    TransitionTable,
    default_t_grid,
    evolve,
    naive_flavour_B,
    standard_flavour_basis,
    transition_table,
)
from .verify import (
    CheckReport,
    Realization,
    check_alpha_beta_conditions,
    check_generator_constraints,
    check_pseudo_hermiticity,
    check_pt_commute,
    check_real_spectrum,
    realize,
    run_full_suite,
)

__version__ = "0.1.0"
