"""T-odd (T^2 = -1) PT-symmetric quantum mechanics.

Model Hamiltonians (4D canonical family, generic T-odd block form, 8D Dirac
family), PT/CPT inner products, C-operator construction, Hilbert-space axiom
verification and probability-conserving flavour-oscillation tables.  Each name is imported from its module, as in
``from ptosc.models import ModelSpec``.
"""

__version__ = "0.1.0"
