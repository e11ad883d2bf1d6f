"""Finite Weyl-Heisenberg groups, Clifford representations, and SIC fiducials.

Submodules:
    dims       dimension bookkeeping and root-of-unity phases
    weyl       the displacement operators of H(N), exactly
    clifford   symplectic matrices, metaplectic unitaries, order-3 symmetry
    monomial   phase-permutation representation in square dimensions
    adapted16  the N = 16 adapted basis and closed-form fiducial coefficients
    sic        fiducial constructions (N = 4, 9, 16), verification, search
    mub        Latin-square unbiased bases in square dimensions
    crt        Chinese-remainder factorization of the group representations
    fileio     JSON serialization of fiducials
    cli        command-line interface
"""

__version__ = "0.1.0"

from .dims import Dimension
from .errors import WhsicError

__all__ = ["Dimension", "WhsicError", "__version__"]
