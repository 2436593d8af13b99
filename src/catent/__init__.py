"""catent: exact-arithmetic certificates for categorical-entropy gaps.

Computes lower bounds for the entropy of twist-type autoequivalence words on
lattice/dimension-level models of derived categories, together with the exact
spectral radius of the induced lattice action, and reports whether the
Gromov-Yomdin equality ``h_cat = log rho`` is violated.
"""

__version__ = "0.1.0"

from .errors import (
    CollapseError,
    ContractError,
    EngineError,
    InputError,
    NumericError,
)
from .graded import GradedDimInterval, cone_bounds
from .lattice import (
    BilinearLattice,
    IntPolynomial,
    SquareIntMatrix,
    char_poly,
    is_unipotent,
    spectral_radius,
)
from .twists import (
    BoundSeries,
    HKModel,
    entropy_lower_bound,
    ext_growth_series,
    gy_verdict,
    spherical_twist_series,
)
from .words import (
    Verdict,
    certify_log_rho,
    derive_verdict,
    induced_matrix,
)

__all__ = [
    "__version__",
    "EngineError",
    "InputError",
    "NumericError",
    "ContractError",
    "CollapseError",
    "BilinearLattice",
    "SquareIntMatrix",
    "IntPolynomial",
    "char_poly",
    "spectral_radius",
    "is_unipotent",
    "GradedDimInterval",
    "cone_bounds",
    "induced_matrix",
    "certify_log_rho",
    "derive_verdict",
    "Verdict",
    "HKModel",
    "BoundSeries",
    "ext_growth_series",
    "entropy_lower_bound",
    "gy_verdict",
    "spherical_twist_series",
]
