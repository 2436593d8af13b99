"""catent: exact-arithmetic certificates for categorical-entropy gaps.

Computes lower bounds for the entropy of twist-type autoequivalence words on
lattice/dimension-level models of derived categories, together with the exact
spectral radius of the induced lattice action, and reports whether the
Gromov-Yomdin equality ``h_cat = log rho`` is violated.

Each name is imported from the module that defines it, for example
``from catent.twists import HKModel, gy_verdict``; importing the package
alone loads no engine module.
"""

__version__ = "0.1.0"
