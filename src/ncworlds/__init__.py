"""Exact non-commutative algebra worlds: free algebra, rewrite quotients,
iterant matrix algebra, shift-operator time series, and constraint checks."""

from .scalar import Scalar
from .ncpoly import G, Generator, NcPoly, commutator
from .quotient import (ABC, FLAT, FLAT_FN, FREE, ReductionError, RewriteSystem,
                       reduce_poly)
from .iterant import IterantElement, Matrix, matrix_decompose, quaternion_table
from .skewdiff import Sequence, SkewElement, Vec3, WindowError, nabla
from .constraints import CPoly, derivative_tower, symmetrize

__version__ = "0.1.0"

__all__ = [
    "Scalar", "G", "Generator", "NcPoly", "commutator", "ABC", "FLAT", "FLAT_FN",
    "FREE", "ReductionError", "RewriteSystem", "reduce_poly", "IterantElement",
    "Matrix", "matrix_decompose", "quaternion_table", "Sequence", "SkewElement",
    "Vec3", "WindowError", "nabla", "CPoly", "derivative_tower", "symmetrize",
    "__version__",
]
