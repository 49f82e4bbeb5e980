"""Exact arithmetic for the q-stuffle Hopf algebra.

Words over the infinite alphabet {y_s : s >= 1} (with y_1 largest), sparse
noncommutative polynomials over Q[q], the q-stuffle product and its dual
coproduct, Lyndon-word combinatorics, the primitive projector, and the
effective construction of dual graded bases with verification of the
Schützenberger factorization -- everything computed exactly.
"""

from ._version import __version__
from .coeff import QPoly
from .words import (weight, word_less, words_of_weight, word_to_str,
                    word_from_str)
from .ncpoly import NCPoly, Tensor2, word_poly
from .lyndon import (is_lyndon, lyndon_of_weight, cfl_factorization,
                     standard_factorization, converse_tree)
from .ops import (stuffle, shuffle, stuffle_poly, shuffle_poly,
                  stuffle_coproduct, deconcat_coproduct, is_primitive)
from .eulerian import primitive_projector, diagonal_series, reconstruct
from .bases import (pbw_element, dual_pbw_oracle, dual_pbw_element,
                    lyndon_stuffle_element, basis_by_kind, GradedBasis,
                    verify_duality, verify_factorization, verify_primitivity)

__all__ = [
    "__version__", "QPoly", "NCPoly", "Tensor2", "word_poly",
    "weight", "word_less", "words_of_weight", "word_to_str", "word_from_str",
    "is_lyndon", "lyndon_of_weight", "cfl_factorization",
    "standard_factorization", "converse_tree", "stuffle", "shuffle",
    "stuffle_poly", "shuffle_poly", "stuffle_coproduct",
    "deconcat_coproduct", "is_primitive", "primitive_projector",
    "diagonal_series", "reconstruct", "pbw_element", "dual_pbw_oracle",
    "dual_pbw_element", "lyndon_stuffle_element", "basis_by_kind",
    "GradedBasis", "verify_duality", "verify_factorization",
    "verify_primitivity",
]
