"""Exact-arithmetic semigroup expansions of finite-dimensional Lie algebras.

Everything is computed over the rationals: expansions, zero reductions,
resonant subalgebras, contraction limits along Laurent-polynomial basis
families, and a classifier of real 3-dim Lie algebras that returns a
verified change of basis onto the canonical form of each class.
"""

from .contraction import (BUILTIN_FAMILIES, Divergent, LaurentBasisFamily,
                          LaurentPoly, U_FE, limit, resolve_family,
                          transform_parametric, verify_contraction)
from .errors import (InputFormatError, LiexError, NoZeroElementError,
                     NotALieAlgebraError, NotASemigroupError,
                     NotASubalgebraError, NotReducibleError, NotResonantError,
                     ParameterNotRationalError, RationalFormError)
from .expansion import (ResonanceSpec, extract_subalgebra, flat_index,
                        parse_span, reduce_decomposition, resonant_reduction,
                        resonant_subalgebra, s_expand, split_index,
                        validate_resonance, zero_reduce)
from .identify import (CARTAN_DIMENSION, Identification, InvariantSignature,
                       are_isomorphic, identify3, signature)
from .liealg import (CATALOG_NAMES, StructureTensor, Subspace, ad_matrix,
                     bracket, catalog, center, change_basis,
                     derivation_algebra, derived_series, derived_subalgebra,
                     is_unimodular, killing_form, lower_central_series,
                     make_label, nilpotency_degree, parse_label,
                     resolve_algebra, solvability_degree, validate_lie)
from .search import (SearchResult, Witness, connectivity_matrix,
                     connectivity_to_dot, connectivity_to_json,
                     find_connection, replay, semigroup_inventory)
from .semigroup import (BUILTIN_SEMIGROUPS, BoundExceededError, S2, S3,
                        SemigroupTable, TRIVIAL, canonical_form,
                        enumerate_abelian_semigroups, semigroups_isomorphic,
                        validate_semigroup, zero_element)

__version__ = "0.1.0"
