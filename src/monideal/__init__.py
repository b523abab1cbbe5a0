"""Irreducible decomposition of monomial ideals.

Two fast engines (staircase-recursive and incremental) plus a brute-force
staircase oracle that certifies them.  All objects are immutable exponent
combinatorics; no polynomial arithmetic and no coefficient field anywhere.
"""

from .core import (ArtinianizedIdeal, ComponentSet, GeneratorSet, INF,
                   artinianize, deartinianize, ideal_intersection, ideal_sum,
                   increment, is_generic, lcm_vector, leq, lex_key,
                   maximalize, minimalize, replace_coord, strictly_below)
from .counting import OpCounter
from .files import (FormatError, emit_components, emit_ideal,
                    parse_components, parse_ideal)
from .incremental import (DegreeIndex, IncrementalState, TraceStep,
                          build_degree_index, decompose_incremental,
                          dividing_generators, lowering_limits,
                          match_variables, partition_components)
from .oracle import (BudgetError, DEFAULT_BUDGET, StaircaseBox,
                     components_generate, decompose_oracle, ideals_equal,
                     irr_oracle, maximal_points, staircase)
from .randgen import gen_random
from .recursive import (adjoin, decompose_bivariate, decompose_recursive,
                        decompose_trie, difference, slice_chain)

__version__ = "0.1.0"

__all__ = [
    "ArtinianizedIdeal", "BudgetError", "ComponentSet", "DEFAULT_BUDGET",
    "DegreeIndex", "FormatError", "GeneratorSet", "INF", "IncrementalState",
    "OpCounter", "StaircaseBox", "TraceStep", "adjoin", "artinianize",
    "build_degree_index", "components_generate", "deartinianize",
    "decompose_bivariate", "decompose_incremental", "decompose_oracle",
    "decompose_recursive", "decompose_trie", "difference",
    "dividing_generators", "emit_components", "emit_ideal", "gen_random",
    "ideal_intersection", "ideal_sum", "ideals_equal", "increment",
    "irr_oracle", "is_generic", "lcm_vector", "leq", "lex_key",
    "lowering_limits", "match_variables", "maximal_points", "maximalize",
    "minimalize", "parse_components", "parse_ideal", "partition_components",
    "replace_coord", "slice_chain", "staircase", "strictly_below",
]
