"""Irreducible decomposition of monomial ideals.

Two fast engines (staircase-recursive and incremental) plus a brute-force
staircase oracle that certifies them.  All objects are immutable exponent
combinatorics; no polynomial arithmetic and no coefficient field anywhere.
The package root holds the engines, the value types, the file formats, the
certificate and the generator; everything else is imported from its module.
"""

from .core import ComponentSet, GeneratorSet, INF, artinianize
from .counting import OpCounter
from .files import (FormatError, emit_components, emit_ideal,
                    parse_components, parse_ideal)
from .incremental import decompose_incremental
from .oracle import BudgetError, components_generate, decompose_oracle
from .randgen import gen_random
from .recursive import decompose_recursive

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "ComponentSet", "FormatError", "GeneratorSet", "INF",
    "OpCounter", "artinianize", "components_generate",
    "decompose_incremental", "decompose_oracle", "decompose_recursive",
    "emit_components", "emit_ideal", "gen_random", "parse_components",
    "parse_ideal",
]
