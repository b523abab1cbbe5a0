"""Certify a decomposition with the exhaustive staircase oracle.

The oracle never trusts the engines: it fills a finite box with the ideal
membership indicator, reads the staircase basis (the monomials outside the
ideal), and recovers each component as a maximal basis point shifted up by
one in every coordinate.
"""

import numpy as np

from monideal import (GeneratorSet, artinianize, components_generate,
                      decompose_incremental)
from monideal.oracle import maximal_points, staircase

g = GeneratorSet.from_vectors(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2)],
                              names=("x", "y", "z"))

art = artinianize(g)
box = staircase(art)  # box[gamma] is True iff X^gamma lies in the ideal
print("closure bounds:", art.bounds)
print("basis points (monomials outside the ideal):",
      [tuple(p) for p in np.argwhere(~box).tolist()])
print("maximal basis points:", maximal_points(box))

# Shift each maximal point up by one and map injected bounds to inf:
comps = decompose_incremental(g)
print("components:", list(comps))

# The certificate re-checks every box point both ways.
print("components generate the ideal:", components_generate(comps, g))

# Drop one component and the certificate fails.
from monideal import ComponentSet
broken = ComponentSet.from_vectors(3, comps.comps[1:])
print("after dropping one component:", components_generate(broken, g))

# A staircase basis is downward closed; look at the z = 0 slab.
free = ~box
print("\nz = 0 slab of the basis indicator:")
print(np.array(free[:, :, 0], dtype=int))
