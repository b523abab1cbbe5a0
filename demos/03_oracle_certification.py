"""Certify a decomposition with the exhaustive staircase oracle.

The oracle never trusts the engines: it fills a finite box with the ideal
membership indicator, reads the staircase basis (the monomials outside the
ideal), and recovers each component as a maximal basis point shifted up by
one in every coordinate.  The box is rank-compressed: each variable's axis
holds only 0 and that variable's distinct degrees among the generators, so
large exponents cost no more than small ones.
"""

import numpy as np

from monideal import (ComponentSet, GeneratorSet, INF, components_generate,
                      decompose_incremental, decompose_oracle)
from monideal.oracle import _indicator, _rank_axes, maximal_points

g = GeneratorSet.from_vectors(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2)],
                              names=("x", "y", "z"))

# z has a pure power; the closure injects x^inf and y^inf, which fill no cell.
art = g.closure
print("closure generators:", art.gens)
axes, rank = _rank_axes(art.n, art.gens, budget=1000)
box = _indicator(map(rank, art.gens), tuple(map(len, axes)))  # True inside the ideal
print("axes (0 and the distinct degrees of x, y, z):", axes)
print("box cells:", box.size)
print("basis points, as ranks:", [tuple(p) for p in np.argwhere(~box).tolist()])
points = maximal_points(box)
print("maximal basis points, as ranks:", points)

# A maximal point k gives the component with degree axes[j][k_j + 1] in
# each variable, and inf past the end of an axis: no pure power bounds it.
tops = [axis + [INF] for axis in axes]
print("their components:", [tuple(top[k + 1] for top, k in zip(tops, p)) for p in points])
print("decompose_oracle:", list(decompose_oracle(g)))
comps = decompose_incremental(g)
print("incremental engine:", list(comps))

# The certificate re-checks every box point both ways.
print("components generate the ideal:", components_generate(comps, g))

# Drop one component and the certificate fails.
broken = ComponentSet.from_vectors(3, comps.comps[1:])
print("after dropping one component:", components_generate(broken, g))

# A staircase basis is downward closed; look at the z = 0 slab.
print("\nz = 0 slab of the basis indicator, as ranks:")
print(np.array(~box[:, :, 0], dtype=int))
