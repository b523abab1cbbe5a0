"""Decompose a three-variable staircase step by step.

The ideal generated by x^4, y^4, x^3y^2z^2, xy^3z^2, x^2yz^3 is the running
example of this library: five generators, six irreducible components, two of
them unbounded in z.
"""

from monideal import GeneratorSet, artinianize, decompose_recursive
from monideal.recursive import decompose_trie, slice_chain
from monideal.trie import build, top_slices

gens = [(4, 0, 0), (0, 4, 0), (3, 2, 2), (1, 3, 2), (2, 1, 3)]
g = GeneratorSet.from_vectors(3, gens, names=("x", "y", "z"))

# The generators as a trie: their distinct exponent vectors in lex order,
# which compares z first, then y, then x.
t = build(3, g.gens)
print("generator trie (lex order, z compared first):")
for v in t.vectors:
    print(" ", v)

# Slicing on z groups the generators by their z-degree.  These are the
# coefficient ideals the recursive engine works through; each slice keeps
# its (x, y) vectors in lex order.
print("\nz-degrees and their coefficient vectors:")
for d, sub in top_slices(t):
    print(f"  z^{d}: {list(sub.vectors)}")

# The engine needs a power of every variable; the closure injects z^4 (one
# more than the largest z-degree) and remembers that it did.
art = artinianize(g)
print("\nartinian closure adds:", [v for v, a in zip(("x", "y", "z"), art.added) if a],
      "with bounds", art.bounds)

# The chain links are two-variable staircases, where the recursion stops.
# The link at z^2 holds the (x, y) parts of every generator of z-degree at
# most 2; in lex order its y-degrees rise and its x-degrees fall, and each
# pair of consecutive corners (a, b), (a', b') gives the component (a, b').
for d, link in slice_chain(build(art.n, art.gens)):
    if d == 2:
        print("\nchain link at z^2, corners (y rising, x falling):", list(link.vectors))
        print("  its components, read off consecutive corners:", decompose_trie(link))

# Decompose.  Components unbounded in z come back with an inf coordinate.
comps = decompose_recursive(g)
print("\nirreducible components:")
for beta in comps:
    factors = [f"{name}^{e}" for name, e in zip(("x", "y", "z"), beta)
               if e != float("inf")]
    print(f"  {beta}  ->  <{', '.join(factors)}>")
