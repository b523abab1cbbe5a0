"""Decompose a three-variable staircase step by step.

The ideal generated by x^4, y^4, x^3y^2z^2, xy^3z^2, x^2yz^3 is the running
example of this library: five generators, six irreducible components, two of
them unbounded in z.
"""

from monideal import GeneratorSet, decompose_recursive
from monideal.recursive import corners, splice
from monideal.trie import build, top_slices

gens = [(4, 0, 0), (0, 4, 0), (3, 2, 2), (1, 3, 2), (2, 1, 3)]
g = GeneratorSet.from_vectors(3, gens, names=("x", "y", "z"))

# The generators as a trie: their distinct exponent vectors in lex order,
# which compares z first, then y, then x.
t = build(3, g.gens)
print("generator trie (lex order, z compared first):")
for v in t:
    print(" ", v)

# Slicing on z groups the generators by their z-degree.  These are the
# coefficient ideals the recursive engine works through; each slice keeps
# its (x, y) vectors in lex order.
print("\nz-degrees and their coefficient vectors:")
for d, sub in top_slices(t):
    print(f"  z^{d}: {list(sub)}")

# The engine needs a power of every variable; the closure injects z^inf.
# That power is the zero polynomial, so it changes no component, and the
# components read inf in z wherever the ideal places no bound on z.  The
# closure is built once per generator set, and every engine reads the same
# one.
art = g.closure
print("\nartinian closure: pure-power degrees", dict(zip(("x", "y", "z"), art.pure_degrees())),
      "(inf where injected)")

# Adding the slices in turn gives the chain links, two-variable staircases
# where the recursion stops.  The link at z^d holds the minimal (x, y) parts
# of every generator of z-degree at most d; in lex order its y-degrees rise
# and its x-degrees fall, and each pair of consecutive corners (a, b),
# (a', b') gives the component (a, b').  The engine splices each slice into
# the staircase of the link before it, and the corners the staircase loses
# are the components with that z-degree.  The last slice, the injected
# power of z, makes the unit ideal: every corner left is lost there.
slices = top_slices(build(art.n, art.gens))
stairs = list(slices[0][1])
print(f"\nchain link at z^{slices[0][0]} (y rising, x falling):", stairs)
for d, sub in slices[1:-1]:
    lost = splice(stairs, sub)
    print(f"  splice the z^{d} slice {list(sub)}: {stairs}")
    print(f"    corners lost: {lost}, components {[c + (d,) for c in lost]}")
d_last = slices[-1][0]
print(f"  the z^{d_last} slice leaves the unit ideal; corners lost: {corners(stairs)},"
      " components unbounded in z")

# Decompose.  Components unbounded in z come back with an inf coordinate.
comps = decompose_recursive(g)
print("\nirreducible components:")
for beta in comps:
    factors = [f"{name}^{e}" for name, e in zip(("x", "y", "z"), beta)
               if e != float("inf")]
    print(f"  {beta}  ->  <{', '.join(factors)}>")
