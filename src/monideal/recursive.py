"""Staircase-recursive decomposition.

The trie of a minimal Artinian generator set is sliced on the distinct
degrees of the last variable.  Accumulating the slices gives a strictly
increasing chain of ideals in one fewer variable; the components of the full
ideal are exactly the components that disappear from one link of the chain
to the next, tagged with the degree at which they disappear.  Recursing on
the chain links reaches the one-variable base case.
"""

from .core import ComponentSet, INF, artinianize, deartinianize, minimalize
from .trie import build, min_merge, top_slices


def decompose_bivariate(vectors):
    """Closed-form decomposition of a two-variable staircase.

    The minimal generators of a bivariate ideal sort into strictly falling
    x-degrees against strictly rising y-degrees; consecutive corners pair up
    into the components.  Missing pure powers are treated as infinite.
    """
    vs = minimalize(vectors)
    for v in vs:
        if len(v) != 2:
            raise ValueError(f"expected 2 variables, got vector {v}")
    if any(not any(v) for v in vs):
        return ComponentSet.from_vectors(2, [])
    if not vs:
        return ComponentSet.from_vectors(2, [(INF, INF)])
    if all(v[1] != 0 for v in vs):
        vs.append((INF, 0))
    if all(v[0] != 0 for v in vs):
        vs.append((0, INF))
    vs.sort(key=lambda v: v[0], reverse=True)
    comps = [(vs[k][0], vs[k + 1][1]) for k in range(len(vs) - 1)]
    return ComponentSet.from_vectors(2, comps)


def difference(a, b, counter=None):
    """Exact set difference of vector lists, preserving the order of ``a``."""
    drop = set(b)
    if counter is not None:
        counter.add(len(a))
    return [v for v in a if v not in drop]


def adjoin(vectors, d):
    """Extend every vector by a final coordinate ``d`` (one more variable)."""
    if d < 1:
        raise ValueError(f"adjoined degree must be >= 1, got {d}")
    return [v + (d,) for v in vectors]


def slice_chain(t, counter=None):
    """Degrees of the last variable and the accumulated slice tries.

    Yields ``(d, link)`` pairs in increasing ``d``, lazily, so a caller that
    walks the chain holds only the current link.  ``link`` generates the
    ideal of all coefficient vectors of generators whose last-variable
    degree is at most ``d``; the chain is strictly increasing.
    """
    link = None
    for d, tk in top_slices(t):
        link = tk if link is None else min_merge(link, tk, counter=counter)
        yield d, link


def decompose_trie(t, counter=None):
    """Components of the ideal encoded by a minimal Artinian trie.

    Height one is the base case: a single pure power, whose degree is the
    lone component.  Otherwise walk the slice chain on the last variable and
    emit the components lost at each step tagged with the degree where they
    vanish.  INF labels are allowed and flow through untouched.
    """
    vs = t.vectors
    if not vs:
        return [(INF,) * t.height]
    if not any(vs[0]):  # the zero vector sorts first
        return []
    if t.height == 1:
        return [vs[-1]]

    chain = slice_chain(t, counter)
    d, link = next(chain)
    if d != 0:
        raise ValueError("no generator is free of the last variable; "
                         "the encoded ideal is not Artinian in the others")
    prev = decompose_trie(link, counter)
    out = []
    for d, link in chain:
        cur = decompose_trie(link, counter)
        out.extend(adjoin(difference(prev, cur, counter), d))
        prev = cur
    assert len(out) == len(set(out)), "slice contributions must be disjoint"
    return out


def decompose_recursive(g, counter=None):
    """Decompose a generator set with the staircase-recursive engine."""
    if g.is_unit():
        return ComponentSet.from_vectors(g.n, [])
    art = artinianize(g)
    comps = decompose_trie(build(art.n, art.gens), counter)
    return deartinianize(ComponentSet.from_vectors(g.n, comps), art)
