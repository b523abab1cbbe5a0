"""Staircase-recursive decomposition.

The trie of a minimal Artinian generator set is sliced on the distinct
degrees of the last variable.  Accumulating the slices gives a strictly
increasing chain of ideals in one fewer variable; the components of the full
ideal are exactly the components that disappear from one link of the chain
to the next, tagged with the degree at which they disappear.  Recursing on
the chain links reaches the two-variable base case, whose components are
read off the corners of the staircase.
"""

from .core import ComponentSet, INF, artinianize, deartinianize, minimalize
from .trie import Trie, build, min_merge, top_slices


def decompose_bivariate(vectors):
    """Closed-form decomposition of a two-variable staircase.

    Missing pure powers are treated as infinite: ``(INF, 0)`` and
    ``(0, INF)`` join the minimal generators, which ``minimalize`` returns in
    lex order, and the engine's height-2 base case pairs up consecutive
    corners (see ``decompose_trie``).
    """
    vs = minimalize(vectors)
    for v in vs:
        if len(v) != 2:
            raise ValueError(f"expected 2 variables, got vector {v}")
    if vs:
        if vs[0][1] != 0:
            vs.insert(0, (INF, 0))
        if vs[-1][0] != 0:
            vs.append((0, INF))
    return ComponentSet.from_vectors(2, decompose_trie(Trie(2, tuple(vs))))


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

    Height one is a single pure power, whose degree is the lone component.
    Above height two, walk the slice chain on the last variable and emit the
    components lost at each step tagged with the degree where they vanish.
    INF labels are allowed and flow through untouched.

    Height two is read off the corners.  Write the vectors, in lex order, as
    ``(a_0, b_0), ..., (a_m, b_m)``.  Two vectors with equal ``b`` would be
    comparable, so minimality makes the ``b`` strictly rise and then the
    ``a`` strictly fall.  Slice ``k`` is the single height-1 vector
    ``(a_k,)``, so chain link ``k``, the minimum of slices ``0..k``, is
    ``(a_k,)`` too, with lone component ``(a_k,)``, or none when
    ``a_k == 0``.  Passing from link ``k - 1`` to
    link ``k`` at degree ``b_k`` therefore loses exactly ``(a_{k-1},)``,
    and the chain emits ``(a_{k-1}, b_k)`` for ``k = 1..m``: each
    consecutive pair of corners gives one component, and nothing else is
    emitted.  This is charged to ``counter`` as one operation per adjacent
    pair, fewer than the chain's merges and differences would charge.
    """
    vs = t.vectors
    if not vs:
        return [(INF,) * t.height]
    if not any(vs[0]):  # the zero vector sorts first
        return []
    if t.height == 1:
        return [vs[-1]]
    if vs[0][-1] != 0:
        raise ValueError("no generator is free of the last variable; "
                         "the encoded ideal is not Artinian in the others")
    if t.height == 2:
        if counter is not None:
            counter.add(len(vs) - 1)
        return [(vs[k][0], vs[k + 1][1]) for k in range(len(vs) - 1)]

    chain = slice_chain(t, counter)
    _, link = next(chain)
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
