"""Staircase-recursive decomposition.

The trie of a minimal Artinian generator set is sliced on the distinct
degrees of the last variable.  Accumulating the slices gives a strictly
increasing chain of ideals in one fewer variable; the components of the full
ideal are exactly the components that disappear from one link of the chain
to the next, tagged with the degree at which they disappear.  Recursing on
the chain links reaches the two-variable base case, whose components are
read off the corners of the staircase.  Tries are lex-sorted tuples of
distinct vectors, such as the closure's ``gens``, and never empty.
"""

from .core import deartinianize
from .trie import min_merge, top_slices


def difference(a, b, counter=None):
    """Exact set difference of vector lists, preserving the order of ``a``."""
    drop = set(b)
    if counter is not None:
        counter.add(len(a))
    return [v for v in a if v not in drop]


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
    """Components of the ideal encoded by a nonempty minimal Artinian trie.

    The unit ideal, whose closure is the zero vector alone, has no
    components.
    Height one is a single pure power, whose degree is the lone component.
    Above height two, walk the slice chain on the last variable and emit the
    components lost at each step tagged with the degree where they vanish.
    INF labels are allowed and flow through untouched.

    The output has no duplicates.  Every vector emitted at the step to
    degree ``d`` ends in ``d``, and the degrees strictly rise along the
    chain, so two steps never emit the same vector.  Within one step,
    ``difference`` returns a sublist of ``prev``, the output of a recursive
    call, which is duplicate-free by induction on the height (the base
    cases below plainly are).

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
    if not any(t[0]):  # the zero vector sorts first
        return []
    height = len(t[0])
    if height == 1:
        return [t[-1]]
    if t[0][-1] != 0:
        raise ValueError("no generator is free of the last variable; "
                         "the encoded ideal is not Artinian in the others")
    if height == 2:
        if counter is not None:
            counter.add(len(t) - 1)
        return [(t[k][0], t[k + 1][1]) for k in range(len(t) - 1)]

    chain = slice_chain(t, counter)
    _, link = next(chain)
    prev = decompose_trie(link, counter)
    out = []
    for d, link in chain:
        cur = decompose_trie(link, counter)
        out.extend(v + (d,) for v in difference(prev, cur, counter))
        prev = cur
    return out


def decompose_recursive(g, counter=None):
    """Decompose a generator set with the staircase-recursive engine."""
    art = g.closure
    comps = decompose_trie(art.gens, counter)
    return deartinianize(comps, art)
