"""Staircase-recursive decomposition.

The trie of a minimal Artinian generator set is sliced on the distinct
degrees of the last variable.  Accumulating the slices gives a strictly
increasing chain of ideals in one fewer variable; the components of the full
ideal are exactly the components that disappear from one link of the chain
to the next, tagged with the degree at which they disappear.  Recursing on
the chain links reaches the two-variable base case, whose components are
read off the corners of the staircase.  Tries are lex-sorted tuples of
distinct vectors, such as the closure's ``gens``, and never empty.

The chain's last link is the unit ideal, which has no components, so the
link before it loses all of its own and needs no merge.  The one-vector
slices that come before the last, after the first and after every slice
holding several vectors, are not decomposed link by link: each such link
is the previous one plus a single generator.  At height three the link is
a staircase, and ``splice`` adds the generator and returns the corners it
loses; from height four up the incremental engine's step updates the
previous link's components to the next one's, returning the lost ones.
On generic input every slice above degree 0 holds one vector, so
everything after the first link goes through that tail.
"""

from bisect import bisect_left
from operator import itemgetter

from .core import deartinianize
from .incremental import IncrementalState
from .trie import min_merge, top_slices


def difference(a, b, counter=None):
    """Exact set difference of vector lists, preserving the order of ``a``."""
    drop = set(b)
    if counter is not None:
        counter.add(len(a))
    return [v for v in a if v not in drop]


def corners(t):
    """Components of a minimal Artinian height-2 trie, one per adjacent pair
    of its vectors (``decompose_trie``)."""
    return [(a, b) for (a, _), (_, b) in zip(t, t[1:])]


def splice(stairs, v, counter=None):
    """Add ``v`` to a staircase in place and return the components it loses.

    ``stairs`` lists the vectors of a minimal Artinian height-2 trie, whose
    ``b`` strictly rise from 0 and ``a`` strictly fall to 0, and none of
    them divides ``v``.  The vectors that ``v`` divides have ``b >= v_b``,
    a suffix from ``i`` found by bisection, and ``a >= v_a``, a prefix of
    it read forward up to ``j``: ``v`` replaces that run.  The order holds,
    as ``stairs[i - 1]`` has ``b < v_b`` and so ``a > v_a``, and
    ``stairs[j]`` has ``a < v_a`` and so ``b > v_b``, or they would divide
    ``v``.  The components are the ``corners``, whose ``a`` are distinct,
    and only the pairs within ``stairs[i - 1 : j + 1]`` change.  So the
    lost ones are that window's corners that are not corners of the new
    ``stairs[i - 1 : i + 2]``; one survives when ``v`` shares its ``b``
    with the first removed vector or its ``a`` with the last.  Charges what
    the incremental staircase step charges: ``len(stairs).bit_length()``,
    and one op per vector the forward read takes, the stopping one
    included.
    """
    i = j = bisect_left(stairs, v[1], key=itemgetter(1))
    while j < len(stairs) and stairs[j][0] >= v[0]:
        j += 1
    if counter is not None:
        counter.add(len(stairs).bit_length() + j - i + (j < len(stairs)))
    lo = max(i - 1, 0)
    lost = corners(stairs[lo:j + 1])
    stairs[i:j] = [v]
    kept = corners(stairs[lo:i + 2])
    return [c for c in lost if c not in kept]


def decompose_trie(t, counter=None):
    """Components of the ideal encoded by a nonempty minimal Artinian trie.

    The unit ideal, whose closure is the zero vector alone, has no
    components.
    Height one is a single pure power, whose degree is the lone component.
    Above height two, walk the slice chain on the last variable and emit the
    components lost at each step tagged with the degree where they vanish.
    Link ``k`` is the ``min_merge`` of link ``k - 1`` and slice ``k``.
    INF labels are allowed and flow through untouched.

    The last slice is the zero vector alone, the pure power x_n^D of the
    last variable (``D`` may be INF); anything else raises ``ValueError``.
    A minimal Artinian trie holds that power, and every other vector ``v``
    has ``v_n < D``, else the power would divide it.  So ``D`` is the top
    degree and its slice holds the zero vector only.  Merged into the link
    before it, the zero vector divides every vector, so the last link is
    the unit ideal, with no components: the step to ``D`` loses every
    component of the link before it.  These are emitted with ``D``, and the
    step runs no merge, no recursive call and no ``difference``.

    The walk decomposes links from scratch only up to link ``K``, the last
    slice before ``D`` holding more than one vector, or link 0.  The
    one-vector slices ``(d, (v,))`` between it and ``D`` make the tail:
    link ``k`` is link ``k - 1`` plus X^v, and no vector of link ``k - 1``
    divides ``v``, as the trie is minimal.  At height three the tail
    splices each ``v`` into a copy of link ``K``'s vectors, a staircase
    (``splice``), and from height four up link ``K``'s components and
    vectors seed an ``IncrementalState`` that absorbs each ``v`` with
    ``add_generator``.  Either returns exactly Irr(link ``k - 1``) minus
    Irr(link ``k``), so those are emitted with ``d``, the tail needs no
    merge and no ``difference``, and its components after the last ``v``
    are the ones emitted with ``D``.  Tail vectors come in the order of the
    last variable, not in lex order, so the state's reactivation branch is
    in use here.  The choice reads only the sizes of the trie's slices.

    INF on the tail: a minimal Artinian trie holds INF only in pure powers.
    A vector outside slice 0 with INF at coordinate ``i`` would be divided
    by the pure power of ``x_i``, which slice 0 holds.  So a tail vector is
    finite, and ``add_generator`` never sees the INF generator that it would
    treat as zero.  Link ``K`` may hold pure powers with label INF.  The
    divisor probe compares such a power of ``x_i`` only in the bucket
    ``(i, INF)`` of a component with INF at ``i``, and never returns it
    (``INF + 1`` is INF), which changes no lowering: as a lone matcher at
    ``x_i`` it would only raise the limit of every other variable to 0, and
    the zero-exponent rule already rejects exponent 0.  That INF coordinate
    needs no lone matcher, so the internal-error guard of
    ``lowering_limits`` stays quiet.

    The output has no duplicates.  Every vector emitted at the step to
    degree ``d`` ends in ``d``, and the degrees strictly rise along the
    chain, so two steps never emit the same vector.  Within one step,
    ``difference`` returns a sublist of ``prev``, the output of a recursive
    call, which is duplicate-free by induction on the height (the base
    cases below plainly are), and the step to ``D`` emits ``prev`` itself.
    A tail step emits a sublist of duplicate-free corners or of the state's
    components (``add_generator``).

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
        return corners(t)

    slices = top_slices(t)
    d_last, last = slices.pop()
    if any(last[0]) or len(last) > 1:
        raise ValueError("the last slice is not the pure power of the last "
                         "variable alone; the encoded ideal is not Artinian in it")
    tail = len(slices)  # slices[tail:] hold one vector each
    while tail > 1 and len(slices[tail - 1][1]) == 1:
        tail -= 1
    link = slices[0][1]
    prev = decompose_trie(link, counter)
    out = []
    for d, tk in slices[1:tail]:
        link = min_merge(link, tk, counter=counter)
        cur = decompose_trie(link, counter)
        out.extend(v + (d,) for v in difference(prev, cur, counter))
        prev = cur
    if height == 3 and tail < len(slices):
        stairs = list(link)
        for d, (v,) in slices[tail:]:
            out.extend(c + (d,) for c in splice(stairs, v, counter))
        prev = corners(stairs)
    elif tail < len(slices):
        state = IncrementalState(height - 1, prev, link, counter)
        for d, (v,) in slices[tail:]:
            out.extend(b + (d,) for b in state.add_generator(v))
        prev = state.components
    out.extend(v + (d_last,) for v in prev)
    return out


def decompose_recursive(g, counter=None):
    """Decompose a generator set with the staircase-recursive engine.

    A variable that no non-pure generator of the closure uses is split off
    first.  The closure is then the sum of its pure power x_i^d_i and the
    ideal J of the other generators, which lives in the other variables,
    so the components are those of J with ``d_i`` placed at ``i``;
    ``deartinianize`` turns an injected ``d_i`` into INF.  Only J's trie,
    in the used variables, is decomposed, so the recursion is only as deep
    as the used variables are many: the zero ideal or the maximal ideal in
    a thousand variables has no non-pure generator, and its one component
    is the vector of pure-power degrees.  A non-pure generator uses at least
    two variables, so J's trie has height two or more, or J has no variables
    and its one component is the empty vector.  The projection keeps the lex
    order, since every vector it keeps is zero on the split-off variables.
    The unit ideal, whose closure is the zero vector alone, goes to
    ``decompose_trie`` whole and has no components.
    """
    art = g.closure
    # x_i's pure power is its only generator when the column holds one nonzero
    used = [i for i, col in enumerate(zip(*art.gens)) if len(col) - col.count(0) > 1]
    if len(used) == art.n or not any(art.gens[0]):  # all used, or the unit ideal
        return deartinianize(decompose_trie(art.gens, counter), art)
    t = tuple(tuple(v[i] for i in used) for v in art.gens if any(v[i] for i in used))
    degs = list(art.pure_degrees())

    def place(c):
        for i, e in zip(used, c):  # every call rewrites all of ``used``
            degs[i] = e
        return tuple(degs)

    return deartinianize(map(place, decompose_trie(t, counter) if used else [()]), art)
