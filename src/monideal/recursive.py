"""Staircase-recursive decomposition.

The trie of a minimal Artinian generator set is sliced on the distinct
degrees of the last variable.  Accumulating the slices gives a strictly
increasing chain of ideals in one fewer variable; the components of the full
ideal are exactly the components that disappear from one link of the chain
to the next, tagged with the degree at which they disappear.  Recursing on
the chain links reaches the two-variable base case, whose components are
read off the corners of the staircase.  Tries are lex-sorted tuples of
distinct vectors, such as the closure's ``gens``, and only a closure that
uses no variable is empty.

At height three ``splice`` adds each slice to the staircase of the link
before it.  From height four up the incremental step absorbs the chain's
tail: every slice after link 0 of a thin trie (``trie.is_thin``), and the
one-vector slices after the last multi-vector one of any other;
``decompose_trie`` has the proofs.
"""

from bisect import bisect_left
from operator import itemgetter

from .core import deartinianize
from .incremental import IncrementalState
from .trie import is_thin, min_merge, top_slices


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


def splice(stairs, tk, counter=None):
    """Add a slice ``tk`` to a staircase in place; return the components it
    loses.

    ``stairs`` lists a minimal Artinian height-2 trie: its ``b`` strictly
    rise from 0 and its ``a`` strictly fall to 0.  ``tk`` is a nonempty
    lex-sorted height-2 antichain, ordered the same way, and no vector of
    ``stairs`` divides one of it.  What ``tk`` divides has ``b >=
    tk[0]_b``, a suffix from ``i`` found by bisection, and ``a >=
    tk[-1]_a``, a prefix of it read forward up to ``j``.  In that window,
    ``x`` is divided exactly when the last ``v`` of ``tk`` with ``v_b <=
    x_b``, the one of least ``a`` among them, has ``v_a <= x_a``.  The
    survivors and ``tk`` are pairwise incomparable, so interleaving them by
    ``b`` makes the ``a`` fall, and ``stairs[i - 1]`` and ``stairs[j]`` are
    incomparable with all of them.  So ``stairs`` becomes the staircase of
    the union's minimal elements, still Artinian.  Its components are its
    ``corners``, whose ``a`` are distinct, and only the pairs within
    ``stairs[i - 1 : j + 1]`` change: the lost ones are the window's old
    corners that are not corners of the new window, which leaves out a
    corner that one vector of ``tk`` would make and a later one remove.
    Charges ``len(stairs).bit_length()``, one op per vector the forward
    read takes, the stopping one included, and one per vector of ``tk``
    past the first: a one-vector slice charges what the incremental
    staircase step charges.
    """
    i = j = bisect_left(stairs, tk[0][1], key=itemgetter(1))
    while j < len(stairs) and stairs[j][0] >= tk[-1][0]:
        j += 1
    if counter is not None:
        counter.add(len(stairs).bit_length() + j - i + (j < len(stairs)) + len(tk) - 1)
    lo = max(i - 1, 0)
    lost = corners(stairs[lo:j + 1])
    window, k = [], 0
    for x in stairs[i:j]:
        while k < len(tk) and tk[k][1] <= x[1]:
            window.append(tk[k])
            k += 1
        if tk[k - 1][0] > x[0]:  # the slice vector with the largest b <= x_b
            window.append(x)
    window += tk[k:]
    stairs[i:j] = window
    kept = set(corners(stairs[lo:i + len(window) + 1]))
    return [c for c in lost if c not in kept]


def decompose_trie(t, counter=None):
    """Components of the ideal encoded by a minimal Artinian trie.

    The empty trie is the zero ideal in no variables, a closure that uses
    none, and its one component is the empty vector.  The unit ideal, whose
    closure is the zero vector alone, has no components.
    A minimal Artinian trie holds one pure power per variable, and lex order
    puts the power of ``x_i`` at ``t[i]`` when they are all it holds: its
    lone component is their degrees.  That covers height one and ends the
    recursion at every link of pure powers alone, whatever the height, so a
    link of many variables recurses no further.  Any other trie of as many
    vectors as variables takes the general path and its checks.
    Above height two, walk the slice chain on the last variable and emit the
    components lost at each step tagged with the degree where they vanish.
    Link ``k`` is the ideal generated by link ``k - 1`` and slice ``k``.
    INF labels are allowed and flow through untouched.  A minimal Artinian
    trie sorts the pure power of its first variable first, and any other
    nonzero first vector raises ``ValueError``.  This one check on ``t[0]``
    also stands for link 0 at every lower height, which height three never
    decomposes.

    The last slice is the zero vector alone, the pure power x_n^D of the
    last variable (``D`` may be INF); anything else raises ``ValueError``.
    A minimal Artinian trie holds that power, and every other vector ``v``
    has ``v_n < D``, else the power would divide it.  So ``D`` is the top
    degree and its slice holds the zero vector only.  Merged into the link
    before it, the zero vector divides every vector, so the last link is
    the unit ideal, with no components: the step to ``D`` loses every
    component of the link before it.  These are emitted with ``D``, and the
    step runs no merge, no recursive call and no ``difference``.

    No vector of link ``k - 1`` divides one of slice ``k``: it would
    project a generator with a smaller last coordinate dividing another
    (``min_merge``).  At height three every link is a staircase, and link 0
    is slice 0, which holds the pure powers of both variables.  So a copy
    of its vectors goes through ``splice`` with each later slice ``(d,
    tk)`` in turn, which makes it link ``k`` and returns exactly Irr(link
    ``k - 1``) minus Irr(link ``k``), emitted with ``d``.  The corners
    left after the last slice are the ones emitted with ``D``.  No link is
    decomposed, link 0 included, and no merge or ``difference`` runs.

    From height four up, the walk decomposes links from scratch with
    ``min_merge`` only up to link ``K``, and the slices ``(d, tk)`` between
    it and ``D`` make the tail: link ``k`` is link ``k - 1`` plus X^v for
    each ``v`` of ``tk``.  A thin trie (``is_thin``: fewer than two vectors
    per slice, ``D``'s included) has ``K = 0``.  Any other has ``K`` the
    last slice before ``D`` holding more than one vector, or 0, so its tail
    slices hold one vector each.  Link ``K``'s components and vectors seed
    an ``IncrementalState`` that absorbs each ``v`` with ``add_generator``,
    which returns the components the step removes; a seeded component is
    probed for its lone matchers once, when a step first lowers it, and its
    lowered copies inherit them.  For a one-vector slice that is exactly
    Irr(link ``k - 1``) minus Irr(link ``k``), emitted with ``d``.  A
    multi-vector slice is absorbed one vector at a time, and a step may
    remove a component that an earlier step of the same slice created,
    which is in neither link.  No removed component comes back: it was
    removed because its irreducible ideal misses X^v, which every later
    ideal holds.  So the components removed within the slice and not
    created within it, which the steps' ``created`` lists collect, are
    exactly Irr(link ``k - 1``) minus Irr(link ``k``), and only they are
    emitted with ``d``; one op is charged per removed component looked up
    among the created ones.  The tail needs no merge and no ``difference``,
    and its components after the last slice are the ones emitted with
    ``D``.  Tail vectors come in the order of the last variable, not in lex
    order, so the state's reactivation branch is in use here.  The choice
    reads only the sizes of the trie's slices.

    INF on the tail: a minimal Artinian trie holds INF only in pure powers.
    A vector outside slice 0 with INF at coordinate ``i`` would be divided
    by the pure power of ``x_i``, which slice 0 holds.  So a tail vector is
    finite, and ``add_generator`` never sees the INF generator that it would
    treat as zero.  Link ``K`` may hold pure powers with label INF, which
    the state's degree index does not file.  That changes no lowering: such
    a power of ``x_i`` could meet a component in ``x_i`` alone only where
    the component has INF at ``i``, and it is never a lone matcher there
    (``INF + 1`` is INF).  The probe of a seeded component reads no bucket
    for that INF coordinate, which needs no lone matcher, so its list is
    empty and the internal-error guard of ``lowering_limits`` stays quiet.

    The output has no duplicates.  Every vector emitted at the step to
    degree ``d`` ends in ``d``, and the degrees strictly rise along the
    chain, so two steps never emit the same vector.  Within one step,
    ``difference`` returns a sublist of ``prev``, the output of a recursive
    call, which is duplicate-free by induction on the height (the base
    cases below plainly are), and the step to ``D`` emits ``prev`` itself.
    At height three each step emits a sublist of a staircase's corners,
    whose ``a`` are distinct.  A tail slice emits a sublist of the
    components its steps remove, and each step removes distinct current
    components of the state (``add_generator``), which never come back.

    Height two is read off the corners.  Write the vectors, in lex order, as
    ``(a_0, b_0), ..., (a_m, b_m)``.  Two vectors with equal ``b`` would be
    comparable, so minimality makes the ``b`` strictly rise and then the
    ``a`` strictly fall.  Slice ``k`` is the single height-1 vector
    ``(a_k,)``, so chain link ``k``, the minimum of slices ``0..k``, is
    ``(a_k,)`` too, with lone component ``(a_k,)``, or none when ``a_k ==
    0``.  Passing from link ``k - 1`` to link ``k`` at degree ``b_k``
    therefore loses exactly ``(a_{k-1},)``, and the chain emits
    ``(a_{k-1}, b_k)`` for ``k = 1..m``: each consecutive pair of corners
    gives one component, and nothing else is emitted.  This is charged to
    ``counter`` as one operation per adjacent pair, fewer than the chain's
    merges and differences would charge.
    """
    if not t:
        return [()]
    if not any(t[0]):  # the zero vector sorts first
        return []
    height = len(t[0])
    if any(t[0][1:]):
        raise ValueError("no generator is free of the last variable; "
                         "the encoded ideal is not Artinian in the others")
    if len(t) == height and all(v[i] and v.count(0) == height - 1 for i, v in enumerate(t)):
        return [tuple(v[i] for i, v in enumerate(t))]
    if height == 2:
        if counter is not None:
            counter.add(len(t) - 1)
        return corners(t)

    slices = top_slices(t)
    d_last, last = slices.pop()
    if any(last[0]) or len(last) > 1:
        raise ValueError("the last slice is not the pure power of the last "
                         "variable alone; the encoded ideal is not Artinian in it")
    if height == 3:
        stairs, out = list(slices[0][1]), []
        for d, tk in slices[1:]:
            out.extend(c + (d,) for c in splice(stairs, tk, counter))
        return out + [c + (d_last,) for c in corners(stairs)]
    tail = 1 if is_thin(t) else len(slices)  # slices[tail:] are absorbed by the state
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
    if tail < len(slices):
        state = IncrementalState(height - 1, prev, link, counter)
        for d, tk in slices[tail:]:
            if len(tk) == 1:
                out.extend(b + (d,) for b in state.add_generator(tk[0]))
                continue
            created, lost = [], []
            for v in tk:
                lost += state.add_generator(v, created)
            if counter is not None:
                counter.add(len(lost))
            made = set(created)
            out.extend(b + (d,) for b in lost if b not in made)
        prev = state.components
    out.extend(v + (d_last,) for v in prev)
    return out


def decompose_recursive(g, counter=None):
    """Decompose a generator set with the staircase-recursive engine.

    The closure ``g.closure`` lives in the used variables only
    (``artinianize``), so the recursion is as deep as they are many, and
    ``deartinianize`` places the result back in the original variables.
    """
    art = g.closure
    return deartinianize(decompose_trie(art.gens, counter), art)
