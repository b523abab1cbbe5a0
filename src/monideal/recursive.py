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
link before it loses all of its own and needs no merge.  From height four
up, the one-vector slices before the last are not decomposed link by link:
each such link is the previous one plus a single generator, and the
incremental engine's step updates the previous link's components to the
next one's, returning the lost ones.  On generic input every slice above
degree 0 holds one vector, so everything after the first link goes through
that step.  Height three takes the step only when every slice between the
first and the last holds one vector, as on generic input, and there are at
least ``HEIGHT3_TAIL_SLICES`` of them; any other height-3 trie walks every
link, reading each two-variable link off its corners.  A height-3 tail's
state holds two variables, whose components always form a staircase: each
step bisects it, so the tail is not quadratic in its length.
"""

from .core import deartinianize
from .incremental import IncrementalState
from .trie import min_merge, top_slices

# A height-3 trie takes the chain tail only when at least this many slices
# lie between its first and its last, each holding one vector: over shorter
# chains the two-variable steps' fixed work, divisor probes and lowering
# limits cost more than the corner-read links they replace.  On the top
# tries of generic ladders (2-core VM, CPython 3.11, 40 tries per length,
# medians of two runs of 9 alternating rounds) the tail took 1.21-1.25
# times the walk's time at 10 such slices, 1.01-1.05 at 13 and 0.92 at 16.
HEIGHT3_TAIL_SLICES = 13


def difference(a, b, counter=None):
    """Exact set difference of vector lists, preserving the order of ``a``."""
    drop = set(b)
    if counter is not None:
        counter.add(len(a))
    return [v for v in a if v not in drop]


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

    From height four up, the walk decomposes links from scratch only up to
    the last slice before ``D`` holding more than one vector, link ``K``.
    When one-vector slices come between it and ``D``, link ``K``'s
    components and vectors seed an ``IncrementalState``, and each such slice
    ``(d, (v,))`` is absorbed with ``add_generator``: link ``k`` is link
    ``k - 1`` plus X^v, and the step leaves exactly Irr(link ``k``), in any
    absorb order, and returns the components it removed, exactly
    Irr(link ``k - 1``) minus Irr(link ``k``).  So they are emitted with
    ``d``, the tail needs no merge and no ``difference``, and the state's
    components after the tail are the ones emitted with ``D``.  Tail vectors
    come in the order of the last variable, not in lex order, so from
    height four up the state's reactivation branch is in use here.

    Height three keeps the walk, whose height-2 links are read off the
    corners in time linear in the link, unless every slice between the
    first and ``D`` holds one vector and there are at least
    ``HEIGHT3_TAIL_SLICES`` of them.  Then ``K`` is 0: link 0's components
    and vectors seed one two-variable state, and the argument above, which
    holds for any ``K``, makes the tail exact.  On a generic ladder's top
    trie that is the whole chain after link 0, which the walk would
    decompose link by link, each from scratch.  A two-variable state keeps
    its components sorted as a staircase and bisects it at every step; it
    never retires a component, so it never takes the reactivation branch
    (``incremental`` module docstring).  A height-3 trie with a
    multi-vector slice after its first, or with a shorter chain, walks all
    of its links: there the steps' fixed work, divisor probes and lowering
    limits cost more time than the corner-read links they replace
    (measured at the constant).  The choice reads only the number and
    sizes of the trie's slices.

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
    A tail step emits a sublist of the state's components, which are
    duplicate-free (``add_generator``).

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

    slices = top_slices(t)
    d_last, last = slices.pop()
    if any(last[0]) or len(last) > 1:
        raise ValueError("the last slice is not the pure power of the last "
                         "variable alone; the encoded ideal is not Artinian in it")
    tail = len(slices)  # slices[tail:] hold one vector each
    if height >= 4:
        while tail > 1 and len(slices[tail - 1][1]) == 1:
            tail -= 1
    elif len(slices) > HEIGHT3_TAIL_SLICES and all(len(tk) == 1 for _, tk in slices[1:]):
        tail = 1
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
