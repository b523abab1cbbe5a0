"""Lex-sorted tuple encoding of exponent-vector sets.

A trie is the tuple of a set's distinct vectors, sorted by ``lex_key``,
which compares the last coordinate first; its height is the vectors'
length, read off the first one.  That is the depth-first order of the
prefix tree whose root-to-leaf paths read the coordinates from position
``n-1`` down to 0, so each tree operation is a plain operation on the tuple:
the subtrees below the root are the runs of equal last coordinate, and
merging a chain link with the next slice drops the link's vectors that the
slice divides and interleaves the rest with the slice.
"""

from itertools import groupby
from operator import itemgetter, le

from .core import lex_key


def build(n, vectors):
    """Trie of exactly the distinct vectors of ``vectors``, each of length ``n``."""
    distinct = set()
    for v in vectors:
        v = tuple(v)
        if len(v) != n:
            raise ValueError(f"vector {v} has length {len(v)}, expected {n}")
        distinct.add(v)
    return tuple(sorted(distinct, key=lex_key))


def paths(t):
    """The stored vectors, in lex order."""
    return list(t)


def min_merge(a, b, counter=None):
    """Generators of the ideal sum of a chain link ``a`` and the next slice
    ``b``: the vectors of ``a`` that no vector of ``b`` divides, and all of
    ``b``, in lex order.

    Both tries must be antichains, and no vector of ``a`` may divide an
    unequal vector of ``b``.  Then ``b`` needs no filter: a kept ``x`` of
    ``a`` dividing ``y`` of ``b`` would equal ``y``, which divides it, so
    ``x`` was dropped.  The result is the antichain of minimal elements of
    the union.  ``decompose_trie`` merges only such pairs.  A vector of its
    link projects a generator whose last coordinate ``c`` is below the slice
    degree ``d``, and a vector of the slice projects a generator with last
    coordinate ``d``.  If ``x`` of the link divided ``y`` of the slice,
    ``x + (c,)`` would divide ``y + (d,)``: one generator would divide
    another, but the trie being sliced is an antichain.

    A vector ``v`` of ``a`` is tested only against a prefix of ``b``.  A
    divisor ``m`` of ``v`` has ``m[-1] <= v[-1]``, and ``b`` is sorted by
    its last coordinate first, so every divisor lies in ``b[:end]``, the
    vectors whose last coordinate is at most ``v[-1]``.  ``a`` is sorted
    the same way, so ``end`` only moves forward: one pointer walks ``b``
    once per merge.  The prefix is tested from its end backwards, where
    the vectors nearest ``v`` lie, up to the first divisor.

    Each vector of ``a`` is charged to ``counter`` one op per vector of
    ``b`` it is tested against, and the pointer one op per vector of ``b``
    it reads, the stopping one included, as ``splice`` charges its forward
    read.  So a merge charges at most ``len(a) * len(b) + len(b)``, what
    testing all of ``b`` charged, plus the pointer's read.
    """
    if a and b and len(a[0]) != len(b[0]):
        raise ValueError(f"cannot merge tries of heights {len(a[0])} and {len(b[0])}")
    kept = []
    compared = end = 0
    for v in a:
        while end < len(b) and b[end][-1] <= v[-1]:
            end += 1
        for k in range(end - 1, -1, -1):
            if all(map(le, b[k], v)):
                compared += end - k
                break
        else:
            compared += end
            kept.append(v)
    if counter is not None and a:
        counter.add(compared + end + (end < len(b)))
    return tuple(sorted(kept + list(b), key=lex_key))


def top_slices(t):
    """Split below the root: pairs (label, subtree of height n-1).

    The labels are the distinct last coordinates of the stored vectors, in
    increasing order; each subtree holds the matching vectors with that
    coordinate dropped, still in lex order.  The empty trie has no slices.
    """
    if t and len(t[0]) < 2:
        raise ValueError(f"cannot slice a trie of height {len(t[0])}")
    return [(d, tuple(v[:-1] for v in run)) for d, run in groupby(t, key=lambda v: v[-1])]


def is_thin(t):
    """True when the trie averages fewer than two vectors per top slice:
    ``len(t) < 2 * len(top_slices(t))``, the last slice included.

    The slices are counted as the distinct last coordinates, so a trie of
    height one, one slice per vector, is thin.  The empty trie and the
    height-0 trie of the unit closure have no last coordinate and are not.
    From height four up, ``recursive.decompose_trie`` absorbs the slices of
    a thin trie one vector at a time, and ``bench.preferred_engine`` sends
    a closure with thin generators to the recursive engine.
    """
    return bool(t and t[0]) and len(t) < 2 * len(set(map(itemgetter(-1), t)))
