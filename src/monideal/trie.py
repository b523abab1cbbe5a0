"""Lex-sorted tuple encoding of exponent-vector sets.

A set of length-``n`` vectors is stored as a height ``n`` and the tuple of
its distinct vectors sorted by ``lex_key``, which compares the last
coordinate first.  That is the depth-first order of the prefix tree whose
root-to-leaf paths read the coordinates from position ``n-1`` down to 0, so
each tree operation is a plain operation on the tuple: the subtrees below
the root are the runs of equal last coordinate, and merging a chain link
with the next slice drops the link's vectors that the slice divides and
interleaves the rest with the slice.
Tries are immutable; all operations return new tries.
"""

from dataclasses import dataclass
from itertools import groupby
from operator import le

from .core import lex_key


@dataclass(frozen=True)
class Trie:
    """Distinct length-``height`` vectors, sorted by ``lex_key``."""

    height: int
    vectors: tuple


def build(n, vectors):
    """Trie containing exactly the distinct vectors of ``vectors``."""
    distinct = set()
    for v in vectors:
        v = tuple(v)
        if len(v) != n:
            raise ValueError(f"vector {v} has length {len(v)}, expected {n}")
        distinct.add(v)
    return Trie(n, tuple(sorted(distinct, key=lex_key)))


def paths(t):
    """The stored vectors, in lex order."""
    return list(t.vectors)


def min_merge(a, b, counter=None):
    """Generators of the ideal sum of a chain link ``a`` and the next slice
    ``b``: the vectors of ``a`` that no vector of ``b`` divides, and all of
    ``b``, in lex order.

    Both tries must be antichains, and no vector of ``a`` may divide an
    unequal vector of ``b``.  Then ``b`` needs no filter: a kept ``x`` of
    ``a`` dividing ``y`` of ``b`` would equal ``y``, which divides it, so
    ``x`` was dropped.  The result is the antichain of minimal elements of
    the union.  ``slice_chain`` merges only such pairs.  A vector of its
    link projects a generator whose last coordinate ``c`` is below the slice
    degree ``d``, and a vector of the slice projects a generator with last
    coordinate ``d``.  If ``x`` of the link divided ``y`` of the slice,
    ``x + (c,)`` would divide ``y + (d,)``: one generator would divide
    another, but the trie being sliced is an antichain.

    Each vector of ``a`` is charged to ``counter`` one comparison per vector
    of ``b`` it is tested against, up to its first divisor.
    """
    if a.height != b.height:
        raise ValueError(f"cannot merge tries of heights {a.height} and {b.height}")
    kept = []
    compared = 0
    for v in a.vectors:
        for k, m in enumerate(b.vectors, 1):
            if all(map(le, m, v)):
                compared += k
                break
        else:
            compared += len(b.vectors)
            kept.append(v)
    if counter is not None:
        counter.add(compared)
    return Trie(a.height, tuple(sorted(kept + list(b.vectors), key=lex_key)))


def top_slices(t):
    """Split below the root: pairs (label, subtree of height n-1).

    The labels are the distinct last coordinates of the stored vectors, in
    increasing order; each subtree holds the matching vectors with that
    coordinate dropped, still in lex order.
    """
    if t.height < 2:
        raise ValueError(f"cannot slice a trie of height {t.height}")
    return [(d, Trie(t.height - 1, tuple(v[:-1] for v in run)))
            for d, run in groupby(t.vectors, key=lambda v: v[-1])]
