"""Lex-sorted tuple encoding of exponent-vector sets.

A set of length-``n`` vectors is stored as a height ``n`` and the tuple of
its distinct vectors sorted by ``lex_key``, which compares the last
coordinate first.  That is the depth-first order of the prefix tree whose
root-to-leaf paths read the coordinates from position ``n-1`` down to 0, so
each tree operation is a plain operation on the tuple: the subtrees below
the root are the runs of equal last coordinate, and a merge minimalizes
the union.  Tries are immutable; all operations return new tries.
"""

from dataclasses import dataclass
from itertools import groupby

from .core import lex_key, minimalize


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


def min_merge(*tries, counter=None):
    """Union reduced to its minimal elements: generators of the ideal sum.

    ``minimalize`` returns its result in lex order, so it is stored as is.
    """
    heights = {t.height for t in tries}
    if len(heights) != 1:
        raise ValueError(f"cannot merge tries of different heights: {sorted(heights)}")
    union = [v for t in tries for v in t.vectors]
    return Trie(heights.pop(), tuple(minimalize(union, counter)))


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
