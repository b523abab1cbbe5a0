"""Lex-sorted tuple encoding of exponent-vector sets.

A set of length-``n`` vectors is stored as a height ``n`` and the tuple of
its distinct vectors sorted by ``lex_key``, which compares the last
coordinate first.  That is the depth-first order of the prefix tree whose
root-to-leaf paths read the coordinates from position ``n-1`` down to 0, so
each tree operation is a plain operation on the tuple: the subtrees below
the root are the runs of equal last coordinate, and a merge of two
antichains filters each against the other and interleaves the survivors.
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
    """Minimal elements of the union of two antichains: generators of the
    ideal sum.

    Both tries must be antichains (no stored vector divides another), as
    every trie the recursive engine merges is: ``build`` of a minimal
    generating set, that trie's top slices, and merges of antichains.  The
    vectors of ``a`` that some vector of ``b`` divides are dropped, then the
    vectors of ``b`` that a surviving vector of ``a`` divides.  The second
    filter is enough: if a dropped ``x`` divides some ``y`` of ``b``, then
    ``y' <= x <= y`` for the ``y'`` of ``b`` that dropped ``x``, so
    ``y' == y`` because ``b`` is an antichain, and ``x == y`` is kept as
    ``y``.  A vector of ``a`` equal to one of ``b`` is dropped by the first
    filter, so the survivors are distinct.  They come back in lex order.

    Each vector is charged to ``counter`` one comparison per vector of the
    other side it is tested against, up to its first divisor, as
    ``minimalize``'s scan charges.
    """
    if a.height != b.height:
        raise ValueError(f"cannot merge tries of heights {a.height} and {b.height}")
    kept_a, charged_a = _undivided(a.vectors, b.vectors)
    kept_b, charged_b = _undivided(b.vectors, kept_a)
    if counter is not None:
        counter.add(charged_a + charged_b)
    return Trie(a.height, tuple(sorted(kept_a + kept_b, key=lex_key)))


def _undivided(vectors, divisors):
    """``vectors`` that no vector of ``divisors`` divides, in order, and the
    comparisons made: up to the first divisor of each vector."""
    kept = []
    compared = 0
    for v in vectors:
        for k, m in enumerate(divisors, 1):
            if all(map(le, m, v)):
                compared += k
                break
        else:
            compared += len(divisors)
            kept.append(v)
    return kept, compared


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
