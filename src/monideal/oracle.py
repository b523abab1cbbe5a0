"""Brute-force staircase verifier.

Fills a boolean box with the membership indicator of the ideal, reads the
monomials outside the ideal (the staircase basis), and recovers the
irreducible components as the maximal basis points shifted up by one.  This
is deliberately exhaustive: it exists to certify the fast engines, not to
compete with them, so box sizes are guarded by a budget.

``components_generate`` and ``irr_oracle`` run on a rank-compressed box:
each variable's axis holds only its distinct degrees (``_rank_axes``), so
the box has one cell per combination of distinct degrees, and exponents of
10^6 cost no more than small ones in the same order.
"""

import math

import numpy as np

from .core import INF, deartinianize

DEFAULT_BUDGET = 10_000_000


class BudgetError(Exception):
    """The requested enumeration box exceeds the configured cell budget."""


def _check_budget(shape, budget):
    cells = math.prod(shape)
    if cells > budget:
        raise BudgetError(f"box of {cells} cells exceeds budget {budget}")


def _indicator(vectors, shape):
    # ind[gamma] is True iff some vector divides X^gamma; a generator with a
    # coordinate at or beyond the box edge covers nothing inside it.
    ind = np.zeros(shape, dtype=bool)
    for v in vectors:
        ind[tuple(slice(int(e), None) for e in v)] = True
    return ind


def _rank_axes(n, vectors, budget):
    """Distinct-degree axes of ``vectors`` and the map onto their ranks.

    Axis ``j`` lists, ascending, 0 and every finite degree of variable ``j``
    among ``vectors``.  ``rank(v)`` replaces each coordinate of ``v`` by its
    index on its axis, and INF by the axis length.  Raises BudgetError when
    the box of ``prod(len(axis))`` cells exceeds ``budget``.

    The box over the axes gives the same answers as the plain box.  X^gamma
    lies in the ideal of generators ``alpha`` iff some ``alpha <= gamma``,
    and it lies outside a component m^beta iff ``gamma_j < beta_j`` for
    every ``j`` (INF bounds nothing).  Each test compares ``gamma_j`` only
    with degrees on axis ``j``.  Let ``r(gamma)`` lower each ``gamma_j`` to
    the largest degree ``t <= gamma_j`` on axis ``j``; there is one, since
    0 is on every axis.  For a degree ``a`` on the axis, ``gamma_j >= a``
    iff ``t >= a``, so ``gamma`` and ``r(gamma)`` answer both tests alike,
    and the grid of axis points decides them for all of N^n.  On the grid,
    comparing degrees is comparing ranks: ``alpha <= t`` iff ``rank(alpha)
    <= rank(t)``, and ``t < beta`` iff ``rank(t) < rank(beta)``, with INF
    ranked past every point.  So an indicator filled from ranked generators
    and corners filled from ranked components are exactly the grid's answers.
    """
    axes = [sorted(set(col) - {INF}) for col in zip((0,) * n, *vectors)]
    _check_budget(map(len, axes), budget)
    index = [{e: k for k, e in enumerate(axis)} | {INF: len(axis)} for axis in axes]

    def rank(v):
        return tuple(ix[e] for ix, e in zip(index, v))

    return axes, rank


def maximal_points(box):
    """Basis points whose every upward neighbour lies in the ideal."""
    maximal = ~box
    n = box.ndim
    for axis in range(n):
        up = np.ones_like(box)
        src = [slice(None)] * n
        dst = [slice(None)] * n
        src[axis] = slice(1, None)
        dst[axis] = slice(0, -1)
        up[tuple(dst)] = box[tuple(src)]
        maximal &= up
    return [tuple(map(int, p)) for p in np.argwhere(maximal)]


def irr_oracle(art, budget=DEFAULT_BUDGET):
    """Components of the original ideal read off the staircase of its closure.

    The box is ``_rank_axes``'s over the closure's generators, pure powers
    included, and a maximal point ``k`` of it gives the closure's component
    ``beta_j = axes[j][k_j + 1]``, read as INF past the end of axis ``j``.

    For an Artinian closure that is exact.  A maximal basis point ``q`` of
    the plain staircase has every ``X^(q + e_j)`` in the ideal, so some
    generator has degree ``q_j + 1`` in ``x_j``: ``q_j + 1`` is on axis
    ``j``, the next degree after ``r(q)_j``.  Hence ``q -> rank(r(q))`` and
    ``k -> beta - 1`` are inverse bijections between the maximal points of
    the two boxes, and ``q + 1 = beta``.  The last degree on axis ``j`` is
    ``x_j``'s pure power, so a point outside the ideal has ``k_j + 1`` on
    the axis.

    An injected ``x_j^INF`` ranks past the end of its axis and fills no
    cell.  Read it as ``x_j^N``, N above every finite degree.  By the sum
    rule the components of the ideal plus ``x_j^N`` are the ideal's with
    INF at ``j`` read as N: each meets the one component of ``x_j^N``, N at
    ``j`` and INF elsewhere, in place, and distinct ones stay incomparable.
    That ideal is Artinian in ``x_j``, and its box gains N past the end of
    axis ``j``, a layer of cells all in the ideal, which ``maximal_points``
    already counts as in the ideal past the edge.  So both boxes have the
    same maximal points, and ``beta_j`` is N, read as INF, at the top of
    axis ``j``.
    """
    axes, rank = _rank_axes(art.n, art.gens, budget)
    box = _indicator(map(rank, art.gens), tuple(map(len, axes)))
    tops = [axis + [INF] for axis in axes]
    comps = [tuple(top[k + 1] for top, k in zip(tops, p)) for p in maximal_points(box)]
    return deartinianize(comps, art)


def decompose_oracle(g, budget=DEFAULT_BUDGET):
    """Decompose a generator set by exhaustive staircase enumeration."""
    return irr_oracle(g.closure, budget)


def components_generate(c, g, budget=DEFAULT_BUDGET):
    """True iff the intersection of the components equals the ideal of ``g``.

    Every point of the box over the distinct degrees of the generators and
    of the finite component coordinates (``_rank_axes``) is tested both
    ways: divisible by some generator iff not strictly below any component.
    Equality there certifies equality of the ideals.
    """
    if c.n != g.n:
        raise ValueError("components and generators live in different variable counts")
    axes, rank = _rank_axes(g.n, g.gens + c.comps, budget)
    shape = tuple(map(len, axes))
    ideal = _indicator(map(rank, g.gens), shape)
    below_some = np.zeros(shape, dtype=bool)
    for beta in map(rank, c.comps):
        below_some[tuple(slice(0, k) for k in beta)] = True
    return bool(np.array_equal(ideal, ~below_some))
