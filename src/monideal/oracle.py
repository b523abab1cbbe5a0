"""Brute-force staircase verifier.

Fills a boolean box with the membership indicator of the ideal, reads the
monomials outside the ideal (the staircase basis), and recovers the
irreducible components as the maximal basis points shifted up by one.  This
is deliberately exhaustive: it exists to certify the fast engines on small
inputs, not to compete with them, so box sizes are guarded by a budget.
"""

import math

import numpy as np

from .core import ComponentSet, INF, deartinianize, increment

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


def staircase(art, budget=DEFAULT_BUDGET):
    """Membership box of an Artinian closure, filled by divisibility scan.

    A bool array: ``box[gamma]`` is True iff X^gamma lies in the ideal, and
    the staircase basis (the monomials outside it) is ``np.argwhere(~box)``.
    The box is closed (side ``bounds[i] + 1``) so that every basis point has
    all of its upward neighbours inside the array.
    """
    shape = tuple(c + 1 for c in art.bounds)
    _check_budget(shape, budget)
    return _indicator(art.gens, shape)


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
    """Components of the original ideal read off the staircase of its closure."""
    box = staircase(art, budget)
    comps = [increment(p) for p in maximal_points(box)]
    return deartinianize(comps, art)


def decompose_oracle(g, budget=DEFAULT_BUDGET):
    """Decompose a generator set by exhaustive staircase enumeration."""
    if g.is_unit():
        return ComponentSet.from_vectors(g.n, [])
    return irr_oracle(g.closure, budget)


def components_generate(c, g, budget=DEFAULT_BUDGET):
    """True iff the intersection of the components equals the ideal of ``g``.

    Every box point is tested both ways: divisible by some generator iff not
    strictly below any component.  The box is widened past every finite
    component coordinate so that equality on the box certifies equality of
    the ideals.
    """
    if c.n != g.n:
        raise ValueError("components and generators live in different variable counts")
    # one past the largest finite degree of each variable
    shape = tuple(1 + max(e for e in col if e != INF)
                  for col in zip((0,) * g.n, *g.gens, *c.comps))
    _check_budget(shape, budget)
    ideal = _indicator(g.gens, shape)
    below_some = np.zeros(shape, dtype=bool)
    for beta in c.comps:
        corner = tuple(slice(0, s if e == INF else min(int(e), s))
                       for e, s in zip(beta, shape))
        below_some[corner] = True
    return bool(np.array_equal(ideal, ~below_some))
