"""Shared helpers for the test suite."""

import itertools
import random
from dataclasses import dataclass
from operator import le

from monideal import ComponentSet, GeneratorSet, INF, decompose_incremental, gen_random
from monideal.core import (ArtinianizedIdeal, leq, lex_key, maximalize, minimalize,
                           replace_coord, unit_vector)
from monideal.oracle import DEFAULT_BUDGET, _check_budget, _indicator, maximal_points
from monideal.trie import min_merge, top_slices

# The five-generator showcase ideal x^4, y^4, x^3y^2z^2, xy^3z^2, x^2yz^3
# and its published six-component decomposition.
SHOWCASE_GENS = [(4, 0, 0), (0, 4, 0), (3, 2, 2), (1, 3, 2), (2, 1, 3)]

FOURVAR_GENS = [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
                (2, 1, 1, 0), (1, 2, 0, 1)]


def showcase():
    return GeneratorSet.from_vectors(3, SHOWCASE_GENS)


def fourvar():
    return GeneratorSet.from_vectors(4, FOURVAR_GENS)


def random_ideal(rng, n_choices=(2, 3, 4), max_p=8, max_deg=6, generic=False):
    """One small seeded ideal; generic instances respect the degree budget."""
    n = rng.choice(n_choices)
    p = rng.randint(1, max_p)
    maxdeg = rng.randint(1, max_deg)
    if generic and p - 1 > maxdeg:
        p = maxdeg + 1
    return gen_random(n, p, maxdeg, seed=rng.randrange(2 ** 32), generic=generic)


def near_shell(n, p, seed):
    """``p`` distinct seeded vectors near the degree-1000 shell: each is a
    random composition of 1000 into ``n`` positive parts (``n - 1`` distinct
    cut points from 1..999) plus ``randint(0, 40)`` on each coordinate.
    Degrees repeat, so it is not generic; it is not squarefree either, and
    no slice is large."""
    rng = random.Random(seed)
    vectors = set()
    while len(vectors) < p:
        cuts = sorted(rng.sample(range(1, 1000), n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [1000])]
        vectors.add(tuple(x + rng.randint(0, 40) for x in parts))
    return GeneratorSet.from_vectors(n, vectors)


def generic_dual(g):
    """The Alexander dual of ``g`` in the box of ``a``, one more than each
    variable's largest degree among the generators: ``a + 1 - beta`` for
    each component ``beta``, INF read as ``a_i``."""
    a = [max(col) + 1 for col in zip(*g.gens)]
    comps = decompose_incremental(g).comps
    return GeneratorSet.from_vectors(g.n, [
        tuple(a[i] + 1 - (a[i] if b == INF else b) for i, b in enumerate(beta))
        for beta in comps])


def edge_ideal(n, q, seed=1):
    """The edge ideal of a seeded graph G(n, q): x_i x_j for each pair
    ``i < j``, in order, kept when the next ``random()`` is below ``q``."""
    rng = random.Random(seed)
    return GeneratorSet.from_vectors(n, [
        tuple(int(k in (i, j)) for k in range(n))
        for i in range(n) for j in range(i + 1, n) if rng.random() < q])


@dataclass(frozen=True)
class PlainClosure(ArtinianizedIdeal):
    """A finite Artinian closure in all of an ideal's variables: ``bounds[i]``
    is one more than the largest degree of ``x_i``, and ``added[i]`` says
    whether ``x_i^bounds[i]`` was injected."""

    bounds: tuple = ()
    added: tuple = ()


def plain_closure(g):
    """Finite reference closure of ``g`` in all of its ``n`` variables.

    Every variable counts as used: each one lacking a pure power gets
    ``x_i^(maxdeg_i + 1)``, a finite bound where ``g.closure`` injects
    ``x_i^INF``, none is dropped, and the unit ideal gets nothing.
    ``fixed`` holds each variable's pure-power degree, which
    ``pure_degrees`` reads.  ``relabel`` maps injected bounds to INF, so
    the result decomposes the same ideal as ``g.closure``.  Tests that read
    the closure as a finite Artinian ideal in all ``n`` variables, such as
    the lemma suites, the incremental state's and the slice chain's, use it.
    """
    n = g.n
    maxdeg = [max(col, default=0) for col in zip((0,) * n, *g.gens)]
    has_pure = [any(v[i] and v.count(0) == n - 1 for v in g.gens) for i in range(n)]
    bounds = tuple(d + 1 for d in maxdeg)
    added = tuple(not (h or g.is_unit()) for h in has_pure)
    injected = tuple(unit_vector(n, i, bounds[i]) for i in range(n) if added[i])
    fixed = tuple(b if a else b - 1 for b, a in zip(bounds, added))
    return PlainClosure(n, tuple(sorted(g.gens + injected, key=lex_key)), tuple(range(n)),
                        fixed, bounds, added)


def relabel(art, v):
    """A vector ``v`` of the plain closure ``art`` in the original ideal:
    each coordinate equal to an injected bound reads INF."""
    return tuple(INF if a and e == b else e for e, b, a in zip(v, art.bounds, art.added))


def staircase(art, budget=DEFAULT_BUDGET):
    """Membership box of a plain closure, filled by divisibility scan.

    A bool array: ``box[gamma]`` is True iff X^gamma lies in the ideal, and
    the staircase basis (the monomials outside it) is ``np.argwhere(~box)``.
    The box is closed (side ``bounds[i] + 1``) so that every basis point has
    all of its upward neighbours inside the array.  Raises ``BudgetError``
    over ``budget`` cells.
    """
    shape = tuple(c + 1 for c in art.bounds)
    _check_budget(shape, budget)
    return _indicator(art.gens, shape)


def fold_limits(beta, lone):
    """Reference for ``incremental.lowering_limits``: the two-pass fold of
    the lone matchers that ``dividing_generators`` lists as ``(k, m)``
    pairs.  Each matched variable's row is the coordinatewise ``min`` of
    its lone matchers; the rows are copied with their own coordinate masked
    to -INF and zipped, after a -INF seed column, under one ``max``.  A
    finite coordinate of ``beta`` with no row raises ``RuntimeError``."""
    n = len(beta)
    rows = {}
    for k, m in lone:
        row = rows.get(k)
        rows[k] = m if row is None else tuple(map(min, row, m))
    if len(rows) + beta.count(INF) < n:
        raise RuntimeError(f"a finite coordinate of {beta} has no lone matcher")
    masked = [row[:k] + (-INF,) + row[k + 1:] for k, row in rows.items()]
    return list(map(max, zip((-INF,) * n, *masked)))


def match_variables(m, beta):
    """Variables (0-based) where the degree of ``m`` meets that of ``beta``."""
    return tuple(u for u in range(len(beta)) if m[u] == beta[u])


def strictly_below(a, b):
    """True iff every coordinate of ``a`` is strictly less than in ``b``."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(x < y for x, y in zip(a, b))


def increment(v):
    """Raise every finite coordinate by one; INF stays INF."""
    return tuple(x + 1 for x in v)


def plain_components_generate(c, g):
    """Uncompressed reference for ``oracle.components_generate``.

    Tests every point of the plain box, 0 up to the largest finite degree
    of each variable among the generators and components, one at a time
    with ``leq`` and ``strictly_below``: no ranks and no numpy.
    """
    tops = [max(e for e in col if e != INF)
            for col in zip((0,) * g.n, *g.gens, *c.comps)]
    for gamma in itertools.product(*(range(t + 1) for t in tops)):
        inside = any(leq(a, gamma) for a in g.gens)
        below = any(strictly_below(gamma, beta) for beta in c.comps)
        if inside == below:
            return False
    return True


def plain_decompose_oracle(g):
    """Uncompressed reference for ``oracle.decompose_oracle``: the maximal
    points of the plain ``staircase`` box of ``plain_closure``, in all
    ``g.n`` variables, shifted up and relabelled."""
    art = plain_closure(g)
    return ComponentSet.from_vectors(g.n, [relabel(art, increment(p))
                                           for p in maximal_points(staircase(art))])


def lcm_vector(a, b):
    """Exponent vector of lcm(X^a, X^b): the componentwise maximum."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(map(max, a, b))


def is_zero(g):
    """No generators: the zero ideal."""
    return not g.gens


def ideal_sum(g1, g2):
    """Minimal generators of the sum of two monomial ideals."""
    if g1.n != g2.n:
        raise ValueError("ideals live in different variable counts")
    return GeneratorSet.from_vectors(g1.n, list(g1.gens) + list(g2.gens))


def ideal_intersection(g1, g2):
    """Minimal generators of the intersection: pairwise lcms, minimalized."""
    if g1.n != g2.n:
        raise ValueError("ideals live in different variable counts")
    lcms = [lcm_vector(a, b) for a in g1.gens for b in g2.gens]
    return GeneratorSet.from_vectors(g1.n, lcms)


def ideals_equal(g1, g2):
    """True iff two generator sets span the same ideal.

    A monomial ideal has a unique minimal generating set (Miller-Sturmfels,
    *Combinatorial Commutative Algebra*, Lemma 1.2), so the ideals are equal
    exactly when their generators minimalize to the same set, at any
    exponent size.
    """
    if g1.n != g2.n:
        raise ValueError("ideals live in different variable counts")
    return minimalize(g1.gens) == minimalize(g2.gens)


def checked_step(state, alpha):
    """``state.add_generator(alpha)``, checked against a full reduction.

    The components are partitioned again with ``strictly_below``; the step
    must leave ``maximalize`` of the untouched ones plus every lowered
    candidate free of zeros, and return exactly the components it removed.
    Returns what the step returned; raises ``RuntimeError`` otherwise, not
    an assert, so the check also holds under ``python -O``.
    """
    alpha = tuple(alpha)
    before = state.components
    untouched = [b for b in before if not strictly_below(alpha, b)]
    candidates = [replace_coord(b, u, alpha[u]) for b in before
                  if strictly_below(alpha, b) for u in range(len(alpha))]
    lost = state.add_generator(alpha)
    after = state.components
    if (sorted(after, key=lex_key) != maximalize(
            untouched + [c for c in candidates if min(c) >= 1])
            or sorted(lost) != sorted(set(before) - set(after))):
        raise RuntimeError(f"exact update disagrees with full reduction at {alpha}")
    return lost


def pairwise_minimal(vectors):
    """Reference for ``core.minimalize``: the distinct vectors that no other
    one divides, by ``leq`` on every pair, lex-sorted."""
    vs = set(map(tuple, vectors))
    return sorted((v for v in vs if not any(w != v and leq(w, v) for w in vs)), key=lex_key)


def is_antichain(vectors):
    vs = list(vectors)
    for a in vs:
        for b in vs:
            if a is not b and leq(a, b):
                return False
    return True


def full_scan_min_merge(a, b, counter=None):
    """Reference for ``trie.min_merge``: each vector of ``a`` is tested
    against ``b`` from its first vector, up to its first divisor, one op per
    vector tested; the vectors of ``a`` that nothing divides and all of
    ``b``, in lex order."""
    kept = []
    compared = 0
    for v in a:
        for k, m in enumerate(b, 1):
            if all(map(le, m, v)):
                compared += k
                break
        else:
            compared += len(b)
            kept.append(v)
    if counter is not None:
        counter.add(compared)
    return tuple(sorted(kept + list(b), key=lex_key))


def slice_chain(t, counter=None):
    """Degrees of the last variable and the accumulated slice tries.

    Yields ``(d, link)`` pairs in increasing ``d``, lazily.  ``link``
    generates the ideal of all coefficient vectors of generators whose
    last-variable degree is at most ``d``; the chain is strictly increasing.
    These are the links ``decompose_trie`` walks.
    """
    link = None
    for d, tk in top_slices(t):
        link = tk if link is None else min_merge(link, tk, counter=counter)
        yield d, link
