"""Shared helpers for the test suite."""

import random

from monideal import GeneratorSet, gen_random
from monideal.core import leq
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


def match_variables(m, beta):
    """Variables (0-based) where the degree of ``m`` meets that of ``beta``."""
    return tuple(u for u in range(len(beta)) if m[u] == beta[u])


def is_antichain(vectors):
    vs = list(vectors)
    for a in vs:
        for b in vs:
            if a is not b and leq(a, b):
                return False
    return True


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
