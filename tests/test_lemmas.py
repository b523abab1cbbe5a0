"""Structure-lemma property suites, each over its own seeded instance stream.

Every suite draws at least 300 random small ideals and checks one structural
fact about staircases or the incremental update, always against the
exhaustive staircase box rather than against the engines themselves.  The
boxes and the states are those of ``plain_closure``, in all of the ideal's
variables.
"""

import random

import numpy as np

from monideal import GeneratorSet, decompose_oracle
from monideal.core import replace_coord
from monideal.incremental import IncrementalState, lone_matchers, lowering_limits
from monideal.oracle import maximal_points
from conftest import (increment, match_variables, plain_closure, random_ideal,
                      slice_chain, staircase, strictly_below)

INSTANCES = 300


def proper_ideals(seed, count=INSTANCES, **kwargs):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_ideal(rng, **kwargs)
        if not g.is_unit():
            out.append(g)
    return out


def proper_ideal_stream(seed, **kwargs):
    rng = random.Random(seed)
    while True:
        g = random_ideal(rng, **kwargs)
        if not g.is_unit():
            yield g


def incremental_steps(g):
    """Yield ``(state-before, generators, alpha)`` along a lex-order run,
    ``generators`` being those absorbed so far: the pure powers and the
    earlier alphas."""
    art = plain_closure(g)
    state = IncrementalState.start(art)
    alphas = art.alphas()
    generators = [v for v in art.gens if v not in alphas]
    for alpha in alphas:
        yield state, generators, alpha
        state.add_generator(alpha)
        generators.append(alpha)


def test_basis_membership_iff_strictly_below_some_component():
    # a point avoids the ideal exactly when it sits strictly below a component
    for g in proper_ideals(101, max_p=6, max_deg=5):
        art = plain_closure(g)
        box = staircase(art)
        comps = [increment(p) for p in maximal_points(box)]
        free = ~box
        below = np.zeros_like(free)
        for beta in comps:
            below[tuple(slice(0, b) for b in beta)] = True
        assert np.array_equal(free, below)


def test_components_are_shifted_maximal_basis_points():
    # decrementing any component lands on a maximal basis point, and the
    # counts agree, so the correspondence is a bijection
    for g in proper_ideals(103, max_p=6, max_deg=5):
        art = plain_closure(g)
        box = staircase(art)
        maxpts = set(maximal_points(box))
        comps = decompose_oracle(g)
        assert len(comps) == len(maxpts)
        # refold INF back onto the injected bounds before decrementing
        refolded = set()
        for c in comps.comps:
            refolded.add(tuple(art.bounds[i] if c[i] == float("inf") else c[i]
                               for i in range(art.n)))
        assert {tuple(e - 1 for e in c) for c in refolded} == maxpts


def test_untouched_components_stay_components():
    # components whose corner does not strictly contain the new generator
    # survive the update verbatim
    checked = 0
    for g in proper_ideal_stream(107, max_p=6, max_deg=5):
        for state, generators, alpha in incremental_steps(g):
            before = [b for b in state.components if not strictly_below(alpha, b)]
            fresh = IncrementalState(state.n, state.components, generators)
            fresh.add_generator(alpha)
            after = set(fresh.components)
            assert all(b in after for b in before)
            checked += 1
        if checked >= INSTANCES:
            break


def brute_divisors(beta, generators):
    """Generators dividing X^beta, by a scan of all of them."""
    return [m for m in generators if all(e <= b for e, b in zip(m, beta))]


def test_single_variable_matchers_exist():
    # every component admits, for each variable, a dividing generator whose
    # degree meets the component in that variable alone
    for g in proper_ideals(109, max_p=6, max_deg=5):
        art = plain_closure(g)
        state = IncrementalState.start(art)
        for alpha in art.alphas():
            state.add_generator(alpha)
        for beta in state.components:
            divisors = brute_divisors(beta, art.gens)
            profiles = [match_variables(m, beta) for m in divisors]
            for u in range(art.n):
                assert any(pr == (u,) for pr in profiles)


def test_divisor_envelope_equals_component():
    # the coordinatewise maximum of the dividing generators recovers the
    # component exactly
    for g in proper_ideals(113, max_p=6, max_deg=5):
        art = plain_closure(g)
        state = IncrementalState.start(art)
        for alpha in art.alphas():
            state.add_generator(alpha)
        for beta in state.components:
            divisors = brute_divisors(beta, art.gens)
            envelope = tuple(max(m[u] for m in divisors) for u in range(art.n))
            assert envelope == beta


def test_lowering_criterion_matches_oracle():
    # a lowered candidate is a component of the extended ideal exactly when
    # its new exponent clears the blocking degree, in both directions
    checked = 0
    for g in proper_ideal_stream(127, max_p=5, max_deg=5):
        for state, generators, alpha in incremental_steps(g):
            affected = [b for b in state.components if strictly_below(alpha, b)]
            if not affected:
                continue
            extended = GeneratorSet.from_vectors(state.n, generators + [alpha])
            target = set(decompose_oracle(extended).comps)
            # the extended ideal is Artinian, so its components stay finite
            for beta in affected:
                limits = lowering_limits(beta, lone_matchers(beta, state.index))
                for u in range(state.n):
                    cand = replace_coord(beta, u, alpha[u])
                    kept = alpha[u] >= 1 and limits[u] < alpha[u]
                    assert kept == (cand in target)
                    checked += 1
        if checked >= INSTANCES:
            break


def test_slice_membership_reduction():
    # see also test_recursive.TestSliceChain; here with fresh seeds and the
    # instance count pinned
    from monideal.trie import build, paths

    checked = 0
    rng = random.Random(131)
    while checked < INSTANCES:
        g = random_ideal(rng, n_choices=(2, 3), max_p=5, max_deg=4)
        if g.is_unit():
            continue
        art = plain_closure(g)
        n = art.n
        t = build(n, art.gens)
        degrees, tries = map(list, zip(*slice_chain(t)))
        box = staircase(art)
        link_boxes = []
        for trie_k in tries:
            sub = GeneratorSet.from_vectors(n - 1, paths(trie_k))
            link_boxes.append(staircase(plain_closure(sub)))
        gamma = tuple(rng.randrange(c) for c in art.bounds)
        mu, d = gamma[:-1], gamma[-1]
        expected = False
        for k in range(1, len(degrees)):
            if degrees[k - 1] <= d < degrees[k]:
                lb = link_boxes[k - 1]
                expected = all(m < c - 1 for m, c in zip(mu, lb.shape)) and not lb[mu]
        assert (not box[gamma]) == expected
        checked += 1
