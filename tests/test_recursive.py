"""Staircase-recursive engine."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from monideal import (GeneratorSet, INF, OpCounter, decompose_incremental,
                      decompose_oracle, decompose_recursive, gen_random)
from monideal import recursive
from monideal.bench import degree_shell
from monideal.core import leq, lex_key, unit_vector
from monideal.files import emit_components
from monideal.incremental import IncrementalState
from monideal.recursive import corners, decompose_trie, difference, splice
from monideal.trie import build, is_thin, min_merge, paths, top_slices
import conftest
from conftest import (SHOWCASE_GENS, is_antichain, near_shell, plain_closure, random_ideal,
                      relabel, showcase, slice_chain, staircase)

PUBLISHED = {(4, 4, 2), (4, 2, 3), (3, 3, 3), (4, 1, INF), (2, 3, INF), (1, 4, INF)}


def bivariate(vectors):
    """The recursive engine on a two-variable ideal: the closure supplies
    missing pure powers and the height-2 base case pairs the corners."""
    return decompose_recursive(GeneratorSet.from_vectors(2, vectors))


class TestBivariate:
    def test_missing_pure_powers_become_inf(self):
        got = bivariate([(2, 3)])
        assert set(got.comps) == {(INF, 3), (2, INF)}

    def test_two_pure_powers(self):
        assert bivariate([(3, 0), (0, 2)]).comps == ((3, 2),)

    def test_three_step_staircase(self):
        got = bivariate([(3, 0), (1, 1), (0, 2)])
        assert set(got.comps) == {(3, 1), (1, 2)}

    def test_unit_and_zero(self):
        assert bivariate([(0, 0)]).comps == ()
        assert bivariate([]).comps == ((INF, INF),)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            bivariate([(1, 2, 3)])

    def test_matches_oracle_on_random_staircases(self):
        rng = random.Random(17)
        for _ in range(100):
            g = random_ideal(rng, n_choices=(2,))
            assert set(decompose_recursive(g).comps) == \
                set(decompose_oracle(g).comps)


class TestSetOps:
    def test_difference(self):
        assert difference([(4, 2), (3, 3)], [(3, 3)]) == [(4, 2)]
        assert difference([(1, 1)], [(2, 2)]) == [(1, 1)]
        assert difference([(1, 1)], [(1, 1), (2, 2)]) == []


class TestEngine:
    def test_showcase_via_driver(self):
        assert set(decompose_recursive(showcase()).comps) == PUBLISHED

    def test_showcase_via_inf_trie(self):
        t = build(3, SHOWCASE_GENS + [(0, 0, INF)])
        assert set(decompose_trie(t)) == PUBLISHED

    def test_single_variable(self):
        g = GeneratorSet.from_vectors(1, [(3,)])
        assert decompose_recursive(g).comps == ((3,),)

    def test_edge_graph_ideal(self):
        g = GeneratorSet.from_vectors(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2)])
        assert set(decompose_recursive(g).comps) == {(INF, 1, 1), (1, INF, 1), (1, 1, 2)}

    def test_unit_and_zero(self):
        assert decompose_recursive(GeneratorSet.from_vectors(3, [(0, 0, 0)])).comps == ()
        assert decompose_recursive(GeneratorSet.from_vectors(3, [])).comps == \
            ((INF, INF, INF),)

    def test_variables_no_non_pure_generator_uses_split_off(self, monkeypatch):
        # the showcase with x_3^2, x_4 in no generator and x_5^7: only the
        # showcase's height-3 trie is decomposed
        heights = []
        inner = recursive.decompose_trie

        def spy(t, counter=None):
            heights.append(len(t[0]))
            return inner(t, counter)

        monkeypatch.setattr(recursive, "decompose_trie", spy)
        g = GeneratorSet.from_vectors(6, [v + (0, 0, 0) for v in SHOWCASE_GENS]
                                      + [(0, 0, 0, 2, 0, 0), (0, 0, 0, 0, 0, 7)])
        got = decompose_recursive(g)
        assert max(heights) == 3
        assert set(got) == {v + (2, INF, 7) for v in PUBLISHED}
        assert got == decompose_incremental(g)

    def test_split_off_variables_anywhere(self):
        # random ideals with variables placed among theirs that appear in a
        # pure power or in no generator at all
        rng = random.Random(53)
        for _ in range(100):
            g = random_ideal(rng)
            n = g.n + rng.randint(1, 3)
            used = sorted(rng.sample(range(n), g.n))
            powers = [i for i in range(n) if i not in used and rng.random() < 0.5]
            vectors = [tuple(v[used.index(i)] if i in used else 0 for i in range(n))
                       for v in g.gens]
            vectors += [tuple(rng.randint(1, 5) if j == i else 0 for j in range(n))
                        for i in powers]
            h = GeneratorSet.from_vectors(n, vectors)
            assert emit_components(decompose_recursive(h)) == \
                emit_components(decompose_incremental(h))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pure_powers_alone_are_read_off(self, n):
        # a trie of one pure power per variable has their degrees as its
        # one component, at any height, and charges nothing
        degs = (2, INF, 3, 4, INF)[:n]
        t = tuple(sorted((unit_vector(n, i, d) for i, d in enumerate(degs)), key=lex_key))
        counter = OpCounter()
        assert decompose_trie(t, counter) == [degs]
        assert counter.ops == 0

    def test_one_generator_in_many_variables(self, monkeypatch):
        # x_1 ... x_1100: the closure injects x_i^INF for every variable,
        # and link 0, those powers but the last, is read off by the
        # pure-power base case instead of recursing once per variable,
        # which exhausted the recursion limit
        heights = []
        inner = recursive.decompose_trie

        def spy(t, counter=None):
            heights.append(len(t[0]))
            return inner(t, counter)

        monkeypatch.setattr(recursive, "decompose_trie", spy)
        n = 1100
        g = GeneratorSet.from_vectors(n, [(1,) * n])
        got = decompose_recursive(g)
        assert heights == [n, n - 1]
        assert set(got) == {tuple(1 if j == i else INF for j in range(n)) for i in range(n)}
        assert got == decompose_incremental(g)

    def test_counter_counts_something(self):
        counter = OpCounter()
        decompose_recursive(showcase(), counter=counter)
        assert counter.ops > 0

    def test_matches_oracle_on_random_ideals(self):
        rng = random.Random(23)
        for _ in range(200):
            g = random_ideal(rng)
            assert set(decompose_recursive(g).comps) == set(decompose_oracle(g).comps)

    def test_no_duplicate_components(self, monkeypatch):
        # the engine keeps no run-time check of the disjointness proof in
        # ``decompose_trie``'s docstring; check every call, not only the top
        inner = recursive.decompose_trie
        heights = []

        def spy(t, counter=None):
            out = inner(t, counter)
            assert len(set(out)) == len(out), t
            heights.append(len(t[0]) if t else 0)
            return out

        monkeypatch.setattr(recursive, "decompose_trie", spy)
        rng = random.Random(29)
        for _ in range(100):
            g = random_ideal(rng)
            comps = decompose_recursive(g).comps
            assert len(set(comps)) == len(comps)
        # height 0: a closure that uses no variable
        assert set(heights) == {0, 2, 3, 4}


def slice_chain_walk(t, counter=None):
    """Reference for the height-2 base case and the chain tail: decompose
    every link of the slice chain from scratch, walking its own chain down
    to height one, and tag what each step loses."""

    def walk(link):
        return decompose_trie(link, counter) if len(link[0]) == 1 \
            else slice_chain_walk(link, counter)

    chain = slice_chain(t, counter)
    _, link = next(chain)
    prev = walk(link)
    out = []
    for d, link in chain:
        cur = walk(link)
        out.extend(v + (d,) for v in difference(prev, cur, counter))
        prev = cur
    return out


def mixed_ideal(n, p, d, seed):
    """A degree-``d`` shell subset scaled to the size of a generic ladder
    of ``p`` points, plus the ladder: the shell's slices hold several
    vectors, and the ladder's points add one-vector slices after them."""
    rng = random.Random(seed)
    shell = degree_shell(n, d)
    scale = max(1, p // d)
    vectors = [tuple(scale * e for e in v)
               for v in rng.sample(shell, rng.randint(1, len(shell)))]
    return GeneratorSet.from_vectors(
        n, vectors + list(gen_random(n, p, 2 * p, seed, generic=True).gens))


@st.composite
def chain_ideals(draw, n=None):
    """Generic ladders, degree-shell subsets and the two mixed, in ``n``
    variables, or 3-6 when ``n`` is None."""
    if n is None:
        n = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    p = draw(st.integers(1, 40))
    d = draw(st.integers(1, 5 if n <= 4 else 3))
    kind = draw(st.sampled_from(("generic", "shell", "mixed")))
    if kind == "generic":
        return gen_random(n, p, 2 * p, seed, generic=True)
    if kind == "shell":
        shell = degree_shell(n, d)
        k = draw(st.integers(1, len(shell)))
        return GeneratorSet.from_vectors(n, random.Random(seed).sample(shell, k))
    return mixed_ideal(n, p, d, seed)


@st.composite
def height_three_tries(draw):
    """Tries of three-variable ``chain_ideals``, their missing pure powers
    at the plain closure's bounds or at INF."""
    g = draw(chain_ideals(3))
    return inf_padded_trie(g) if draw(st.booleans()) else build(3, plain_closure(g).gens)


def has_tail(t):
    """The tail rule, from height four up: some slice lies between the first
    and the last, and the trie is thin or the slice before the last holds
    one vector.  Height three splices every slice."""
    if len(t[0]) < 4:
        return False
    slices = top_slices(t)
    return len(slices) > 2 and (is_thin(t) or len(slices[-2][1]) == 1)


def tail_start(t):
    """The link a tail starts from: 0 for a thin trie, else ``K``, the index
    of the last multi-vector slice before the last slice, or 0."""
    if is_thin(t):
        return 0
    return max(i for i, (_, tk) in enumerate(top_slices(t)[:-1]) if i == 0 or len(tk) > 1)


def spy_tails(monkeypatch):
    """Record ``(height, K, m)`` for every chain tail ``decompose_trie``
    starts, ``K`` being its ``tail_start`` and ``m`` the number of
    multi-vector slices it absorbs, none unless the trie is thin.  Check
    that a trie starts a tail exactly under ``has_tail``, and from link
    ``K``: the tail's state is seeded with link ``K``'s vectors.  Height-2
    and height-3 tries start none."""
    tails, stack = [], []
    inner = recursive.decompose_trie

    def spy(t, counter=None):
        stack.append([t, 0])
        try:
            out = inner(t, counter)
        finally:
            _, started = stack.pop()
        assert started == has_tail(t)
        return out

    class Recording(IncrementalState):
        def __init__(self, n, components, generators, counter=None):
            super().__init__(n, components, generators, counter)
            t = stack[-1][0]
            stack[-1][1] += 1
            k, slices = tail_start(t), top_slices(t)
            assert k < len(slices) - 2
            assert tuple(generators) == list(slice_chain(t))[k][1]
            tails.append((len(t[0]), k, sum(len(tk) > 1 for _, tk in slices[k + 1:])))

    monkeypatch.setattr(recursive, "decompose_trie", spy)
    monkeypatch.setattr(recursive, "IncrementalState", Recording)
    return tails


def spy_height_three(monkeypatch):
    """Fail if a height-3 ``decompose_trie`` call merges, takes a
    ``difference`` or decomposes a link: its slices go through ``splice``
    alone.  Return the heights of the calls, in order."""
    heights, stack = [], []
    inner = recursive.decompose_trie

    def no_walk(f):
        def spy(*args, **kwargs):
            assert stack[-1] != 3, f"{f.__name__} at height 3"
            return f(*args, **kwargs)
        return spy

    def spy(t, counter=None):
        assert not stack or stack[-1] != 3, "a link decomposed at height 3"
        stack.append(len(t[0]) if t else 0)
        heights.append(stack[-1])
        try:
            return inner(t, counter)
        finally:
            stack.pop()

    for name in ("min_merge", "difference"):
        monkeypatch.setattr(recursive, name, no_walk(getattr(recursive, name)))
    monkeypatch.setattr(recursive, "decompose_trie", spy)
    return heights


class TestChainTail:
    @settings(max_examples=150, deadline=None)
    @given(chain_ideals())
    def test_matches_incremental_byte_for_byte(self, g):
        assert emit_components(decompose_recursive(g)) == \
            emit_components(decompose_incremental(g))

    @settings(max_examples=200, deadline=None)
    @given(height_three_tries())
    def test_height_three_tail_matches_the_walk(self, t):
        # a height-3 trie splices every slice, builds no state, and emits
        # what the walk of its slice chain emits
        with pytest.MonkeyPatch.context() as mp:
            tails = spy_tails(mp)
            heights = spy_height_three(mp)
            got = recursive.decompose_trie(t)
        assert tails == [] and heights == [3]
        assert sorted(got) == sorted(slice_chain_walk(t))

    @pytest.mark.parametrize("m", [1, 2, 12, 13])
    def test_height_three_tail_needs_a_long_chain(self, monkeypatch, m):
        # x^(m+2), y^(m+2), z^(m+1) and x^(m+1-k) y^k z^k for k = 1..m: one
        # vector in each of the m slices between the first and the last.
        # A chain of any length splices, with no walk and no state; none is
        # too short (the name is kept from when a floor of 13 slices held)
        tails = spy_tails(monkeypatch)
        heights = spy_height_three(monkeypatch)
        t = build(3, [(m + 2, 0, 0), (0, m + 2, 0), (0, 0, m + 1)]
                  + [(m + 1 - k, k, k) for k in range(1, m + 1)])
        got = recursive.decompose_trie(t)
        assert tails == [] and heights == [3]
        assert sorted(got) == sorted(slice_chain_walk(t))

    def test_tail_runs_on_generic_input(self, monkeypatch):
        tails = spy_tails(monkeypatch)
        for n in (3, 4, 5, 6):
            heights = set()
            for seed in range(3):
                del tails[:]
                g = gen_random(n, 30, 60, seed, generic=True)
                assert decompose_recursive(g) == decompose_incremental(g)
                # from height four up, the top trie's tail starts after its
                # first link, and a lower trie has a tail unless it holds
                # pure powers alone; height three splices and has none
                assert any(tail[:2] == (n, 0) for tail in tails) == (n > 3)
                heights |= {h for h, _, _ in tails}
            assert heights == set(range(4, n + 1))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_power_ideal_builds_no_state(self, monkeypatch, n):
        # every slice of m^6 but the last holds several vectors, at every
        # height, so no trie has a tail before its last slice (and height
        # three builds no state anyway)
        tails = spy_tails(monkeypatch)
        g = GeneratorSet.from_vectors(
            n, [v for v in itertools.product(range(7), repeat=n) if sum(v) == 6])
        assert decompose_recursive(g) == decompose_incremental(g)
        assert tails == []

    def test_height_three_walks_no_link(self, monkeypatch):
        # no height-3 call merges, takes a difference or decomposes a link,
        # whether it is the top trie or a link of a higher one
        heights = spy_height_three(monkeypatch)
        rng = random.Random(59)
        for _ in range(100):
            g = random_ideal(rng, n_choices=(3, 4, 5))
            assert emit_components(decompose_recursive(g)) == \
                emit_components(decompose_incremental(g))
        for n in (3, 4, 5):
            g = gen_random(n, 30, 60, 1, generic=True)
            assert decompose_recursive(g) == decompose_incremental(g)
        assert {3, 4, 5} <= set(heights)

    def test_tail_after_a_multi_vector_slice(self, monkeypatch):
        # a thick trie starts its tail after its last multi-vector slice; a
        # thin one starts it after link 0 and absorbs its multi-vector
        # slices vector by vector (3 of the 74 tails here)
        tails = spy_tails(monkeypatch)
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(4, 6)
            g = mixed_ideal(n, rng.randint(5, 30), rng.randint(2, 3), rng.randrange(2 ** 32))
            assert decompose_recursive(g) == decompose_incremental(g)
        assert all(k == 0 for _, k, m in tails if m)
        assert sum(k > 0 for _, k, _ in tails) > 20
        assert any(m for _, _, m in tails)

    def test_inf_labelled_tail(self, monkeypatch):
        # every pure power of a generic ladder is missing, so the trie holds
        # them with label INF: the head's pure powers enter the tail's state
        # and the last slice, the power of x_4, has label INF
        tails = spy_tails(monkeypatch)
        for seed in range(20):
            g = gen_random(4, 25, 50, seed, generic=True)
            t = inf_padded_trie(g)
            assert top_slices(t)[-1] == (INF, ((0, 0, 0),))
            del tails[:]
            got = recursive.decompose_trie(t)
            assert any(tail[:2] == (4, 0) for tail in tails)
            assert sorted(got) == sorted(slice_chain_walk(t))
            assert set(got) == set(decompose_recursive(g).comps)
            assert any(v[-1] == INF for v in got)


# Thin tries whose slice 1 is (5, 3, 1, ...) then (3, 5, 1, ...): the first
# vector lowers the one component of link 0, all 9s, to (5, 9, 9, ...) among
# others, and the second removes that new component again.
CREATED_AND_REMOVED = [
    [(9, 0, 0, 0), (0, 9, 0, 0), (0, 0, 9, 0), (5, 3, 1, 1), (3, 5, 1, 1),
     (2, 2, 2, 2), (1, 7, 1, 3), (0, 0, 0, 4)],
    [(9, 0, 0, 0, 0), (0, 9, 0, 0, 0), (0, 0, 9, 0, 0), (0, 0, 0, 9, 0),
     (5, 3, 1, 1, 1), (3, 5, 1, 1, 1), (2, 2, 2, 2, 2), (1, 7, 1, 1, 3),
     (7, 1, 1, 1, 4), (0, 0, 0, 0, 5)],
]


class TestThinAbsorb:
    """A thin trie, from height four up, starts its tail after link 0 and
    absorbs every later slice into the state, a multi-vector one vector by
    vector."""

    @pytest.mark.parametrize("vectors", CREATED_AND_REMOVED)
    def test_a_component_made_within_the_slice_is_not_emitted(self, monkeypatch, vectors):
        n = len(vectors[0])
        t = build(n, vectors)
        assert is_thin(t) and len(top_slices(t)[1][1]) == 2
        removed = []
        inner = IncrementalState.add_generator

        def spy(self, alpha, created=None):
            out = inner(self, alpha, created)
            removed.extend(out)
            return out

        tails = spy_tails(monkeypatch)
        monkeypatch.setattr(IncrementalState, "add_generator", spy)
        got = recursive.decompose_trie(t)
        assert (n, 0, 1) in tails
        made = (5,) + (9,) * (n - 2)
        assert made in removed and made + (1,) not in got
        assert sorted(got) == sorted(slice_chain_walk(t))
        g = GeneratorSet.from_vectors(n, vectors)
        assert emit_components(decompose_recursive(g)) == \
            emit_components(decompose_incremental(g))

    @pytest.mark.parametrize("p", [60, 120, 180, 240, 300])
    def test_near_shell_matches_incremental_and_the_walk(self, monkeypatch, p):
        g = near_shell(4, p, 1)
        t = build(4, g.closure.gens)
        tails = spy_tails(monkeypatch)
        got = recursive.decompose_trie(t)
        assert tails[0][:2] == (4, 0) and tails[0][2] > 0
        assert sorted(got) == sorted(slice_chain_walk(t))
        assert emit_components(decompose_recursive(g)) == \
            emit_components(decompose_incremental(g))


@st.composite
def bivariate_tries(draw):
    """A minimal height-2 trie with a y-free vector: y-degrees rise from 0
    while x-degrees fall, optionally ending free of x, with INF labels."""
    m = draw(st.integers(1, 8))
    xs = sorted(draw(st.sets(st.integers(1, 30), min_size=m, max_size=m)), reverse=True)
    ys = [0] + sorted(draw(st.sets(st.integers(1, 30), min_size=m - 1, max_size=m - 1)))
    if draw(st.booleans()):
        xs[-1] = 0
    if draw(st.booleans()):
        xs[0] = INF
    if m > 1 and draw(st.booleans()):
        ys[-1] = INF
    return build(2, zip(xs, ys))


class TestHeightTwoBase:
    @settings(max_examples=300, deadline=None)
    @given(bivariate_tries())
    def test_corners_match_the_slice_chain(self, t):
        corners, walk = OpCounter(), OpCounter()
        assert decompose_trie(t, corners) == slice_chain_walk(t, walk)
        assert corners.ops <= walk.ops

    def test_no_y_free_vector_raises(self):
        with pytest.raises(ValueError, match="free of the last variable"):
            decompose_trie(build(2, [(3, 1), (1, 2)]))

    def test_no_y_free_vector_in_link_0_raises_at_height_three(self):
        # link 0, <xy>, is never decomposed at height 3, and is checked anyway
        with pytest.raises(ValueError, match="free of the last variable"):
            decompose_trie(build(3, [(1, 1, 0), (0, 0, 1)]))

    def test_recursion_never_reaches_height_one(self, monkeypatch):
        heights = []
        inner = recursive.decompose_trie

        def spy(t, counter=None):
            heights.append(len(t[0]) if t else 0)
            return inner(t, counter)

        monkeypatch.setattr(recursive, "decompose_trie", spy)
        rng = random.Random(41)
        for _ in range(100):
            decompose_recursive(random_ideal(rng))
        # height 0: a closure that uses no variable
        assert set(heights) == {0, 2, 3, 4}


def minimal(vectors):
    """The distinct minimal elements of ``vectors``."""
    return {v for v in vectors if not any(w != v and leq(w, v) for w in vectors)}


@st.composite
def staircases(draw):
    """A minimal Artinian staircase, its ``b`` rising from 0 and its ``a``
    falling to 0, either end optionally INF, and a slice: a lex-sorted
    antichain of finite vectors, none of which a staircase vector divides,
    that may hold a y-free ``(a, 0)`` and an x-free ``(0, b)``."""
    m = draw(st.integers(2, 8))
    xs = sorted(draw(st.sets(st.integers(1, 30), min_size=m - 1, max_size=m - 1)),
                reverse=True) + [0]
    ys = [0] + sorted(draw(st.sets(st.integers(1, 30), min_size=m - 1, max_size=m - 1)))
    if draw(st.booleans()):
        xs[0] = INF
    if draw(st.booleans()):
        ys[-1] = INF
    stairs = list(zip(xs, ys))

    def free_vector():
        # below, in x, the vector with the largest b at most v_b, which is
        # not the last: the last, with a = 0, would divide it
        k = draw(st.integers(0, m - 2))
        return (draw(st.integers(0, min(xs[k], 41) - 1)),
                draw(st.integers(ys[k], min(ys[k + 1], 41) - 1)))

    vs = [free_vector() for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        vs.append((draw(st.integers(0, min(xs[0], 41) - 1)), 0))
    if draw(st.booleans()):
        vs.append((0, draw(st.integers(0, min(ys[-1], 41) - 1))))
    return stairs, tuple(sorted(minimal(vs), key=lex_key))


def bivariate_irr(vectors):
    """Oracle components of the ideal of a staircase's finite vectors."""
    return set(decompose_oracle(GeneratorSet.from_vectors(
        2, [v for v in vectors if INF not in v])).comps)


class TestSplice:
    @settings(max_examples=300, deadline=None)
    @given(staircases())
    def test_splice_keeps_a_staircase_and_returns_the_lost_corners(self, case):
        before, tk = case
        stairs, counter = list(before), OpCounter()
        lost = splice(stairs, tk, counter)
        assert sorted(lost) == sorted(set(corners(before)) - set(corners(stairs)))
        assert set(lost) == bivariate_irr(before) - bivariate_irr(stairs)
        assert stairs == sorted(minimal(before + list(tk)), key=lex_key)
        assert stairs[0][1] == 0 and stairs[-1][0] == 0
        assert set(corners(stairs)) == bivariate_irr(stairs)
        # the bisection, the window read with the vector that stops it,
        # if there is one, and one op per slice vector past the first
        window = [x for x in before if x[1] >= tk[0][1] and x[0] >= tk[-1][0]]
        read = len(window) + (before[-1] not in window)
        assert counter.ops == len(before).bit_length() + read + len(tk) - 1
        if len(tk) == 1:
            # the window is the run the vector replaces
            run = len(before) + 1 - len(stairs)
            stop = stairs[-1] != tk[0]
            assert counter.ops == len(before).bit_length() + run + stop

    def test_a_corner_survives_when_v_shares_its_b(self):
        # v = (4, 3) replaces (5, 3); the corner (7, 3) of (7, 1) and (5, 3)
        # is the corner of (7, 1) and v too
        stairs = [(9, 0), (7, 1), (5, 3), (0, 5)]
        assert splice(stairs, ((4, 3),)) == [(5, 5)]
        assert stairs == [(9, 0), (7, 1), (4, 3), (0, 5)]

    def test_a_corner_survives_when_v_shares_its_a(self):
        # v = (5, 2) replaces (5, 3); the corner (5, 5) of (5, 3) and (0, 5)
        # is the corner of v and (0, 5) too
        stairs = [(9, 0), (5, 3), (0, 5)]
        assert splice(stairs, ((5, 2),)) == [(9, 3)]
        assert stairs == [(9, 0), (5, 2), (0, 5)]

    def test_an_x_free_vector_becomes_the_last(self):
        stairs = [(9, 0), (7, 1), (5, 3), (0, 5)]
        assert splice(stairs, ((0, 2),)) == [(7, 3), (5, 5)]
        assert stairs == [(9, 0), (7, 1), (0, 2)]

    def test_a_y_free_vector_becomes_the_first(self):
        stairs = [(INF, 0), (7, 1), (5, 3), (0, INF)]
        assert splice(stairs, ((8, 0),)) == [(INF, 1)]
        assert stairs == [(8, 0), (7, 1), (5, 3), (0, INF)]

    def test_a_corner_made_within_the_slice_is_not_returned(self):
        # (5, 3) alone would make the corner (5, 9) with (0, 9), and (3, 5)
        # removes it again: only the old corner (9, 9) is lost
        stairs = [(9, 0), (0, 9)]
        assert splice(stairs, ((5, 3), (3, 5))) == [(9, 9)]
        assert stairs == [(9, 0), (5, 3), (3, 5), (0, 9)]


class TestLastSlice:
    def test_last_slice_emits_the_link_before_it(self):
        # m^2 in three variables: the last slice is z^2 alone, and the
        # link before it, <x^2, xy, y^2, x, y> = <x, y>, loses (1, 1)
        t = build(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)])
        assert top_slices(t)[-1] == (2, ((0, 0),))
        assert sorted(decompose_trie(t)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    @pytest.mark.parametrize("vectors", [
        # no pure power of z: the last slice is y-free but not x-free
        [(2, 0, 0), (0, 2, 0), (1, 0, 1)],
        # z^3 shares its slice with a vector that it would divide
        [(2, 0, 0), (0, 2, 0), (1, 1, 3), (0, 0, 3)],
        # no pure power of the last variable at height four
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 1)],
    ])
    def test_last_slice_not_a_lone_pure_power_raises(self, vectors):
        with pytest.raises(ValueError, match="last slice"):
            decompose_trie(build(len(vectors[0]), vectors))


def inf_padded_trie(g):
    """Trie of ``g``'s generators with every missing pure power as INF."""
    art = plain_closure(g)
    return build(g.n, [relabel(art, v) for v in art.gens])


class TestSliceChain:
    def test_merges_only_antichains(self, monkeypatch):
        # ``min_merge`` filters only the link against the slice, which is
        # exact on antichains where no link vector divides an unequal slice
        # vector: check every merge the engine and the reference walk make.
        # Height 3 splices its slices, so the engine merges no height-2 link
        merged = []
        inner = recursive.min_merge

        def spy(a, b, counter=None):
            assert is_antichain(a) and is_antichain(b)
            assert not any(x != y and leq(x, y) for x in a for y in b)
            merged.append(len(a[0]))
            return inner(a, b, counter)

        monkeypatch.setattr(recursive, "min_merge", spy)
        monkeypatch.setattr(conftest, "min_merge", spy)
        rng = random.Random(43)
        for _ in range(200):
            g = random_ideal(rng, n_choices=(2, 3, 4, 5))
            comps = set(decompose_recursive(g).comps)
            if g.is_unit():
                continue
            t = inf_padded_trie(g)
            if g.n == 2:
                slice_chain_walk(t)
            else:
                assert set(decompose_trie(t)) == comps
        assert set(merged) == {1, 3, 4}

    def test_chain_is_strictly_increasing(self):
        rng = random.Random(31)
        for _ in range(50):
            g = random_ideal(rng, n_choices=(2, 3, 4), max_p=6)
            art = plain_closure(g)
            t = build(art.n, art.gens)
            degrees, tries = map(list, zip(*slice_chain(t)))
            assert degrees == sorted(degrees)
            assert degrees[0] == 0
            for a, b in zip(tries, tries[1:]):
                assert min_merge(a, b) == b  # the next link absorbs the previous
                assert a != b                # and strictly grows

    def test_slice_membership_matches_chain(self):
        # a point (mu, d) avoids the ideal exactly when mu avoids the chain
        # link active at degree d
        rng = random.Random(37)
        for _ in range(50):
            g = random_ideal(rng, n_choices=(2, 3), max_p=6, max_deg=4)
            art = plain_closure(g)
            n = art.n
            if n < 2:
                continue
            t = build(n, art.gens)
            degrees, tries = map(list, zip(*slice_chain(t)))
            box = staircase(art)
            link_boxes = []
            for trie_k in tries:
                sub = GeneratorSet.from_vectors(n - 1, paths(trie_k))
                link_boxes.append(staircase(plain_closure(sub)))
            for _ in range(30):
                gamma = tuple(rng.randrange(c) for c in art.bounds)
                mu, d = gamma[:-1], gamma[-1]
                expected = False
                for k in range(1, len(degrees)):
                    if degrees[k - 1] <= d < degrees[k]:
                        lb = link_boxes[k - 1]
                        inside_link = all(m < c - 1 for m, c in zip(mu, lb.shape)) \
                            and not lb[mu]
                        expected = inside_link
                assert (not box[gamma]) == expected


def ops(engine, g):
    counter = OpCounter()
    engine(g, counter=counter)
    return counter.ops


class TestPaperComparison:
    """The paper's claim in operation counts: incremental wins on generic
    input, recursive on highly non-generic input.  The incremental counts are
    pinned exactly; recursive counts may only fall (criterion 8), but must
    keep the claimed side of the comparison.  On generic input the claim is
    about the paper's pure recursive algorithm, the reference walk: the
    engine, which splices each slice of a three-variable chain into a
    staircase, beats both on the three-variable ladders pinned here.

    The claim holds for that pure slice walk, in ops, and not for this
    engine in wall time.  With its three-variable splice and its chain
    tails the engine takes 0.37-0.91 of the incremental time on generic
    ladders in 3-5 variables, and the engine rule sends them to it; generic
    duals in 4-5 variables stay on the incremental side (README,
    Performance)."""

    def test_incremental_wins_on_generic(self):
        # the paper's pure recursive algorithm decomposes every link of the
        # slice chain from scratch, as the reference walk does (3,395 ops
        # before the link merge charged its pointer's read of the slice);
        # incremental charged 380 while its probe read the injected x^INF
        # power's bucket
        g = gen_random(3, 40, 80, 1, generic=True)
        counter = OpCounter()
        slice_chain_walk(build(3, g.closure.gens), counter)
        assert ops(decompose_incremental, g) == 330 < counter.ops == 3913

    def test_chain_tail_beats_incremental_on_three_variable_generic(self):
        # the engine splices every slice into a staircase, and so charges
        # less than incremental's 330 here (2,472 ops when it walked every
        # link, 854 with two-variable incremental steps that scanned every
        # component, 310 with ones that bisected, 213 when it still
        # decomposed link 0)
        assert ops(decompose_recursive, gen_random(3, 40, 80, 1, generic=True)) == 206

    def test_three_variable_generic_chain_takes_the_tail(self):
        # walking every link charged 225,230 ops here, two-variable
        # incremental steps that scanned every component 75,316, ones that
        # bisected 3,789, and splicing after a decomposed link 0 2,900
        assert ops(decompose_recursive, gen_random(3, 400, 800, 1, generic=True)) <= 2796

    def test_three_variable_generic_chain_scales_near_linearly(self):
        # two-variable incremental steps that scanned every component
        # charged 1,047,734 ops at p = 1500 and 4,209,857 at p = 3000 (4.0x);
        # splicing the staircase charges 12,478 and 27,484
        def rec(p):
            return ops(decompose_recursive, gen_random(3, p, 2 * p, 1, generic=True))

        assert rec(3000) < 2.5 * rec(1500)

    def test_recursive_wins_on_power_of_maximal_ideal(self):
        m8 = GeneratorSet.from_vectors(
            3, [v for v in itertools.product(range(9), repeat=3) if sum(v) == 8])
        inc, rec = ops(decompose_incremental, m8), ops(decompose_recursive, m8)
        # walking every multi-vector slice charged 197 recursive ops here
        assert inc == 337
        assert rec <= 92 < inc

    def test_recursive_has_no_merge_cliff(self):
        # every link merge costs about its own size, not a re-minimalization
        # of the union
        assert ops(decompose_recursive, gen_random(4, 60, 120, 1, generic=True)) <= 3623

    # the ids name the instance alone, so that moving a pin keeps the name
    @pytest.mark.parametrize("n, p, seed, inc", [
        (4, 300, 1, 47113), (5, 150, 1, 77319), (5, 400, 2, 422233)],
        ids=["4-300-1", "5-150-1", "5-400-2"])
    def test_recursive_has_no_near_shell_cliff(self, n, p, seed, inc):
        # a thin trie absorbs its multi-vector slices into the tail instead
        # of decomposing each link before them again: 125,730, 498,499 and
        # 10,653,091 recursive ops when it did.  Incremental charged 50,961,
        # 86,278 and 462,852 while its probe read the buckets of injected
        # x^INF powers
        g = near_shell(n, p, seed)
        assert ops(decompose_incremental, g) == inc
        assert ops(decompose_recursive, g) <= 1.1 * inc

    def test_recursive_has_no_generic_cliff(self):
        # past the first link every slice holds one vector, absorbed by one
        # incremental step instead of decomposing the link again (13.2M ops)
        g = gen_random(5, 100, 200, 1, generic=True)
        counter = OpCounter()
        got = decompose_recursive(g, counter=counter)
        assert len(got) == 871
        assert emit_components(got) == emit_components(decompose_incremental(g))
        assert counter.ops <= 18457
