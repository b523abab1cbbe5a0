"""Order relations, antichain reductions, and Artinian closure."""

import gc
import itertools
import math
import random
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monideal import (ComponentSet, GeneratorSet, INF, artinianize,
                      decompose_incremental, decompose_oracle, decompose_recursive,
                      gen_random)
from monideal import core
from monideal.core import (deartinianize, is_generic, leq, lex_key, maximalize,
                           minimalize, replace_coord, unit_vector)
from conftest import (SHOWCASE_GENS, ideal_intersection, ideal_sum, is_antichain,
                      is_zero, lcm_vector, pairwise_minimal, plain_decompose_oracle,
                      random_ideal, showcase, strictly_below)

exponents = st.one_of(st.integers(0, 6), st.just(INF))


def vectors(n, max_deg=6, with_inf=False):
    elem = exponents if with_inf else st.integers(0, max_deg)
    return st.tuples(*([elem] * n))


def vector_pairs(with_inf=False):
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(vectors(n, with_inf=with_inf), vectors(n, with_inf=with_inf)))


def vector_lists(with_inf=False):
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(vectors(n, with_inf=with_inf), max_size=10))


class TestOrders:
    def test_leq_examples(self):
        assert leq((3, 2, 2), (4, 4, INF))
        assert leq((4, 1, 0), (4, 4, 2))
        assert not leq((4, 4, 2), (4, 1, 0))
        assert not leq((2, 3, INF), (3, 3, 3))

    def test_leq_length_mismatch(self):
        with pytest.raises(ValueError):
            leq((1, 2), (1, 2, 3))

    def test_strictly_below_examples(self):
        assert strictly_below((3, 2, 2), (4, 4, INF))
        assert not strictly_below((1, 3, 2), (4, 4, 2))
        assert not strictly_below((2, 3, 1), (2, 3, 1))

    def test_lex_examples(self):
        assert lex_key((3, 2, 2)) < lex_key((1, 3, 2))
        assert lex_key((1, 3, 2)) < lex_key((2, 1, 3))
        assert lex_key((2, 0)) == lex_key((2, 0))
        assert lex_key((0, 1)) > lex_key((1, 0))

    @given(vector_pairs(with_inf=True))
    def test_leq_antisymmetric(self, pair):
        a, b = pair
        if leq(a, b) and leq(b, a):
            assert a == b

    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(*([vectors(n, with_inf=True)] * 3))))
    def test_leq_transitive_reflexive(self, triple):
        a, b, c = triple
        assert leq(a, a)
        if leq(a, b) and leq(b, c):
            assert leq(a, c)

    @given(vector_pairs(with_inf=True))
    def test_strict_implies_leq(self, pair):
        a, b = pair
        if strictly_below(a, b):
            assert leq(a, b) and a != b

    @given(vector_pairs())
    def test_lex_total(self, pair):
        a, b = pair
        ka, kb = lex_key(a), lex_key(b)
        assert (ka < kb) + (ka == kb) + (ka > kb) == 1
        assert (ka == kb) == (a == b)


class TestAntichains:
    def test_minimalize_examples(self):
        assert minimalize([(4, 0, 0), (3, 2, 2), (4, 2, 2)]) == \
            sorted([(4, 0, 0), (3, 2, 2)], key=lex_key)
        assert minimalize([(2, 3)]) == [(2, 3)]
        assert set(minimalize(SHOWCASE_GENS)) == set(SHOWCASE_GENS)

    def test_maximalize_examples(self):
        assert set(maximalize([(4, 4, 2), (4, 2, 3), (4, 2, 2)])) == \
            {(4, 4, 2), (4, 2, 3)}
        assert maximalize([]) == []
        out = maximalize([(3, 4, INF), (4, 2, INF), (4, 4, 2)])
        assert set(out) == {(3, 4, INF), (4, 2, INF), (4, 4, 2)}

    @given(vector_lists(with_inf=True))
    def test_minimalize_properties(self, vs):
        out = minimalize(vs)
        assert is_antichain(out)
        assert all(any(leq(m, v) for m in out) for v in vs)
        assert minimalize(out) == out

    @given(vector_lists(with_inf=True))
    def test_maximalize_properties(self, vs):
        out = maximalize(vs)
        assert is_antichain(out)
        assert all(any(leq(v, m) for m in out) for v in vs)
        assert maximalize(out) == out


def scan_degree(v):
    """The coordinate sum, INF for a vector mixing INF and -INF."""
    d = sum(v)
    return INF if math.isnan(d) else d


def reference_minimalize(vectors):
    """The plain sequential scan: distinct vectors in (degree, lex) order,
    each kept unless a kept vector divides it."""
    kept = []
    for v in sorted(set(vectors), key=lambda v: (scan_degree(v), lex_key(v))):
        if not any(leq(m, v) for m in kept):
            kept.append(v)
    return sorted(kept, key=lex_key)


def reference_maximalize(vectors):
    negated = reference_minimalize([tuple(-x for x in v) for v in vectors])
    return sorted((tuple(-x for x in v) for v in negated), key=lex_key)


signed = st.one_of(st.integers(0, 4), st.just(INF), st.just(-INF))


class TestKernel:
    """``minimalize``'s numpy kernel against the sequential scan."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
               st.tuples(*([signed] * n)), max_size=48)),
           st.sampled_from([16, 100, core.BLOCK_CELLS]))
    def test_matches_sequential_scan(self, vs, cells):
        # small BLOCK_CELLS values split even short inputs into many blocks
        # and antichain chunks
        with mock.patch.object(core, "BLOCK_CELLS", cells):
            for ours, ref in ((minimalize, reference_minimalize),
                              (maximalize, reference_maximalize)):
                assert ours(vs) == ref(vs)

    @pytest.mark.parametrize("size", [2, 12, 48])
    def test_mixed_lengths_raise(self, size):
        vs = [(i, size - i, 1) for i in range(size - 1)] + [(1, 1)]
        for f in (minimalize, maximalize):
            with pytest.raises(ValueError):
                f(vs)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        inner = core._blocked_scan

        def spy(distinct):
            calls.append(len(distinct))
            return inner(distinct)

        monkeypatch.setattr(core, "_blocked_scan", spy)
        return calls

    def test_one_degree_input_skips_the_kernel(self, kernel_calls):
        # m^8 in four variables, and the edge ideal of a 12-cycle with the
        # chords i ~ i + 3: each is an antichain of one degree
        m8 = [v for v in itertools.product(range(9), repeat=4) if sum(v) == 8]
        edges = [tuple(int(k in (i, (i + s) % 12)) for k in range(12))
                 for i in range(12) for s in (1, 3)]
        for vs in (m8, edges):
            assert minimalize(vs) == sorted(set(vs), key=lex_key)
            assert GeneratorSet.from_vectors(len(vs[0]), vs).p == len(set(vs))
        assert kernel_calls == []

    @pytest.mark.parametrize("vs, out", [
        # degrees INF and nan: (INF, -INF) divides (INF, INF)
        ([(INF, INF), (INF, -INF)], [(INF, -INF)]),
        # both of degree INF, yet one divides the other
        ([(0, 0, INF), (INF, INF, INF)], [(0, 0, INF)]),
        # a nan degree between two equal finite ones
        ([(2, 0, 0), (INF, -INF, 0), (INF, -INF, 1), (0, 2, 0)],
         [(INF, -INF, 0), (2, 0, 0), (0, 2, 0)]),
    ])
    def test_infinite_degrees_keep_the_kernel(self, kernel_calls, vs, out):
        assert minimalize(vs) == out
        assert kernel_calls == [len(vs)]

    def test_mixed_row_is_divided(self):
        # (0, -INF) divides (INF, -INF), whose degree INF + -INF is nan
        assert minimalize([(INF, -INF), (0, -INF)]) == [(0, -INF)]
        assert maximalize([(INF, -INF), (0, -INF)]) == [(INF, -INF)]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.lists(st.tuples(
        *[st.sampled_from([0, 1, INF, -INF])] * n), min_size=1, max_size=20)))
    def test_infinite_alphabet_matches_pairwise_reference(self, vs):
        # rows that mix INF and -INF, against no scan order at all
        assert minimalize(vs) == pairwise_minimal(vs)
        negated = [tuple(-x for x in v) for v in vs]
        assert maximalize(vs) == sorted((tuple(-x for x in v)
                                         for v in pairwise_minimal(negated)), key=lex_key)

    def test_equal_degrees_of_unequal_lengths_raise(self, kernel_calls):
        # the length check runs before the one-degree return
        with pytest.raises(ValueError, match="length mismatch"):
            minimalize([(1, 1, 1), (3,)])
        assert kernel_calls == []

    def test_no_quadratic_cliff(self):
        # 7 minimal vectors and 20,000 distinct vectors they divide: the
        # kernel's temporaries stay blocked, so memory is not O(p^2)
        anti = [(i, 6 - i, 0) for i in range(7)]
        rng = random.Random(7)
        above = set()
        while len(above) < 20000:
            v = tuple(x + rng.randrange(40) for x in rng.choice(anti))
            if v not in anti:
                above.add(v)
        vs = anti + sorted(above)
        tracemalloc.start()
        try:
            out = minimalize(vs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == sorted(anti, key=lex_key)
        assert peak < 8 * 2 ** 20, peak


class TestVectorOps:
    def test_replace_coord_examples(self):
        assert replace_coord((4, 4, INF), 2, 2) == (4, 4, 2)
        assert replace_coord((4, 4, INF), 0, 3) == (3, 4, INF)
        assert replace_coord((3, 3, INF), 2, 3) == (3, 3, 3)

    def test_replace_coord_range(self):
        with pytest.raises(IndexError):
            replace_coord((1, 2), 2, 5)
        with pytest.raises(IndexError):
            replace_coord((1, 2), -1, 5)

    def test_lcm(self):
        assert lcm_vector((2, 0, 3), (1, 4, 3)) == (2, 4, 3)


class TestArtinianize:
    def test_single_generator(self):
        g = GeneratorSet.from_vectors(2, [(2, 3)])
        art = artinianize(g)
        assert art.bounds == (3, 4)
        assert set(art.gens) == {(3, 0), (2, 3), (0, 4)}
        assert art.added == (True, True)

    def test_showcase_z_bound(self):
        art = artinianize(showcase())
        assert art.bounds[2] == 4
        assert art.added == (False, False, True)
        assert (0, 0, 4) in art.gens

    def test_zero_ideal(self):
        # no generator uses a variable: the closure has none, and each
        # variable's fixed coordinate is INF, as it appears nowhere
        g = GeneratorSet.from_vectors(2, [])
        art = artinianize(g)
        assert (art.n, art.gens, art.bounds, art.used) == (0, (), (), ())
        assert art.fixed == (INF, INF)
        assert art.relabel(()) == (INF, INF)

    def test_unit_ideal_adds_nothing(self):
        art = artinianize(GeneratorSet.from_vectors(3, [(0, 0, 0)]))
        assert art.gens == ((),)
        assert art.added == () and art.used == ()

    def test_added_iff_pure_power_injected(self):
        # added[k] holds exactly when the closure gained x_k^bounds[k], and
        # an unused variable's fixed coordinate is INF exactly when it has
        # no pure power, else that power's degree
        rng = random.Random(19)
        ideals = [random_ideal(rng, n_choices=(1, 2, 3, 4)) for _ in range(200)]
        ideals += [GeneratorSet.from_vectors(n, [(0,) * n]) for n in (1, 2, 3)]
        assert sum(g.is_unit() for g in ideals) >= 3
        assert sum(0 < g.closure.n < g.n for g in ideals) > 20
        for g in ideals:
            art = artinianize(g)
            for k in range(art.n):
                assert art.added[k] == (unit_vector(art.n, k, art.bounds[k]) in art.gens), g
            for i in set(range(g.n)) - set(art.used):
                assert art.fixed[i] == next((max(v) for v in g.gens
                                             if v.count(0) == g.n - 1 and v[i]), INF)

    def test_pure_degrees_and_alphas(self):
        art = artinianize(showcase())
        assert art.pure_degrees() == (4, 4, 4)
        assert set(art.alphas()) == {(3, 2, 2), (1, 3, 2), (2, 1, 3)}

    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(vectors(n), max_size=10))))
    def test_pure_degrees_match_pure_powers_in_gens(self, case):
        # the closed form off bounds and added equals a scan of the gens
        n, vs = case
        g = GeneratorSet.from_vectors(n, vs)
        if g.is_unit():
            return
        art = g.closure
        scanned = [None] * art.n
        for v in art.gens:
            nz = [i for i, e in enumerate(v) if e]
            if len(nz) == 1:
                scanned[nz[0]] = v[nz[0]]
        assert art.pure_degrees() == tuple(scanned)

    def test_reading_closure_leaves_no_reference_cycle(self):
        # the cached closure must not point back at its generator set, or
        # the pair is collectable only by the cyclic collector
        g = showcase()
        g.closure
        ref = weakref.ref(g)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del g
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestDeartinianize:
    def test_injected_bound_becomes_inf(self):
        art = artinianize(showcase())
        c = ComponentSet.from_vectors(3, [(4, 1, 4), (4, 4, 2), (1, 4, 4)])
        out = deartinianize(c, art)
        assert set(out.comps) == {(4, 1, INF), (4, 4, 2), (1, 4, INF)}

    def test_native_bound_untouched(self):
        art = artinianize(showcase())
        # x had a native pure power, so a 4 in the first slot stays finite
        out = deartinianize(ComponentSet.from_vectors(3, [(4, 4, 2)]), art)
        assert out.comps == ((4, 4, 2),)

    def test_exceeding_bound_is_internal_error(self):
        art = artinianize(showcase())
        with pytest.raises(RuntimeError):
            deartinianize(ComponentSet.from_vectors(3, [(9, 1, 1)]), art)


class TestClosureMap:
    """The closure keeps the used variables only, and its map back places
    every unused variable's fixed coordinate."""

    ENGINES = (decompose_incremental, decompose_recursive, decompose_oracle)

    def test_zero_ideal_in_two_thousand_variables(self):
        g = GeneratorSet.from_vectors(2000, [])
        art = g.closure
        assert (art.n, art.used, art.gens) == (0, (), ())
        assert art.fixed == (INF,) * 2000
        for engine in self.ENGINES:
            assert engine(GeneratorSet.from_vectors(2000, [])).comps == ((INF,) * 2000,)

    def test_one_product_in_thirty_variables(self):
        # the box over all thirty variables held 2,415,919,104 cells; the
        # closure's box is over x_1 and x_2 alone
        g = GeneratorSet.from_vectors(30, [(1, 1) + (0,) * 28])
        assert g.closure.used == (0, 1)
        want = {(1,) + (INF,) * 29, (INF, 1) + (INF,) * 28}
        for engine in self.ENGINES:
            assert set(engine(g).comps) == want

    def test_native_pure_power_is_a_fixed_coordinate(self):
        # x_3^5 is the only generator in x_3, and x_4 appears in none: in
        # every component x_3 is 5 and x_4 is INF
        rng = random.Random(83)
        for _ in range(40):
            rest = gen_random(3, rng.randint(2, 6), 5, rng.randrange(2 ** 32)).gens
            vs = [v + (0, 0) for v in rest] + [(0, 0, 0, 5, 0)]
            g = GeneratorSet.from_vectors(5, vs)
            if g.is_unit():
                continue
            art = g.closure
            assert 3 not in art.used and 4 not in art.used
            assert art.fixed[3:] == (5, INF)
            outs = [engine(g) for engine in self.ENGINES]
            assert outs[0] == outs[1] == outs[2] and len(outs[0])
            assert all(c[3:] == (5, INF) for c in outs[0])
            assert outs[0] == plain_decompose_oracle(g)


def closure_cases():
    """Generic and non-generic ideals in 1..5 variables, plus the zero and
    the unit ideal of each variable count."""
    cases = []
    for n in range(1, 6):
        cases.append(GeneratorSet.from_vectors(n, []))
        cases.append(GeneratorSet.from_vectors(n, [(0,) * n]))
        for seed in range(3):
            cases.append(gen_random(n, 4 + 4 * seed, 12, seed=10 * n + seed,
                                    generic=True))
            cases.append(gen_random(n, 6 + 6 * seed, 3, seed=10 * n + seed))
        # degree shells: m^2, m^3 and a seeded half of the degree-4 shell,
        # whose repeated degrees all survive minimalization
        for d in (2, 3, 4):
            shell = [v for v in itertools.product(range(d + 1), repeat=n) if sum(v) == d]
            if d == 4:
                shell = random.Random(n).sample(shell, (len(shell) + 1) // 2)
            cases.append(GeneratorSet.from_vectors(n, shell))
    return cases


class TestClosureProofs:
    """The docstring proofs that let the closure skip its antichain passes."""

    def test_closure_is_already_minimal(self):
        # the generators nonzero on a used variable, and the zero vector,
        # restricted to the used variables, plus the injected powers
        for g in closure_cases():
            art = artinianize(g)
            kept = [tuple(v[i] for i in art.used) for v in g.gens
                    if any(v[i] for i in art.used) or not any(v)]
            injected = [unit_vector(art.n, k, art.bounds[k])
                        for k in range(art.n) if art.added[k]]
            assert art.gens == tuple(minimalize(kept + injected)), g

    def test_relabelled_components_are_antichain(self):
        # the closure decomposed as an ideal of its own, in the used
        # variables, maps back to the original ideal's components; with no
        # variable used it is the empty trie, one empty component, or the
        # unit ideal, none
        for g in closure_cases():
            art = artinianize(g)
            if art.n:
                comps = decompose_incremental(GeneratorSet.from_vectors(art.n, art.gens))
            else:
                comps = [] if art.gens else [()]
            out = deartinianize(comps, art)
            assert maximalize(out.comps) == list(out.comps), g
            assert out == decompose_incremental(g) == plain_decompose_oracle(g)

    def test_engine_outputs_validate(self):
        for g in closure_cases():
            decompose_incremental(g).validate()
            decompose_recursive(g).validate()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(*[st.sampled_from(
        [0, 1, 2, 3, core.MAX_EXPONENT - 1, core.MAX_EXPONENT])] * n), max_size=7)
        .map(lambda vs: (n, vs))))
    def test_engine_outputs_pass_the_full_validator(self, case):
        """``deartinianize`` builds its result without validating it; the
        coordinates of every engine's output, on exponents up to
        ``MAX_EXPONENT`` (whose injected bound is one above it), still pass
        ``from_vectors``'s check, and the components form an antichain."""
        n, vs = case
        g = GeneratorSet.from_vectors(n, vs)
        outs = [engine(g) for engine in (decompose_incremental, decompose_recursive,
                                         decompose_oracle)]
        for out in outs:
            assert ComponentSet.from_vectors(n, out.comps) == out
            out.validate()
        assert outs[0] == outs[1] == outs[2]


class TestGenericity:
    def test_generic_example(self):
        g = GeneratorSet.from_vectors(
            3, [(4, 0, 0), (0, 4, 0), (3, 2, 1), (1, 3, 2), (2, 1, 3)])
        assert is_generic(g)

    def test_repeated_degree_is_not_generic(self):
        assert not is_generic(showcase())  # z^2 appears twice

    def test_highly_nongeneric(self):
        g = GeneratorSet.from_vectors(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2)])
        assert not is_generic(g)


class TestSets:
    def test_generator_set_normalizes(self):
        g = GeneratorSet.from_vectors(2, [(2, 2), (1, 1), (1, 1)])
        assert g.gens == ((1, 1),)

    def test_generator_set_preserves_input_order(self):
        g = GeneratorSet.from_vectors(2, [(3, 0), (1, 2), (0, 4)])
        assert g.gens == ((3, 0), (1, 2), (0, 4))

    def test_generator_set_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            GeneratorSet.from_vectors(2, [(1, 2, 3)])
        with pytest.raises(ValueError):
            GeneratorSet.from_vectors(2, [(-1, 0)])
        with pytest.raises(ValueError):
            GeneratorSet.from_vectors(0, [])

    @pytest.mark.parametrize("n", [True, 0, -1, 2.0])
    def test_sets_reject_bad_variable_counts(self, n):
        # bool is an int, but the file headers would read 'ideal True' and
        # 'components True 0', and a count below 1 fails to parse back
        with pytest.raises(ValueError, match="variable count"):
            GeneratorSet.from_vectors(n, [])
        with pytest.raises(ValueError, match="variable count"):
            ComponentSet.from_vectors(n, [])

    def test_unit_and_zero(self):
        assert GeneratorSet.from_vectors(2, [(0, 0), (1, 2)]).is_unit()
        assert is_zero(GeneratorSet.from_vectors(2, []))

    def test_component_set_sorted_and_validated(self):
        c = ComponentSet.from_vectors(2, [(2, INF), (INF, 3)])
        assert c.comps == (c.comps[0], c.comps[1])
        assert c.comps == tuple(sorted(c.comps, key=lex_key))
        c.validate()
        bad = ComponentSet.from_vectors(2, [(1, 1), (2, 2)])
        with pytest.raises(ValueError):
            bad.validate()

    def test_component_set_rejects_zero(self):
        with pytest.raises(ValueError):
            ComponentSet.from_vectors(2, [(0, 1)])

    @pytest.mark.parametrize("bad", [True, np.int64(2), np.float64(2.0), np.float64(INF)])
    def test_component_set_rejects_bool_and_numpy_scalars(self, bad):
        with pytest.raises(ValueError):
            ComponentSet.from_vectors(2, [(bad, 2)])
        with pytest.raises(ValueError):
            GeneratorSet.from_vectors(2, [(bad, 2)])


class TestIdealAlgebra:
    def test_sum_is_union_minimalized(self):
        a = GeneratorSet.from_vectors(2, [(2, 0)])
        b = GeneratorSet.from_vectors(2, [(1, 1), (2, 0)])
        assert set(ideal_sum(a, b).gens) == {(2, 0), (1, 1)}

    def test_intersection_via_lcm(self):
        a = GeneratorSet.from_vectors(2, [(2, 0)])
        b = GeneratorSet.from_vectors(2, [(0, 3)])
        assert ideal_intersection(a, b).gens == ((2, 3),)
