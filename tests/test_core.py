"""Order relations, antichain reductions, and Artinian closure."""

import enum
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
from monideal.core import (ArtinianizedIdeal, deartinianize, is_generic, leq, lex_key,
                           maximalize, minimalize, replace_coord, unit_vector)
from monideal.bench import degree_shell
from monideal.files import emit_ideal, parse_ideal
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
        assert art.gens == ((INF, 0), (2, 3), (0, INF))
        assert art.pure_degrees() == (INF, INF)

    def test_showcase_z_bound(self):
        # x and y have native pure powers, z gets z^INF
        art = artinianize(showcase())
        assert art.fixed == (4, 4, INF)
        assert (0, 0, INF) in art.gens
        assert (0, 0, 4) not in art.gens

    def test_zero_ideal(self):
        # no generator uses a variable: the closure has none, and each
        # variable's fixed coordinate is INF, as it appears nowhere
        g = GeneratorSet.from_vectors(2, [])
        art = artinianize(g)
        assert (art.n, art.gens, art.pure_degrees(), art.used) == (0, (), (), ())
        assert art.fixed == (INF, INF)
        assert deartinianize([()], art).comps == ((INF, INF),)

    def test_unit_ideal_adds_nothing(self):
        art = artinianize(GeneratorSet.from_vectors(3, [(0, 0, 0)]))
        assert art.gens == ((),)
        assert art.pure_degrees() == () and art.used == ()

    def test_added_iff_pure_power_injected(self):
        # the closure gained x_k^INF exactly when x_k has no pure power,
        # which its pure degree reads as INF, and every variable's fixed
        # coordinate is INF exactly when it has no pure power, else that
        # power's degree
        rng = random.Random(19)
        ideals = [random_ideal(rng, n_choices=(1, 2, 3, 4)) for _ in range(200)]
        ideals += [GeneratorSet.from_vectors(n, [(0,) * n]) for n in (1, 2, 3)]
        assert sum(g.is_unit() for g in ideals) >= 3
        assert sum(0 < g.closure.n < g.n for g in ideals) > 20
        for g in ideals:
            art = artinianize(g)
            for k, (i, d) in enumerate(zip(art.used, art.pure_degrees())):
                assert unit_vector(art.n, k, d) in art.gens, g
                has_pure = any(v[i] and v.count(0) == g.n - 1 for v in g.gens)
                assert (d == INF) != has_pure, g
            for i in range(g.n):
                assert art.fixed[i] == next((max(v) for v in g.gens
                                             if v.count(0) == g.n - 1 and v[i]), INF)

    def test_pure_degrees_and_alphas(self):
        art = artinianize(showcase())
        assert art.pure_degrees() == (4, 4, INF)
        assert set(art.alphas()) == {(3, 2, 2), (1, 3, 2), (2, 1, 3)}

    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(vectors(n), max_size=10))))
    def test_pure_degrees_match_pure_powers_in_gens(self, case):
        # the closed form off fixed equals a scan of the gens
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
        # the closure injects z^INF, so its components carry INF at z
        # already, and the map back only places columns: no finite
        # coordinate is translated
        art = artinianize(showcase())
        c = ComponentSet.from_vectors(3, [(4, 1, INF), (4, 4, 2), (1, 4, INF)])
        out = deartinianize(c, art)
        assert set(out.comps) == {(4, 1, INF), (4, 4, 2), (1, 4, INF)}
        assert deartinianize([(4, 1, 4)], art).comps == ((4, 1, 4),)

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
            injected = [unit_vector(art.n, k, INF) for k, i in enumerate(art.used)
                        if art.fixed[i] == INF]
            assert art.gens == tuple(minimalize(kept + injected)), g

    def test_relabelled_components_are_antichain(self):
        # the closure decomposed as an ideal of its own, in the used
        # variables and without its INF powers, which are zero, maps back
        # to the original ideal's components; with no variable used it is
        # the empty trie, one empty component, or the unit ideal, none
        for g in closure_cases():
            art = artinianize(g)
            if art.n:
                finite = [v for v in art.gens if INF not in v]
                comps = decompose_incremental(GeneratorSet.from_vectors(art.n, finite))
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
        ``MAX_EXPONENT``, still pass ``from_vectors``'s check, and the
        components form an antichain."""
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


class Level(enum.IntEnum):
    ONE = 1


def per_vector_outcome(validate, n, vectors):
    """What the per-vector loop that ``from_vectors`` ran before its bulk
    check raises on ``vectors``, as ``(type, message)``, or None."""
    try:
        core._validate_variable_count(n)
        for v in [tuple(v) for v in vectors]:
            validate(n, v)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def outcome(construct, n, vectors):
    try:
        construct(n, vectors)
    except Exception as exc:
        return type(exc), str(exc)
    return None


# one invalid (or, for IntEnum and 2^32, valid) vector of each kind, after a
# valid one, so that the message must name the right vector and exponent
BULK_CASES = {
    "bool": [(1, 2), (True, 2)],
    "intenum": [(1, 2), (Level.ONE, 2)],
    "numpy-int64": [(1, 2), (np.int64(2), 2)],
    "numpy-float64-inf": [(1, 2), (np.float64(INF), 2)],
    "float": [(1, 2), (2.0, 2)],
    "nan": [(1, 2), (math.nan, 2)],
    "inf": [(1, 2), (INF, 2)],
    "negative": [(1, 2), (-1, 2)],
    "zero": [(1, 2), (0, 2)],
    "2^32": [(1, 2), (2 ** 32, 2)],
    "2^32+1": [(1, 2), (2 ** 32 + 1, 2)],
    "ragged": [(1, 2), (1, 2, 3)],
    "short": [(1, 2), (1,)],
    "two-bad": [(1, 2), (-1, 2), (1, 2, 3)],
    "empty": [],
}


class TestBulkPaths:
    """Each one-pass path around the engines equals the per-item code it
    replaced."""

    @pytest.mark.parametrize("case", sorted(BULK_CASES))
    @pytest.mark.parametrize("kind", ["generators", "components"])
    def test_from_vectors_raises_as_the_per_vector_loop(self, case, kind):
        construct, validate = {
            "generators": (GeneratorSet.from_vectors, core._validate_generator_vector),
            "components": (ComponentSet.from_vectors, core._validate_component_vector),
        }[kind]
        vectors = BULK_CASES[case]
        assert outcome(construct, 2, vectors) == per_vector_outcome(validate, 2, vectors)

    def test_cases_cover_both_verdicts(self):
        verdicts = {per_vector_outcome(core._validate_generator_vector, 2, vs) is None
                    for vs in BULK_CASES.values()}
        assert verdicts == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.sampled_from([0, 1, 2, core.MAX_EXPONENT, core.MAX_EXPONENT + 1,
                                  -1, INF, -INF, math.nan, 2.0, True, False, Level.ONE,
                                  np.int64(1), np.float64(INF), "1"]),
                 min_size=n - 1, max_size=n + 1).map(tuple), max_size=5))))
    def test_bulk_pass_implies_per_vector_pass(self, case):
        """The bulk tests are sufficient conditions: whatever they pass, the
        per-vector validators pass too.  On exact ints and floats they are
        also necessary, so the fast path is the one taken on such input."""
        n, vs = case
        for bulk, validate in ((core._generators_pass, core._validate_generator_vector),
                               (core._components_pass, core._validate_component_vector)):
            valid = per_vector_outcome(validate, n, vs) is None
            if bulk(n, vs):
                assert valid
            elif valid:
                assert any(type(e) not in (int, float) for v in vs for e in v)

    def test_bulk_check_skips_the_per_vector_loop(self):
        calls = []
        for name in ("_validate_generator_vector", "_validate_component_vector"):
            with mock.patch.object(core, name, side_effect=calls.append):
                GeneratorSet.from_vectors(3, SHOWCASE_GENS)
                ComponentSet.from_vectors(2, [(1, INF), (INF, 2 ** 32)])
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(vectors(n, max_deg=3), max_size=12))))
    def test_from_vectors_stores_the_minimal_generators_in_lex_order(self, case):
        n, vs = case
        g = GeneratorSet.from_vectors(n, vs)
        assert g.gens == tuple(pairwise_minimal(vs))
        assert g == GeneratorSet.from_vectors(n, reversed(vs))

    def test_from_vectors_examples(self):
        vs = [(1, 2), (3, 0), (1, 2), (2, 2), (0, 5), (3, 0)]
        assert GeneratorSet.from_vectors(2, vs).gens == ((3, 0), (1, 2), (0, 5))
        assert GeneratorSet.from_vectors(2, [(0, 3), (2, 0), (0, 3)]).gens == ((2, 0), (0, 3))


def placed(art, v):
    """Reference for the map back, one vector at a time: coordinate ``k`` of
    ``v`` goes to variable ``art.used[k]``, and each unused variable takes
    its ``fixed`` coordinate.  Raises RuntimeError if a coordinate exceeds
    its variable's native pure-power degree."""
    whole = list(art.fixed)
    for i, e in zip(art.used, v):
        if e > art.fixed[i]:
            raise RuntimeError(f"component coordinate {e} exceeds bound {art.fixed[i]}")
        whole[i] = e
    return tuple(whole)


def relabelled(vectors, art):
    """The row-at-a-time map back, as a component set."""
    return ComponentSet._build(len(art.fixed), [placed(art, v) for v in vectors])


def closure_rows(art, rng, count):
    """``count`` seeded vectors in the closure's variables: each coordinate
    is 1 up to the largest finite degree ``t`` of its variable among the
    closure's generators, ``t`` itself, or the pure-power degree, which is
    ``t`` for a native power and INF for an injected one."""
    tops = [max(e for e in col if e != INF) for col in zip(*art.gens)]
    return [tuple(rng.choice([rng.randint(1, t), t, d, d])
                  for t, d in zip(tops, art.pure_degrees()))
            for _ in range(count)]


class TestColumnMapBack:
    """``deartinianize`` maps a column at a time; the reference ``placed``
    a row."""

    def ideals(self):
        rng = random.Random(7)
        out = list(closure_cases())
        out += [random_ideal(rng, n_choices=(1, 2, 3, 4, 5)) for _ in range(60)]
        # x_4 held only by its native pure power x_4^5, x_5 in no generator
        for seed in range(10):
            rest = gen_random(3, 2 + seed % 5, 6, seed=seed).gens
            out.append(GeneratorSet.from_vectors(5, [v + (0, 0) for v in rest]
                                                 + [(0, 0, 0, 5, 0)]))
        return out

    def test_equals_relabel_on_random_closures(self):
        rng = random.Random(11)
        shapes = {"unused": 0, "injected": 0, "n=0": 0}
        for g in self.ideals():
            art = g.closure
            shapes["unused"] += art.n < g.n
            shapes["injected"] += INF in art.pure_degrees()
            shapes["n=0"] += art.n == 0
            for count in (0, 1, 5):
                rows = closure_rows(art, rng, count)
                assert deartinianize(rows, art) == relabelled(rows, art), g
        assert min(shapes.values()) > 0

    def test_no_variable_used(self):
        # the zero ideal's closure has one empty component, the unit
        # ideal's none; both map to the fixed coordinates
        zero = GeneratorSet.from_vectors(3, [])
        unit = GeneratorSet.from_vectors(3, [(0, 0, 0)])
        assert deartinianize([()], zero.closure).comps == ((INF, INF, INF),)
        assert deartinianize([], unit.closure).comps == ()
        held = GeneratorSet.from_vectors(3, [(0, 4, 0)])
        assert held.closure.n == 0
        assert deartinianize([()], held.closure).comps == ((INF, 4, INF),)

    def test_unused_variables_take_their_fixed_coordinates(self):
        g = GeneratorSet.from_vectors(5, [(2, 1, 0, 0, 0), (1, 3, 0, 0, 0),
                                          (0, 0, 0, 5, 0)])
        art = g.closure
        assert (art.used, art.pure_degrees()) == ((0, 1), (INF, INF))
        rows = [(INF, 1), (2, INF), (1, INF)]
        assert deartinianize(rows, art).comps == (
            (INF, 1, INF, 5, INF), (1, INF, INF, 5, INF), (2, INF, INF, 5, INF))
        assert deartinianize(rows, art) == relabelled(rows, art)

    @pytest.mark.parametrize("rows", [[(9, 1, 1)], [(1, 1, INF), (9, 2, 2)],
                                      [(4, 1, 1), (4, 6, 1)]])
    def test_coordinate_above_its_bound_raises(self, rows):
        # the showcase's x and y have native pure powers x^4 and y^4: a
        # coordinate above 4 in their columns raises, whatever the others
        art = artinianize(showcase())
        assert art.pure_degrees() == (4, 4, INF)
        with pytest.raises(RuntimeError, match="exceeds bound"):
            deartinianize(rows, art)
        with pytest.raises(RuntimeError, match="exceeds bound"):
            relabelled(rows, art)

    def test_injected_column_has_no_bound(self):
        # z^INF bounds nothing: any finite z passes, while INF in a native
        # column exceeds that column's pure-power degree
        art = artinianize(showcase())
        rows = [(1, 1, 10 ** 6), (4, 4, INF)]
        assert deartinianize(rows, art) == relabelled(rows, art)
        for rows in ([(INF, 1, 1)], [(1, INF, INF)]):
            with pytest.raises(RuntimeError, match="exceeds bound"):
                deartinianize(rows, art)
            with pytest.raises(RuntimeError, match="exceeds bound"):
                relabelled(rows, art)


def closure_components(engine, g):
    """The closure's components as ``engine`` hands them to the map back,
    and the engine's result."""
    captured = []
    mapped_back = core._mapped_back

    def spy(vectors, art):
        rows = list(vectors)
        captured.extend(rows)
        return mapped_back(rows, art)

    with mock.patch.object(core, "_mapped_back", spy):
        out = engine(g)
    return captured, out


def coordinate_cases():
    """``TestColumnMapBack``'s ideals, the closure cases among them, and
    small ideals of the benchmark's shapes: generic ladders, degree-shell
    subsets and m^d, some once more with every exponent times 1000."""
    rng = random.Random(31)
    cases = TestColumnMapBack().ideals()
    shapes = [gen_random(n, p, p, seed, generic=True)
              for n, p in ((3, 40), (4, 24), (5, 12)) for seed in range(3)]
    for n, d, k in ((3, 12, 30), (4, 7, 40), (5, 5, 40)):
        shell = degree_shell(n, d)
        shapes += [GeneratorSet.from_vectors(n, rng.sample(shell, k)) for _ in range(2)]
    shapes += [GeneratorSet.from_vectors(n, degree_shell(n, d)) for n, d in ((3, 6), (4, 4))]
    shapes += [GeneratorSet.from_vectors(g.n, [tuple(1000 * e for e in v) for v in g.gens])
               for g in shapes[::3]]
    return cases + shapes


class TestClosureCoordinates:
    """The proof in ``deartinianize``'s docstring that lets the map back
    check only the native columns: every finite coordinate of a closure
    component is at least 1 and a degree of its variable among the
    closure's generators, whose finite degrees are the ideal's own.  So one
    in a column whose power was injected is at most that variable's largest
    degree, below the bound one above it that the closure once injected."""

    def test_finite_coordinates_are_generator_degrees(self):
        rows = 0
        for g in coordinate_cases():
            art = g.closure
            degrees = [{v[i] for v in g.gens} for i in art.used]
            for engine in (decompose_incremental, decompose_recursive, decompose_oracle):
                captured, out = closure_components(engine, g)
                assert len(captured) == len(out)
                for beta in captured:
                    assert len(beta) == art.n
                    for k, e in enumerate(beta):
                        assert e == INF or e >= 1 and e in degrees[k], (engine, g, beta)
                rows += len(captured)
        assert rows > 5000


class TestClosureReuse:
    """The closure sorts the generators once: ``from_vectors`` stores them
    lex-sorted, and a set built directly in any order closes the same."""

    def test_direct_set_closes_as_built_one(self):
        rng = random.Random(5)
        for g in closure_cases():
            gens = list(g.gens)
            rng.shuffle(gens)
            direct = GeneratorSet(g.n, tuple(gens))
            built = GeneratorSet.from_vectors(g.n, gens)
            assert built == g == GeneratorSet(g.n, tuple(sorted(gens, key=lex_key)))
            want = artinianize(direct)
            assert isinstance(want, ArtinianizedIdeal)
            assert artinianize(built) == want
            assert artinianize(parse_ideal(emit_ideal(direct))) == want
            assert want.gens == tuple(sorted(want.gens, key=lex_key))

    def test_unit_and_zero(self):
        for n in (1, 3):
            for vs in ([], [(0,) * n], [(0,) * n, (1,) * n]):
                built = GeneratorSet.from_vectors(n, vs)
                direct = GeneratorSet(n, built.gens)
                assert artinianize(direct) == artinianize(built)
                assert direct.is_unit() == built.is_unit() == bool(vs)

    def test_stored_order_is_not_a_field(self):
        """No order is stored beside ``gens``: the lex order is that field
        itself, and the cached closure is no field either."""
        g = GeneratorSet.from_vectors(3, SHOWCASE_GENS)
        assert g.gens == tuple(sorted(SHOWCASE_GENS, key=lex_key))
        assert set(vars(g)) == {"n", "gens", "names"}
        direct = GeneratorSet(3, g.gens)
        assert g.closure == direct.closure
        assert g == direct and hash(g) == hash(direct)
        assert repr(g) == repr(direct)
