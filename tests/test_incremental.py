"""Incremental engine: partitions, divisor lookup, lowering criterion."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from monideal import (GeneratorSet, INF, OpCounter, artinianize,
                      decompose_incremental, decompose_oracle, decompose_recursive,
                      gen_random)
from monideal.core import deartinianize, leq, lex_key
from monideal import incremental
from monideal.bench import INCREMENTAL_ENVELOPE, degree_shell
from monideal.cli import cli_main
from monideal.core import unit_vector
from monideal.files import emit_ideal
from monideal.incremental import (IncrementalState, dividing_generators, lone_matchers,
                                  lowering_limits, partition_components)
from monideal.recursive import decompose_trie
from monideal.trie import build
from conftest import (checked_step, fold_limits, fourvar, match_variables, near_shell,
                      plain_closure, random_ideal, relabel, showcase, slice_chain,
                      strictly_below)

exponents = st.one_of(st.integers(0, 6), st.just(INF))

PUBLISHED = {(4, 4, 2), (4, 2, 3), (3, 3, 3), (4, 1, INF), (2, 3, INF), (1, 4, INF)}

# the showcase generators with the third-variable power treated as infinite
INF_FLAVOR_START = {
    "components": [(4, 4, INF)],
    "generators": [(4, 0, 0), (0, 4, 0), (0, 0, INF)],
}


def power_ideal(n, d):
    """m^d: every monomial of total degree ``d`` in ``n`` variables."""
    return GeneratorSet.from_vectors(
        n, [v for v in itertools.product(range(d + 1), repeat=n) if sum(v) == d])


def keep_every_lowering(beta, lone, counter=None):
    """A broken ``lowering_limits`` under which no lowered copy is blocked."""
    return [-INF] * len(beta)


def lex_run_ideals():
    """Seeded ideals in 3-5 variables, generic and not, plus m^d."""
    for seed in range(6):
        for n in (3, 4, 5):
            yield gen_random(n, 12, 24, seed, generic=True)
            yield gen_random(n, 16, 5, seed)
    for n, d in ((3, 7), (4, 5), (5, 3)):
        yield power_ideal(n, d)


def floor(state):
    """The largest last coordinate among the retired components, -INF while
    there are none: a step with a smaller one reactivates them."""
    return max((b[-1] for b in state.retired), default=-INF)


def inf_state():
    return IncrementalState(3, INF_FLAVOR_START["components"],
                            INF_FLAVOR_START["generators"])


class TestPartition:
    def test_first_step(self):
        t1, t2 = partition_components([(4, 4, INF)], (3, 2, 2))
        assert t1 == [] and t2 == [(4, 4, INF)]

    def test_second_step(self):
        comps = [(4, 4, 2), (4, 2, INF), (3, 4, INF)]
        t1, t2 = partition_components(comps, (1, 3, 2))
        assert t1 == [(4, 4, 2), (4, 2, INF)]
        assert t2 == [(3, 4, INF)]

    def test_generator_already_inside_means_empty_t2(self):
        # alpha dominated by the staircase: no component strictly above it
        comps = [(2, 2)]
        t1, t2 = partition_components(comps, (2, 0))
        assert t2 == []

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(*([exponents] * n)), max_size=12),
        st.tuples(*([exponents] * n)))))
    def test_agrees_with_strictly_below(self, case):
        comps, alpha = case
        counter = OpCounter()
        t1, t2 = partition_components(comps, alpha, counter)
        assert t1 == [b for b in comps if not strictly_below(alpha, b)]
        assert t2 == [b for b in comps if strictly_below(alpha, b)]
        assert counter.ops == len(comps)


class TestDividingGenerators:
    def test_pure_powers_only(self):
        state = inf_state()
        counter = OpCounter()
        got = dividing_generators((4, 4, INF), state.index, counter)
        # the infinite power stands for zero and is not indexed: there is no
        # bucket (2, INF) to read, and only the two finite powers are charged
        assert got == [(0, (4, 0, 0)), (1, (0, 4, 0))]
        assert counter.ops == 2

    def test_after_first_generator(self):
        state = inf_state()
        state.add_generator((3, 2, 2))
        got = dividing_generators((3, 4, INF), state.index)
        assert got == [(0, (3, 2, 2)), (1, (0, 4, 0))]

    def test_third_step(self):
        state = inf_state()
        state.add_generator((3, 2, 2))
        state.add_generator((1, 3, 2))
        got = dividing_generators((3, 3, INF), state.index)
        assert got == [(0, (3, 2, 2)), (1, (1, 3, 2))]

    def test_multi_matcher_compared_in_each_bucket_and_never_returned(self):
        index = IncrementalState(3, [], [(1, 1, 0), (0, 0, 2)]).index
        counter = OpCounter()
        assert dividing_generators((1, 1, 2), index, counter) == [(2, (0, 0, 2))]
        assert counter.ops == 3

    def test_stops_at_the_first_member_past_the_component(self):
        # bucket (0, 2) is sorted by x_1; the scan reads up to (2, 5, 1), the
        # first member with x_1-degree at least beta_1 = 4, and not (2, 6, 2)
        index = IncrementalState(3, [], [(2, 6, 2), (2, 2, 1), (2, 5, 1), (2, 1, 3)]).index
        counter = OpCounter()
        got = dividing_generators((2, 4, 4), index, counter)
        assert got == [(0, (2, 1, 3)), (0, (2, 2, 1))]
        assert counter.ops == 3

    def test_singleton_bucket_is_read_whole(self):
        # the lone member of bucket (0, 2) has x_1-degree 5 >= beta_1 = 4; it
        # is read and charged once, as the bisection would have charged it,
        # and fails the bump test at x_1
        index = IncrementalState(3, [], [(2, 5, 1)]).index
        counter = OpCounter()
        assert dividing_generators((2, 4, 4), index, counter) == []
        assert counter.ops == 1

    def test_one_variable_reads_the_whole_bucket(self):
        # no second coordinate orders a bucket in one variable: its members
        # all share their degree, and every one is read and returned; the
        # INF vector is not indexed, so probing INF reads nothing
        index = IncrementalState(1, [], [(3,), (5,), (3,), (INF,)]).index
        counter = OpCounter()
        assert dividing_generators((3,), index, counter) == [(0, (3,)), (0, (3,))]
        assert counter.ops == 2
        assert dividing_generators((INF,), index, counter) == []
        assert counter.ops == 2


class TestMatchVariables:
    def test_multi_match(self):
        assert match_variables((1, 1, 0), (1, 1, 2)) == (0, 1)

    def test_pure_power(self):
        assert match_variables((4, 0, 0), (4, 4, INF)) == (0,)

    def test_single_match(self):
        assert match_variables((3, 2, 2), (3, 3, INF)) == (0,)


class TestLoweringLimits:
    """``lowering_limits`` folds the lone-matcher lists of a component, here
    read off the index of ``gens`` by ``lone_matchers``, and charges one op
    per list member."""

    @staticmethod
    def limits(beta, gens):
        """``(limits, ops)`` of ``beta`` over the lone matchers among ``gens``."""
        counter = OpCounter()
        index = IncrementalState(len(beta), [], gens).index
        return lowering_limits(beta, lone_matchers(beta, index), counter), counter.ops

    def test_two_pure_powers(self):
        assert self.limits((4, 4, INF), INF_FLAVOR_START["generators"]) == ([0, 0, 0], 2)

    def test_blocked_in_first_variable(self):
        # x^3 y^2 z^2 meets (4, 2, INF) in y alone and x^4 in x alone
        gens = INF_FLAVOR_START["generators"] + [(3, 2, 2)]
        assert self.limits((4, 2, INF), gens) == ([3, 0, 2], 2)

    def test_nongeneric_counterexample(self):
        gens = [(2, 1, 1, 0), (1, 2, 0, 1), (0, 0, 2, 0), (0, 0, 0, 2)]
        assert self.limits((2, 2, 2, 2), gens) == ([1, 1, 1, 1], 4)

    def test_no_finite_lone_matcher(self):
        # the zero ideal with every pure power INF: its lone component has no
        # finite coordinate, every list is empty and nothing blocks
        state = IncrementalState(3, [(INF, INF, INF)],
                                 [(INF, 0, 0), (0, INF, 0), (0, 0, INF)])
        assert state.index == {}
        counter = OpCounter()
        lone = lone_matchers((INF, INF, INF), state.index)
        assert lone == ((), (), ())
        assert lowering_limits((INF, INF, INF), lone, counter) == [-INF] * 3
        assert counter.ops == 0

    def test_all_multimatch_is_internal_error(self):
        # (1, 1) matches the generator (1, 1) in both variables, so it has no
        # lone matcher and cannot be a component of <xy>; nor can (2, 3) be
        # one of <x^2 y>, which meets it in x alone but nothing in y
        for beta, gens in (((1, 1), [(1, 1)]), ((2, 3), [(2, 1)])):
            index = IncrementalState(2, [], gens).index
            with pytest.raises(RuntimeError, match="no lone matcher"):
                lowering_limits(beta, lone_matchers(beta, index))

    def test_repeated_matchers_take_the_coordinatewise_min(self):
        # two lone matchers at x: row 0 is their coordinatewise min (3, 1, 1),
        # so it limits y and z at 1; y's lone matcher limits x at 2
        gens = [(3, 1, 2), (3, 2, 1), (2, 4, 0), (0, 0, 5)]
        assert self.limits((3, 4, 5), gens) == ([2, 1, 1], 4)

    def test_own_row_never_limits_its_variable(self):
        # a lone matcher at k has m_k = beta_k, so its row would set the
        # limit at k to beta_k, which no lowering below beta clears; the fold
        # leaves coordinate k to the other rows, -INF when there are none
        limits, _ = self.limits((5, 5), [(5, 4), (4, 5)])
        assert limits == [4, 4]
        limits, _ = self.limits((5, INF), [(5, 4)])
        assert limits == [-INF, 4]


def brute_lone_matchers(beta, generators):
    """``(k, m)`` for every finite generator ``m`` with ``m_k = beta_k`` and
    ``m_j < beta_j`` elsewhere, by a scan of all generators."""
    return [(k, m) for m in generators if INF not in m
            for k in range(len(beta)) if m[k] == beta[k]
            and all(e < b for j, (e, b) in enumerate(zip(m, beta)) if j != k)]


def ref_lowering_limits(beta, lone):
    """Reference for ``lowering_limits``: for each ``u``, the max over
    ``k != u`` of the min of ``m_u`` over the lone matchers at ``k``; a
    finite coordinate with no lone matcher raises."""
    n = len(beta)
    matched = {k for k, _ in lone}
    if any(beta[k] != INF and k not in matched for k in range(n)):
        raise RuntimeError("no lone matcher")
    return [max([min(m[u] for j, m in lone if j == k) for k in matched if k != u],
                default=-INF) for u in range(n)]


def outcome(fn, *args):
    """``(result, ops charged)`` of ``fn(*args, counter)``, or
    ``"RuntimeError"`` in place of the result if it raised one."""
    counter = OpCounter()
    try:
        return fn(*args, counter), counter.ops
    except RuntimeError:
        return "RuntimeError", counter.ops


def run_states(g, inf_flavour, rng=None):
    """``(state, generators)`` of an incremental run over ``g``'s closure
    before each step and after the last, ``generators`` being those absorbed
    so far.  With ``inf_flavour`` the run starts, as ``inf_state`` does,
    from the injected powers and the lone component relabelled to INF, so
    INF generators and components are probed.  With ``rng`` the generators
    are absorbed in a shuffled order, which reactivates retired
    components.  The closure is ``plain_closure``'s, in all ``g.n``
    variables."""
    art = plain_closure(g)
    degs = art.pure_degrees()
    generators = [unit_vector(art.n, i, d) for i, d in enumerate(degs)]
    if inf_flavour:
        generators = [relabel(art, m) for m in generators]
        degs = relabel(art, degs)
    state = IncrementalState(art.n, [degs], generators)
    alphas = list(art.alphas())
    if rng is not None:
        rng.shuffle(alphas)
    yield state, generators
    for alpha in alphas:
        state.add_generator(alpha)
        generators.append(alpha)
        yield state, generators


def ref_probe_charge(beta, generators):
    """Ops the probe charges: for each variable ``k``, the members of bucket
    ``(k, beta_k)`` that a scan in the bucket's order reads, up to and
    including the first with ``m_c >= beta_c`` (``c`` being ``x_0``, or
    ``x_1`` when ``k = 0``), counted from ``generators`` alone; in one
    variable every member.  A generator with an INF coordinate is in no
    bucket."""
    n, charge = len(beta), 0
    for k in range(n):
        bucket = [m for m in generators if m[k] == beta[k] and INF not in m]
        if n == 1:
            charge += len(bucket)
            continue
        c = 1 if k == 0 else 0
        below = sum(m[c] < beta[c] for m in bucket)
        charge += below + (below < len(bucket))
    return charge


def check_probe(beta, state, generators):
    """The probe returns exactly the brute-force lone matchers among
    ``generators``, those indexed by ``state``, with their variables,
    charges the members a scan reads up to its stop, never more than the
    probed buckets hold.  ``lone_matchers`` holds the same pairs by
    variable, and the limits that ``lowering_limits`` folds from those
    lists agree with the reference and with the two-pass fold of the pairs;
    when it does not raise, it charges one op per pair."""
    lone, charged = outcome(dividing_generators, beta, state.index)
    assert sorted(lone) == sorted(brute_lone_matchers(beta, generators))
    assert charged == ref_probe_charge(beta, generators)
    assert charged <= sum(m[k] == beta[k] for m in generators
                          for k in range(state.n))
    limits = []
    for fn in (ref_lowering_limits, fold_limits):
        try:
            limits.append(fn(beta, lone))
        except RuntimeError:
            limits.append("RuntimeError")
    lists = lone_matchers(beta, state.index)
    assert lists == tuple(tuple(m for j, m in lone if j == k) for k in range(state.n))
    fused, fused_charge = outcome(lowering_limits, beta, lists)
    assert limits[0] == limits[1] == fused
    if fused != "RuntimeError":
        assert fused_charge == len(lone)
    return fused


class TestProbeReference:
    """``dividing_generators`` and ``lowering_limits`` against brute force:
    the same lone matchers, limits and errors on every state of random
    generic and non-generic runs, in lex and shuffled order."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans(), st.booleans(),
           st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6),
                              st.integers(1, 6), st.integers(1, 6)), max_size=3))
    def test_states_match_reference(self, seed, generic, inf_flavour, shuffled, probes):
        rng = random.Random(seed)
        g = random_ideal(rng, max_p=10, generic=generic)
        if g.is_unit():
            return
        for state, gens in run_states(g, inf_flavour, rng if shuffled else None):
            for beta in state.components:
                assert check_probe(beta, state, gens) != "RuntimeError"
            # vectors free of zeros that need not be components
            for beta in probes:
                check_probe(beta[:state.n], state, gens)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_ideal_states_match_reference(self, n):
        # no non-pure generator: with INF powers the lone component has no
        # finite lone matcher, and every limit comes from the -INF seed
        for inf_flavour in (False, True):
            for state, gens in run_states(GeneratorSet.from_vectors(n, []), inf_flavour):
                for beta in state.components:
                    want = check_probe(beta, state, gens)
                    assert want == ([-INF] * n if inf_flavour or n == 1 else [0] * n)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.tuples(*([st.one_of(st.integers(1, 4), st.just(INF))] * n)),
        st.lists(st.tuples(*([st.one_of(st.integers(0, 4), st.just(INF))] * n)),
                 max_size=16, unique=True))))
    def test_charge_never_above_the_bucket_sizes(self, case):
        """Arbitrary buckets, INF members and one variable included: the
        same lone matchers as brute force, and a charge that stops early but
        never exceeds what the probed buckets hold."""
        beta, gens = case
        check_probe(beta, IncrementalState(len(beta), [], gens), gens)

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.tuples(*([st.integers(1, 5)] * n)),
        st.lists(st.tuples(*([st.integers(0, 5)] * n)), min_size=1, max_size=8),
        st.lists(st.sets(st.integers(0, n - 1), min_size=2), max_size=8))))
    def test_multi_match_inputs_match_reference(self, case):
        """``multi`` holds generators that each equal ``beta`` in at least two
        variables, so the probe returns none of them and alone they make
        ``lowering_limits`` raise; ``clipped`` holds random vectors cut down
        to ``beta``, which match it in any pattern."""
        beta, drawn, shared = case
        n = len(beta)
        clipped = [tuple(min(e, b) for e, b in zip(m, beta)) for m in drawn]
        multi = [tuple(b if u in keep else b - 1 for u, b in enumerate(beta))
                 for keep in shared]
        if multi:
            state = IncrementalState(n, [], multi)
            assert check_probe(beta, state, multi) == "RuntimeError"
            assert dividing_generators(beta, state.index) == []
        for gens in (clipped, clipped + multi, multi + clipped):
            gens = list(dict.fromkeys(gens))
            check_probe(beta, IncrementalState(n, [], gens), gens)


def assert_lists_match(state):
    """Every active component that holds lone-matcher lists holds, per
    variable as a set, exactly what ``dividing_generators`` reads off the
    index, and no other component holds any."""
    assert set(state.lone) <= set(state.active)
    for beta, lists in state.lone.items():
        pairs = dividing_generators(beta, state.index)
        assert [set(ms) for ms in lists] == [{m for j, m in pairs if j == k}
                                             for k in range(state.n)]


def spy_kernel(monkeypatch):
    """Check every affected component and every list of every step against
    the reference.

    Rebinds ``IncrementalState.add_generator`` so that, before each step,
    each active component strictly above ``alpha`` (after any reactivation)
    gets ``lowering_limits`` of its lists (``state.lone``, else
    ``lone_matchers`` of the index) charged to ``c1`` and compared with
    ``fold_limits`` of ``dividing_generators(beta, index, c2)``, and
    ``c1.ops`` with the number of pairs; after each step the lists go
    through ``assert_lists_match``.  Returns a list that receives, per step
    checked, the number of components compared and whether the step
    reactivated."""
    add = IncrementalState.add_generator
    seen = []

    def checked(state, alpha, created=None):
        alpha = tuple(alpha)
        reactivates = bool(state.retired) and alpha[-1] < state.retired[-1][-1]
        comps = state.components if reactivates else state.active
        compared = 0
        for beta in comps:
            if strictly_below(alpha, beta):
                c1 = OpCounter()
                lists = state.lone.get(beta) or lone_matchers(beta, state.index)
                pairs = dividing_generators(beta, state.index)
                assert lowering_limits(beta, lists, c1) == fold_limits(beta, pairs)
                assert c1.ops == len(pairs)
                compared += 1
        seen.append((compared, reactivates))
        out = add(state, alpha, created)
        assert_lists_match(state)
        return out

    monkeypatch.setattr(IncrementalState, "add_generator", checked)
    return seen


class TestFusedKernel:
    """``lowering_limits`` folds a component's lone-matcher lists in one
    pass; on every affected component of seeded runs it equals the
    two-pass fold of the probe's pairs (``conftest.fold_limits``) and
    charges one op per pair, and after every step each active component's
    lists are what the probe reads (``assert_lists_match``)."""

    def test_lex_runs(self, monkeypatch):
        # generic ladders, m^d, shell subsets, near-shell ideals, and
        # closures with injected x_k^INF powers, so components with INF
        # coordinates are lowered
        seen = spy_kernel(monkeypatch)
        rng = random.Random(83)
        ideals = [gen_random(n, p, 2 * p, seed, generic=True)
                  for n, p in ((3, 60), (4, 40), (5, 25)) for seed in (1, 2)]
        ideals += [power_ideal(n, d) for n, d in ((3, 8), (4, 6), (5, 4))]
        ideals += list(shell_ideals(rng, 24))
        ideals += [near_shell(4, 60, 1), near_shell(5, 40, 2)]
        ideals += [random_ideal(rng, n_choices=(2, 3, 4, 5), max_p=10) for _ in range(60)]
        injected = 0
        for g in ideals:
            if g.is_unit():
                continue
            injected += INF in g.closure.pure_degrees()
            decompose_incremental(g)
        assert injected > 20
        assert sum(c for c, _ in seen) > 1000

    def test_one_variable(self, monkeypatch):
        # every bucket is read whole; the lone component's own row never
        # limits it, so every lowering is kept
        seen = spy_kernel(monkeypatch)
        rng = random.Random(89)
        for _ in range(40):
            state = IncrementalState(1, [(INF,)], [(INF,)])
            for a in rng.sample(range(1, 12), rng.randint(1, 6)):
                state.add_generator((a,))
            assert state.components == [(min(state.index)[1],)]
        assert sum(c for c, _ in seen) > 40

    def test_shuffled_runs_reactivate(self, monkeypatch):
        seen = spy_kernel(monkeypatch)
        rng = random.Random(97)
        for _ in range(60):
            g = random_ideal(rng, n_choices=(3, 4, 5), max_p=12)
            if g.is_unit():
                continue
            art = g.closure
            state = IncrementalState.start(art)
            alphas = list(art.alphas())
            rng.shuffle(alphas)
            for alpha in alphas:
                state.add_generator(alpha)
        assert any(r and c for c, r in seen)

    def test_chain_tail_after_a_reactivation(self, monkeypatch):
        # the recursive engine's chain tails absorb out of lex order: their
        # states reactivate retired components and then lower them
        seen = spy_kernel(monkeypatch)
        for g in (near_shell(4, 60, 1), near_shell(5, 40, 2),
                  gen_random(5, 30, 60, 1, generic=True)):
            assert decompose_recursive(g) == decompose_incremental(g)
        after = False
        lowered_after = 0
        for compared, reactivates in seen:
            after = after or reactivates
            lowered_after += compared if after else 0
        assert lowered_after > 100


class TestLoneMatcherLists:
    """Each active component carries its lone-matcher lists: a lowered copy
    inherits its parent's, and a step adds ``alpha`` to the lists of the
    untouched components it meets in one variable alone."""

    def test_generic_lists_hold_one_generator(self):
        # the paper's storage bound: one generator per finite coordinate.
        # A generic ladder has no pure powers, so its closure injects
        # x_k^INF, whose coordinates hold none; with powers above every
        # degree added the closure is finite
        injected = 0
        for n, p in ((3, 120), (4, 50), (5, 25)):
            g = gen_random(n, p, 2 * p, 1, generic=True)
            powered = GeneratorSet.from_vectors(
                n, list(g.gens) + [unit_vector(n, i, 2 * p + 1) for i in range(n)])
            for g in (g, powered):
                injected += INF in g.closure.pure_degrees()
                state = IncrementalState.start(g.closure)
                for alpha in g.closure.alphas():
                    state.add_generator(alpha)
                    for beta, lists in state.lone.items():
                        assert list(map(len, lists)) == [int(b != INF) for b in beta]
        assert injected == 3

    def test_generic_copies_share_their_parents_lists(self):
        # on generic input the filter keeps every inherited list whole: a
        # copy lowered at u holds (alpha,) there and its parent's list, the
        # same tuple, at every other variable; a copy lowered at the last
        # variable retires and holds none
        shared = 0
        for n, p in ((3, 60), (4, 30), (5, 15)):
            art = gen_random(n, p, 2 * p, 5, generic=True).closure
            state = IncrementalState.start(art)
            for alpha in art.alphas():
                parents = dict(state.lone)
                created = []
                for beta in state.add_generator(alpha, created):
                    for u in range(n):
                        copy = beta[:u] + (alpha[u],) + beta[u + 1:]
                        if copy not in created:
                            continue
                        if u == n - 1:
                            assert copy not in state.lone
                            continue
                        lists = state.lone[copy]
                        assert lists[u] == (alpha,)
                        if beta in parents:  # else the parent was probed
                            assert all(lists[k] is parents[beta][k]
                                       for k in range(n) if k != u)
                            shared += 1
        assert shared > 200

    def test_lex_runs_probe_the_index_once(self, monkeypatch):
        # only the start component arrives without lists; every later
        # component of a lex run inherits them, so one probe reads the index
        probes = []
        probe = incremental.lone_matchers

        def spy(beta, index, counter=None):
            probes.append(beta)
            return probe(beta, index, counter)

        monkeypatch.setattr(incremental, "lone_matchers", spy)
        for g in (power_ideal(4, 6), gen_random(5, 30, 60, 1, generic=True),
                  near_shell(4, 60, 1)):
            probes.clear()
            decompose_incremental(g)
            assert probes == [g.closure.pure_degrees()]

    def test_empty_list_at_a_finite_coordinate_raises(self):
        # a component whose list at a finite coordinate is empty cannot be
        # a component of the current ideal: lowering it is an internal error
        with pytest.raises(RuntimeError, match="no lone matcher"):
            lowering_limits((2, 3), (((2, 1),), ()))
        state = IncrementalState.start(artinianize(showcase()))
        state.add_generator((3, 2, 2))
        beta = (3, 4, INF)
        state.lone[beta] = ((), *state.lone[beta][1:])
        with pytest.raises(RuntimeError, match="no lone matcher"):
            state.add_generator((1, 3, 2))


def shell_ideals(rng, count):
    """Seeded non-generic ideals in 2-5 variables: subsets of a degree shell,
    half of them mixed with a few generic points."""
    for i in range(count):
        n = 2 + i % 4
        shell = degree_shell(n, rng.randint(2, {2: 12, 3: 7, 4: 5, 5: 4}[n]))
        vectors = rng.sample(shell, rng.randint(1, len(shell)))
        if i % 2:
            vectors += gen_random(n, rng.randint(1, 4), 8, rng.randrange(2 ** 32),
                                  generic=True).gens
        yield GeneratorSet.from_vectors(n, vectors)


class TestTraceLimits:
    def test_trace_limits_follow_the_definition(self, tmp_path, capsys):
        """Every kept and rejected record of ``decompose --trace`` carries in
        ``d`` the limit computed from the generators absorbed before its
        step, beyond the three golden files.  The limit is the closure's, in
        its used variables, where an injected ``x_k^INF`` is never a lone
        matcher: a lowering with no lone matcher at another variable reads
        ``-inf``."""
        ideals = list(shell_ideals(random.Random(71), 80))
        src = tmp_path / "in"
        src.mkdir()
        for i, g in enumerate(ideals):
            (src / f"{i:03d}.ideal").write_text(emit_ideal(g))
        assert cli_main(["decompose", "--trace", str(src), str(tmp_path / "out")]) == 0
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        checked, limits = set(), set()
        for rec in records:
            # the record is in the original variables, the closure in the used ones
            art = ideals[int(Path(rec["file"]).stem)].closure
            alphas = art.alphas()
            # a lex run absorbs every alpha, one step each
            placed = dict(zip(art.used, alphas[rec["step"] - 1]))
            assert rec["alpha"] == [placed.get(i, 0) for i in range(len(art.fixed))]
            generators = ([unit_vector(art.n, k, d) for k, d in enumerate(art.pure_degrees())]
                          + list(alphas[:rec["step"] - 1]))
            for e in rec["kept"] + rec["rejected"]:
                beta = tuple(INF if e["beta"][i] == "inf" else e["beta"][i] for i in art.used)
                lone = brute_lone_matchers(beta, generators)
                d = -INF if e["d"] == "-inf" else e["d"]
                assert d == ref_lowering_limits(beta, lone)[art.used.index(e["u"] - 1)]
                checked.add((d > 0, e in rec["kept"]))
                limits.add(min(d, 1))
        # unbounded, zero and blocking limits; kept and rejected records
        assert checked == {(a, b) for a in (False, True) for b in (False, True)}
        assert limits == {-INF, 0, 1}
        assert len(records) > 200

    def test_all_injected_first_step_reads_minus_inf(self, tmp_path, capsys):
        """<x^2 y, x y^3> has no pure power, so the closure injects x^INF
        and y^INF.  The first step lowers (INF, INF), which no generator
        meets in one variable alone: both limits are -inf.  The second
        lowers (2, INF), met in x alone by x^2 y, whose y-degree 1 limits
        the lowering at y."""
        src = tmp_path / "xy.ideal"
        src.write_text("ideal 2\n2 1\n1 3\nend\n")
        assert cli_main(["decompose", "--trace", str(src), str(tmp_path / "out")]) == 0
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert records == [
            {"step": 1, "alpha": [2, 1], "t1_size": 0, "t2_size": 1, "kept": [
                {"beta": ["inf", "inf"], "u": 1, "d": "-inf", "candidate": [2, "inf"]},
                {"beta": ["inf", "inf"], "u": 2, "d": "-inf", "candidate": ["inf", 1]}],
             "rejected": []},
            {"step": 2, "alpha": [1, 3], "t1_size": 1, "t2_size": 1, "kept": [
                {"beta": [2, "inf"], "u": 1, "d": "-inf", "candidate": [1, "inf"]},
                {"beta": [2, "inf"], "u": 2, "d": 1, "candidate": [2, 3]}],
             "rejected": []}]
        assert (tmp_path / "out").read_text() == "components 2 3\ninf 1\n2 3\n1 inf\nend\n"

    def test_kept_split_is_the_state_stepped_alongside(self):
        """A record's kept candidates are exactly those present in a state
        stepped through the same alphas, and its rejected ones are absent:
        the record's test is the step's, on generic, non-generic and
        shell ideals in 1-5 variables.  The state runs on the closure's
        used variables; the record's ``alpha`` is the original generator,
        zero off them, and its lowerings are at them only."""
        rng = random.Random(73)
        ideals = [random_ideal(rng, n_choices=(1, 2, 3, 4, 5), max_p=12,
                               generic=i % 2 == 0) for i in range(120)]
        ideals += list(shell_ideals(rng, 40))
        kept = rejected = unused = 0
        for g in ideals:
            if g.is_unit():
                continue
            art = artinianize(g)
            unused += art.n < g.n
            trace = []
            decompose_incremental(g, trace=trace)
            records = iter(trace)
            state = IncrementalState.start(art)
            for alpha in art.alphas():
                before = len(state)
                removed = state.add_generator(alpha)
                if not removed:
                    continue
                rec = next(records)
                placed = dict(zip(art.used, alpha))
                assert rec["alpha"] == [placed.get(i, 0) for i in range(g.n)]
                assert rec["alpha"] in map(list, g.gens)
                assert sorted(e["u"] - 1 for e in rec["kept"] + rec["rejected"]) == \
                    sorted(art.used * len(removed))
                assert (rec["t1_size"], rec["t2_size"]) == (before - len(removed), len(removed))
                present = set(deartinianize(state.components, art))
                assert all(tuple(e["candidate"]) in present for e in rec["kept"])
                assert not any(tuple(e["candidate"]) in present for e in rec["rejected"])
                assert len(rec["kept"]) == len(state) - before + len(removed)
                kept += len(rec["kept"])
                rejected += len(rec["rejected"])
            assert next(records, None) is None
        assert kept > 1000 and rejected > 1000 and unused > 20


class TestAddGenerator:
    def test_showcase_step_one(self):
        state = inf_state()
        state.add_generator((3, 2, 2))
        assert set(state.components) == {(3, 4, INF), (4, 2, INF), (4, 4, 2)}

    def test_showcase_full_run(self):
        state = inf_state()
        for alpha in [(3, 2, 2), (1, 3, 2), (2, 1, 3)]:
            state.add_generator(alpha)
        assert set(state.components) == PUBLISHED

    def test_counterexample_shrinks(self):
        art = artinianize(fourvar())
        state = IncrementalState.start(art)
        for alpha in art.alphas():
            state.add_generator(alpha)
        before = set(state.components)
        assert len(before) == 6
        state.add_generator((1, 1, 1, 1))
        after = set(state.components)
        assert before - after == {(2, 2, 2, 2)}
        assert after < before
        assert len(after) == 5

    def test_absorbs_generators_in_the_ideal_or_dividing_it(self):
        # a generator already in the ideal changes nothing, removes nothing
        # and is not indexed; one dividing an absorbed generator just extends
        # the ideal
        state = inf_state()
        index = {key: list(bucket) for key, bucket in state.index.items()}
        for alpha in [(4, 0, 0), (5, 1, 0), (4, 4, INF)]:
            assert checked_step(state, alpha) == []
            assert state.components == [(4, 4, INF)] and state.index == index
            assert len(state) == 1
        assert checked_step(state, (3, 0, 0)) == [(4, 4, INF)]
        assert state.components == [(3, 4, INF)]
        with pytest.raises(ValueError):
            state.add_generator((1, 1))

    def test_any_generator_gives_the_decomposition_of_all_absorbed(self):
        # after each absorbed alpha, in any order, the state decomposes the
        # ideal of everything absorbed so far.  Absorbing in random order
        # leaves non-pure generators lex-above later draws (and must still
        # give the lex-order components); alphas are then drawn as strict
        # divisors of absorbed non-pure generators, at random below a
        # component (outside the ideal), and at random in the closure's box.
        # Finally alpha = 0 gives the unit ideal, which has no components.
        rng = random.Random(61)
        draws = {"divisor": 0, "below": 0, "box": 0}
        strict_divisors = in_ideal = divides_absorbed = zeros = 0
        for _ in range(300):
            g = random_ideal(rng, max_p=10)
            if g.is_unit():
                continue
            art = plain_closure(g)
            degs = art.pure_degrees()
            state = IncrementalState.start(art)
            alphas = list(art.alphas())
            rng.shuffle(alphas)
            for alpha in alphas:
                state.add_generator(alpha)
            generators = list(art.gens)
            lex = decompose_incremental(GeneratorSet.from_vectors(art.n, art.gens))
            assert set(state.components) == set(lex.comps)
            for _ in range(12):
                non_pure = [m for m in generators if sum(1 for e in m if e) > 1]
                draw = rng.random()
                if non_pure and draw < 0.4:
                    m = rng.choice(non_pure)
                    alpha = tuple(rng.randint(max(e - 1, 0), e) for e in m)
                    strict_divisors += alpha != m
                    draws["divisor"] += 1
                elif state.components and draw < 0.7:
                    beta = rng.choice(state.components)
                    alpha = tuple(rng.randint(max(b - 2, 0), b - 1) for b in beta)
                    draws["below"] += 1
                else:
                    alpha = tuple(rng.randint(0, d) for d in degs)
                    draws["box"] += 1
                before = (state.components, len(state))
                inside = any(leq(m, alpha) for m in generators)
                in_ideal += inside
                divides_absorbed += not inside and any(leq(alpha, m) for m in generators)
                checked_step(state, alpha)
                if inside:
                    assert (state.components, len(state)) == before
                else:
                    generators.append(alpha)
                want = decompose_oracle(GeneratorSet.from_vectors(art.n, generators))
                assert sorted(state.components) == sorted(want.comps), alpha
            if state.components:
                checked_step(state, (0,) * art.n)
                assert state.components == [] and len(state) == 0
                zeros += 1
        assert draws["divisor"] > 700 and draws["below"] > 500 and draws["box"] > 1500
        assert strict_divisors > 500 and zeros > 80
        # steps inside the ideal, and outside it while dividing an absorbed
        # generator, which the minimal-set check used to refuse
        assert in_ideal > 2000 and sum(draws.values()) - in_ideal > 900
        assert divides_absorbed > 700

    def test_zero_alpha_leaves_no_component(self):
        # alpha = 0 gives the unit ideal: every component, retired ones
        # included, is removed, since every lowering has a zero exponent
        art = artinianize(fourvar())
        state = IncrementalState.start(art)
        for alpha in art.alphas():
            state.add_generator(alpha)
        before = state.components
        assert state.retired
        assert sorted(checked_step(state, (0, 0, 0, 0))) == sorted(before)
        assert state.components == [] and len(state) == 0

    def test_shuffled_runs_reactivate_retired_components(self):
        # out of lex order an alpha may have a smaller last coordinate than
        # some retired component; the retired components then go back to
        # the active ones before the partition, leaving only this step's
        # lowerings at the last variable retired
        rng = random.Random(67)
        reactivations = 0
        for _ in range(150):
            g = random_ideal(rng, n_choices=(3, 4, 5), max_p=12)
            if g.is_unit():
                continue
            art = plain_closure(g)
            state = IncrementalState.start(art)
            alphas = list(art.alphas())
            rng.shuffle(alphas)
            for alpha in alphas:
                reactivate = alpha[-1] < floor(state)
                checked_step(state, alpha)
                if reactivate:
                    reactivations += 1
                    assert all(b[-1] == alpha[-1] for b in state.retired)
                    assert floor(state) in (-INF, alpha[-1])
                assert len(state) == len(state.components)
            lex = decompose_incremental(GeneratorSet.from_vectors(art.n, art.gens))
            assert sorted(state.components) == sorted(lex.comps)
        assert reactivations > 0

    def test_lex_runs_agree_with_full_reduction(self):
        rng = random.Random(41)
        for _ in range(50):
            g = random_ideal(rng)
            if g.is_unit():
                continue
            art = artinianize(g)
            state = IncrementalState.start(art)
            for alpha in art.alphas():
                checked_step(state, alpha)

    def test_cross_check_raises_on_a_wrong_update(self, monkeypatch):
        # with no lowered copy blocked, the showcase's second step keeps a
        # copy that an untouched component dominates
        monkeypatch.setattr(incremental, "lowering_limits", keep_every_lowering)
        art = artinianize(showcase())
        state = IncrementalState.start(art)
        with pytest.raises(RuntimeError, match="disagrees with full reduction"):
            for alpha in art.alphas():
                checked_step(state, alpha)

    def test_cross_check_raises_under_optimize(self, tmp_path):
        # checked_step must not rely on an assert, which ``python -O`` strips:
        # the sabotaged run would then end with 9 components instead of 6
        script = (
            "from monideal import INF, artinianize, incremental\n"
            "from monideal.incremental import IncrementalState\n"
            "from conftest import checked_step, showcase\n"
            "incremental.lowering_limits = lambda beta, lone, counter=None: "
            "[-INF] * len(beta)\n"
            "art = artinianize(showcase())\n"
            "state = IncrementalState.start(art)\n"
            "try:\n"
            "    for alpha in art.alphas():\n"
            "        checked_step(state, alpha)\n"
            "    print(len(state))\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here)])
        proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("exact update disagrees with full reduction")

    def test_zero_exponent_candidates_never_kept(self):
        # adding a generator with a zero coordinate must not produce a
        # component with a zero coordinate
        g = GeneratorSet.from_vectors(3, [(2, 0, 0), (1, 1, 0)])
        comps = decompose_incremental(g)
        assert set(comps.comps) == {(1, INF, INF), (2, 1, INF)}


class TestRetirement:
    """A lex-order run retires the components it lowers at the last
    variable; the active ones are the recursive engine's slice chain."""

    def test_retired_components_stay_below_later_alphas(self):
        total = 0
        for g in lex_run_ideals():
            art = artinianize(g)
            state = IncrementalState.start(art)
            retired = []
            for alpha in art.alphas():
                assert floor(state) <= alpha[-1]
                assert not any(strictly_below(alpha, b) for b in state.retired)
                state.add_generator(alpha)
                # never reactivated: the retired list only grows
                assert state.retired[:len(retired)] == retired
                retired = list(state.retired)
            assert set(retired) <= set(state.components)
            total += len(retired)
        assert total > 500

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.sampled_from(["lex", "shuffled", "reactivating"]))
    def test_retired_last_coordinates_never_fall(self, seed, generic, order):
        """Along ``retired`` the last coordinates never fall, so its last
        vector holds the largest, the one a step compares with to decide
        whether to reactivate; in 2-5 variables and every absorb order."""
        rng = random.Random(seed)
        g = random_ideal(rng, n_choices=(2, 3, 4, 5), max_p=12, generic=generic)
        if g.is_unit():
            return
        art = artinianize(g)
        state = IncrementalState.start(art)
        for alpha in staircase_orders(rng, art.alphas())[order]:
            checked_step(state, alpha)
            last = [b[-1] for b in state.retired]
            assert last == sorted(last)

    def test_active_components_are_the_slice_chain(self):
        # at the last alpha of each x_n-degree d, the active components are
        # those of the chain link at d with the pure-power degree B adjoined
        boundaries = 0

        def check(d):
            nonlocal boundaries
            assert all(b[-1] == last_b for b in state.active)
            assert sorted(b[:-1] for b in state.active) == sorted(decompose_trie(links[d]))
            boundaries += 1

        for g in lex_run_ideals():
            art = plain_closure(g)
            links = dict(slice_chain(build(art.n, art.gens)))
            last_b = art.pure_degrees()[-1]
            state = IncrementalState.start(art)
            alphas = art.alphas()
            if not alphas or alphas[0][-1]:
                check(0)  # no alpha has x_n-degree 0: the start is that boundary
            for i, alpha in enumerate(alphas):
                state.add_generator(alpha)
                if i + 1 == len(alphas) or alphas[i + 1][-1] != alpha[-1]:
                    check(alpha[-1])
        assert boundaries == 251


def staircase_orders(rng, alphas):
    """The three absorb orders of a staircase run: lex, shuffled, and
    reactivating (reverse lex, so that every retirement is followed by an
    ``alpha`` with a smaller last coordinate)."""
    shuffled = list(alphas)
    rng.shuffle(shuffled)
    return {"lex": list(alphas), "shuffled": shuffled,
            "reactivating": sorted(alphas, key=lex_key, reverse=True)}


class TestStaircase:
    """A three-variable state from ``start`` keeps ``active`` sorted by
    ``beta_0`` and partitions only the run above ``alpha`` in ``x_0`` and
    ``x_1``, until its first reactivation hands over to the full scan."""

    @staticmethod
    def assert_staircase(state, last_b):
        """``beta_0`` strictly rises along ``active``, ``beta_1`` strictly
        falls and ``beta_2`` is the pure-power degree."""
        assert all(b[2] == last_b for b in state.active)
        for a, b in zip(state.active, state.active[1:]):
            assert a[0] < b[0] and a[1] > b[1]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.sampled_from(["lex", "shuffled", "reactivating"]))
    def test_runs_agree_with_full_reduction(self, seed, generic, order):
        """Exact at every step in every order; a staircase after every step
        until the first reactivation, and off the path from then on."""
        rng = random.Random(seed)
        g = random_ideal(rng, n_choices=(3,), max_p=12, generic=generic)
        if g.is_unit():
            return
        art = plain_closure(g)
        last_b = art.pure_degrees()[2]
        state = IncrementalState.start(art)
        assert state.staircase
        reactivated = False
        for alpha in staircase_orders(rng, art.alphas())[order]:
            reactivated |= alpha[-1] < floor(state)
            removed = checked_step(state, alpha)
            assert state.staircase == (not reactivated)
            if state.staircase:
                self.assert_staircase(state, last_b)
                # the removed components are a run of the staircase, in order
                assert removed == sorted(removed)
        assert not reactivated or order != "lex"
        want = decompose_oracle(g)
        assert sorted(relabel(art, c) for c in state.components) == sorted(want.comps)

    def test_a_step_splices_two_corners_in_order(self):
        # (2, 2, 1) lies below both active components; the kept copies come
        # out in lex order of their parents, (10, 2, 10) first, and must be
        # spliced back by x_0-degree
        pure = GeneratorSet.from_vectors(3, [(10, 0, 0), (0, 10, 0), (0, 0, 10)])
        state = IncrementalState.start(plain_closure(pure))
        checked_step(state, (5, 5, 1))
        assert state.active == [(5, 10, 10), (10, 5, 10)]
        assert checked_step(state, (2, 2, 1)) == [(5, 10, 10), (10, 5, 10)]
        assert state.staircase and state.active == [(2, 10, 10), (10, 2, 10)]

    def test_reactivation_hands_over_to_the_scan(self, monkeypatch):
        # in reverse lex order an early alpha reactivates; in lex order none
        # does.  The partition always gets the state's counter and a window
        # of the active list: before any reactivation the run above alpha in
        # x_0 and x_1, split against alpha, from the first one on the whole
        # list, split against alpha - 1 so that the components at or above
        # alpha, those it meets in one variable among them, come out of the
        # same pass.  Every step from then on charges what it charges a
        # three-variable state built directly, which never takes the path
        def step(state, alpha):
            before = state.counter.ops
            checked_step(state, alpha)
            return state.counter.ops - before

        runs = []
        for seed in range(40):
            art = plain_closure(gen_random(3, 10, 20, seed, generic=seed % 2 == 0))
            alphas = sorted(art.alphas(), key=lex_key, reverse=True)
            pure = [unit_vector(3, i, d) for i, d in enumerate(art.pure_degrees())]
            direct = IncrementalState(3, [art.pure_degrees()], pure, OpCounter())
            runs.append((art, alphas, [step(direct, alpha) for alpha in alphas]))

        calls = []
        partition = incremental.partition_components

        def spy(comps, alpha, counter=None):
            calls.append((list(comps), alpha, counter is state.counter))
            return partition(comps, alpha, counter)

        monkeypatch.setattr(incremental, "partition_components", spy)
        handovers = runs_before = 0
        for art, alphas, direct_charges in runs:
            # lex order, which never reactivates, then the reverse
            for order, charges in ((alphas[::-1], None), (alphas, direct_charges)):
                state = IncrementalState.start(art, OpCounter())
                scanning = False
                for i, alpha in enumerate(order):
                    reactivates = alpha[-1] < floor(state)
                    scanning |= reactivates
                    active = state.active + (state.retired if reactivates else [])
                    run = [b for b in active if b[0] > alpha[0] and b[1] > alpha[1]]
                    below = tuple(a - 1 for a in alpha)
                    calls.clear()
                    got = step(state, alpha)
                    assert calls == [(active, below, True) if scanning else (run, alpha, True)]
                    assert state.staircase == (not scanning)
                    if scanning:
                        assert got == charges[i]
                    runs_before += not scanning and 0 < len(run) < len(active)
                handovers += scanning
        assert handovers > 30 and runs_before > 150

    def test_chain_tail_states_never_take_the_path(self, monkeypatch):
        # the recursive engine's chain tail builds three-variable states
        # directly at height 4, which scan and never bisect; at height 3 it
        # splices each slice into a staircase of generators and builds no
        # state
        bisections, steps = [], []
        bisect_right = incremental.bisect_right
        add_generator = IncrementalState.add_generator

        def spy_bisect(*args, **kwargs):
            bisections.append(args[1])
            return bisect_right(*args, **kwargs)

        def spy_step(state, alpha):
            steps.append((state.n, state.staircase))
            return add_generator(state, alpha)

        monkeypatch.setattr(incremental, "bisect_right", spy_bisect)
        monkeypatch.setattr(IncrementalState, "add_generator", spy_step)
        g = gen_random(3, 40, 80, 1, generic=True)
        decompose_incremental(g)
        assert len(bisections) == len(steps) == len(artinianize(g).alphas())
        bisections.clear()
        steps.clear()
        for seed in range(4):
            decompose_recursive(gen_random(4, 40, 80, seed, generic=True))
        decompose_recursive(g)
        assert len(steps) > 100 and set(steps) == {(3, False)}
        assert bisections == []

    def test_generic_ops_scale_near_linearly(self):
        # a full scan charged 1,130,250 ops at p = 1500 and 4,510,500 at
        # p = 3000 (4.0x); the staircase charges 21,962 and 46,914
        def ops(p):
            counter = OpCounter()
            decompose_incremental(gen_random(3, p, 2 * p, 1, generic=True), counter=counter)
            return counter.ops

        assert ops(3000) < 2.5 * ops(1500)


class TestDegreeIndex:
    @staticmethod
    def index_of(g):
        return IncrementalState(g.n, [], g.gens).index

    def test_bucket_contents(self):
        index = self.index_of(showcase())
        assert set(index[(2, 2)]) == {(3, 2, 2), (1, 3, 2)}

    def test_generic_buckets_are_singletons(self):
        rng = random.Random(43)
        for _ in range(50):
            g = random_ideal(rng, generic=True)
            for (u, d), bucket in self.index_of(g).items():
                if d:
                    assert len(bucket) == 1

    def test_partition_property(self):
        # each generator sits in the bucket of each of its nonzero degrees;
        # zero degrees are never probed and have no bucket
        g = showcase()
        index = self.index_of(g)
        assert all(d for _, d in index)
        for u in range(g.n):
            found = []
            for (var, _), bucket in index.items():
                if var == u:
                    found.extend(bucket)
            assert sorted(found) == sorted(m for m in g.gens if m[u])

    def test_empty(self):
        assert self.index_of(GeneratorSet.from_vectors(2, [])) == {}

    def test_inf_vectors_are_not_filed(self):
        # an INF coordinate stands for zero, which divides nothing: the
        # injected x^INF and y^INF of <x^2 y, x y^3> are in no bucket
        state = IncrementalState.start(GeneratorSet.from_vectors(2, [(2, 1), (1, 3)]).closure)
        assert state.index == {}
        for alpha in [(1, 3), (2, 1)]:
            state.add_generator(alpha)
        assert state.index == {(0, 1): [(1, 3)], (0, 2): [(2, 1)],
                               (1, 1): [(2, 1)], (1, 3): [(1, 3)]}

    @staticmethod
    def assert_sorted(index, n):
        """Each bucket ``(u, d)`` ascends in ``x_1`` when ``u = 0``, else in
        ``x_0``; in one variable there is no other coordinate to order by."""
        for (u, _), bucket in index.items():
            c = 1 if u == 0 and n > 1 else 0
            assert [m[c] for m in bucket] == sorted(m[c] for m in bucket)

    def test_constructor_sorts_its_buckets(self):
        index = IncrementalState(3, [], [(2, 6, 2), (2, 2, 1), (3, 5, 1), (2, 1, 3)]).index
        assert index[(0, 2)] == [(2, 1, 3), (2, 2, 1), (2, 6, 2)]
        assert index[(2, 1)] == [(2, 2, 1), (3, 5, 1)]
        self.assert_sorted(index, 3)

    def test_buckets_stay_sorted_in_any_absorb_order(self):
        # shuffled absorbs insert out of lex order and reactivate retired
        # components; every bucket stays sorted and holds each absorbed
        # generator of its degree
        rng = random.Random(47)
        reactivations = 0
        for _ in range(150):
            g = random_ideal(rng, n_choices=(1, 2, 3, 4, 5), max_p=12)
            if g.is_unit():
                continue
            art = artinianize(g)
            state = IncrementalState.start(art)
            generators = [unit_vector(art.n, i, d) for i, d in enumerate(art.pure_degrees())]
            alphas = list(art.alphas())
            rng.shuffle(alphas)
            for alpha in alphas:
                reactivations += alpha[-1] < floor(state)
                state.add_generator(alpha)
                generators.append(alpha)
                self.assert_sorted(state.index, art.n)
            for (u, d), bucket in state.index.items():
                assert sorted(bucket) == sorted(m for m in generators if m[u] == d)
        assert reactivations > 0


class TestDecompose:
    def test_showcase(self):
        assert set(decompose_incremental(showcase()).comps) == PUBLISHED

    def test_two_variables_irreducible(self):
        g = GeneratorSet.from_vectors(2, [(1, 0), (0, 1)])
        assert decompose_incremental(g).comps == ((1, 1),)

    def test_fourvar_published(self):
        got = decompose_incremental(fourvar())
        assert set(got.comps) == {(3, 3, 1, 1), (2, 3, 2, 1), (3, 2, 1, 2),
                                  (3, 1, 2, 2), (2, 2, 2, 2), (1, 3, 2, 2)}

    # the ids name the instance alone, so that moving a pin keeps the name
    @pytest.mark.parametrize("n, d, ops", [(4, 12, 21681), (3, 20, 2228), (5, 6, 7268)],
                             ids=["4-12", "3-20", "5-6"])
    def test_power_ideal_ops_pinned(self, n, d, ops):
        """The many-divisor path: m^d charges exactly these ops and has the
        binomial(d + n - 2, n - 1) components of its staircase."""
        g = power_ideal(n, d)
        counter = OpCounter()
        assert len(decompose_incremental(g, counter=counter)) == math.comb(d + n - 2, n - 1)
        assert counter.ops == ops

    def test_unit_and_zero(self):
        assert decompose_incremental(GeneratorSet.from_vectors(2, [(0, 0)])).comps == ()
        assert decompose_incremental(GeneratorSet.from_vectors(2, [])).comps == \
            ((INF, INF),)

    def test_loop_invariant_matches_oracle(self):
        # after every step the components decompose the ideal absorbed so far;
        # that ideal contains every pure power, so the oracle output is finite
        # and directly comparable
        rng = random.Random(53)
        for _ in range(60):
            g = random_ideal(rng, max_p=6)
            if g.is_unit():
                continue
            art = plain_closure(g)
            state = IncrementalState.start(art)
            generators = [m for m in art.gens if m not in art.alphas()]
            for alpha in art.alphas():
                state.add_generator(alpha)
                generators.append(alpha)
                expected = decompose_oracle(GeneratorSet.from_vectors(g.n, generators))
                assert set(state.components) == set(expected.comps)

    def test_sizes_and_trace_shapes(self):
        sizes, trace = [], []
        counter = OpCounter()
        comps = decompose_incremental(showcase(), counter=counter,
                                      trace=trace, t_sizes=sizes)
        assert sizes[0] == 1 and sizes[-1] == len(comps)
        assert len(trace) == 3
        for rec in trace:
            assert set(rec) == {"step", "alpha", "t1_size", "t2_size", "kept", "rejected"}
        assert counter.ops > 0

    @pytest.mark.parametrize("n, p, l", [(6, 300, 7277), (7, 120, 14831),
                                         (8, 80, 17875)])
    def test_generic_storage_bound_past_ten_thousand(self, n, p, l):
        """The paper's bounds on generic lex runs with up to 17,875
        components: the component count never shrinks, so the peak storage
        is the output size l, and ops stay inside the incremental envelope."""
        g = gen_random(n, p, 2 * p, seed=1, generic=True)
        sizes, counter = [], OpCounter()
        assert len(decompose_incremental(g, counter=counter, t_sizes=sizes)) == l
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert max(sizes) == l
        assert counter.ops <= INCREMENTAL_ENVELOPE * n ** 2 * g.p * l
