"""Exhaustive staircase oracle: box enumeration and certificates."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monideal import (BudgetError, ComponentSet, GeneratorSet, INF,
                      components_generate, decompose_incremental,
                      decompose_oracle, decompose_recursive)
from monideal.bench import degree_shell
from monideal.core import lex_key
from monideal.oracle import maximal_points
from conftest import (ideals_equal, is_antichain, plain_closure, plain_components_generate,
                      plain_decompose_oracle, random_ideal, showcase, staircase)

# Degrees with gaps, so that the distinct-degree box is smaller than the plain
# one, and small enough that the plain reference enumerates its box quickly.
SPARSE_DEGREES = (0, 1, 4, 6)

SCALE = 1000


def scaled(vectors):
    return [tuple(e if e == INF else e * SCALE for e in v) for v in vectors]


def sparse_ideals():
    return st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.sampled_from(SPARSE_DEGREES)] * n), max_size=5).map(
        lambda vectors: GeneratorSet.from_vectors(n, vectors)))


@st.composite
def decompositions(draw):
    """An ideal with sparse degrees and its decomposition by the incremental
    engine, exact or perturbed: a component dropped, one finite coordinate
    raised or lowered by one, or one finite coordinate turned to INF."""
    g = draw(sparse_ideals())
    n = g.n
    comps = list(decompose_incremental(g).comps)
    kind = draw(st.sampled_from(["exact", "drop", "raise", "lower", "inf"]))
    spots = [(i, j) for i, beta in enumerate(comps) for j, e in enumerate(beta)
             if e != INF and (kind != "lower" or e >= 2)]
    if kind == "drop" and comps:
        del comps[draw(st.integers(0, len(comps) - 1))]
    elif kind in ("raise", "lower", "inf") and spots:
        i, j = draw(st.sampled_from(spots))
        e = {"raise": comps[i][j] + 1, "lower": comps[i][j] - 1, "inf": INF}[kind]
        comps[i] = comps[i][:j] + (e,) + comps[i][j + 1:]
    else:
        kind = "exact"
    return g, ComponentSet.from_vectors(n, comps), kind


def basis_points(box):
    """Exponent vectors of the monomials outside the ideal."""
    return {tuple(p) for p in np.argwhere(~box).tolist()}


def brute_basis(gens, bounds):
    """Independent enumeration: nested loops, no numpy."""
    import itertools
    out = []
    for gamma in itertools.product(*[range(c) for c in bounds]):
        if not any(all(g[i] <= gamma[i] for i in range(len(bounds))) for g in gens):
            out.append(gamma)
    return out


def minimal_vertex_covers(n, edges):
    """Every minimal vertex cover of a graph on ``n`` vertices, by brute
    force over all 2^n vertex subsets."""
    covers = [s for s in range(1 << n) if all(s >> i & 1 or s >> j & 1 for i, j in edges)]
    cover_set = set(covers)
    return [s for s in covers if not any(s >> i & 1 and s & ~(1 << i) in cover_set
                                         for i in range(n))]


class TestVertexCovers:
    """The components of an edge ideal are its graph's minimal vertex covers
    (Miller-Sturmfels, Ch. 1): 1 on the cover and INF elsewhere.  Checked on
    seeded G(n, q), apart from the box and from both engines' internals."""

    def test_engines_match_brute_force_covers(self):
        rng = random.Random(89)
        isolated = connected = 0
        for _ in range(40):
            n = rng.randint(2, 12)
            q = rng.choice((0.1, 0.2, 0.35, 0.6))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < q]
            touched = {v for e in edges for v in e}
            isolated += len(touched) < n
            connected += len(touched) == n
            g = GeneratorSet.from_vectors(
                n, [tuple(int(k in e) for k in range(n)) for e in edges])
            want = sorted((tuple(1 if s >> k & 1 else INF for k in range(n))
                           for s in minimal_vertex_covers(n, edges)), key=lex_key)
            for engine in (decompose_incremental, decompose_recursive, decompose_oracle):
                assert list(engine(g).comps) == want, (n, edges)
        # isolated vertices are unused variables
        assert isolated > 10 and connected > 10


class TestStaircase:
    def test_two_squares(self):
        # the closure uses no variable here; the plain one keeps both
        art = plain_closure(GeneratorSet.from_vectors(2, [(2, 0), (0, 2)]))
        box = staircase(art)
        assert box.dtype == bool and box.shape == (4, 4)  # closed box [0, 3]^2
        assert basis_points(box) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_single_generator_basis_count(self):
        g = GeneratorSet.from_vectors(2, [(2, 3)])
        art = plain_closure(g)
        box = staircase(art)
        # independently recount over the open bound box
        expected = brute_basis(art.gens, art.bounds)
        assert len(basis_points(box)) == len(expected) == 11

    def test_unit_ideal_empty_basis(self):
        g = GeneratorSet.from_vectors(2, [(0, 0)])
        art = plain_closure(g)
        assert not basis_points(staircase(art))

    def test_downward_closed(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_ideal(rng)
            art = plain_closure(g)
            pts = basis_points(staircase(art))
            for gamma in pts:
                for i in range(art.n):
                    if gamma[i] > 0:
                        below = gamma[:i] + (gamma[i] - 1,) + gamma[i + 1:]
                        assert below in pts

    def test_budget_guard(self):
        g = GeneratorSet.from_vectors(3, [(40, 50, 60)])
        with pytest.raises(BudgetError):
            staircase(plain_closure(g), budget=1000)


class TestIrrOracle:
    def test_showcase(self):
        got = decompose_oracle(showcase())
        assert set(got.comps) == {(4, 4, 2), (4, 2, 3), (3, 3, 3),
                                  (4, 1, INF), (2, 3, INF), (1, 4, INF)}

    def test_two_squares(self):
        got = decompose_oracle(GeneratorSet.from_vectors(2, [(2, 0), (0, 2)]))
        assert got.comps == ((2, 2),)

    def test_edge_graph_ideal(self):
        g = GeneratorSet.from_vectors(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2)])
        got = decompose_oracle(g)
        assert set(got.comps) == {(INF, 1, 1), (1, INF, 1), (1, 1, 2)}

    def test_injected_axis_has_no_bound_cell(self):
        # <x_1 x_2> in thirty variables: the closure injects x_1^INF and
        # x_2^INF, whose axes hold 0 and 1 only, so the box has 4 cells
        g = GeneratorSet.from_vectors(30, [(1, 1) + (0,) * 28])
        got = decompose_oracle(g, budget=4)
        assert set(got.comps) == {(1,) + (INF,) * 29, (INF, 1) + (INF,) * 28}
        with pytest.raises(BudgetError, match="box of 4 cells exceeds budget 3"):
            decompose_oracle(g, budget=3)

    def test_zero_and_unit_conventions(self):
        assert decompose_oracle(GeneratorSet.from_vectors(2, [])).comps == ((INF, INF),)
        assert decompose_oracle(GeneratorSet.from_vectors(2, [(0, 0)])).comps == ()

    def test_maximality_means_every_neighbour_inside(self):
        art = plain_closure(showcase())
        box = staircase(art)
        pts = basis_points(box)
        for gamma in maximal_points(box):
            for i in range(3):
                up = gamma[:i] + (gamma[i] + 1,) + gamma[i + 1:]
                assert up not in pts

    def test_order_insensitive(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_ideal(rng)
            perm = list(g.gens)
            rng.shuffle(perm)
            h = GeneratorSet.from_vectors(g.n, perm)
            assert decompose_oracle(g).comps == decompose_oracle(h).comps

    def test_output_is_antichain_and_generates(self):
        rng = random.Random(12)
        for _ in range(50):
            g = random_ideal(rng)
            comps = decompose_oracle(g)
            comps.validate()
            assert is_antichain(comps.comps)
            assert components_generate(comps, g)


class TestMembershipChecks:
    def test_equal_to_own_minimalization(self):
        raw = GeneratorSet(2, ((2, 0), (2, 1), (3, 3)))
        assert ideals_equal(raw, GeneratorSet.from_vectors(2, [(2, 0), (2, 1), (3, 3)]))

    def test_strictly_smaller_power_differs(self):
        a = GeneratorSet.from_vectors(3, [(1, 0, 0)])
        b = GeneratorSet.from_vectors(3, [(2, 0, 0)])
        assert not ideals_equal(a, b)

    def test_large_exponents_need_no_box(self):
        # a box over these exponents would hold about 10^12 cells
        e = 10 ** 6
        g = GeneratorSet.from_vectors(2, [(e, 0), (0, e), (e - 1, 1)])
        raw = GeneratorSet(2, ((e, 0), (0, e), (e - 1, 1), (e, 5), (e - 1, e)))
        assert ideals_equal(raw, g)
        assert not ideals_equal(g, GeneratorSet.from_vectors(2, [(e, 0), (0, e), (e - 1, 2)]))

    def test_components_generate_rejects_dropped_component(self):
        g = showcase()
        comps = decompose_oracle(g)
        assert components_generate(comps, g)
        truncated = ComponentSet.from_vectors(3, comps.comps[:-1])
        assert not components_generate(truncated, g)

    def test_budget_error(self):
        # eleven distinct degrees in each variable: the compressed box has
        # 11^3 cells
        g = GeneratorSet.from_vectors(3, degree_shell(3, 10))
        with pytest.raises(BudgetError, match="box of 1331 cells exceeds budget 1000"):
            components_generate(ComponentSet.from_vectors(3, []), g, budget=1000)


class TestCompressedBox:
    """The oracle's box holds one cell per combination of distinct degrees."""

    @settings(max_examples=200, deadline=None)
    @given(decompositions())
    def test_certificate_equals_plain_box(self, case):
        g, comps, kind = case
        got = components_generate(comps, g)
        assert got == plain_components_generate(comps, g)
        if kind == "exact":
            assert got

    @settings(max_examples=100, deadline=None)
    @given(sparse_ideals())
    def test_oracle_equals_plain_staircase(self, g):
        if g.is_unit():
            return
        got = decompose_oracle(g)
        assert got == plain_decompose_oracle(g)
        assert got == decompose_incremental(g)

    def test_scaled_decompositions_certify(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_ideal(rng)
            comps = decompose_incremental(g)
            big_g = GeneratorSet.from_vectors(g.n, scaled(g.gens))
            big = ComponentSet.from_vectors(g.n, scaled(comps.comps))
            assert components_generate(big, big_g, budget=10 ** 5)
            assert decompose_oracle(big_g) == big == decompose_incremental(big_g)

    def test_corrupted_scaled_set_is_rejected(self):
        rng = random.Random(24)
        for _ in range(30):
            g = random_ideal(rng)
            big_g = GeneratorSet.from_vectors(g.n, scaled(g.gens))
            comps = list(decompose_incremental(big_g).comps)
            if not comps:
                continue
            i = rng.randrange(len(comps))
            j = rng.choice([j for j, e in enumerate(comps[i]) if e != INF] or [None])
            assert not components_generate(
                ComponentSet.from_vectors(g.n, comps[:i] + comps[i + 1:]), big_g)
            if j is not None:
                for e in (comps[i][j] - 1, comps[i][j] + 1, INF):
                    bent = comps[:i] + [comps[i][:j] + (e,) + comps[i][j + 1:]] + comps[i + 1:]
                    assert not components_generate(ComponentSet.from_vectors(g.n, bent), big_g)

    def test_million_exponents(self):
        # the plain box would hold 1,000,002,000,001 cells; this one holds 9
        e = 10 ** 6
        g = GeneratorSet.from_vectors(2, [(e, 0), (e // 2, e // 2), (0, e)])
        comps = decompose_oracle(g)
        assert comps.comps == ((e, e // 2), (e // 2, e))
        assert components_generate(comps, g, budget=9)
        assert not components_generate(
            ComponentSet.from_vectors(2, [(e, e // 2), (e // 2, e - 1)]), g)
