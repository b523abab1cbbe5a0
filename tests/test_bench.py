"""The engine rule of ``monideal decompose`` and the non-generic sweep."""

import math
import random

import pytest

from monideal import GeneratorSet, artinianize, bench, gen_random
from monideal.bench import (NONGENERIC_GRID, RECURSIVE_BOX_RATIO, degree_shell,
                            distinct_degree_counts, preferred_engine, sweep_ideals)
from monideal.trie import is_thin
from conftest import edge_ideal, generic_dual, near_shell, showcase


def box_ratio(g):
    return math.prod(distinct_degree_counts(artinianize(g))) / g.p ** 2


def shell_sample(n, d, fraction, seed):
    shell = degree_shell(n, d)
    k = round(fraction * len(shell))
    return GeneratorSet.from_vectors(n, random.Random(seed).sample(shell, k))


def test_degree_shell():
    assert degree_shell(1, 4) == [(4,)]
    assert degree_shell(2, 2) == [(2, 0), (1, 1), (0, 2)]
    shell = degree_shell(5, 8)
    assert len(shell) == len(set(shell)) == math.comb(12, 4)
    assert all(len(v) == 5 and sum(v) == 8 and min(v) >= 0 for v in shell)


@pytest.mark.parametrize("n, d", [(3, 20), (3, 12), (4, 12), (4, 8), (5, 8), (5, 6)])
def test_powers_and_shells_run_recursive(n, d):
    # m^d, and seeded halves of its degree shell
    assert preferred_engine(shell_sample(n, d, 1, 0)) == "recursive"
    for seed in range(3):
        assert preferred_engine(shell_sample(n, d, 0.5, seed)) == "recursive"


@pytest.mark.parametrize("n, p", [(3, 100), (4, 30), (4, 60), (4, 200), (5, 12), (5, 40),
                                  (5, 100)])
def test_generic_ladders_run_recursive(n, p):
    # past slice 0 every slice of a generic ladder holds one vector, so its
    # closure is thin, and the recursive engine took 0.37-0.91 of the
    # incremental time on such ladders (README, Performance).  At p = 12
    # in five variables, seed 2's slice 0, the generators free of x_5,
    # holds most of the closure: it is thick, its box is above 10 p^2, and
    # it runs incremental
    engines = []
    for seed in range(3):
        g = gen_random(n, p, 2 * p, seed, generic=True)
        assert is_thin(g.closure.gens) == (preferred_engine(g) == "recursive")
        engines.append(preferred_engine(g))
    thick = [2] if (n, p) == (5, 12) else []
    assert engines == ["incremental" if s in thick else "recursive" for s in range(3)]


@pytest.mark.parametrize("n, p, seed", [(4, 300, 1), (5, 150, 1), (5, 400, 2)])
def test_near_shell_runs_recursive(n, p, seed):
    # its box is as large against p^2 as a generic ladder's, but its slices
    # hold one to three vectors: thin
    g = near_shell(n, p, seed)
    assert box_ratio(g) > RECURSIVE_BOX_RATIO
    assert is_thin(g.closure.gens)
    assert preferred_engine(g) == "recursive"


@pytest.mark.parametrize("n, p", [(4, 200), (5, 100)])
def test_generic_duals_run_incremental(n, p):
    # thick (two generators or more per degree of the last variable) with
    # a large box: the recursive engine runs 3.7-41 times slower on them
    g = generic_dual(gen_random(n, p, 2 * p, 1, generic=True))
    assert not is_thin(g.closure.gens)
    assert box_ratio(g) > RECURSIVE_BOX_RATIO
    assert preferred_engine(g) == "incremental"


def test_rule_reads_the_box_against_p_squared():
    # thick closures: the degree shell of m^8 in four variables has
    # prod(s_j) <= 10 p^2, the 20-vertex edge ideal 3^20 cells for 58
    # generators
    power, edges = shell_sample(4, 8, 1, 0), edge_ideal(20, 0.3)
    assert not is_thin(power.closure.gens) and not is_thin(edges.closure.gens)
    assert box_ratio(power) <= RECURSIVE_BOX_RATIO < box_ratio(edges)
    assert preferred_engine(power) == "recursive"
    assert preferred_engine(edges) == "incremental"
    # the zero ideal has p = 0, the unit ideal a one-point box
    assert preferred_engine(GeneratorSet.from_vectors(3, [])) == "incremental"
    assert preferred_engine(GeneratorSet.from_vectors(3, [(0, 0, 0)])) == "recursive"


def test_thin_closures_skip_the_box(monkeypatch):
    # the showcase: 6 closure generators on 4 degrees of z, thin
    assert is_thin(showcase().closure.gens)
    assert preferred_engine(showcase()) == "recursive"
    # x^a y^b z^c alone: 4 generators on 3 degrees of z, thin, though its
    # box s = (3, 3, 3) has 27 > 10 * 1^2 cells
    assert preferred_engine(GeneratorSet.from_vectors(3, [(1, 2, 3)])) == "recursive"
    # a thin closure decides without counting the box
    counted = []
    monkeypatch.setattr(bench, "distinct_degree_counts",
                        lambda art: counted.append(art) or distinct_degree_counts(art))
    assert preferred_engine(gen_random(4, 30, 60, 1, generic=True)) == "recursive"
    assert counted == []
    assert preferred_engine(shell_sample(4, 8, 1, 0)) == "recursive"
    assert len(counted) == 1


def test_rule_is_exactly_the_closure_statistic():
    # the rule reads thinness and prod(s_j) off the cached closure
    # g.closure; recompute both from a fresh artinianize(g) and check the
    # choice against them
    rng = random.Random(11)
    sides = {"thin": 0, "box": 0, "incremental": 0}
    for _ in range(400):
        n, p = rng.randint(1, 5), rng.randint(1, 30)
        generic = rng.random() < 0.5
        maxdeg = rng.randint(p, 3 * p) if generic else rng.randint(1, 2 * p)
        g = gen_random(n, p, maxdeg, rng.randrange(2 ** 32), generic=generic)
        art = artinianize(g)
        side = ("thin" if is_thin(art.gens)
                else "box" if box_ratio(g) <= RECURSIVE_BOX_RATIO else "incremental")
        exact = "incremental" if side == "incremental" else "recursive"
        assert preferred_engine(g) == exact, (g, side)
        sides[side] += 1
    assert min(sides.values()) > 20, sides


class TestThinEdgeCases:
    """The thin predicate and the rule at the edges of the closure."""

    def test_empty_closure(self):
        # no used variable: the zero ideal has p = 0 and goes incremental,
        # a pure power has p = 1 and a one-cell box
        assert GeneratorSet.from_vectors(3, []).closure.gens == ()
        assert not is_thin(())
        assert preferred_engine(GeneratorSet.from_vectors(3, [])) == "incremental"
        g = GeneratorSet.from_vectors(3, [(0, 4, 0)])
        assert g.closure.gens == ()
        assert preferred_engine(g) == "recursive"

    def test_unit_ideal(self):
        # the closure is the height-0 zero vector, which has no last
        # coordinate: not thin, and its one-cell box decides
        g = GeneratorSet.from_vectors(3, [(0, 0, 0)])
        assert g.closure.gens == ((),)
        assert not is_thin(g.closure.gens)
        assert preferred_engine(g) == "recursive"

    def test_one_variable(self):
        # a height-1 trie holds one vector per slice; an ideal in one
        # variable is a pure power, whose closure uses no variable
        assert is_thin(((3,),))
        g = GeneratorSet.from_vectors(1, [(3,)])
        assert g.closure.gens == ()
        assert preferred_engine(g) == "recursive"

    def test_two_variables(self):
        # a minimal staircase has one vector per degree of y: always thin
        rng = random.Random(3)
        for _ in range(50):
            g = gen_random(2, rng.randint(1, 20), 40, rng.randrange(2 ** 32))
            if g.closure.gens:
                assert is_thin(g.closure.gens), g
            assert preferred_engine(g) == "recursive"

    @pytest.mark.parametrize("n, d", [(3, 12), (4, 8), (5, 6)])
    def test_power_of_the_maximal_ideal(self, n, d):
        # m^d holds every monomial of degree d - k in slice k: thick, and
        # recursive through its box
        g = shell_sample(n, d, 1, 0)
        assert not is_thin(g.closure.gens)
        assert box_ratio(g) <= RECURSIVE_BOX_RATIO
        assert preferred_engine(g) == "recursive"

    @pytest.mark.parametrize("n, q", [(20, 0.3), (30, 0.2)])
    def test_edge_ideal(self, n, q):
        # squarefree: its last variable has the degrees 0, 1 and the
        # injected bound 2, three slices for dozens of generators, so it is
        # thick, and its box is 3^n; incremental, as before the thin rule
        g = edge_ideal(n, q)
        assert not is_thin(g.closure.gens)
        assert box_ratio(g) > RECURSIVE_BOX_RATIO
        assert preferred_engine(g) == "incremental"


def test_nongeneric_sweep_stays_on_the_recursive_side():
    instances = sweep_ideals("nongeneric-sweep")
    assert len(instances) == len(NONGENERIC_GRID)
    for (instance, g), (n, d, quarters) in zip(instances, NONGENERIC_GRID):
        shell = degree_shell(n, d)
        # a subset of one shell is an antichain: nothing is lost to minimalization
        assert g.n == n and g.p == quarters * len(shell) // 4, instance
        assert set(g.gens) <= set(shell)
        assert box_ratio(g) <= RECURSIVE_BOX_RATIO, instance
        assert preferred_engine(g) == "recursive"
        if quarters == 4:
            assert set(g.gens) == set(shell), instance
    # each n rises to its full m^d; none is larger than m^8 in 5 variables,
    # which keeps `monideal bench --suite nongeneric-sweep` fast
    assert {n for n, _, quarters in NONGENERIC_GRID if quarters == 4} == {3, 4, 5}
    assert max(g.p for _, g in instances) <= len(degree_shell(5, 8))
    assert sweep_ideals("nongeneric-sweep") == instances
