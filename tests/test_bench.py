"""The engine rule of ``monideal decompose`` and the non-generic sweep."""

import math
import random

import pytest

from monideal import GeneratorSet, artinianize, gen_random
from monideal.bench import (NONGENERIC_GRID, RECURSIVE_BOX_RATIO, degree_shell,
                            distinct_degree_counts, preferred_engine, sweep_ideals)
from conftest import showcase


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


@pytest.mark.parametrize("n, p", [(4, 30), (4, 60), (4, 200), (5, 12), (5, 40), (5, 100)])
def test_generic_ladders_run_incremental(n, p):
    # generic n=5, p=100 takes about 300 times longer under the recursive
    # engine: the rule must never send generic input there
    for seed in range(3):
        g = gen_random(n, p, 2 * p, seed, generic=True)
        assert preferred_engine(g) == "incremental", (n, p, seed, box_ratio(g))


def test_rule_reads_the_box_against_p_squared():
    # the showcase: s = (5, 5, 4), 100 <= 10 * 5^2
    assert distinct_degree_counts(artinianize(showcase())) == (5, 5, 4)
    assert preferred_engine(showcase()) == "recursive"
    # x^a y^b z^c alone: s = (3, 3, 3), and 27 > 10 * 1^2
    assert preferred_engine(GeneratorSet.from_vectors(3, [(1, 2, 3)])) == "incremental"
    # the zero ideal has p = 0, the unit ideal a one-point box
    assert preferred_engine(GeneratorSet.from_vectors(3, [])) == "incremental"
    assert preferred_engine(GeneratorSet.from_vectors(3, [(0, 0, 0)])) == "recursive"


def test_rule_is_exactly_the_closure_statistic():
    # the rule reads prod(s_j) off the cached closure g.closure; recompute
    # it from a fresh artinianize(g) and check the choice against it
    rng = random.Random(11)
    cases = 0
    for _ in range(400):
        n, p = rng.randint(1, 5), rng.randint(1, 30)
        generic = rng.random() < 0.5
        maxdeg = rng.randint(p, 3 * p) if generic else rng.randint(1, 2 * p)
        g = gen_random(n, p, maxdeg, rng.randrange(2 ** 32), generic=generic)
        exact = "recursive" if box_ratio(g) <= RECURSIVE_BOX_RATIO else "incremental"
        assert preferred_engine(g) == exact, (g, exact)
        cases += exact == "recursive"
    assert 50 < cases < 350


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
