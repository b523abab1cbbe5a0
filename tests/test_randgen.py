"""Seeded random ideal generation."""

import random

import pytest

from monideal import decompose_oracle, decompose_recursive, gen_random
from monideal.core import is_generic


def test_deterministic():
    a = gen_random(3, 6, 8, seed=1234)
    b = gen_random(3, 6, 8, seed=1234)
    assert a == b
    c = gen_random(3, 6, 8, seed=1235)
    assert a != c


def test_generic_flag_holds():
    rng = random.Random(2)
    for _ in range(200):
        p = rng.randint(1, 10)
        g = gen_random(rng.choice([1, 2, 3, 4]), p, max(p, rng.randint(1, 12)),
                       seed=rng.randrange(2 ** 32), generic=True)
        assert is_generic(g)


def test_infeasible_generic_parameters():
    with pytest.raises(ValueError):
        gen_random(3, 8, 6, seed=0, generic=True)


def test_bad_parameters():
    with pytest.raises(ValueError):
        gen_random(0, 1, 1, seed=0)
    with pytest.raises(ValueError):
        gen_random(2, 0, 1, seed=0)


def test_output_is_minimal():
    rng = random.Random(4)
    for _ in range(50):
        g = gen_random(3, 8, 6, seed=rng.randrange(2 ** 32))
        for a in g.gens:
            for b in g.gens:
                if a is not b:
                    assert not all(x <= y for x, y in zip(a, b))


def test_bivariate_output_matches_closed_form():
    rng = random.Random(6)
    for _ in range(100):
        g = gen_random(2, rng.randint(1, 8), rng.randint(1, 9),
                       seed=rng.randrange(2 ** 32))
        assert set(decompose_recursive(g).comps) == \
            set(decompose_oracle(g).comps)
