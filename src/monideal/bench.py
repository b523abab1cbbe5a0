"""Operation-count benchmarking of the two engines.

Costs are measured in monomial operations (vector comparisons and
divisibility tests) as tallied by the engines themselves.  The sweep checks
that the counts stay inside fixed envelopes:

  incremental:  ops <= INCREMENTAL_ENVELOPE * n^2 * p * l
  recursive:    ops <= RECURSIVE_ENVELOPE * p^2 * prod(s_j)

where p is the number of minimal generators of the input, l the number of
components, and s_j the number of distinct degrees of variable j over the
Artinian closure (zeros and pure powers included, an injected x_j^INF
counting as one degree), which has only the variables that some non-pure
generator uses.

The envelope constants were calibrated once over the default generic sweep
(worst observed incremental ratio 0.112, worst recursive ratio 0.015 across
the twelve seeded instances) and pinned with double headroom; changing them
is a reviewed change, not a knob.  The worst ratios on that sweep are now
0.071 (incremental) and 0.0021 (recursive), both on g-n3-p5-s23762.
"""

import csv
import math
import random
import time
from dataclasses import dataclass

from .core import GeneratorSet
from .counting import OpCounter
from .incremental import decompose_incremental
from .oracle import DEFAULT_BUDGET, decompose_oracle
from .randgen import gen_random
from .recursive import decompose_recursive
from .trie import is_thin

INCREMENTAL_ENVELOPE = 0.25
RECURSIVE_ENVELOPE = 0.05

GENERIC_GRID = tuple((n, p) for n in (3, 4, 5) for p in (5, 10, 15, 20))
# (n, d, quarters): a seeded subset of a quarter, a half, three quarters and
# all of the degree-d monomials in n variables, the last being m^d.  Any
# subset of one degree shell is an antichain, so every sample survives
# minimalization, and every instance has prod(s_j) <= RECURSIVE_BOX_RATIO p^2.
NONGENERIC_GRID = tuple((n, d, q) for n, d in ((3, 12), (4, 8), (5, 8))
                        for q in (1, 2, 3, 4))


@dataclass(frozen=True)
class BenchRecord:
    instance: str
    n: int
    p: int
    l: int
    algorithm: str
    ops: int
    wall_s: float
    peak_t: int = None

    def row(self):
        # csv.writer writes None as an empty cell
        return [self.instance, self.n, self.p, self.l, self.algorithm,
                self.ops, f"{self.wall_s:.6f}", self.peak_t]


CSV_COLUMNS = ["instance", "n", "p", "l", "algorithm", "ops", "wall_s", "peak_t"]


def distinct_degree_counts(art):
    """Number of distinct degrees of each (used) variable of the closure."""
    return tuple(len({v[j] for v in art.gens}) for j in range(art.n))


# The recursive engine is chosen when the closure's generators are thin
# (``trie.is_thin``: fewer than two per distinct degree of the last
# variable, which ``decompose_trie`` absorbs one vector at a time), or when
# its compressed box, prod(s_j), is at most this many times p^2.  Both
# sides measured faster under the recursive engine (README, Performance):
# generic ladders and near-shell input are thin, m^d and degree-shell
# subsets have a small box, and generic duals at n >= 4, which are neither,
# run 3.7-41 times slower under it.
RECURSIVE_BOX_RATIO = 10


def preferred_engine(g):
    """The engine ``g`` favours: ``"recursive"`` or ``"incremental"``.

    Recursive when the closure's generators are thin, or else when
    prod(s_j), the recursive envelope's box, stays within
    ``RECURSIVE_BOX_RATIO * p^2``.  Thinness is tested first, so the box is
    counted only when it decides.  Both are read off ``g.closure``, over its
    used variables, which either engine then reuses.
    """
    art = g.closure
    if is_thin(art.gens):
        return "recursive"
    box = math.prod(distinct_degree_counts(art))
    return "recursive" if box <= RECURSIVE_BOX_RATIO * g.p ** 2 else "incremental"


def measure(g, algorithm, instance="", *, trace=None, budget=DEFAULT_BUDGET):
    """Run one engine on ``g``; return its components and a record of the cost.

    ``trace`` (a list) receives the incremental engine's step records and
    ``budget`` bounds the oracle's box.  The oracle counts no operations, so
    its record has ``ops=None``; only the incremental engine has a ``peak_t``.
    ``wall_s`` leaves out the closure ``g.closure``, built before the clock
    starts: an earlier engine or the engine rule may already have built it.
    """
    counter = OpCounter()
    sizes = []
    g.closure
    start = time.perf_counter()
    if algorithm == "incremental":
        comps = decompose_incremental(g, counter=counter, trace=trace, t_sizes=sizes)
    elif algorithm == "recursive":
        comps = decompose_recursive(g, counter=counter)
    elif algorithm == "oracle":
        comps, counter = decompose_oracle(g, budget=budget), None
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    wall = time.perf_counter() - start
    return comps, BenchRecord(instance, g.n, g.p, len(comps), algorithm,
                              None if counter is None else counter.ops, wall,
                              max(sizes, default=None))


def degree_shell(n, d):
    """Every exponent vector of total degree ``d`` in ``n`` variables."""
    if n == 1:
        return [(d,)]
    return [(e,) + v for e in range(d, -1, -1) for v in degree_shell(n - 1, d - e)]


def sweep_ideals(suite):
    """Deterministic instances of a sweep: (instance id, GeneratorSet) pairs."""
    out = []
    if suite == "generic-sweep":
        for n, p in GENERIC_GRID:
            seed = 7919 * n + p
            g = gen_random(n, p, 2 * p, seed, generic=True)
            out.append((f"g-n{n}-p{p}-s{seed}", g))
    elif suite == "nongeneric-sweep":
        for n, d, quarters in NONGENERIC_GRID:
            shell = degree_shell(n, d)
            k = quarters * len(shell) // 4
            seed = 7919 * n + k
            g = GeneratorSet.from_vectors(n, random.Random(seed).sample(shell, k))
            out.append((f"shell-n{n}-d{d}-k{k}-s{seed}", g))
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return out


def run_sweep(suite):
    """Benchmark every instance of a sweep with both fast engines."""
    return [measure(g, algorithm, instance)[1]
            for instance, g in sweep_ideals(suite)
            for algorithm in ("incremental", "recursive")]


def write_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())
