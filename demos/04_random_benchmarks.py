"""Random ideals and operation-count envelopes.

Both engines tally their monomial operations (vector comparisons and
divisibility tests).  Across a sweep of seeded generic instances the counts
stay inside fixed envelopes in terms of the input and output sizes.
"""

import math
import os
import tempfile

from monideal import artinianize, gen_random
from monideal.core import is_generic
from monideal.bench import (distinct_degree_counts, measure, run_sweep,
                            sweep_ideals, write_csv)

# Reproducible random ideals: same parameters and seed, same set.
g = gen_random(n=4, p=10, maxdeg=20, seed=7, generic=True)
print(f"sampled {g.p} generators in {g.n} variables, generic: {is_generic(g)}")
for v in g.gens[:5]:
    print(" ", v)
print("  ...")

# One instrumented run of each engine; the oracle counts no operations.
for algo in ("incremental", "recursive", "oracle"):
    _, rec = measure(g, algo)
    ops = "" if rec.ops is None else f" ops={rec.ops:6d}"
    peak = "" if rec.peak_t is None else f" peak_t={rec.peak_t}"
    print(f"{algo:12s} l={rec.l:3d}{ops} wall={rec.wall_s:.4f}s{peak}")

# The full generic sweep, and how close each engine comes to its envelope.
print("\ngeneric sweep:")
for instance, ideal in sweep_ideals("generic-sweep"):
    _, inc = measure(ideal, "incremental", instance)
    _, rec = measure(ideal, "recursive", instance)
    s = distinct_degree_counts(artinianize(ideal))
    inc_bound = ideal.n ** 2 * ideal.p * inc.l
    rec_bound = ideal.p ** 2 * math.prod(s)
    print(f"  {instance:16s} l={inc.l:4d} "
          f"inc {inc.ops:6d}/{inc_bound:8d}  rec {rec.ops:7d}/{rec_bound:10d}")

# The same data lands in a CSV via run_sweep/write_csv (or the bench
# subcommand of the command line tool).
records = run_sweep("generic-sweep")
out = os.path.join(tempfile.gettempdir(), "monideal_generic_sweep.csv")
write_csv(records, out)
print(f"\nwrote {len(records)} records to {out}")
