"""Watch the incremental engine absorb one generator at a time.

The component list starts as the single box of pure-power degrees and is
rewritten at every step: components whose corner strictly contains the new
exponent are split into lowered copies, everything else survives untouched.
"""

from monideal import GeneratorSet, decompose_incremental

gens = [(4, 0, 0), (0, 4, 0), (3, 2, 2), (1, 3, 2), (2, 1, 3)]
g = GeneratorSet.from_vectors(3, gens)

trace, sizes = [], []
comps = decompose_incremental(g, trace=trace, t_sizes=sizes)

print("component count after each step:", sizes)
for rec in trace:
    print(f"\nstep {rec['step']}: absorb alpha = {rec['alpha']}")
    print(f"  untouched components: {rec['t1_size']}, split: {rec['t2_size']}")
    for e in rec["kept"]:
        print(f"  keep  {e['candidate']}  (lowered {e['beta']} in x_{e['u']},"
              f" blocking degree {e['d']})")
    for e in rec["rejected"]:
        print(f"  drop  {e['candidate']}  (blocking degree {e['d']} reaches"
              f" the new exponent)")

print("\nfinal components:")
for beta in comps:
    print(" ", beta)

# On generic input with the lex insertion order the component count never
# shrinks, so the intermediate storage is bounded by the output size.
print("\nnon-decreasing:", all(a <= b for a, b in zip(sizes, sizes[1:])))
