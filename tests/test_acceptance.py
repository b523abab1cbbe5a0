"""Acceptance gate: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
All tolerances are exact set equalities or pinned constants; nothing is
deferred to later calibration.
"""

import json
import math
import random
import time

import pytest

from monideal import (INF, artinianize, components_generate,
                      decompose_incremental, decompose_oracle,
                      decompose_recursive, gen_random)
from monideal.incremental import IncrementalState
from monideal.bench import (INCREMENTAL_ENVELOPE, RECURSIVE_ENVELOPE,
                            distinct_degree_counts, measure, sweep_ideals)
from monideal.cli import cli_main
from conftest import (SHOWCASE_GENS, fourvar, ideal_intersection, ideal_sum,
                      ideals_equal, is_antichain, showcase)

PUBLISHED = {(4, 4, 2), (4, 2, 3), (3, 3, 3), (4, 1, INF), (2, 3, INF), (1, 4, INF)}
FOURVAR_PUBLISHED = {(3, 3, 1, 1), (2, 3, 2, 1), (3, 2, 1, 2),
                     (3, 1, 2, 2), (2, 2, 2, 2), (1, 3, 2, 2)}


def report(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_golden_example():
    start = time.perf_counter()
    results = [set(decompose_recursive(showcase()).comps),
               set(decompose_incremental(showcase()).comps),
               set(decompose_oracle(showcase()).comps)]
    elapsed = time.perf_counter() - start
    ok = all(r == PUBLISHED for r in results) and elapsed < 1.0
    report(1, ok, f"three engines reproduce the published six components "
                  f"exactly in {elapsed:.3f}s")


def test_criterion_2_nongeneric_counterexample():
    start = time.perf_counter()
    g = fourvar()
    sets = [set(decompose_recursive(g).comps),
            set(decompose_incremental(g).comps),
            set(decompose_oracle(g).comps)]
    ok = all(s == FOURVAR_PUBLISHED for s in sets)

    art = artinianize(g)
    state = IncrementalState.start(art)
    for alpha in art.alphas():
        state.add_generator(alpha)
    before = set(state.components)
    state.add_generator((1, 1, 1, 1))
    after = set(state.components)
    elapsed = time.perf_counter() - start
    ok = ok and before - after == {(2, 2, 2, 2)} and not (after - before) \
        and len(after) == 5 and elapsed < 1.0
    report(2, ok, f"four-variable ideal decomposes to the published set and "
                  f"adding the extra generator removes (2,2,2,2) in {elapsed:.3f}s")


def _as_vec(coords):
    return tuple(INF if e == "inf" else e for e in coords)


def test_criterion_3_trace_fidelity(tmp_path, capsys):
    src = tmp_path / "showcase.ideal"
    src.write_text("ideal 3\n" +
                   "\n".join(" ".join(map(str, v)) for v in SHOWCASE_GENS) +
                   "\nend\n")
    code = cli_main(["decompose", "--algo", "incremental", "--trace",
                     str(src), str(tmp_path / "out.components")])
    err = capsys.readouterr().err
    records = [json.loads(l) for l in err.splitlines() if l.startswith("{")]
    ok = code == 0 and len(records) == 3

    # replay the narration from the records alone, starting from the known
    # initial component
    t = {(4, 4, INF)}
    states = []
    t1_sets = []
    for rec in records:
        affected = {_as_vec(e["beta"]) for e in rec["kept"] + rec["rejected"]}
        t1 = t - affected
        t1_sets.append(t1)
        t = t1 | {_as_vec(e["candidate"]) for e in rec["kept"]}
        states.append(set(t))

    ok = ok and states[0] == {(3, 4, INF), (4, 2, INF), (4, 4, 2)}
    ok = ok and t1_sets[1] == {(4, 4, 2), (4, 2, INF)}

    step3 = records[2]
    entries = {(e["u"], e["d"], True) for e in step3["kept"]
               if _as_vec(e["beta"]) == (4, 2, INF)}
    entries |= {(e["u"], e["d"], False) for e in step3["rejected"]
                if _as_vec(e["beta"]) == (4, 2, INF)}
    ok = ok and entries == {(1, 3, False), (2, 0, True), (3, 2, True)}
    report(3, ok, "per-step trace matches the worked narration: states after "
                  "each step, the survivors at step two, and the step-three "
                  "d-values (3,0,2) with flags (x, keep, keep)")


def test_criterion_4_oracle_cross_validation():
    start = time.perf_counter()
    rng = random.Random(20260809)
    failures = 0
    total = 1000
    for trial in range(total):
        generic = trial % 2 == 0
        n = rng.choice([2, 3, 4])
        p = rng.randint(1, 8)
        maxdeg = rng.randint(1, 6)
        if generic and p - 1 > maxdeg:
            p = maxdeg + 1
        g = gen_random(n, p, maxdeg, seed=rng.randrange(2 ** 32), generic=generic)
        rec = decompose_recursive(g)
        inc = decompose_incremental(g)
        orc = decompose_oracle(g)
        same = set(rec.comps) == set(inc.comps) == set(orc.comps)
        if not (same and is_antichain(orc.comps) and components_generate(orc, g)):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 300
    report(4, ok, f"{total} random ideals: engines agree, components generate, "
                  f"antichains hold; {failures} failures in {elapsed:.1f}s")


def test_criterion_5_nondecreasing_component_count():
    rng = random.Random(55)
    violations = 0
    total = 200
    for _ in range(total):
        n = rng.choice([2, 3, 4])
        p = rng.randint(1, 8)
        maxdeg = max(p, rng.randint(1, 8))
        g = gen_random(n, p, maxdeg, seed=rng.randrange(2 ** 32), generic=True)
        sizes = []
        comps = decompose_incremental(g, t_sizes=sizes)
        monotone = all(a <= b for a, b in zip(sizes, sizes[1:]))
        if not (monotone and max(sizes) == len(comps)):
            violations += 1
    ok = violations == 0
    report(5, ok, f"{total} generic lex runs: component count never shrinks and "
                  f"peaks at the final size; {violations} violations")


def test_criterion_6_distribution_rules():
    rng = random.Random(66)
    failures = 0
    total = 1000
    for _ in range(total):
        n = rng.choice([2, 3])
        def small():
            return gen_random(n, rng.randint(1, 4), rng.randint(1, 4),
                              seed=rng.randrange(2 ** 32))
        i1, i2, j = small(), small(), small()
        rule_a = ideals_equal(ideal_intersection(ideal_sum(i1, i2), j),
                              ideal_sum(ideal_intersection(i1, j),
                                        ideal_intersection(i2, j)))
        rule_b = ideals_equal(ideal_sum(ideal_intersection(i1, i2), j),
                              ideal_intersection(ideal_sum(i1, j),
                                                 ideal_sum(i2, j)))
        if not (rule_a and rule_b):
            failures += 1
    ok = failures == 0
    report(6, ok, f"{total} random triples satisfy both distribution rules "
                  f"as minimal generating sets; {failures} failures")


def test_criterion_7_bivariate_closed_form():
    rng = random.Random(77)
    failures = 0
    total = 500
    for _ in range(total):
        g = gen_random(2, rng.randint(1, 8), rng.randint(1, 9),
                       seed=rng.randrange(2 ** 32))
        if set(decompose_recursive(g).comps) != set(decompose_oracle(g).comps):
            failures += 1
    ok = failures == 0
    report(7, ok, f"{total} random bivariate staircases match the oracle; "
                  f"{failures} failures")


def test_criterion_8_complexity_envelopes():
    worst_inc = worst_rec = 0.0
    ok = True
    for instance, g in sweep_ideals("generic-sweep"):
        art = artinianize(g)
        s = distinct_degree_counts(art)
        _, inc = measure(g, "incremental", instance)
        _, rec = measure(g, "recursive", instance)
        inc_budget = INCREMENTAL_ENVELOPE * g.n ** 2 * max(g.p, 1) * max(inc.l, 1)
        rec_budget = RECURSIVE_ENVELOPE * max(g.p, 1) ** 2 * math.prod(s)
        ok = ok and inc.ops <= inc_budget and rec.ops <= rec_budget
        ok = ok and inc.l == rec.l and inc.peak_t <= inc.l
        worst_inc = max(worst_inc, inc.ops / inc_budget)
        worst_rec = max(worst_rec, rec.ops / rec_budget)
    report(8, ok, f"generic sweep stays inside the pinned envelopes "
                  f"(incremental C={INCREMENTAL_ENVELOPE}, worst use {worst_inc:.0%}; "
                  f"recursive C'={RECURSIVE_ENVELOPE}, worst use {worst_rec:.0%})")


def test_criterion_9_lemma_suites():
    import test_lemmas

    suites = [
        test_lemmas.test_basis_membership_iff_strictly_below_some_component,
        test_lemmas.test_components_are_shifted_maximal_basis_points,
        test_lemmas.test_slice_membership_reduction,
        test_lemmas.test_untouched_components_stay_components,
        test_lemmas.test_single_variable_matchers_exist,
        test_lemmas.test_divisor_envelope_equals_component,
        test_lemmas.test_lowering_criterion_matches_oracle,
    ]
    failed = []
    for suite in suites:
        try:
            suite()
        except AssertionError:
            failed.append(suite.__name__)
    ok = not failed
    report(9, ok, f"all {len(suites)} structure-lemma suites pass at 300+ "
                  f"instances each" + (f"; failed: {failed}" if failed else ""))
