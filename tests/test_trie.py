"""Lex-sorted trie encoding, slices and merge semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from monideal import INF, GeneratorSet, OpCounter, artinianize
from monideal.core import lex_key, maximalize, minimalize
from monideal.trie import build, min_merge, paths, top_slices
from conftest import SHOWCASE_GENS, full_scan_min_merge, plain_closure, relabel, showcase


def vector_lists():
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*([st.integers(0, 5)] * n)), max_size=10)
        .map(lambda vs: (n, vs)))


class TestBuildAndPaths:
    def test_showcase_structure(self):
        t = build(3, SHOWCASE_GENS)
        assert len(t) == 5
        assert [v[-1] for v in t] == [0, 0, 2, 2, 3]

    def test_empty(self):
        t = build(2, [])
        assert paths(t) == []

    def test_single_path_labels(self):
        [(d, sub)] = top_slices(build(2, [(2, 3)]))
        assert d == 3
        assert sub == ((2,),)

    def test_paths_lex_sorted(self):
        t = build(3, SHOWCASE_GENS)
        assert paths(t) == sorted(set(map(tuple, SHOWCASE_GENS)), key=lex_key)

    @given(vector_lists())
    def test_round_trip(self, nvs):
        n, vs = nvs
        assert paths(build(n, vs)) == sorted(set(map(tuple, vs)), key=lex_key)

    @given(vector_lists())
    def test_closure_generators_are_already_a_trie(self, nvs):
        # the recursive engine decomposes ``art.gens`` without ``build``
        art = artinianize(GeneratorSet.from_vectors(*nvs))
        assert build(art.n, art.gens) == art.gens

    @given(vector_lists())
    def test_sibling_labels_strictly_increase(self, nvs):
        n, vs = nvs

        def scan(t):
            slices = top_slices(t) if t and len(t[0]) > 1 else [(v[0], None) for v in t]
            labels = [d for d, _ in slices]
            assert labels == sorted(labels)
            assert len(set(labels)) == len(labels)
            for _, sub in slices:
                if sub is not None:
                    scan(sub)

        scan(build(n, vs))

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            build(2, [(1, 2), (1, 2, 3)])


class TestMerges:
    def test_merge_identity_and_idempotence(self):
        t = build(2, [(1, 0), (0, 1)])
        empty = build(2, [])
        assert min_merge(t, empty) == t
        assert min_merge(t, t) == t

    def test_min_merge_staircase_step(self):
        t0 = build(2, [(4, 0), (0, 4)])
        t1 = build(2, [(3, 2), (1, 3)])
        assert set(paths(min_merge(t0, t1))) == {(4, 0), (0, 4), (3, 2), (1, 3)}

    def test_min_merge_self(self):
        t = build(3, SHOWCASE_GENS)
        assert min_merge(t, t) == t

    def test_min_merge_dominated_removed(self):
        out = min_merge(build(3, [(4, 2, 2)]), build(3, [(3, 2, 2)]))
        assert paths(out) == [(3, 2, 2)]

    def test_min_merge_charges_pairs_up_to_first_divisor(self):
        # (4, 0) can only be divided by (3, 0), which does: 1; (0, 4) tests
        # (1, 3), then (3, 0): 2; the pointer reads both slice vectors: 2;
        # the slice itself is kept untested: 5 in all (3 when every link
        # vector was tested from the start of the slice, uncharged pointer)
        counter = OpCounter()
        out = min_merge(build(2, [(4, 0), (0, 4)]), build(2, [(3, 0), (1, 3)]), counter)
        assert paths(out) == [(3, 0), (1, 3), (0, 4)]
        assert counter.ops == 5

    def test_min_merge_tests_only_the_prefix_below_each_vector(self):
        # (4, 0) is tested against (3, 0) alone, its one possible divisor:
        # 1, and the pointer reads (3, 0) and stops on (1, 3): 2
        counter = OpCounter()
        out = min_merge(build(2, [(4, 0)]), build(2, [(3, 0), (1, 3)]), counter)
        assert paths(out) == [(3, 0), (1, 3)]
        assert counter.ops == 3

    def test_published_components_are_antichain(self):
        comps = [(4, 4, 2), (4, 2, 3), (3, 3, 3), (4, 1, INF), (2, 3, INF), (1, 4, INF)]
        assert maximalize(comps) == sorted(comps, key=lex_key)

    def test_height_mismatch(self):
        # an empty trie has no height, so the mismatch needs vectors
        with pytest.raises(ValueError):
            min_merge(build(2, [(1, 0)]), build(3, [(1, 0, 0)]))

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(*([st.integers(0, 5)] * n)), max_size=12))))
    def test_min_merge_matches_list_minimalize(self, nvs):
        # merges are defined on a chain link and the next slice of a minimal
        # set, so walk the slice chain as the recursive engine does
        n, vs = nvs
        link = None
        for _, tk in top_slices(build(n, minimalize(vs))):
            if link is not None:
                merged = min_merge(link, tk)
                assert paths(merged) == minimalize(paths(link) + paths(tk))
                tk = merged
            link = tk


@st.composite
def closure_tries(draw):
    """Trie of a minimal Artinian closure of height 2 to 5, its injected
    powers relabelled INF or not."""
    n = draw(st.integers(2, 5))
    vs = draw(st.lists(st.tuples(*([st.integers(0, 5)] * n)), max_size=14))
    art = plain_closure(GeneratorSet.from_vectors(n, vs))
    return build(n, [relabel(art, v) for v in art.gens] if draw(st.booleans())
                 else art.gens)


class TestPrefixMerge:
    @settings(max_examples=300, deadline=None)
    @given(closure_tries())
    def test_matches_the_full_scan_within_its_charge(self, t):
        # every link/slice pair the recursive engine's chain walk merges
        link = None
        for _, tk in top_slices(t):
            if link is not None:
                counter = OpCounter()
                merged = min_merge(link, tk, counter)
                assert merged == full_scan_min_merge(link, tk)
                assert counter.ops <= len(link) * len(tk) + len(tk)
                tk = merged
            link = tk


class TestSlices:
    def test_showcase_slices(self):
        t = build(3, SHOWCASE_GENS)
        assert [d for d, _ in top_slices(t)] == [0, 2, 3]

    def test_artinianized_slices(self):
        # the closure injects z^INF: its slice is the last, at degree INF
        art = artinianize(showcase())
        t = build(3, art.gens)
        assert [d for d, _ in top_slices(t)] == [0, 2, 3, INF]
        assert paths(top_slices(t)[-1][1]) == [(0, 0)]

    def test_single_path(self):
        slices = top_slices(build(2, [(2, 3)]))
        assert len(slices) == 1
        d, sub = slices[0]
        assert d == 3 and paths(sub) == [(2,)]

    def test_height_one_rejected(self):
        with pytest.raises(ValueError):
            top_slices(build(1, [(2,)]))

    @given(vector_lists())
    def test_slices_reconstruct_paths(self, nvs):
        n, vs = nvs
        if n < 2:
            return
        t = build(n, vs)
        rebuilt = []
        for d, sub in top_slices(t):
            rebuilt.extend(v + (d,) for v in paths(sub))
        assert sorted(rebuilt) == sorted(paths(t))

