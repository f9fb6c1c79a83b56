"""Multilevel (hMetis-style) baseline, FM2, coarsening, random floor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    fm_refine_bisection,
    grow_bisection,
    multilevel_bisect,
    multilevel_partition,
    random_bisection,
    random_partition,
)
from repro.baselines.multilevel import STOP_SIZE, _coarsen
from repro.core.multilevel import contract_levels
from repro.errors import PartitionError
from repro.hypergraph import Hypergraph, flat_hypergraph, hyperedge_cut, part_weights


@st.composite
def any_hg(draw):
    n = draw(st.integers(4, 16))
    m = draw(st.integers(2, 20))
    edges = []
    for _ in range(m):
        size = draw(st.integers(2, min(n, 4)))
        edges.append(
            draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        )
    vw = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    ew = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    return Hypergraph.from_edges(vw, edges, ew)


class TestFM2:
    @given(any_hg(), st.integers(0, 100))
    @settings(max_examples=80, deadline=None)
    def test_gain_equals_cut_delta(self, hg, seed):
        rng = np.random.default_rng(seed)
        side = rng.integers(0, 2, size=hg.num_vertices).astype(np.int64)
        before = hyperedge_cut(hg, side)
        total = hg.total_weight
        gain = fm_refine_bisection(hg, side, (0, total), (0, total))
        after = hyperedge_cut(hg, side)
        assert before - after == gain
        assert gain >= 0

    def test_respects_asymmetric_bounds(self):
        hg = Hypergraph.from_edges([1] * 9, [[i, i + 1] for i in range(8)])
        side = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1], dtype=np.int64)
        # keep the 1/3 : 2/3 split within +-1
        fm_refine_bisection(hg, side, (2, 4), (5, 7))
        w = np.bincount(side, minlength=2)
        assert 2 <= w[0] <= 4

    def test_finds_obvious_cut(self):
        # two cliques joined by one edge
        edges = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]]
        hg = Hypergraph.from_edges([1] * 6, edges)
        side = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
        fm_refine_bisection(hg, side, (2, 4), (2, 4))
        assert hyperedge_cut(hg, side) == 1

    def test_empty_graph(self):
        hg = Hypergraph.from_edges([], [])
        side = np.zeros(0, dtype=np.int64)
        assert fm_refine_bisection(hg, side, (0, 1), (0, 1)) == 0


def contract_all(hg, seed):
    """The shared level loop with no stop size, cap or stall guard, so
    the small hypothesis hypergraphs coarsen through several levels."""
    return contract_levels(
        hg, np.random.default_rng(seed), stop_size=1,
        max_cluster_weight=hg.total_weight, min_reduction=1.0,
        max_levels=32,
    )


class TestCoarsen:
    @given(any_hg(), st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_weight_preserved(self, hg, seed):
        coarsest, levels = contract_all(hg, seed)
        assert coarsest.total_weight == hg.total_weight
        for level in levels:
            assert level.coarse.total_weight == level.fine.total_weight
            assert level.coarse.num_vertices < level.fine.num_vertices
            assert len(level.mapping) == level.fine.num_vertices
            assert level.mapping.max() == level.coarse.num_vertices - 1

    @given(any_hg(), st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_cut_projection_consistent(self, hg, seed):
        """A coarse bisection's cut equals the projected fine cut."""
        _, levels = contract_all(hg, seed)
        rng = np.random.default_rng(seed)
        for level in levels:
            cside = rng.integers(0, 2, size=level.coarse.num_vertices)
            fside = cside[level.mapping]
            # coarse cut uses accumulated edge weights; dropped
            # single-pin coarse edges were uncuttable anyway
            assert (hyperedge_cut(level.coarse, cside)
                    == hyperedge_cut(level.fine, fside))

    def test_level_stack(self, viterbi_test):
        """The hMetis policy: stop size, cluster cap, chained levels."""
        hg = flat_hypergraph(viterbi_test)
        coarsest, levels = _coarsen(hg, seed=0)
        assert levels and levels[0].fine is hg
        assert coarsest.total_weight == hg.total_weight
        for fine_level, coarse_level in zip(levels, levels[1:]):
            assert coarse_level.fine is fine_level.coarse
        assert levels[-1].coarse is coarsest
        # the loop only contracts hypergraphs above the stop size
        assert all(lv.fine.num_vertices > STOP_SIZE for lv in levels)
        cap = levels[0].max_cluster_weight
        assert cap == -(-hg.total_weight // (STOP_SIZE // 3))
        assert int(coarsest.vertex_weight.max()) <= cap


class TestInitial:
    def test_random_bisection_hits_target(self):
        hg = Hypergraph.from_edges([1] * 10, [[i, i + 1] for i in range(9)])
        side = random_bisection(hg, 5, np.random.default_rng(0))
        w = np.bincount(side, minlength=2)
        assert w[0] >= 1 and w[1] >= 1

    def test_grow_bisection_connected_region(self):
        hg = Hypergraph.from_edges([1] * 10, [[i, i + 1] for i in range(9)])
        side = grow_bisection(hg, 5, np.random.default_rng(0))
        # grown region of a path is contiguous: cut must be 1 or 2
        assert hyperedge_cut(hg, side) <= 2


class TestMultilevel:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_valid_kway(self, viterbi_test, k):
        hg = flat_hypergraph(viterbi_test)
        r = multilevel_partition(hg, k, b=10.0, seed=1)
        assert len(np.unique(r.assignment)) == k
        assert r.part_weights.sum() == hg.total_weight
        assert r.cut_size == hyperedge_cut(hg, r.assignment)

    def test_beats_random(self, viterbi_test):
        hg = flat_hypergraph(viterbi_test)
        ml = multilevel_partition(hg, 3, b=10.0, seed=1)
        rd = hyperedge_cut(hg, random_partition(hg, 3, seed=1))
        assert ml.cut_size < rd

    def test_bisect_bounds(self, viterbi_test):
        hg = flat_hypergraph(viterbi_test)
        side = multilevel_bisect(hg, frac0=0.5, ub=10.0, seed=0)
        w = np.zeros(2, dtype=np.int64)
        np.add.at(w, side, hg.vertex_weight)
        total = hg.total_weight
        assert abs(w[0] - total / 2) <= total * 0.101

    def test_unequal_fraction(self, viterbi_test):
        hg = flat_hypergraph(viterbi_test)
        side = multilevel_bisect(hg, frac0=1 / 3, ub=10.0, seed=0)
        w = np.zeros(2, dtype=np.int64)
        np.add.at(w, side, hg.vertex_weight)
        assert abs(w[0] - hg.total_weight / 3) <= hg.total_weight * 0.101

    def test_k_too_large(self):
        hg = Hypergraph.from_edges([1, 1], [[0, 1]])
        with pytest.raises(PartitionError):
            multilevel_partition(hg, 5, b=10.0)

    def test_deterministic(self, viterbi_test):
        hg = flat_hypergraph(viterbi_test)
        a = multilevel_partition(hg, 3, b=10.0, seed=4)
        b = multilevel_partition(hg, 3, b=10.0, seed=4)
        assert (a.assignment == b.assignment).all()


class TestRandomPartition:
    def test_balanced(self):
        hg = Hypergraph.from_edges([1] * 12, [[i, i + 1] for i in range(11)])
        a = random_partition(hg, 3, seed=0)
        w = part_weights(hg, a, 3)
        assert w.max() - w.min() <= 1

    def test_bad_k(self):
        hg = Hypergraph.from_edges([1], [])
        with pytest.raises(PartitionError):
            random_partition(hg, 2)
