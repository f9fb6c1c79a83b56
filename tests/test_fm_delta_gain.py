"""Delta-gain FM refresh: same moves as the full-refresh oracle, and
wide nets cost O(1) per move.

:func:`repro.core.fm.refine_pair` re-scores, after each move, only the
pins of edges whose from/to block counts cross the 0/1/2 thresholds
(see the module docstring).  These tests pin that contract three ways:

* randomized equivalence against
  :func:`repro.bench.partition_speed.legacy_refine_pair`, the retained
  FM that re-scores every neighbour of every moved vertex — identical
  gain, moves, passes and final assignment on hypergraphs with wide
  nets, weighted vertices and edges, and k = 2..5;
* the threshold rule itself: before every heap pop, each vertex's valid
  heap entry carries exactly ``state.move_gain`` of its pending move;
* a deterministic cost guard: on a hypergraph with one 2,000-pin net,
  ``lambda_hits`` stays within a small constant of moves × degree.
"""

import heapq

import numpy as np
import pytest

from repro.bench.partition_speed import legacy_refine_pair
from repro.core import BalanceConstraint, refine_pair
from repro.core import fm as fm_module
from repro.hypergraph import Hypergraph, PartitionState


def _wide_net_hg(seed: int) -> Hypergraph:
    """1-3 nets of >= 200 pins over many small nets; weighted vertices
    and edges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(240, 320))
    edges = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(200, n + 1))
        edges.append(rng.choice(n, size=size, replace=False).tolist())
    for _ in range(n):
        size = int(rng.integers(2, 5))
        edges.append(rng.choice(n, size=size, replace=False).tolist())
    vw = rng.integers(1, 5, size=n).tolist()
    ew = rng.integers(1, 4, size=len(edges)).tolist()
    return Hypergraph.from_edges(vw, edges, edge_weights=ew)


def _random_state(hg: Hypergraph, k: int, seed: int) -> PartitionState:
    rng = np.random.default_rng(1000 + seed)
    return PartitionState(hg, k, rng.integers(0, k, size=hg.num_vertices))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_delta_gain_matches_full_refresh_oracle(k, seed):
    hg = _wide_net_hg(seed)
    constraint = BalanceConstraint(k, 8.0)
    state = _random_state(hg, k, seed)
    oracle = state.copy()
    # a reversed pair too: the (a, b) order decides move directions
    for a, b in ((0, 1), (k - 1, 0)):
        res = refine_pair(state, a, b, constraint)
        gain, moves, passes = legacy_refine_pair(oracle, a, b, constraint)
        assert (res.gain, res.moves, res.passes) == (gain, moves, passes)
        np.testing.assert_array_equal(state.part, oracle.part)
        assert state.cut_size == oracle.cut_size
    assert state.cut_size == PartitionState(hg, k, state.part).cut_size


class _HeapAudit:
    """Stands in for :mod:`heapq` inside :mod:`repro.core.fm` and, before
    every pop, checks each vertex's valid heap entry — its newest push,
    not yet popped — against a fresh ``state.move_gain``."""

    def __init__(self, state: PartitionState) -> None:
        self.state = state
        self.latest: dict[int, tuple[int, int, int]] = {}
        self.consumed: set[int] = set()
        self.checks = 0

    def heapify(self, heap):
        self.latest = {u: (st, neg_g, to) for neg_g, u, st, to in heap}
        self.consumed = set()
        heapq.heapify(heap)

    def heappush(self, heap, item):
        neg_g, u, st, to = item
        self.latest[u] = (st, neg_g, to)
        heapq.heappush(heap, item)

    def heappop(self, heap):
        for u, (_, neg_g, to) in self.latest.items():
            if u not in self.consumed:
                assert -neg_g == self.state.move_gain(u, to), u
                self.checks += 1
        item = heapq.heappop(heap)
        _, u, st, _ = item
        if self.latest[u][0] == st:
            self.consumed.add(u)
        return item


@pytest.mark.parametrize("k", [2, 4])
def test_every_valid_heap_entry_holds_the_current_gain(monkeypatch, k):
    hg = _wide_net_hg(7)
    state = _random_state(hg, k, 7)
    audit = _HeapAudit(state)
    monkeypatch.setattr(fm_module, "heapq", audit)
    res = refine_pair(state, 0, 1, BalanceConstraint(k, 8.0))
    assert res.passes >= 1
    assert audit.checks > hg.num_vertices // k


def test_wide_net_costs_constant_per_move():
    """A 2,000-pin net spanning both blocks changes no pin's gain when
    one of its pins moves; full refresh would re-score all of them on
    every move (~2,000 × degree λ reads)."""
    n = 2000
    chain = [[i, i + 1] for i in range(n - 1)]
    hg = Hypergraph.from_edges([1] * n, [list(range(n))] + chain)
    # alternating blocks: a bad chain cut with lots of FM work to do
    state = PartitionState(hg, 2, [i % 2 for i in range(n)])
    moves = 0
    move = state.move

    def counted_move(v, to):
        nonlocal moves
        moves += 1
        return move(v, to)

    state.move = counted_move
    before = state.lambda_hits
    res = refine_pair(state, 0, 1, BalanceConstraint(2, 10.0))
    hits = state.lambda_hits - before
    max_degree = max(hg.vertex_degree(v) for v in range(n))
    assert res.gain > 0 and moves > n
    # each pass's initial heap fill reads every pin once; on top of
    # that every (tentative or rolled-back) move reads a constant
    # number of small-net pins' edges
    assert hits <= res.passes * hg.num_pins + 8 * moves * max_degree, (
        hits, moves, res.passes)
