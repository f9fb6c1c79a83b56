"""Two-way FM refinement for the multilevel baseline.

A self-contained Fiduccia–Mattheyses bisection refiner over a raw
(hypergraph, 0/1 assignment) pair with *asymmetric* side bounds —
recursive bisection splits into unequal targets (e.g. 1/3 vs 2/3 for
k=3), which the k-way :mod:`repro.core.fm` machinery does not need to
support.  Used at every uncoarsening level of the hMetis-style
baseline.

This is the textbook implementation: incremental delta-gain updates on
the four critical-edge transitions (not gain recomputation), a lazy
max-heap seeded with boundary vertices only, best-prefix rollback per
pass, and a stall cutoff so a settled fine-level pass costs O(boundary)
rather than O(n).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..hypergraph.hypergraph import Hypergraph

__all__ = ["fm_refine_bisection"]


def fm_refine_bisection(
    hg: Hypergraph,
    side: np.ndarray,
    bounds0: tuple[float, float],
    bounds1: tuple[float, float],
    max_passes: int = 6,
    stall_limit: int | None = None,
) -> int:
    """Refine a bisection in place; returns the total cut improvement.

    ``bounds0``/``bounds1`` are (min, max) weight windows per side.
    Standard FM: per pass every vertex moves at most once, highest gain
    first under the weight windows, and the pass rolls back to its best
    prefix; passes repeat until one fails to improve.  ``stall_limit``
    aborts a pass after that many consecutive non-improving moves
    (default: ``max(64, n // 16)``).
    """
    n = hg.num_vertices
    if n == 0:
        return 0
    if stall_limit is None:
        stall_limit = max(64, n // 16)
    vertex_weight = hg.vertex_weight

    # per-edge pin count on each side (CSR-vectorized)
    edge_ptr = hg._edge_ptr
    edge_pins = hg._edge_pins
    sizes = np.diff(edge_ptr)
    if hg.num_edges:
        ones = np.add.reduceat(side[edge_pins], edge_ptr[:-1]).astype(np.int64)
        ones[sizes == 0] = 0
    else:
        ones = np.zeros(0, dtype=np.int64)
    zeros = sizes - ones
    side_weight = np.zeros(2, dtype=np.int64)
    np.add.at(side_weight, side, vertex_weight)

    gains = np.zeros(n, dtype=np.int64)
    counts = (zeros, ones)

    def init_gains() -> list[int]:
        """Recompute all gains (vectorized); returns boundary vertices.

        Per pin: +w when the pin is alone on its side of a cut edge
        (moving it uncuts the edge), -w when its edge is uncut with
        more than one pin (moving it cuts the edge).
        """
        gains[:] = 0
        if hg.num_edges == 0:
            return []
        w = hg.edge_weight
        sizes_of_pin = np.repeat(sizes, sizes)
        c0_of_pin = np.repeat(zeros, sizes)
        c1_of_pin = np.repeat(ones, sizes)
        w_of_pin = np.repeat(w, sizes)
        pin_side = side[edge_pins]
        own = np.where(pin_side == 1, c1_of_pin, c0_of_pin)
        other = sizes_of_pin - own
        contrib = np.zeros(len(edge_pins), dtype=np.int64)
        contrib[(own == 1) & (other > 0)] += w_of_pin[(own == 1) & (other > 0)]
        uncut = (other == 0) & (sizes_of_pin > 1)
        contrib[uncut] -= w_of_pin[uncut]
        np.add.at(gains, edge_pins, contrib)
        boundary_mask = (c0_of_pin > 0) & (c1_of_pin > 0)
        return np.unique(edge_pins[boundary_mask]).tolist()

    total = 0
    for _ in range(max_passes):
        boundary = init_gains()
        stamp = np.zeros(n, dtype=np.int64)
        locked = np.zeros(n, dtype=bool)
        heap: list[tuple[int, int, int]] = [
            (-int(gains[v]), v, 0) for v in boundary
        ]
        heapq.heapify(heap)
        in_heap = np.zeros(n, dtype=bool)
        in_heap[boundary] = True

        def bump(u: int, delta: int) -> None:
            gains[u] += delta
            if locked[u]:
                return
            stamp[u] += 1
            heapq.heappush(heap, (-int(gains[u]), u, int(stamp[u])))
            in_heap[u] = True

        moves: list[int] = []
        cum = best = best_idx = 0
        stalled = 0
        while heap and stalled < stall_limit:
            neg_g, v, st = heapq.heappop(heap)
            if locked[v] or st != stamp[v]:
                continue
            s = int(side[v])
            wv = int(vertex_weight[v])
            dst_lo, dst_hi = bounds1 if s == 0 else bounds0
            src_lo = (bounds0 if s == 0 else bounds1)[0]
            if side_weight[1 - s] + wv > dst_hi or side_weight[s] - wv < src_lo:
                locked[v] = True
                continue
            locked[v] = True
            # FM critical-edge gain updates around the move of v: s -> 1-s
            for e in hg.vertex_edges(v):
                e = int(e)
                if sizes[e] < 2:
                    continue
                w = int(hg.edge_weight[e])
                from_c = counts[s]
                to_c = counts[1 - s]
                pins = hg.edge_vertices(e)
                if to_c[e] == 0:
                    for u in pins:
                        if not locked[u]:
                            bump(int(u), w)
                elif to_c[e] == 1:
                    for u in pins:
                        if side[u] == 1 - s and not locked[u]:
                            bump(int(u), -w)
                            break
                from_c[e] -= 1
                to_c[e] += 1
                if from_c[e] == 0:
                    for u in pins:
                        if not locked[u]:
                            bump(int(u), -w)
                elif from_c[e] == 1:
                    for u in pins:
                        if side[u] == s and int(u) != v and not locked[u]:
                            bump(int(u), w)
                            break
            side_weight[s] -= wv
            side_weight[1 - s] += wv
            side[v] = 1 - s
            gains[v] = -gains[v]
            moves.append(v)
            cum += -neg_g
            if cum > best:
                best = cum
                best_idx = len(moves)
                stalled = 0
            else:
                stalled += 1

        # roll back past the best prefix (raw flips; counts rebuilt by
        # init_gains at the top of the next pass)
        for v in reversed(moves[best_idx:]):
            s = int(side[v])
            for e in hg.vertex_edges(v):
                counts[s][int(e)] -= 1
                counts[1 - s][int(e)] += 1
            side_weight[s] -= int(vertex_weight[v])
            side_weight[1 - s] += int(vertex_weight[v])
            side[v] = 1 - s
        total += best
        if best <= 0:
            break
    return total
