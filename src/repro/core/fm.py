"""Pairwise Fiduccia–Mattheyses refinement.

The iterative-movement phase of the paper's algorithm (§3, Figure 2):
given two partitions picked by the pairing step, *free vertices* are
moved between them — highest cut-gain first, each vertex at most once
per pass, weight bounds respected — and the pass is rolled back to its
best prefix.  Passes repeat until one yields no improvement ("no free
vertex left or no gain in cut-size can be obtained").

Gains are evaluated against the **global** k-way cut through
:meth:`PartitionState.move_gain`, so refining the pair (a, b) never
degrades edges that also touch third partitions without accounting for
them.  A lazy max-heap with per-vertex version stamps stands in for
the classic bucket array — same amortized behaviour, simpler to keep
correct with weighted vertices and k-way gain updates.

**Delta-gain refresh.**  A pin's gain term on edge ``e`` depends only
on ``λ(e)`` and on whether its own block's count is 1 and the other
block's count is 0.  Moving ``v`` from ``frm`` to ``to`` shifts
``counts[e][frm]`` down and ``counts[e][to]`` up by one, which changes
one of those inputs only if ``counts[e][frm] <= 2`` or
``counts[e][to] <= 1`` before the move.  So after a move only the pins
of such edges are re-scored (each once) and pushed with a new stamp;
pins of every other edge — a clock net with hundreds of pins on both
sides, say — keep their valid heap entry, because their gain has not
changed.  A valid entry's key ``(-gain, v)`` is unique per vertex and
always carries the vertex's current gain, exactly as under a full
neighbour refresh, so the pop order and every move are unchanged;
only the work per move shrinks from O(Σ|e| · degree) to O(degree) on
wide nets.  ``tests/test_fm_delta_gain.py`` checks this against the
retained full-refresh FM,
:func:`repro.bench.partition_speed.legacy_refine_pair`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..hypergraph.partition_state import _VECTOR_DEGREE, PartitionState
from ..obs.recorder import NULL_RECORDER, Recorder
from .balance import BalanceConstraint

__all__ = ["FMPassResult", "refine_pair", "rebalance_pair"]


@dataclass
class FMPassResult:
    """Outcome of :func:`refine_pair`: total realized gain and moves.

    ``moves_log`` is populated only when :func:`refine_pair` was called
    with ``collect_moves=True``: the retained ``(vertex, target)``
    moves in execution order — replaying them with
    :meth:`PartitionState.move` on a copy of the pre-refinement state
    reproduces the refined state exactly.  This is the slim payload the
    process-parallel engine (:mod:`repro.core.parallel_refine`) ships
    back from workers.
    """

    gain: int
    moves: int
    passes: int
    moves_log: list[tuple[int, int]] | None = None


def _pair_vertices(state: PartitionState, a: int, b: int) -> list[int]:
    """Vertices currently in partition a or b (ascending ids)."""
    return state.pair_vertices(a, b).tolist()


def refine_pair(
    state: PartitionState,
    a: int,
    b: int,
    constraint: BalanceConstraint,
    max_passes: int = 8,
    recorder: Recorder = NULL_RECORDER,
    collect_moves: bool = False,
) -> FMPassResult:
    """FM refinement between partitions ``a`` and ``b`` (in place).

    Runs up to ``max_passes`` full FM passes; stops as soon as a pass
    realizes no positive gain.  Returns the total cut improvement.

    ``recorder`` (optional, :mod:`repro.obs`) accumulates
    ``part.fm.passes`` / ``part.fm.moves`` / ``part.fm.gain`` across
    calls; the default no-op recorder keeps this free.

    With ``collect_moves=True`` the result additionally carries the
    retained move log (see :class:`FMPassResult.moves_log`) so a remote
    caller can replay the refinement on another copy of the state.
    """
    total_gain = 0
    total_moves = 0
    passes = 0
    log: list[tuple[int, int]] | None = [] if collect_moves else None
    for _ in range(max_passes):
        gain, retained = _one_pass(state, a, b, constraint)
        passes += 1
        total_gain += gain
        total_moves += len(retained)
        if log is not None:
            log.extend(retained)
        if gain <= 0:
            break
    if recorder.enabled:
        recorder.incr("part.fm.passes", passes)
        recorder.incr("part.fm.moves", total_moves)
        recorder.incr("part.fm.gain", total_gain)
    return FMPassResult(total_gain, total_moves, passes, log)


def _one_pass(
    state: PartitionState,
    a: int,
    b: int,
    constraint: BalanceConstraint,
) -> tuple[int, list[tuple[int, int]]]:
    """One FM pass; returns (realized gain, retained (v, to) moves)."""
    hg = state.hg
    lo, hi = constraint.bounds(hg.total_weight)
    vertices = _pair_vertices(state, a, b)
    if not vertices:
        return 0, []

    # stamp of every unlocked pair vertex's valid heap entry, drawn
    # from one pass-wide counter; locking a vertex (moved or blocked)
    # removes its entry
    stamp = dict.fromkeys(vertices, 0)
    tick = 0

    # (-gain, v, stamp, target): a total order with no duplicate keys,
    # so the heap's internal layout (heapify vs. pushes, batch vs.
    # scalar fill) can never change pop order — only speed.  The
    # initial fill is one vectorized batch gain query plus an O(n)
    # heapify.
    frm_arr = state.part[vertices]
    targets = np.where(frm_arr == a, b, a)
    gains = state.move_gains(vertices, targets)
    heap: list[tuple[int, int, int, int]] = [
        (-g, u, 0, to)
        for u, g, to in zip(vertices, gains.tolist(), targets.tolist())
    ]
    heapq.heapify(heap)

    # move log for best-prefix rollback: (v, frm, to)
    moves: list[tuple[int, int, int]] = []
    cum = 0
    best = 0
    best_idx = 0

    # the pair's weights, tracked as plain ints so the admissibility
    # check per pop costs two comparisons instead of NumPy indexing;
    # hot callables pre-bound once per pass
    vw = hg.vertex_weight_list
    weight_a = int(state.part_weight[a])
    weight_b = int(state.part_weight[b])
    heappop = heapq.heappop
    heappush = heapq.heappush
    move_gain = state.move_gain
    edge_pins = hg.edge_pins_lists()
    # the refresh gain evaluation below inlines the scalar
    # λ-cache kernel of PartitionState.move_gain — this is the hottest
    # loop in the whole partitioner and even a bound method call per
    # re-scored pin is measurable.  Same arithmetic, same integers; the
    # property tests cross-check both against recompute().
    part_list = state._part_list
    adj = state._adj
    counts_list = state._counts_list
    lam_list = state._lam_list
    w_list = state._w_list
    lam_hits = 0

    while heap:
        neg_g, v, st, to = heappop(heap)
        if stamp.get(v) != st:
            continue
        frm = part_list[v]
        if frm not in (a, b):  # pragma: no cover - defensive
            continue
        expected_to = b if frm == a else a
        if to != expected_to:
            continue  # stale direction after an interleaved move
        wv = vw[v]
        if frm == a:
            blocked = weight_b + wv > hi or weight_a - wv < lo
        else:
            blocked = weight_a + wv > hi or weight_b - wv < lo
        if blocked:
            # re-push is pointless within this pass: bounds only tighten
            # for this direction as the pass proceeds; simply skip.
            del stamp[v]
            continue
        realized = state.move(v, to)
        if frm == a:
            weight_a -= wv
            weight_b += wv
        else:
            weight_b -= wv
            weight_a += wv
        del stamp[v]
        moves.append((v, frm, to))
        cum += realized
        if cum > best:
            best = cum
            best_idx = len(moves)
        # delta-gain refresh (module docstring): only edges with a from
        # count <= 2 or a to count <= 1 before the move — read after it,
        # <= 1 and <= 2 — can change a pin's gain.  Their unlocked pair
        # pins are re-scored once each (a stamp above t0 marks "already
        # done for this move") through the scalar gain path: same
        # integers as the batch query, no array dispatch.
        t0 = tick
        for e in adj[v]:
            row = counts_list[e]
            if row[frm] > 1 and row[to] > 2:
                continue
            for u in edge_pins[e]:
                if u in stamp and stamp[u] <= t0:
                    tick += 1
                    stamp[u] = tick
                    frm_u = part_list[u]
                    to_u = b if frm_u == a else a
                    edges_u = adj[u]
                    if len(edges_u) > _VECTOR_DEGREE:
                        g = move_gain(u, to_u)
                    else:
                        lam_hits += len(edges_u)
                        g = 0
                        for f in edges_u:
                            row_f = counts_list[f]
                            spanned = lam_list[f]
                            new_spanned = (
                                spanned
                                - (1 if row_f[frm_u] == 1 else 0)
                                + (1 if row_f[to_u] == 0 else 0)
                            )
                            if spanned > 1 and new_spanned == 1:
                                g += w_list[f]
                            elif spanned == 1 and new_spanned > 1:
                                g -= w_list[f]
                    heappush(heap, (-g, u, tick, to_u))

    state.lambda_hits += lam_hits
    # roll back past the best prefix
    for v, frm, _ in reversed(moves[best_idx:]):
        state.move(v, frm)
    return best, [(v, to) for v, _, to in moves[:best_idx]]


def rebalance_pair(
    state: PartitionState,
    heavy: int,
    light: int,
    constraint: BalanceConstraint,
    recorder: Recorder = NULL_RECORDER,
) -> int:
    """Move vertices from an overweight partition toward a lighter one
    until the pair meets the constraint (or no movable vertex remains).

    Used after super-gate flattening (paper §3.2: "flatten the largest
    super-gate in the partition and employ iterative movement in order
    to achieve a better load balance").  Vertices are chosen by best
    cut gain, then smallest weight — load correction with the least
    cut damage.  Returns the number of vertices moved; ``recorder``
    accumulates it under ``part.fm.rebalance_moves``.
    """
    hg = state.hg
    lo, hi = constraint.bounds(hg.total_weight)
    moved = 0
    while state.part_weight[heavy] > hi or state.part_weight[light] < lo:
        candidates = np.nonzero(state.part == heavy)[0]
        # one batch gain query for every candidate; the admissibility
        # filter and the (-gain, weight) selection key — first-smallest
        # wins ties, i.e. lowest vertex id — are unchanged
        gains = state.move_gains(candidates, light)
        best_v = None
        best_key: tuple[int, int] | None = None
        for v, g in zip(candidates.tolist(), gains.tolist()):
            wv = int(hg.vertex_weight[v])
            if state.part_weight[light] + wv > hi:
                continue
            if state.part_weight[heavy] - wv < lo:
                continue
            key = (-g, wv)
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
        if best_v is None:
            break
        state.move(best_v, light)
        moved += 1
    if recorder.enabled and moved:
        recorder.incr("part.fm.rebalance_moves", moved)
    return moved
