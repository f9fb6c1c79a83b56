"""Multilevel k-way hypergraph partitioner — the hMetis stand-in.

The paper compares against hMetis [Karypis, Aggarwal, Kumar, Shekhar]
run on the *flattened* netlist.  This is the same algorithm family
implemented from scratch:

1. **coarsen** — heavy-edge first-choice matching down to ~100 vertices,
   through the same loop, matcher and projector as the production
   engine (:func:`repro.core.multilevel.contract_levels`) under the
   hMetis policy below;
2. **initial partition** — several random / region-growing bisections
   of the coarsest hypergraph, each FM-refined, best kept;
3. **uncoarsen** — project through the level stack, FM-refining the
   bisection at every level;
4. **k-way** — recursive bisection with proportional weight targets
   (supports any k, not only powers of two), each bisection given the
   UBfactor-style imbalance ``b`` of the paper's tables.

Entry points: :func:`multilevel_bisect` (one bisection) and
:func:`multilevel_partition` (k-way on any hypergraph, e.g.
``flat_hypergraph(netlist)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.multilevel import contract_levels
from ..errors import PartitionError
from ..hypergraph.hypergraph import Hypergraph
from ..hypergraph.metrics import hyperedge_cut, part_weights
from .fm2 import fm_refine_bisection
from .initial import grow_bisection, random_bisection

__all__ = ["MultilevelResult", "multilevel_bisect", "multilevel_partition"]

#: hMetis coarsening policy: stop near 100 vertices, stall guard 0.9,
#: at most 32 levels; the cluster cap keeps one coarse vertex from
#: outweighing a bisection side (``total / (STOP_SIZE // 3)``).
STOP_SIZE = 96
MIN_REDUCTION = 0.9
MAX_LEVELS = 32
#: initial bisections tried on the coarsest hypergraph (alternating
#: region-growing and random), best refined cut kept
NUM_INITIAL = 8


@dataclass
class MultilevelResult:
    """k-way partition of a hypergraph by recursive multilevel bisection."""

    assignment: np.ndarray
    k: int
    b: float
    cut_size: int
    part_weights: np.ndarray


def _coarsen(hg: Hypergraph, seed: int) -> tuple[Hypergraph, list]:
    """The shared level loop under the hMetis policy."""
    cap = max(1, math.ceil(hg.total_weight / (STOP_SIZE // 3)))
    return contract_levels(hg, np.random.default_rng(seed), STOP_SIZE,
                           cap, MIN_REDUCTION, MAX_LEVELS)


def multilevel_bisect(
    hg: Hypergraph,
    frac0: float = 0.5,
    ub: float = 5.0,
    seed: int = 0,
) -> np.ndarray:
    """Bisect ``hg`` into sides of ``frac0`` / ``1 - frac0`` weight.

    ``ub`` is the per-bisection imbalance in percent of *this
    hypergraph's* total weight (the hMetis UBfactor convention).
    Returns a 0/1 side array.
    """
    coarsest_hg, levels = _coarsen(hg, seed)
    rng = np.random.default_rng(seed + 0x5EED)

    # initial candidates on the coarsest hypergraph
    c_total = coarsest_hg.total_weight
    c_t0 = frac0 * c_total
    c_slack = c_total * ub / 100.0
    c_b0 = (max(c_t0 - c_slack, 0.0), c_t0 + c_slack)
    c_b1 = (max(c_total - c_t0 - c_slack, 0.0), c_total - c_t0 + c_slack)
    best_side: np.ndarray | None = None
    best_cut = None
    for trial in range(NUM_INITIAL):
        if trial % 2 == 0:
            side = grow_bisection(coarsest_hg, c_t0, rng)
        else:
            side = random_bisection(coarsest_hg, c_t0, rng)
        fm_refine_bisection(coarsest_hg, side, c_b0, c_b1)
        cut = hyperedge_cut(coarsest_hg, side)
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best_side = side.copy()
    assert best_side is not None
    side = best_side

    # uncoarsen with refinement at each level
    for level in reversed(levels):
        side = side[level.mapping]
        lt = level.fine.total_weight
        lt0 = frac0 * lt
        ls = lt * ub / 100.0
        fm_refine_bisection(
            level.fine,
            side,
            (max(lt0 - ls, 0.0), lt0 + ls),
            (max(lt - lt0 - ls, 0.0), lt - lt0 + ls),
        )
    return side


def multilevel_partition(
    hg: Hypergraph,
    k: int,
    b: float,
    seed: int = 0,
) -> MultilevelResult:
    """k-way partition by recursive multilevel bisection.

    ``b`` plays the role of hMetis's UBfactor: each bisection may
    deviate from its proportional split by ``b`` percent.  Odd k is
    handled with proportional targets (e.g. 3 → 1/3 + recursive 2).
    """
    if k < 1:
        raise PartitionError(f"k must be >= 1, got {k}")
    if k > hg.num_vertices:
        raise PartitionError(
            f"cannot make {k} partitions from {hg.num_vertices} vertices"
        )
    assignment = np.zeros(hg.num_vertices, dtype=np.int64)
    _recursive(hg, np.arange(hg.num_vertices), k, 0, b, seed, assignment)
    return MultilevelResult(
        assignment=assignment,
        k=k,
        b=b,
        cut_size=hyperedge_cut(hg, assignment),
        part_weights=part_weights(hg, assignment, k),
    )


def _recursive(
    root: Hypergraph,
    vertices: np.ndarray,
    k: int,
    first_part: int,
    b: float,
    seed: int,
    assignment: np.ndarray,
) -> None:
    if k == 1:
        assignment[vertices] = first_part
        return
    sub = _induced(root, vertices)
    k0 = k // 2
    frac0 = k0 / k
    side = multilevel_bisect(sub, frac0=frac0, ub=b, seed=seed)
    left = vertices[side == 0]
    right = vertices[side == 1]
    if len(left) == 0 or len(right) == 0:
        # degenerate split (tiny inputs): fall back to a weight split
        order = vertices[np.argsort(-root.vertex_weight[vertices])]
        left, right = order[::2], order[1::2]
    _recursive(root, left, k0, first_part, b, seed * 31 + 1, assignment)
    _recursive(root, right, k - k0, first_part + k0, b, seed * 31 + 2,
               assignment)


def _induced(hg: Hypergraph, vertices: np.ndarray) -> Hypergraph:
    """Sub-hypergraph induced by a vertex subset.

    Hyperedges are restricted to their pins inside the subset; the
    restriction keeps edges with two or more surviving pins (standard
    recursive-bisection semantics — pins already split off no longer
    contribute to this subproblem's cut).
    """
    index = {int(v): i for i, v in enumerate(vertices)}
    edges: list[list[int]] = []
    weights: list[int] = []
    seen_edges: set[int] = set()
    for v in vertices:
        for e in hg.vertex_edges(int(v)):
            e = int(e)
            if e in seen_edges:
                continue
            seen_edges.add(e)
            pins = [index[int(u)] for u in hg.edge_vertices(e) if int(u) in index]
            if len(pins) >= 2:
                edges.append(pins)
                weights.append(int(hg.edge_weight[e]))
    return Hypergraph.from_edges(
        hg.vertex_weight[vertices].tolist(), edges, weights
    )
