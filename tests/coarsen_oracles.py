"""Scalar reference implementations of the coarsening kernels.

Test-only oracles: the pre-vectorization heavy-edge matcher and
hypergraph contraction, kept verbatim so
``tests/test_coarsen_vectorized.py`` can pin the production kernels
(:func:`repro.core.multilevel._heavy_edge_matching`,
:func:`repro.hypergraph.build.project_hypergraph`) bit-identical
against the original semantics.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.hypergraph import Hypergraph


def heavy_edge_matching_reference(
    hg: Hypergraph,
    rng: np.random.Generator,
    max_weight: int,
    large_edge_limit: int,
) -> tuple[np.ndarray, int, float]:
    """Scalar dict-accumulation matching — the retained oracle.

    The pre-vectorization implementation, kept verbatim so the
    randomized bit-identity test can pin
    :func:`repro.core.multilevel._heavy_edge_matching` (mapping, pair
    count and float score all exactly equal) against the original
    semantics across seeds and adversarial edge shapes.
    """
    n = hg.num_vertices
    vertex_weight = hg.vertex_weight_list
    edge_weight = hg.edge_weight_list
    vertex_edges = hg.vertex_edges_lists()
    pins_of = hg.edge_pins_lists()

    match = [-1] * n
    matched_pairs = 0
    match_score = 0.0
    for v in rng.permutation(n).tolist():
        if match[v] != -1:
            continue
        scores: dict[int, float] = {}
        for e in vertex_edges[v]:
            pins = pins_of[e]
            size = len(pins)
            if size < 2 or size > large_edge_limit:
                continue
            w = edge_weight[e] / (size - 1)
            for u in pins:
                if u != v and match[u] == -1:
                    scores[u] = scores.get(u, 0.0) + w
        best_u = -1
        best_score = 0.0
        wv = vertex_weight[v]
        for u in sorted(scores):  # ascending ids: strict > keeps lowest tie
            if wv + vertex_weight[u] > max_weight:
                continue
            s = scores[u]
            if s > best_score:
                best_score = s
                best_u = u
        if best_u != -1:
            match[v] = best_u
            match[best_u] = v
            matched_pairs += 1
            match_score += best_score
        else:
            match[v] = v

    mapping = [-1] * n
    next_id = 0
    for v in range(n):
        if mapping[v] != -1:
            continue
        mapping[v] = next_id
        partner = match[v]
        if partner != v and mapping[partner] == -1:
            mapping[partner] = next_id
        next_id += 1
    return np.asarray(mapping, dtype=np.int64), matched_pairs, match_score


def project_hypergraph_reference(
    hg: Hypergraph, mapping: np.ndarray
) -> Hypergraph:
    """Reference contraction with tuple-dict parallel-edge dedup.

    The pre-vectorization implementation, retained verbatim as the
    byte-identity oracle for
    :func:`repro.hypergraph.build.project_hypergraph`
    (``tests/test_coarsen_vectorized.py``).  Semantics are the spec:
    coarse edges appear in first-fine-occurrence order, keyed by their
    sorted coarse pin tuple, weights accumulated over parallel edges.
    """
    mapping = np.asarray(mapping, dtype=np.int64)
    if mapping.shape != (hg.num_vertices,):
        raise PartitionError(
            f"mapping must have one entry per vertex "
            f"({hg.num_vertices}), got shape {mapping.shape}"
        )
    num_coarse = int(mapping.max()) + 1 if mapping.size else 0
    coarse_weights = np.zeros(num_coarse, dtype=np.int64)
    np.add.at(coarse_weights, mapping, hg.vertex_weight)

    pin_edge = hg.pin_edges
    pin_coarse = mapping[hg.pin_vertices]
    order = np.lexsort((pin_coarse, pin_edge))
    e_sorted = pin_edge[order]
    v_sorted = pin_coarse[order]
    keep = np.ones(len(order), dtype=bool)
    if len(order) > 1:
        keep[1:] = (e_sorted[1:] != e_sorted[:-1]) | (v_sorted[1:] != v_sorted[:-1])
    e_kept = e_sorted[keep]
    v_kept = v_sorted[keep].tolist()
    starts = np.flatnonzero(
        np.concatenate(([True], e_kept[1:] != e_kept[:-1]))
    ) if len(e_kept) else np.empty(0, dtype=np.int64)
    ends = np.concatenate((starts[1:], [len(e_kept)])) if len(starts) else starts
    edge_ids = e_kept[starts].tolist() if len(starts) else []
    edge_weight = hg.edge_weight.tolist()

    acc: dict[tuple[int, ...], int] = {}
    for e, s, t in zip(edge_ids, starts.tolist(), ends.tolist()):
        if t - s < 2:
            continue  # internal to one cluster: never cut again
        key = tuple(v_kept[s:t])  # already sorted by the lexsort
        acc[key] = acc.get(key, 0) + edge_weight[e]
    return Hypergraph.from_edges(
        coarse_weights.tolist(), list(acc.keys()), list(acc.values())
    )
