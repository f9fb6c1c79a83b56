"""Workload table of the pipeline benchmark.

Each workload is one pass of the paper's pipeline on a fixed circuit:
``psim`` workloads go Verilog text -> parse -> elaborate -> random
vectors -> design-driven partition -> Time Warp run verified against
the sequential oracle; ``ml`` workloads go streamed netlist ->
hypergraph -> multilevel partition.  Why each one exists, and which
layer metric it is meant to move, is recorded in ``design.json``.

``SMOKE`` holds a small twin of every workload that runs the same code
path in seconds; the benchmark's own tests use it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``source`` is ``circuit:NAME`` (Verilog text through the front end)
    for ``psim`` workloads and ``stream:NAME`` (array-native emission)
    for ``ml`` workloads.  The guard fields are the workload-validity
    checks: a run that misses one counts as failed, because it no
    longer exercises the mechanism the workload exists to measure.

    ``vector_seed``, when set, seeds the random vectors in place of the
    run's seed.  psim-paper needs it: on the paper-scale decoder the
    work that random vectors cause spreads by 13% from seed to seed at
    20 vectors and still by 8% at 60 (quartile distance over the median
    of the sequential gate evaluations), wider than a regression bound
    can allow; the 600 vectors of psim-rollback spread by 4%.
    """

    name: str
    kind: str  # "psim" or "ml"
    source: str
    k: int
    b: float
    refiner: str
    vectors: int = 0
    min_messages: int = 0
    min_rollbacks: int = 0
    min_edge_pins: int = 0
    vector_seed: int | None = None

    @property
    def circuit(self) -> str:
        return self.source.split(":", 1)[1]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("psim-paper", "psim", "circuit:viterbi-paper", k=3, b=10.0,
                 refiner="fm", vectors=20, vector_seed=1, min_messages=1),
        Workload("psim-rollback", "psim", "circuit:viterbi-single", k=4,
                 b=10.0, refiner="fm", vectors=600, min_messages=1,
                 min_rollbacks=1),
        Workload("ml-batch-s100k", "ml", "stream:viterbi-s100k", k=8, b=5.0,
                 refiner="batch", min_edge_pins=10_000),
        Workload("ml-fm-widenet", "ml", "stream:viterbi-bench", k=4, b=5.0,
                 refiner="fm", min_edge_pins=500),
    )
}

#: same code path per workload on unit-test-scale circuits; the guards
#: are scaled down with the circuit but stay non-trivial
SMOKE: dict[str, Workload] = {
    "psim-paper": replace(WORKLOADS["psim-paper"],
                          source="circuit:viterbi-test", vectors=8),
    "psim-rollback": replace(WORKLOADS["psim-rollback"],
                             source="circuit:viterbi-test", vectors=40),
    "ml-batch-s100k": replace(WORKLOADS["ml-batch-s100k"],
                              source="stream:viterbi-test", k=4,
                              min_edge_pins=20),
    "ml-fm-widenet": replace(WORKLOADS["ml-fm-widenet"],
                             source="stream:viterbi-test", min_edge_pins=20),
}
