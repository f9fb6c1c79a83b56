"""Micro-benchmarks of the individual substrates.

Unlike the table/figure benchmarks (single-shot experiment
reproductions), these use pytest-benchmark's statistical timing to
track the throughput of each building block: the Verilog front end,
hypergraph construction, FM refinement, multilevel coarsening, and
both simulators.
"""

import numpy as np

from _shared import CFG, emit

from repro.baselines import fm_refine_bisection, multilevel_bisect
from repro.baselines.multilevel import _coarsen
from repro.bench import format_kv
from repro.circuits import circuit_source, load_circuit, random_vectors
from repro.core import design_driven_partition
from repro.hypergraph import Clustering, flat_hypergraph
from repro.obs import MetricsRecorder
from repro.sim import (
    ClusterSpec,
    SequentialSimulator,
    TimeWarpConfig,
    TimeWarpEngine,
    compile_circuit,
    run_partitioned,
)
from repro.verilog import compile_verilog, parse_source


SRC = circuit_source(CFG.circuit)
NETLIST = load_circuit(CFG.circuit)
CIRCUIT = compile_circuit(NETLIST)
FLAT = flat_hypergraph(NETLIST)
EVENTS = random_vectors(NETLIST, 10, seed=1)


def test_parse(benchmark):
    benchmark(parse_source, SRC)


def test_elaborate(benchmark):
    benchmark(compile_verilog, SRC)


def test_flat_hypergraph_build(benchmark):
    benchmark(lambda: Clustering.flat(NETLIST).hypergraph())


def test_hierarchy_hypergraph_build(benchmark):
    benchmark(lambda: Clustering.top_level(NETLIST).hypergraph())


def test_fm_bisection_refine(benchmark):
    rng = np.random.default_rng(0)
    total = FLAT.total_weight

    def run():
        side = rng.integers(0, 2, size=FLAT.num_vertices).astype(np.int64)
        return fm_refine_bisection(
            FLAT, side, (0.4 * total, 0.6 * total), (0.4 * total, 0.6 * total),
            max_passes=2,
        )

    benchmark(run)


def test_coarsen_stack(benchmark):
    # the shared level loop under the hMetis stand-in's policy
    benchmark(lambda: _coarsen(FLAT, seed=0))


def test_multilevel_bisect(benchmark):
    benchmark(lambda: multilevel_bisect(FLAT, seed=0))


def test_design_driven_partition(benchmark):
    benchmark(lambda: design_driven_partition(NETLIST, k=4, b=10.0, seed=1))


def test_sequential_sim_10_vectors(benchmark):
    def run():
        sim = SequentialSimulator(CIRCUIT)
        sim.add_inputs(EVENTS)
        return sim.run().gate_evals

    benchmark(run)


def test_timewarp_sim_10_vectors(benchmark):
    part = design_driven_partition(NETLIST, k=4, b=10.0, seed=1)
    clusters, lpm = part.to_simulation()

    def run():
        eng = TimeWarpEngine(
            CIRCUIT, clusters, lpm, ClusterSpec(num_machines=4), TimeWarpConfig()
        )
        eng.load_inputs(EVENTS)
        return eng.run().processed_events

    benchmark(run)


def test_substrate_metrics(benchmark):
    """Full partition + simulate pass through one MetricsRecorder —
    the observability layer's deterministic end-to-end exercise."""

    def run():
        rec = MetricsRecorder()
        part = design_driven_partition(NETLIST, k=4, b=10.0, seed=1,
                                       recorder=rec)
        rec.incr("part.cut_size", part.cut_size)
        rec.incr("part.balanced", int(part.balanced))
        clusters, lpm = part.to_simulation()
        run_partitioned(
            CIRCUIT, clusters, lpm, EVENTS,
            ClusterSpec(num_machines=4), TimeWarpConfig(), recorder=rec,
        )
        return rec

    rec = benchmark.pedantic(run, rounds=1, iterations=1)
    counters = rec.as_counters()
    shown = {k: v for k, v in counters.items()
             if k in ("part.cut_size", "part.fm.moves", "part.rounds",
                      "tw.processed_events", "tw.rollbacks", "tw.speedup")}
    emit(
        "micro_substrates",
        format_kv(shown, title=f"Substrate metrics (k=4, b=10, {CFG.circuit})"),
        counters=counters,
        params={"k": 4, "b": 10.0, "vectors": 10},
    )
    assert counters["tw.processed_events"] > 0
    assert counters["partition.refine.calls"] >= 1
