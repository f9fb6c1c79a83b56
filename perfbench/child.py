"""One pass of one workload in a fresh interpreter.

``run.py`` starts this script once per pass so that set-up time and
peak RSS belong to that pass alone.  The pass builds the workload's
inputs (from the seed where ``workloads.py`` says so), runs the
pipeline through the program's public functions, checks the outputs, and prints one JSON object as its last
line of standard output.

Every layer call is wrapped in a span recorded here, in the benchmark's
own code; nothing inside ``src/`` is instrumented for the benchmark.
With ``--trace`` the pass also hands the program's own
``repro.obs.MetricsRecorder`` to every call that takes one, which adds
the deterministic counters and the recorder's phase walls; without it
every call gets the default ``NULL_RECORDER``.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload psim-rollback --seed 1 \
        --t0 <time.monotonic() when the parent spawned this process>
"""

from __future__ import annotations

import time

#: taken before any heavy import, so the import cost is inside setup
T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import SMOKE, WORKLOADS, Workload  # noqa: E402

#: recorder phase -> per-layer metric, per workload kind (the phase
#: walls the program already records; only present in traced passes)
PHASE_METRICS = {
    "psim": {
        "partition.initial": "core.design.initial_s",
        "partition.refine": "core.design.refine_s",
    },
    "ml": {
        "partition.coarsen": "core.ml.coarsen_s",
        "partition.initial": "core.ml.initial_s",
        "partition.uncoarsen": "core.ml.uncoarsen_s",
        "partition.batch_refine": "core.ml.batch_refine_s",
    },
}

#: deterministic counters (recorder and Time Warp ``RunStats``)
#: reported as they are
COUNTERS = (
    "part.cone.cones",
    "part.pairing.pairs",
    "part.fm.passes",
    "part.fm.moves",
    "part.rounds",
    "part.ml.levels",
    "part.ml.matched_pairs",
    "part.batch.rounds",
    "part.batch.gathered",
    "tw.processed_events",
    "tw.committed_events",
    "tw.messages_sent",
    "tw.anti_messages_sent",
    "tw.rollbacks",
    "tw.rolled_back_events",
    "tw.gvt_rounds",
    "tw.peak_checkpoint_bytes",
)


#: layer spans set up before the inputs are ready
SETUP_LAYERS = ("circuits.source", "circuits.stream", "circuits.vectors",
                "verilog.parse", "verilog.elaborate")
#: layer spans inside ``run``; their self times plus the unattributed
#: remainder make up ``run_s``
RUN_LAYERS = ("hypergraph.build", "core.design", "core.ml", "sim.compile",
              "sim.sequential", "sim.tw_load", "sim.tw_run", "sim.tw_verify")


class Spans:
    """In-memory span list: name, start, end, parent index, one run id.

    Spans cost two clock reads and a list append each, and a pass
    records about fifteen, so they stay on in untraced passes too: the
    end-to-end walls are read from them.  Only traced passes write
    them out (``run.py`` does, at exit).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> None:
        """Start a span nested in the innermost open one."""
        self._stack.append(len(self.spans))
        self.spans.append({
            "name": name,
            "start": time.monotonic() if start is None else start,
            "end": None,
            "parent": self._stack[-2] if len(self._stack) > 1 else None,
            "run_id": self.run_id,
        })

    def close(self, end: float | None = None) -> None:
        """End the innermost open span."""
        self.spans[self._stack.pop()]["end"] = (
            time.monotonic() if end is None else end)

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def wall(self, name: str) -> float:
        """Summed duration of every span called ``name`` (0 if none)."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span duration minus the part its child spans cover, by name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    for s in spans:
        if s["parent"] is not None:
            parent = spans[s["parent"]]["name"]
            out[parent] -= s["end"] - s["start"]
    return out


def peak_rss_mb() -> float:
    """Process peak resident set (VmHWM) in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def assignment_digest(assignment) -> str:
    import numpy as np

    return hashlib.sha256(
        np.ascontiguousarray(assignment, dtype="<i8").tobytes()
    ).hexdigest()


def max_edge_pins(hg) -> int:
    import numpy as np

    return int(np.bincount(hg.pin_edges).max()) if hg.num_edges else 0


def check_outputs(w: Workload, hg, assignment, reported_cut: int,
                  verified: bool | None, messages: int,
                  rollbacks: int) -> list[str]:
    """Output and workload-validity checks; returns what failed.

    ``hg`` is a flat gate hypergraph built independently of the one the
    partitioner saw, so the cut is recomputed from the gate assignment
    alone.
    """
    from repro.hypergraph.metrics import hyperedge_cut, within_balance

    failures = []
    if len(assignment) != hg.num_vertices:
        return [f"assignment covers {len(assignment)} of "
                f"{hg.num_vertices} gates"]
    if not within_balance(hg, assignment, w.k, w.b):
        failures.append(f"partition misses Formula 1 balance (k={w.k}, "
                        f"b={w.b})")
    cut = hyperedge_cut(hg, assignment)
    if cut != reported_cut:
        failures.append(f"recomputed cut {cut} != reported {reported_cut}")
    if w.kind == "psim" and not verified:
        failures.append("Time Warp result not verified against the "
                        "sequential oracle")
    if messages < w.min_messages:
        failures.append(f"workload guard: {messages} Time Warp messages "
                        f"(< {w.min_messages})")
    if rollbacks < w.min_rollbacks:
        failures.append(f"workload guard: {rollbacks} rollbacks "
                        f"(< {w.min_rollbacks})")
    max_pins = max_edge_pins(hg)
    if max_pins < w.min_edge_pins:
        failures.append(f"workload guard: largest net has {max_pins} pins "
                        f"(< {w.min_edge_pins})")
    return failures


def run_psim(w: Workload, seed: int, spans: Spans, rec) -> dict:
    with spans.span("imports"):
        from repro.circuits import circuit_source, random_vectors
        from repro.core import design_driven_partition
        from repro.errors import SimulationError
        from repro.sim import (ClusterSpec, TimeWarpConfig, TimeWarpEngine,
                               compile_circuit, run_sequential_baseline)
        from repro.verilog import elaborate, parse_source

    with spans.span("circuits.source"):
        text = circuit_source(w.circuit)
    with spans.span("verilog.parse"):
        source = parse_source(text)
    with spans.span("verilog.elaborate"):
        netlist = elaborate(source)
    with spans.span("circuits.vectors"):
        events = random_vectors(
            netlist, w.vectors,
            seed=seed if w.vector_seed is None else w.vector_seed)
    spans.close()  # setup: the inputs are ready

    spec = ClusterSpec(num_machines=w.k)
    with spans.span("run"):
        with spans.span("partition"), spans.span("core.design"):
            part = design_driven_partition(netlist, k=w.k, b=w.b,
                                           refiner=w.refiner, recorder=rec)
        with spans.span("sim"):
            with spans.span("sim.compile"):
                circuit = compile_circuit(netlist)
            with spans.span("sim.sequential"):
                oracle, seq_wall = run_sequential_baseline(
                    circuit, events, spec, recorder=rec)
            with spans.span("sim.tw_load"):
                clusters, machines = part.to_simulation()
                engine = TimeWarpEngine(circuit, clusters, machines, spec,
                                        TimeWarpConfig())
                engine.load_inputs(events)
            with spans.span("sim.tw_run"):
                stats = engine.run()
            with spans.span("sim.tw_verify"):
                try:
                    engine.verify_against_sequential(oracle)
                    verified = True
                except SimulationError:
                    verified = False
    return {
        "netlist": netlist,
        "assignment": part.gate_assignment(),
        "cut": int(part.cut_size),
        "verified": verified,
        "gates": netlist.num_gates,
        "seq_events": int(oracle.stats.gate_evals),
        "modeled_speedup": seq_wall / stats.wall_time,
        "tw": stats,
    }


def run_ml(w: Workload, seed: int, spans: Spans, rec) -> dict:
    """The streamed circuit is fixed and the partitioner runs at its
    default seed, so ``seed`` changes nothing here (see design.json)."""
    with spans.span("imports"):
        from repro.circuits import load_stream_circuit
        from repro.core import multilevel_kway_partition
        from repro.hypergraph.build import streamed_flat_hypergraph

    with spans.span("circuits.stream"):
        csr = load_stream_circuit(w.circuit, recorder=rec)
    spans.close()  # setup: the inputs are ready

    with spans.span("run"), spans.span("partition"):
        with spans.span("hypergraph.build"):
            hg = streamed_flat_hypergraph(csr, recorder=rec)
        with spans.span("core.ml"):
            result = multilevel_kway_partition(hg, w.k, w.b,
                                               refiner=w.refiner,
                                               recorder=rec)
    return {
        "netlist": csr,
        "assignment": result.gate_assignment(),
        "cut": int(result.cut_size),
        "verified": None,
        "gates": csr.num_gates,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(w: Workload, out: dict, spans: Spans, rec,
                  hg) -> dict[str, float]:
    """Per-layer values of one traced pass (0 for a bypassed layer)."""
    own = self_times(spans.spans)
    m: dict[str, float] = {}
    for name in SETUP_LAYERS + RUN_LAYERS:
        m[f"{name}_s"] = own.get(name, 0.0)
    # the run's own spans that are not layers: what no layer covers
    m["obs.unattributed_s"] = own["run"] + own.get("partition", 0.0) \
        + own.get("sim", 0.0)
    phases = rec.host_timings()
    for kind, table in PHASE_METRICS.items():
        for phase, metric in table.items():
            m[metric] = phases.get(phase, 0.0) if kind == w.kind else 0.0
    tw = out.get("tw")
    counters = {**rec.as_counters(), **(tw.to_counters() if tw else {})}
    for name in COUNTERS:
        m[name] = counters.get(name, 0)
    m["core.fm.moves_per_pass"] = ratio(m["part.fm.moves"],
                                        m["part.fm.passes"])
    candidates = counters.get("part.batch.candidates", 0)
    m["core.batch.accept_ratio"] = ratio(counters.get("part.batch.moves", 0),
                                         candidates)
    m["core.batch.conflict_ratio"] = ratio(
        counters.get("part.batch.conflicts", 0), candidates)
    m["verilog.gates_per_s"] = ratio(
        out["gates"], m["verilog.parse_s"] + m["verilog.elaborate_s"])
    m["hypergraph.pins"] = int(hg.num_pins)
    m["hypergraph.max_edge_pins"] = max_edge_pins(hg)
    m["hypergraph.pins_per_s"] = ratio(hg.num_pins, m["hypergraph.build_s"])
    m["sim.seq_events_per_s"] = ratio(out.get("seq_events", 0),
                                      m["sim.sequential_s"])
    m["sim.tw.efficiency"] = ratio(m["tw.committed_events"],
                                   m["tw.processed_events"])
    batch = counters.get("sim.kernel.batch_gates", 0)
    m["sim.kernel.batch_ratio"] = ratio(
        batch, batch + counters.get("sim.kernel.scalar_gates", 0))
    return m


def run_pass(w: Workload, seed: int, t0: float, trace: bool,
             run_id: str) -> dict:
    """Set up, run and check one pass; returns the pass record."""
    spans = Spans(run_id)
    # set-up opens when the parent spawned this interpreter; the runner
    # closes it when the inputs are ready
    spans.open("setup", start=t0)
    spans.open("interpreter", start=t0)
    spans.close(end=T_START)
    with spans.span("imports"):
        from repro.hypergraph import flat_hypergraph
        from repro.obs import NULL_RECORDER, MetricsRecorder
    rec = MetricsRecorder() if trace else NULL_RECORDER
    runner = run_psim if w.kind == "psim" else run_ml
    out = runner(w, seed, spans, rec)
    rss = peak_rss_mb()

    tw = out.get("tw")
    hg = flat_hypergraph(out["netlist"])
    failures = check_outputs(
        w, hg, out["assignment"], out["cut"], out["verified"],
        messages=tw.messages if tw else 0,
        rollbacks=tw.rollbacks if tw else 0,
    )
    run_span = next(s for s in spans.spans if s["name"] == "run")
    record = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "failures": failures,
        "digest": assignment_digest(out["assignment"]),
        "end_to_end": {
            "setup_s": spans.wall("setup"),
            "run_s": run_span["end"] - run_span["start"],
            "partition_s": spans.wall("partition"),
            "cut": out["cut"],
            "peak_rss_mb": rss,
        },
    }
    if tw:
        record["end_to_end"]["sim_s"] = spans.wall("sim")
        record["end_to_end"]["tw_events_per_s"] = (
            tw.committed_events / spans.wall("sim.tw_run"))
        record["end_to_end"]["modeled_speedup"] = out["modeled_speedup"]
    if trace:
        layers = record["layers"] = layer_metrics(w, out, spans, rec, hg)
        record["spans"] = spans.spans
        accounted = layers["obs.unattributed_s"] + sum(
            layers[f"{name}_s"] for name in RUN_LAYERS)
        if abs(accounted - record["end_to_end"]["run_s"]) > 1e-6:
            failures.append(f"layer self times + unattributed = "
                            f"{accounted} s != run_s")
    return record


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, default=None,
                   help="parent's time.monotonic() at spawn")
    p.add_argument("--run-id", default="standalone",
                   help="identifier shared by every span of the run")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true",
                   help="run the workload's small twin (tests)")
    args = p.parse_args(argv)
    table = SMOKE if args.smoke else WORKLOADS
    if args.workload not in table:
        p.error(f"unknown workload {args.workload!r}")
    t0 = T_START if args.t0 is None else args.t0
    record = run_pass(table[args.workload], args.seed, t0, args.trace,
                      args.run_id)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
