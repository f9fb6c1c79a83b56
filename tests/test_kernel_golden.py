"""Golden counters for the gate-evaluation kernel in both simulators.

The sequential reference simulator and every Time Warp cluster LP step
through the same timestep code.  These values pin what it produces:
the sequential :class:`~repro.sim.SeqStats` (including the
``kernel_*`` batch/scalar split) with a sha256 of the committed change
log, and a digest of the full :meth:`RunStats.to_dict` export of a
Time Warp run (every aggregate, per-machine and per-LP counter).

viterbi-test and cpu-test register through ``dffr`` cells only; the
``mixff`` adder below adds plain ``dff`` and ``dffe`` registers so all
three sampling rules run on a batched combinational core.  Its Time
Warp runs cut the gate list into contiguous chunks rather than
partitioning it: the design-driven partition gives one small LP per
full-adder instance, which never reaches the batch threshold.
"""

import hashlib
import json

import pytest

from repro.circuits import load_circuit, random_vectors
from repro.core import design_driven_partition
from repro.sim import (
    ClusterSpec,
    SequentialSimulator,
    compile_circuit,
    run_partitioned,
)
from repro.verilog import compile_verilog


def _mixff_source(width: int = 16) -> str:
    """Registered ripple adder: ``x`` through dff, ``y`` through dffe
    (enable ``en``), the sum and carry-out through dffr (reset ``rst``)."""
    lines = [
        "module fa (a, b, cin, s, cout);",
        "  input a, b, cin; output s, cout;",
        "  wire s1, c1, c2;",
        "  xor (s1, a, b); and (c1, a, b);",
        "  xor (s, s1, cin); and (c2, s1, cin);",
        "  or (cout, c1, c2);",
        "endmodule",
        "module mixff (clk, rst, en, ci, x, y, sum, co);",
        "  input clk, rst, en, ci;",
        f"  input [{width - 1}:0] x, y;",
        f"  output [{width - 1}:0] sum; output co;",
        f"  wire [{width - 1}:0] xr, yr, s_w, c;",
    ]
    for i in range(width):
        cin = "ci" if i == 0 else f"c[{i - 1}]"
        lines += [
            f"  dff rx{i} (xr[{i}], x[{i}], clk);",
            f"  dffe ry{i} (yr[{i}], y[{i}], clk, en);",
            f"  fa f{i} (xr[{i}], yr[{i}], {cin}, s_w[{i}], c[{i}]);",
            f"  dffr rs{i} (sum[{i}], s_w[{i}], clk, rst);",
        ]
    lines += [f"  dffr rco (co, c[{width - 1}], clk, rst);", "endmodule"]
    return "\n".join(lines) + "\n"


def _load(name):
    if name == "mixff":
        return compile_verilog(_mixff_source())
    return load_circuit(name)


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def runs():
    """name -> (netlist, compiled circuit, stimulus, sequential sim)."""
    cache = {}

    def get(name):
        if name not in cache:
            nl = _load(name)
            cc = compile_circuit(nl)
            events = random_vectors(nl, 12, seed=5)
            seq = SequentialSimulator(cc, record_changes=True)
            seq.add_inputs(events)
            seq.run()
            cache[name] = (nl, cc, events, seq)
        return cache[name]

    return get


def test_mixff_has_every_flip_flop_variant():
    nl = _load("mixff")
    assert {g.gtype for g in nl.gates if g.gtype.startswith("dff")} == {
        "dff", "dffr", "dffe"}


# (gate_evals, net_events, end_time, kernel_batches, kernel_batch_gates,
#  kernel_scalar_gates, change-log digest)
@pytest.mark.parametrize("name, want", [
    ("viterbi-test", (4113, 1979, 190, 53, 2035, 877, "c65bca22fb65aa3d")),
    ("cpu-test", (3838, 1748, 205, 42, 2004, 756, "a8b2b7454d6836b7")),
    ("mixff", (2785, 1276, 202, 12, 359, 675, "9e22d595ee07bce3")),
])
def test_sequential_kernel(runs, name, want):
    _, _, _, seq = runs(name)
    s = seq.stats
    got = (s.gate_evals, s.net_events, s.end_time, s.kernel_batches,
           s.kernel_batch_gates, s.kernel_scalar_gates, _sha(seq.change_log))
    assert got == want


# (rollbacks, messages, kernel batches, RunStats.to_dict() digest)
@pytest.mark.parametrize("name, k, want", [
    ("viterbi-test", 2, (28, 107, 0, "69e717cb0f5555e0")),
    ("viterbi-test", 3, (37, 220, 0, "6b0269427015180b")),
    ("viterbi-test", 4, (102, 399, 0, "8c07ceb69021bfa8")),
    ("cpu-test", 3, (119, 445, 22, "4455a6728d633f7d")),
    ("mixff", 2, (13, 383, 12, "dc9be07dc6db57c7")),
    ("mixff", 3, (64, 488, 2, "95978e0083f69c3f")),
])
def test_time_warp_kernel(runs, name, k, want):
    nl, cc, events, seq = runs(name)
    if name == "mixff":
        n = nl.num_gates
        clusters = [range(i * n // k, (i + 1) * n // k) for i in range(k)]
        lp_machine = list(range(k))
    else:
        clusters, lp_machine = design_driven_partition(
            nl, k, 10.0, seed=1).to_simulation()
    report = run_partitioned(cc, clusters, lp_machine, events,
                             ClusterSpec(num_machines=k), sequential=seq)
    d = report.run_stats.to_dict()
    c = d["counters"]
    assert c["tw.committed_events"] == seq.stats.gate_evals
    got = (c["tw.rollbacks"], c["tw.messages_sent"], c["sim.kernel.batches"],
           _sha(d))
    assert got == want
