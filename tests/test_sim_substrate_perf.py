"""The fast simulation substrate vs the pre-PR reference stack.

Two layers of evidence that the vectorized kernel and the rewritten
Time Warp hot path changed *nothing* observable:

* an exhaustive flip-flop transition sweep (every dff/dffr/dffe pin
  role × every {0, 1, X} before/after combination) comparing the
  sampling code of :func:`repro.sim.kernel.step`, run by both
  :class:`SequentialSimulator` and :class:`ClusterLP`, against
  :class:`LegacySequentialSimulator`, whose run loop still routes every
  sequential cell through the reference ``_dff_next``; and
* the miniature ``smoke_sim_study`` — the same structural-parity
  assertions (per-point rows, golden digest, chosen best) the full
  ``benchmarks/bench_sim_speed.py`` study makes, at tier-1 cost.
"""

import itertools

import pytest

from repro.bench import (
    LegacySequentialSimulator,
    run_sim_sweep,
    smoke_sim_study,
)
from repro.sim import compile_circuit
from repro.sim.events import InputEvent, Message
from repro.sim.lp import ClusterLP
from repro.sim.sequential import SequentialSimulator
from repro.verilog import NetlistBuilder

VALS = (0, 1, 2)


@pytest.fixture(scope="module")
def ff_circuit():
    """One of each flip-flop variant sharing d/clk, with ``aux`` as the
    dffr reset and the dffe enable (their pin-2 role)."""
    nb = NetlistBuilder("ffs")
    d = nb.input("d")
    clk = nb.input("clk")
    aux = nb.input("aux")
    q0, q1, q2 = nb.net("q0"), nb.net("q1"), nb.net("q2")
    nb.gate("dff", (d, clk), q0, name="f0")
    nb.gate("dffr", (d, clk, aux), q1, name="f1")
    nb.gate("dffe", (d, clk, aux), q2, name="f2")
    for q in (q0, q1, q2):
        nb.output_net(q)
    nl = nb.build()
    return nl, compile_circuit(nl), (d, clk, aux), (q0, q1, q2)


def _episodes():
    """Every (before, after) assignment of (d, clk, aux) over {0,1,X}:
    729 two-step stimuli covering all edge shapes (rising, falling,
    X-involved, idle) against all data/reset/enable values."""
    for before in itertools.product(VALS, repeat=3):
        for after in itertools.product(VALS, repeat=3):
            yield before, after


def _events(nets, before, after):
    return [
        InputEvent(time=1, net=n, value=v) for n, v in zip(nets, before)
    ] + [
        InputEvent(time=3, net=n, value=v) for n, v in zip(nets, after)
    ]


class TestFlipFlopInlinePaths:
    def test_sequential_inline_matches_reference(self, ff_circuit):
        nl, cc, ins, outs = ff_circuit
        for before, after in _episodes():
            events = _events(ins, before, after)
            ref = LegacySequentialSimulator(cc, record_changes=True)
            ref.add_inputs(events)
            ref.run()
            fast = SequentialSimulator(cc, record_changes=True)
            fast.add_inputs(events)
            fast.run()
            assert fast.change_log == ref.change_log, (before, after)
            assert fast.output_values() == ref.output_values()

    def test_cluster_lp_inline_matches_reference(self, ff_circuit):
        nl, cc, ins, outs = ff_circuit
        for before, after in _episodes():
            events = _events(ins, before, after)
            ref = LegacySequentialSimulator(cc, record_changes=True)
            ref.add_inputs(events)
            ref.run()
            lp = ClusterLP(0, cc, [0, 1, 2], checkpoint_interval=2,
                           record_changes=True)
            for uid, ev in enumerate(events):
                lp.insert_positive(Message(
                    recv_time=ev.time, net=ev.net, value=ev.value,
                    src_lp=-1, dst_lp=0, send_time=ev.time - 1, uid=uid,
                ))
            while lp.next_pending_vt() is not None:
                lp.execute_batch()
            assert lp._change_log == ref.change_log, (before, after)
            assert [lp.local_value(q) for q in outs] == ref.output_values()


class TestSmokeStudy:
    def test_smoke_parity_and_counters(self):
        fast, slow = smoke_sim_study()  # asserts structural parity itself
        assert fast.digest and fast.digest == slow.digest
        assert (fast.best_k, fast.best_b) == (slow.best_k, slow.best_b)
        assert fast.committed_events == slow.committed_events > 0
        # only the vectorized stack touches the batched kernel; the
        # legacy stack must never report kernel activity
        assert fast.kernel_scalar_gates > 0
        assert slow.kernel_batches == 0
        assert slow.kernel_batch_gates == 0

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError, match="unknown impl"):
            run_sim_sweep("turbo", circuit_name="viterbi-test", vectors=1)
