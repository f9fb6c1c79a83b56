"""Sequential event-driven gate-level simulator.

This is the reference implementation of the paper's simulation model:
**unit gate delay, zero wire delay**, three-valued signals.  It serves
three roles:

1. correctness oracle for the Time Warp kernel (committed results must
   match it exactly);
2. the sequential-time baseline (``T_seq``) against which parallel
   speedups are measured (paper §4.2/§4.3); and
3. the activity profiler whose per-gate event counts ground the cost
   model of the virtual cluster.

Semantics:

* Combinational gates re-evaluate one unit after any input change; a
  scheduled output that equals the net's value at apply time is
  swallowed (inertial glitch suppression at identical values).
* Flip-flops sample their ``d`` (and ``rst``/``en``) pins with the
  values the nets held *just before* the clock edge, which is the
  standard zero-hold-time idealization.  An edge whose before/after
  values involve X produces an X output (conservative unknown edge).

Both rules live in :func:`repro.sim.kernel.step`, the timestep every
Time Warp LP also runs; this module adds the global agenda, the
counters and the activity profile around it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..errors import SimulationError
from .compiled import CompiledCircuit
from .events import InputEvent
from .kernel import GateTable, step

__all__ = ["SequentialSimulator", "SeqStats", "simulate_sequential"]


@dataclass
class SeqStats:
    """Counters from a sequential run.

    ``gate_evals`` counts gate evaluations (the unit of computational
    load in the paper's model — "the number of gates ... equally
    active"); ``net_events`` counts committed net value changes;
    ``end_time`` is the virtual time at which activity ceased.
    """

    gate_evals: int = 0
    net_events: int = 0
    end_time: int = 0
    activity: np.ndarray | None = None
    #: affected-gate batches routed through the vectorized kernel
    kernel_batches: int = 0
    #: combinational gate evaluations done by the vectorized kernel
    kernel_batch_gates: int = 0
    #: combinational gate evaluations done on the scalar fast path
    kernel_scalar_gates: int = 0


class SequentialSimulator:
    """Unit-delay event-driven simulator over a compiled circuit.

    Parameters
    ----------
    circuit:
        Output of :func:`repro.sim.compile_circuit`.
    record_activity:
        Keep a per-gate evaluation count (used for pre-simulation load
        profiling and as the partitioners' optional activity weights).
    """

    def __init__(
        self,
        circuit: CompiledCircuit,
        record_activity: bool = False,
        record_changes: bool = False,
    ):
        self.circuit = circuit
        self.values = circuit.initial_values.copy()
        self._table = GateTable.for_circuit(circuit)
        self._agenda: dict[int, dict[int, int]] = {}
        self._heap: list[int] = []
        self.now = -1
        self.stats = SeqStats(
            activity=np.zeros(circuit.num_gates, dtype=np.int64)
            if record_activity
            else None
        )
        #: callbacks invoked with the current time after every processed
        #: time step (used by waveform writers and probes)
        self.observers: list = []
        #: optional (time, net, value) history of every committed net
        #: change — the deep oracle the Time Warp tests compare against
        self.record_changes = record_changes
        self.change_log: list[tuple[int, int, int]] = []

    # -- scheduling --------------------------------------------------------

    def schedule(self, time: int, net: int, value: int) -> None:
        """Schedule net ``net`` to take ``value`` at ``time``."""
        if time <= self.now:
            raise SimulationError(
                f"cannot schedule at time {time}; current time is {self.now}"
            )
        slot = self._agenda.get(time)
        if slot is None:
            slot = {}
            self._agenda[time] = slot
            heapq.heappush(self._heap, time)
        slot[net] = value

    def add_inputs(self, events: Iterable[InputEvent]) -> None:
        """Queue a batch of primary-input stimuli."""
        for ev in events:
            self.schedule(ev.time, ev.net, ev.value)

    # -- execution ---------------------------------------------------------

    def run(self, until: int | None = None) -> SeqStats:
        """Process events until quiescence (or ``until``, exclusive).

        Returns the accumulated statistics object (also available as
        ``self.stats``); may be called repeatedly with interleaved
        :meth:`add_inputs`.
        """
        values = self.values
        # plain-int mirror of the authoritative array for the kernel's
        # scalar reads (a NumPy scalar read costs ~10x a list read)
        vlist = values.tolist()
        table = self._table
        out_list = table.out
        agenda = self._agenda
        heap = self._heap
        stats = self.stats
        activity = stats.activity
        while heap:
            t = heap[0]
            if until is not None and t >= until:
                break
            heapq.heappop(heap)
            self.now = t
            old, affected, outs = step(
                table, values, vlist, agenda.pop(t), stats
            )
            if not old:
                continue
            stats.net_events += len(old)
            if self.record_changes:
                self.change_log.extend((t, net, vlist[net]) for net in old)
            stats.end_time = t
            stats.gate_evals += len(affected)
            if activity is not None:
                activity[list(affected)] += 1
            if outs:
                slot = agenda.get(t + 1)
                if slot is None:
                    slot = agenda[t + 1] = {}
                    heapq.heappush(heap, t + 1)
                for gid, new in outs:
                    slot[out_list[gid]] = new
            for observer in self.observers:
                observer(t)
        return stats

    # -- convenience ---------------------------------------------------------

    def value_of(self, net: int) -> int:
        """Current value of a net."""
        return int(self.values[net])

    def output_values(self) -> list[int]:
        """Current values of the primary outputs, port order."""
        return [int(self.values[n]) for n in self.circuit.outputs]


def simulate_sequential(
    circuit: CompiledCircuit,
    input_events: Iterable[InputEvent],
    record_activity: bool = False,
    until: int | None = None,
) -> tuple[SequentialSimulator, SeqStats]:
    """One-shot sequential run over an input stimulus stream."""
    sim = SequentialSimulator(circuit, record_activity=record_activity)
    sim.add_inputs(input_events)
    stats = sim.run(until=until)
    return sim, stats
