"""One unit-delay timestep: the gate-evaluation kernel of both simulators.

The sequential reference simulator and every Time Warp cluster LP run
the same timestep, :func:`step`: apply the net changes of time ``t``,
evaluate every gate reading a changed net, and return the outputs for
``t + 1``.  Only the index space differs, and a :class:`GateTable`
carries it: global net ids over every gate for the sequential
simulator (adopting the compiled circuit's own lists and arrays),
LP-local value slots over an LP's own gates for each LP.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .compiled import CompiledCircuit, pad_pin_matrix
from .logic import (
    BATCH_THRESHOLD,
    GATE_CODES,
    VX,
    eval_gate_coded,
    eval_gates_batch,
)

__all__ = ["GateTable", "step"]

_DFF = GATE_CODES["dff"]
_DFFR = GATE_CODES["dffr"]


class GateTable:
    """The gates one simulator evaluates, in its own slot space.

    ``code``, ``pins`` and ``out`` are indexed by table gate: gate
    code, input slots in pin order, output slot.  ``sinks`` maps a slot
    to the table gates reading it.  ``batch`` holds the
    :func:`~repro.sim.logic.eval_gates_batch` operands (code array,
    padded pin-slot matrix, its mask); a table built without them
    builds them on first use, since many small LPs never see an
    affected set reach the batch threshold.
    """

    __slots__ = ("code", "pins", "out", "sinks", "batch")

    def __init__(self, code, pins, out, sinks, batch=None) -> None:
        self.code = code
        self.pins = pins
        self.out = out
        self.sinks = sinks
        self.batch = batch

    @classmethod
    def for_circuit(cls, circuit: CompiledCircuit) -> "GateTable":
        """Every gate of ``circuit``, slots = global net ids."""
        return cls(circuit.gate_code_list, circuit.gate_inputs,
                   circuit.gate_output_list, circuit.net_sinks,
                   (circuit.gate_code, circuit.pin_matrix, circuit.pin_mask))

    @classmethod
    def for_gates(
        cls,
        circuit: CompiledCircuit,
        gate_ids: Sequence[int],
        slot_of: dict[int, int],
    ) -> "GateTable":
        """The gates ``gate_ids`` (table order) of ``circuit``, with
        global net ``n`` at slot ``slot_of[n]``; ``slot_of`` must cover
        every net those gates read or drive."""
        code_list = circuit.gate_code_list
        out_list = circuit.gate_output_list
        code = [code_list[gid] for gid in gate_ids]
        pins = [tuple(slot_of[n] for n in circuit.gate_inputs[gid])
                for gid in gate_ids]
        out = [slot_of[out_list[gid]] for gid in gate_ids]
        sinks: list[list[int]] = [[] for _ in slot_of]
        for gi, p in enumerate(pins):
            for s in p:
                sinks[s].append(gi)
        return cls(code, pins, out, tuple(tuple(s) for s in sinks))

    def _build_batch(self) -> None:
        arity = np.array([len(p) for p in self.pins], dtype=np.int64)
        matrix, mask = pad_pin_matrix(arity, [s for p in self.pins for s in p])
        self.batch = (np.array(self.code, dtype=np.int8), matrix, mask)


def step(
    table: GateTable,
    values: np.ndarray,
    vlist: list[int],
    changes: dict[int, int],
    counters,
) -> tuple[dict[int, int], dict[int, None], list[tuple[int, int]]]:
    """Apply one timestep's ``changes`` (slot -> value) and evaluate.

    ``values`` and its plain-int mirror ``vlist`` are updated in place.
    Returns ``(old, affected, outs)``: the pre-step value of every slot
    that actually changed (in application order), the affected table
    gates (ordered, de-duplicated; every one counts as an evaluation,
    including flip-flops that hold), and the ``(gate, value)`` output
    events for ``t + 1`` in evaluation order.  A flip-flop that holds
    emits nothing.  ``counters`` receives the ``kernel_batches`` /
    ``kernel_batch_gates`` / ``kernel_scalar_gates`` tallies.
    """
    sinks = table.sinks
    old: dict[int, int] = {}
    affected: dict[int, None] = {}  # ordered de-dup of gate indices
    for slot, value in changes.items():
        cur = vlist[slot]
        if cur == value:
            continue
        old[slot] = cur
        values[slot] = value
        vlist[slot] = value
        for g in sinks[slot]:
            affected[g] = None
    outs: list[tuple[int, int]] = []
    if not old:
        return old, affected, outs

    code_list = table.code
    pins = table.pins
    comb = [g for g in affected if code_list[g] < _DFF]
    comb_out = None  # iterator over batched outputs, in order
    if len(comb) >= BATCH_THRESHOLD:
        if table.batch is None:
            table._build_batch()
        codes, matrix, mask = table.batch
        rows = np.fromiter(comb, dtype=np.int64, count=len(comb))
        batch = eval_gates_batch(codes[rows], values[matrix[rows]], mask[rows])
        # comb gates appear in `affected` in exactly the order `comb`
        # was built, so the outputs stream back through an iterator
        comb_out = iter(batch.tolist())
        counters.kernel_batches += 1
        counters.kernel_batch_gates += len(comb)
    else:
        counters.kernel_scalar_gates += len(comb)

    # per-step clock-edge cache, keyed by clock slot:
    # 0 = no sampling (idle clock, falling or non-edge),
    # 1 = known rising edge, 2 = X-involved edge
    clk_state: dict[int, int] = {}
    for g in affected:
        code = code_list[g]
        if code < _DFF:
            if comb_out is not None:
                new = next(comb_out)
            else:
                new = eval_gate_coded(code, [vlist[p] for p in pins[g]])
            outs.append((g, new))
            continue
        p = pins[g]
        c = p[1]
        st = clk_state.get(c)
        if st is None:
            cb = old.get(c)
            if cb is None:
                st = 0  # clock idle: the FF holds
            else:
                ca = vlist[c]
                if ca == 0 or cb == 1:
                    st = 0  # falling or non-edge
                elif cb == 0 and ca == 1:
                    st = 1  # known rising edge
                else:
                    st = 2  # X on the clock: unknown edge
            clk_state[c] = st
        if st == 0:
            continue
        if code == _DFF:
            x = None  # no reset / enable pin
        else:
            # dffr / dffe: pin 2 (reset / enable) at its pre-step value
            x = old.get(p[2])
            if x is None:
                x = vlist[p[2]]
            if code == _DFFR and st == 1 and x == 1:
                outs.append((g, 0))  # synchronous reset asserted
                continue
            if code != _DFFR and x == 0:
                continue  # enable off: holds regardless of the edge
        if st == 2 or x == VX:
            new = VX
        else:
            dv = old.get(p[0])  # known edge: D at its pre-step value
            new = vlist[p[0]] if dv is None else dv
        outs.append((g, new))
    return old, affected, outs
