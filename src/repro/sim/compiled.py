"""Compiled circuit: the netlist lowered to flat arrays for simulation.

Both the sequential reference simulator and the Time Warp logical
processes evaluate gates through this structure, so their results are
comparable by construction.  Compilation resolves gate types to dense
codes, freezes pin lists as tuples, and precomputes per-net sink lists.

Sequential cells keep their input pin roles: ``dff`` = (d, clk),
``dffr`` = (d, clk, rst), ``dffe`` = (d, clk, en).

Compilation is vectorized array work over a
:class:`~repro.verilog.netlist_csr.NetlistCSR`: the streamed
million-gate circuits arrive in that form, and an object-model
:class:`~repro.verilog.netlist.Netlist` (parsed circuits) is lowered to
it first with :meth:`NetlistCSR.from_netlist`.  The Python-object
mirrors (``gate_inputs`` / ``net_sinks`` tuples and the plain-int
lists) materialize lazily on first access, so array-only consumers
never pay the O(gates) tuple construction.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..verilog.netlist import CONST0, CONST1, Netlist
from ..verilog.netlist_csr import NetlistCSR
from .logic import GATE_CODES, SEQ_CODE_MIN, VX

__all__ = ["CompiledCircuit", "compile_circuit", "pad_pin_matrix"]

#: Python-object mirrors of the array state, built together on first
#: access through :meth:`CompiledCircuit.__getattr__`.
_LAZY_MIRRORS = frozenset(
    {"gate_inputs", "net_sinks", "gate_code_list", "gate_output_list"}
)


class CompiledCircuit:
    """Array-form circuit shared by all simulators.

    Attributes
    ----------
    gate_code:
        ``(num_gates,)`` int8 array of :data:`~repro.sim.logic.GATE_CODES`.
    gate_inputs:
        Tuple of input-net tuples per gate.
    gate_output:
        ``(num_gates,)`` output net id per gate.
    net_sinks:
        Tuple of sink-gate tuples per net.
    initial_values:
        ``(num_nets,)`` int8 initial value array: constants at their
        value, everything else X.
    pin_net / pin_offsets:
        CSR form of ``gate_inputs``: gate ``g`` reads nets
        ``pin_net[pin_offsets[g]:pin_offsets[g + 1]]`` in pin order.
    sink_gate / sink_offsets:
        CSR form of ``net_sinks``: net ``n`` feeds gates
        ``sink_gate[sink_offsets[n]:sink_offsets[n + 1]]``.
    pin_matrix / pin_mask:
        ``(num_gates, max_arity)`` dense pin-net matrix padded with 0
        plus its validity mask — the gather index for the batched gate
        kernel (:func:`repro.sim.logic.eval_gates_batch`).
    """

    __slots__ = (
        "netlist",
        "gate_code",
        "gate_inputs",
        "gate_output",
        "net_sinks",
        "initial_values",
        "num_gates",
        "num_nets",
        "inputs",
        "outputs",
        "pin_net",
        "pin_offsets",
        "sink_gate",
        "sink_offsets",
        "pin_matrix",
        "pin_mask",
        "max_arity",
        "gate_code_list",
        "gate_output_list",
    )

    def __init__(self, netlist: Netlist | NetlistCSR) -> None:
        # diagnostics name nets through the caller's own netlist, so a
        # parsed circuit keeps its real names after the lowering below
        self.netlist = netlist
        csr = (
            netlist if isinstance(netlist, NetlistCSR)
            else NetlistCSR.from_netlist(netlist)
        )
        self.num_gates = csr.num_gates
        self.num_nets = csr.num_nets
        # no per-gate Python loop: the type table maps through one
        # fancy index, the pin CSR is adopted as-is, the sink CSR falls
        # out of one stable sort of the pins by net, and the padded pin
        # matrix is a single masked scatter; the tuple/list mirrors are
        # *not* built here — see __getattr__
        table = np.empty(max(1, len(csr.gate_types)), dtype=np.int8)
        for i, name in enumerate(csr.gate_types):
            code = GATE_CODES.get(name)
            if code is None:
                raise SimulationError(
                    f"gate type {name!r} is unknown to the simulator"
                )
            table[i] = code
        self.gate_code = (
            table[csr.gate_code] if self.num_gates
            else np.zeros(0, dtype=np.int8)
        )
        self.gate_output = csr.gate_output
        init = np.full(self.num_nets, VX, dtype=np.int8)
        init[CONST0] = 0
        init[CONST1] = 1
        self.initial_values = init
        self.inputs = tuple(csr.inputs.tolist())
        self.outputs = tuple(csr.outputs.tolist())
        self.pin_offsets = csr.pin_ptr
        self.pin_net = csr.pin_net
        arity = np.diff(csr.pin_ptr)
        # sinks per net in (gid, pin position) order — exactly the
        # append order of Netlist.add_gate, duplicates preserved
        reading = np.repeat(
            np.arange(self.num_gates, dtype=np.int64), arity
        )
        order = np.argsort(self.pin_net, kind="stable")
        self.sink_gate = reading[order]
        sink_offsets = np.zeros(self.num_nets + 1, dtype=np.int64)
        counts = np.bincount(self.pin_net, minlength=self.num_nets)
        np.cumsum(counts, dtype=np.int64, out=sink_offsets[1:])
        self.sink_offsets = sink_offsets
        self.max_arity = int(arity.max()) if self.num_gates else 0
        self.pin_matrix, self.pin_mask = pad_pin_matrix(arity, self.pin_net)

    def __getattr__(self, name: str):
        # array-native compilation leaves the Python-object mirrors
        # unset (their __slots__ raise AttributeError); first scalar
        # access lands here and materializes all of them together
        if name in _LAZY_MIRRORS:
            self._build_scalar_mirrors()
            return getattr(self, name)
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def _build_scalar_mirrors(self) -> None:
        """Materialize the tuple/list mirrors from the CSR arrays."""
        # one int object per id, shared by every tuple that holds it:
        # .tolist() would box each pin and sink entry separately
        ids = list(range(max(self.num_nets, self.num_gates)))
        if isinstance(self.netlist, Netlist):
            # a parsed circuit's gates already hold these pin tuples
            self.gate_inputs = tuple(g.inputs for g in self.netlist.gates)
        else:
            ptr = self.pin_offsets.tolist()
            flat = [ids[n] for n in self.pin_net.tolist()]
            self.gate_inputs = tuple(
                tuple(flat[ptr[g]:ptr[g + 1]]) for g in range(self.num_gates)
            )
        sptr = self.sink_offsets.tolist()
        sflat = [ids[g] for g in self.sink_gate.tolist()]
        self.net_sinks = tuple(
            tuple(sflat[sptr[n]:sptr[n + 1]]) for n in range(self.num_nets)
        )
        self.gate_code_list = self.gate_code.tolist()
        self.gate_output_list = [ids[n] for n in self.gate_output.tolist()]

    def is_sequential_gate(self, gid: int) -> bool:
        """True if gate ``gid`` is a state-holding cell."""
        return int(self.gate_code[gid]) >= SEQ_CODE_MIN


def pad_pin_matrix(arity: np.ndarray, pins) -> tuple[np.ndarray, np.ndarray]:
    """Pad ragged pin lists to a dense ``(n, max arity)`` index matrix.

    ``pins`` is the lists concatenated and ``arity`` their lengths.
    Returns ``(matrix, mask)``: pad cells index 0 and are False in the
    mask.  Shared by the global circuit and each LP's gate table.
    """
    width = int(arity.max()) if len(arity) else 0
    mask = np.arange(width, dtype=np.int64)[None, :] < arity[:, None]
    matrix = np.zeros(mask.shape, dtype=np.int64)
    matrix[mask] = pins
    return matrix, mask


def compile_circuit(netlist: Netlist) -> CompiledCircuit:
    """Lower an elaborated netlist for simulation."""
    return CompiledCircuit(netlist)


def combinational_depth(circuit: CompiledCircuit) -> int:
    """Longest combinational path in gate levels.

    Sources are primary inputs, constants and flip-flop outputs; paths
    stop at flip-flop inputs.  With the unit-delay model this is the
    settle time a clock period must exceed for registered values to be
    meaningful.  Combinational cycles (rare, e.g. latch-like structures)
    are broken by capping relaxation, and the cap is returned.
    """
    num_gates = circuit.num_gates
    depth = [0] * circuit.num_nets
    order_changed = True
    rounds = 0
    max_rounds = num_gates + 2
    while order_changed and rounds < max_rounds:
        order_changed = False
        rounds += 1
        for gid in range(num_gates):
            if circuit.is_sequential_gate(gid):
                continue
            d = 1 + max(
                (depth[p] for p in circuit.gate_inputs[gid]), default=0
            )
            out = int(circuit.gate_output[gid])
            if d > depth[out]:
                depth[out] = d
                order_changed = True
    return max(depth, default=0)
