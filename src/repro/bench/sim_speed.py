"""Simulation-substrate speed study: vectorized kernel vs pre-PR path.

The fast simulation substrate (docs/performance.md, "Simulation
kernel") claims a large host-wall win with **bit-identical** results.
This module keeps the complete pre-optimization simulation stack
runnable — the NumPy-scalar fold-table gate evaluator, the dict-backed
:class:`LegacyClusterLP` (per-gate ``eval_gate_coded`` over a
``_net_loc`` dict, dict ``pending_out`` last-sent filter, dict-sized
checkpoint accounting) and the lazy ready-heap scheduler of
:class:`LegacyTimeWarpEngine` — so the speedup is measured against the
real old code, not a strawman, exactly like
:class:`repro.bench.partition_speed.LegacyPartitionState` does for the
partition core.

The module also hosts ``_dff_next``, the original per-cell flip-flop
state function both legacy stacks call; the production kernel
(:func:`repro.sim.kernel.step`) samples the same rules inline, and
``tests/test_sim_substrate_perf.py`` compares the two over every
dff/dffr/dffe transition.

The legacy scheduler also serves as the oracle for the engine's
current one.  It re-pushes every stale heap entry it meets, where the
engine drops it; over the production LP (``lp_class = ClusterLP``) the
two must make the same decisions, and ``tests/test_tw_scheduler.py``
checks that run for run.

``sim_speed_study`` runs the same pre-simulation (k, b) sweep through
both stacks over one shared set of partitions and asserts every
structural quantity (committed events, messages, rollbacks, modeled
walls, chosen best) is identical before reporting the wall ratio; the
shared sha256 ``digest`` over the canonical per-point rows is the
golden hash the tests pin.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from ..circuits import circuit_source, random_vectors
from ..core.multiway import design_driven_partition
from ..errors import SimulationError
from ..sim.cluster import ClusterSpec, TimeWarpConfig
from ..sim.compiled import CompiledCircuit, compile_circuit
from ..sim.engine import run_partitioned, run_sequential_baseline
from ..sim.events import Message
from ..sim.logic import GATE_CODES, VX
from ..sim.sequential import SequentialSimulator, SeqStats
from ..sim.timewarp import TimeWarpEngine
from ..verilog import compile_verilog

__all__ = [
    "LegacyClusterLP",
    "LegacySequentialSimulator",
    "LegacyTimeWarpEngine",
    "SimSweepStats",
    "run_sim_sweep",
    "sim_speed_study",
    "smoke_sim_study",
]

_DFF = GATE_CODES["dff"]
_DFFR = GATE_CODES["dffr"]
_DFFE = GATE_CODES["dffe"]

# -- pre-PR gate evaluation -------------------------------------------------
#
# The old eval_gate_coded folded through NumPy 3x3 tables with scalar
# indexing per input — reproduced verbatim (the current one folds
# through plain tuples and batches through eval_gates_batch).

_V0, _V1, _VX = 0, 1, 2


def _and2(a: int, b: int) -> int:
    if a == _V0 or b == _V0:
        return _V0
    if a == _VX or b == _VX:
        return _VX
    return _V1


def _or2(a: int, b: int) -> int:
    if a == _V1 or b == _V1:
        return _V1
    if a == _VX or b == _VX:
        return _VX
    return _V0


def _xor2(a: int, b: int) -> int:
    if a == _VX or b == _VX:
        return _VX
    return a ^ b


_NOT = (_V1, _V0, _VX)
_AND_T = np.array([[_and2(a, b) for b in range(3)] for a in range(3)], dtype=np.int8)
_OR_T = np.array([[_or2(a, b) for b in range(3)] for a in range(3)], dtype=np.int8)
_XOR_T = np.array([[_xor2(a, b) for b in range(3)] for a in range(3)], dtype=np.int8)
_LEGACY_FOLDS = {
    GATE_CODES["and"]: (_AND_T, False),
    GATE_CODES["nand"]: (_AND_T, True),
    GATE_CODES["or"]: (_OR_T, False),
    GATE_CODES["nor"]: (_OR_T, True),
    GATE_CODES["xor"]: (_XOR_T, False),
    GATE_CODES["xnor"]: (_XOR_T, True),
}


def legacy_eval_gate_coded(code: int, values) -> int:
    """The pre-PR combinational gate evaluator (NumPy scalar folds)."""
    if code == 6:  # buf
        return values[0]
    if code == 7:  # not
        return _NOT[values[0]]
    table, inv = _LEGACY_FOLDS[code]
    acc = values[0]
    for v in values[1:]:
        acc = int(table[acc, v])
    return _NOT[acc] if inv else acc


# -- reference flip-flop rule -----------------------------------------------


def _dff_next(
    code: int,
    pins: tuple[int, ...],
    values,
    old: Mapping[int, int],
    current_q: int,
) -> int | None:
    """Next-state of a flip-flop given the changes applied at this
    instant; None means no output event.

    ``old`` carries pre-update values for nets that changed now; pins
    other than the clock are sampled from it (setup-time semantics).
    ``values`` is anything indexable by global net id (NumPy array,
    list mirror, or an LP's value view).
    """

    def before(net: int) -> int:
        return old.get(net, int(values[net]))

    clk = pins[1]
    if clk not in old:
        return None  # data moved but no clock activity: FF holds
    clk_before, clk_after = old[clk], int(values[clk])
    if clk_after == 0 or clk_before == 1:
        return None  # falling or non-edge
    known_edge = clk_before == 0 and clk_after == 1
    if code == _DFFR:
        rst = before(pins[2])
        if known_edge and rst == 1:
            return 0
        if rst == VX or not known_edge:
            return VX
        return before(pins[0])
    if code == _DFFE:
        en = before(pins[2])
        if en == 0:
            return None  # enable off: holds regardless of the edge
        if not known_edge or en == VX:
            return VX
        return before(pins[0])
    # plain dff
    if not known_edge:
        return VX
    return before(pins[0])


# -- pre-PR sequential simulator --------------------------------------------


class LegacySequentialSimulator(SequentialSimulator):
    """The pre-PR sequential hot loop: NumPy scalar reads per pin, one
    ``eval_gate_coded`` call per gate, no batching and no list mirrors.
    State layout is inherited, only :meth:`run` is the old code."""

    def run(self, until: int | None = None) -> SeqStats:
        values = self.values
        circuit = self.circuit
        stats = self.stats
        activity = stats.activity
        while self._heap:
            t = self._heap[0]
            if until is not None and t >= until:
                break
            heapq.heappop(self._heap)
            changes = self._agenda.pop(t)
            self.now = t
            old: dict[int, int] = {}
            affected: dict[int, None] = {}
            for net, value in changes.items():
                cur = int(values[net])
                if cur == value:
                    continue
                old[net] = cur
                values[net] = value
                stats.net_events += 1
                for gid in circuit.net_sinks[net]:
                    affected[gid] = None
            if not old:
                continue
            if self.record_changes:
                for net in old:
                    self.change_log.append((t, net, int(values[net])))
            stats.end_time = t
            for gid in affected:
                stats.gate_evals += 1
                if activity is not None:
                    activity[gid] += 1
                code = int(circuit.gate_code[gid])
                pins = circuit.gate_inputs[gid]
                out_net = int(circuit.gate_output[gid])
                if code < _DFF:
                    new = legacy_eval_gate_coded(
                        code, [int(values[p]) for p in pins]
                    )
                    self.schedule(t + 1, out_net, new)
                else:
                    q = _dff_next(code, pins, values, old, int(values[out_net]))
                    if q is not None:
                        self.schedule(t + 1, out_net, q)
            for observer in self.observers:
                observer(t)
        return stats


# -- pre-PR cluster LP ------------------------------------------------------


class _LegacyCheckpoint:
    __slots__ = ("vt", "values", "agenda", "heap", "pending_out")

    def __init__(self, vt, values, agenda, heap, pending_out) -> None:
        self.vt = vt
        self.values = values
        self.agenda = agenda
        self.heap = heap
        self.pending_out = pending_out

    def nbytes(self) -> int:
        return (
            self.values.nbytes
            + 32 * sum(len(s) + 1 for s in self.agenda.values())
            + 8 * len(self.heap)
            + 32 * len(self.pending_out)
        )


def _msg_sort_key(m: Message) -> tuple[int, int, int]:
    return (m.recv_time, m.src_lp, m.uid)


def _send_key(m: Message) -> tuple[int, int, int]:
    return (m.send_time, m.net, m.dst_lp)


class LegacyClusterLP:
    """Verbatim pre-PR cluster LP: ``_net_loc`` dict lookups and a
    Python list comprehension per gate in the hot loop, a dict-backed
    ``pending_out`` last-sent filter, dict-entry checkpoint accounting,
    and ``next_pending_vt`` derived on every call (no cache)."""

    def __init__(
        self,
        lid: int,
        circuit: CompiledCircuit,
        gate_ids: Sequence[int],
        checkpoint_interval: int = 8,
        lazy: bool = True,
        name: str | None = None,
        record_changes: bool = False,
    ) -> None:
        self.lid = lid
        self.name = name or f"lp{lid}"
        self.circuit = circuit
        self.gate_ids = tuple(sorted(gate_ids))
        self.checkpoint_interval = checkpoint_interval
        self.lazy = lazy

        local_nets: set[int] = set()
        for gid in self.gate_ids:
            local_nets.update(circuit.gate_inputs[gid])
            local_nets.add(int(circuit.gate_output[gid]))
        self._net_list = sorted(local_nets)
        self._net_loc = {n: i for i, n in enumerate(self._net_list)}

        sinks: list[list[int]] = [[] for _ in self._net_list]
        for gid in self.gate_ids:
            for n in circuit.gate_inputs[gid]:
                sinks[self._net_loc[n]].append(gid)
        self._local_sinks = tuple(tuple(s) for s in sinks)

        self.out_dests: dict[int, tuple[int, ...]] = {}
        self.values = circuit.initial_values[self._net_list].copy()
        self._agenda: dict[int, dict[int, int]] = {}
        self._heap: list[int] = []
        self._pending_out: dict[int, int] = {}
        self.lvt = -1
        self._in_msgs: list[Message] = []
        self._in_keys: list[tuple[int, int, int]] = []
        self._next_idx = 0
        self._out_log: list[Message] = []
        self._batch_log: list[tuple[int, int]] = []
        self.record_changes = record_changes
        self._change_log: list[tuple[int, int, int]] = []
        self._checkpoints: list[_LegacyCheckpoint] = []
        self._batches_since_ckpt = 0
        self._uid = 0
        self._unconfirmed: dict[tuple[int, int, int], Message] = {}
        self._deferred_antis: list[Message] = []
        self._orphan_antis: dict[tuple[int, int], Message] = {}
        self._save_checkpoint()

    def local_value(self, net: int) -> int:
        return int(self.values[self._net_loc[net]])

    def has_net(self, net: int) -> bool:
        return net in self._net_loc

    def next_pending_vt(self) -> int | None:
        t_int: int | None = self._heap[0] if self._heap else None
        t_in: int | None = (
            self._in_msgs[self._next_idx].recv_time
            if self._next_idx < len(self._in_msgs)
            else None
        )
        if t_int is None:
            return t_in
        if t_in is None:
            return t_int
        return min(t_int, t_in)

    def checkpoint_bytes(self) -> int:
        return sum(c.nbytes() for c in self._checkpoints)

    def min_unconfirmed_recv_time(self) -> int | None:
        times = [m.recv_time for m in self._unconfirmed.values()]
        times.extend(m.recv_time for m in self._deferred_antis)
        return min(times) if times else None

    def insert_positive(self, msg: Message):
        orphan = self._orphan_antis.pop((msg.uid, msg.src_lp), None)
        if orphan is not None:
            return None
        rollback = None
        if msg.recv_time <= self.lvt:
            rollback = self._rollback_to(msg.recv_time)
        self._insort(msg)
        return rollback

    def insert_anti(self, msg: Message):
        rollback = None
        if msg.recv_time <= self.lvt:
            rollback = self._rollback_to(msg.recv_time)
        idx = self._find_twin(msg)
        if idx is None:
            self._orphan_antis[(msg.uid, msg.src_lp)] = msg
            return rollback
        del self._in_msgs[idx]
        del self._in_keys[idx]
        if idx < self._next_idx:  # pragma: no cover - defensive
            self._next_idx -= 1
        return rollback

    def _insort(self, msg: Message) -> None:
        key = _msg_sort_key(msg)
        idx = bisect_right(self._in_keys, key)
        self._in_msgs.insert(idx, msg)
        self._in_keys.insert(idx, key)
        if idx < self._next_idx:  # pragma: no cover - defensive
            raise SimulationError(f"{self.name}: insert into processed region")

    def _find_twin(self, anti: Message) -> int | None:
        key = _msg_sort_key(anti)
        lo = bisect_left(self._in_keys, key)
        if lo < len(self._in_msgs):
            twin = self._in_msgs[lo]
            if (
                twin.uid == anti.uid
                and twin.src_lp == anti.src_lp
                and twin.recv_time == anti.recv_time
                and twin.sign == 1
            ):
                return lo
        return None

    def execute_batch(self):
        from ..sim.lp import BatchResult

        T = self.next_pending_vt()
        if T is None:
            raise SimulationError(f"{self.name}: execute_batch with no work")
        if T <= self.lvt:  # pragma: no cover - defensive
            raise SimulationError(f"{self.name}: batch not after lvt")
        changes: dict[int, int] = {}
        if self._heap and self._heap[0] == T:
            heapq.heappop(self._heap)
            changes.update(self._agenda.pop(T))
        while (
            self._next_idx < len(self._in_msgs)
            and self._in_msgs[self._next_idx].recv_time == T
        ):
            msg = self._in_msgs[self._next_idx]
            changes[self._net_loc[msg.net]] = msg.value
            self._next_idx += 1

        values = self.values
        circuit = self.circuit
        old: dict[int, int] = {}
        affected: dict[int, None] = {}
        for loc, value in changes.items():
            cur = int(values[loc])
            if cur == value:
                continue
            old[self._net_list[loc]] = cur
            values[loc] = value
            if self.record_changes:
                self._change_log.append((T, self._net_list[loc], value))
            for gid in self._local_sinks[loc]:
                affected[gid] = None

        sends: list[Message] = []
        n_evals = 0
        if old:
            view = _LegacyLPValueView(values, self._net_loc)
            for gid in affected:
                n_evals += 1
                code = int(circuit.gate_code[gid])
                pins = circuit.gate_inputs[gid]
                out_net = int(circuit.gate_output[gid])
                if code < _DFF:
                    new = legacy_eval_gate_coded(
                        code, [int(values[self._net_loc[p]]) for p in pins]
                    )
                else:
                    out_loc = self._net_loc[out_net]
                    q = _dff_next(code, pins, view, old, int(values[out_loc]))
                    if q is None:
                        continue
                    new = q
                self._schedule(T + 1, out_net, new)
                dests = self.out_dests.get(out_net)
                if dests and new != self._pending_out.get(
                    out_net, int(circuit.initial_values[out_net])
                ):
                    self._pending_out[out_net] = new
                    for dst in dests:
                        msg = self._emit(T, T + 1, out_net, new, dst)
                        if msg is not None:
                            sends.append(msg)
        self.lvt = T
        self._batch_log.append((T, n_evals))
        self._out_log.extend(sends)
        self._batches_since_ckpt += 1
        if self._batches_since_ckpt >= self.checkpoint_interval:
            self._save_checkpoint()
        return BatchResult(T, n_evals, sends)

    def _emit(self, send_time, recv_time, net, value, dst):
        prev = self._unconfirmed.pop((send_time, net, dst), None)
        if prev is not None:
            if prev.value == value:
                self._out_log.append(prev)
                return None
            self._deferred_antis.append(prev.anti())
        msg = Message(
            recv_time=recv_time,
            net=net,
            value=value,
            src_lp=self.lid,
            dst_lp=dst,
            send_time=send_time,
            uid=self._uid,
        )
        self._uid += 1
        return msg

    def flush_unconfirmed(self, before_vt: int | None = None) -> list[Message]:
        out: list[Message] = []
        if self._unconfirmed:
            keep: dict[tuple[int, int, int], Message] = {}
            for key, msg in self._unconfirmed.items():
                if before_vt is None or msg.send_time < before_vt:
                    out.append(msg.anti())
                else:
                    keep[key] = msg
            self._unconfirmed = keep
        if self._deferred_antis:
            out.extend(self._deferred_antis)
            self._deferred_antis = []
        return out

    def _schedule(self, time: int, net: int, value: int) -> None:
        slot = self._agenda.get(time)
        if slot is None:
            slot = {}
            self._agenda[time] = slot
            heapq.heappush(self._heap, time)
        slot[self._net_loc[net]] = value

    def _save_checkpoint(self) -> None:
        self._checkpoints.append(
            _LegacyCheckpoint(
                self.lvt,
                self.values.copy(),
                {t: dict(s) for t, s in self._agenda.items()},
                list(self._heap),
                dict(self._pending_out),
            )
        )
        self._batches_since_ckpt = 0

    def _rollback_to(self, straggler_vt: int):
        from ..sim.lp import RollbackResult

        cp = None
        while self._checkpoints:
            cand = self._checkpoints[-1]
            if cand.vt < straggler_vt:
                cp = cand
                break
            self._checkpoints.pop()
        if cp is None:  # pragma: no cover - fossil collection keeps one
            raise SimulationError(f"{self.name}: no checkpoint")
        self.values = cp.values.copy()
        self._agenda = {t: dict(s) for t, s in cp.agenda.items()}
        self._heap = list(cp.heap)
        self._pending_out = dict(cp.pending_out)
        self.lvt = cp.vt
        self._batches_since_ckpt = 0
        self._next_idx = bisect_right(self._in_keys, (cp.vt, 1 << 62, 1 << 62))

        antis: list[Message] = []
        keep: list[Message] = []
        for msg in self._out_log:
            if msg.send_time <= cp.vt:
                keep.append(msg)
            elif self.lazy or msg.send_time < straggler_vt:
                self._unconfirmed[_send_key(msg)] = msg
            else:
                antis.append(msg.anti())
        self._out_log = keep

        undone = 0
        while self._batch_log and self._batch_log[-1][0] > cp.vt:
            undone += self._batch_log.pop()[1]
        if self.record_changes:
            while self._change_log and self._change_log[-1][0] > cp.vt:
                self._change_log.pop()
        return RollbackResult(antis, undone, cp.vt)

    def fossil_collect(self, gvt: int) -> None:
        keep_from = 0
        for i, cp in enumerate(self._checkpoints):
            if cp.vt < gvt:
                keep_from = i
        if keep_from > 0:
            del self._checkpoints[:keep_from]
        floor = self._checkpoints[0].vt
        cut = bisect_right(self._in_keys, (floor, 1 << 62, 1 << 62))
        cut = min(cut, self._next_idx)
        if cut:
            del self._in_msgs[:cut]
            del self._in_keys[:cut]
            self._next_idx -= cut
        self._out_log = [m for m in self._out_log if m.send_time > floor]
        self._batch_log = [b for b in self._batch_log if b[0] > floor]


class _LegacyLPValueView:
    __slots__ = ("_values", "_loc")

    def __init__(self, values: np.ndarray, loc: dict[int, int]) -> None:
        self._values = values
        self._loc = loc

    def __getitem__(self, net: int) -> int:
        return int(self._values[self._loc[net]])


# -- pre-PR engine scheduling -----------------------------------------------


class LegacyTimeWarpEngine(TimeWarpEngine):
    """The pre-PR engine scheduler: per-machine lazy ready-heaps whose
    stale (next_vt, lid) entries are validated against
    ``next_pending_vt()`` on every pop and pushed back as
    ``(actual, lid)``, plus the lazy global ready-heap of conservative
    mode.  Only the scheduling methods differ; the main loop, delivery,
    GVT and cost model are inherited.  Kept as the oracle for the
    engine's drop-stale scheduler."""

    lp_class = LegacyClusterLP

    def _has_ready_work(self, m) -> bool:
        while m.ready:
            vt, lid = m.ready[0]
            if self.lp_machine[lid] != m.mid:
                heapq.heappop(m.ready)
                continue
            actual = self.lps[lid].next_pending_vt()
            if actual is None or actual != vt:
                heapq.heappop(m.ready)
                if actual is not None:
                    heapq.heappush(m.ready, (actual, lid))
                continue
            return self._eligible(vt)
        return False

    def _refresh_ready(self, m) -> None:
        for lid in m.lp_ids:
            vt = self.lps[lid].next_pending_vt()
            if vt is not None:
                heapq.heappush(m.ready, (vt, lid))
                if self._conservative:
                    heapq.heappush(self._global_ready, (vt, lid))

    def _pop_ready_lp(self, m) -> int | None:
        while m.ready:
            vt, lid = m.ready[0]
            if self.lp_machine[lid] != m.mid:
                heapq.heappop(m.ready)
                continue
            actual = self.lps[lid].next_pending_vt()
            if actual is None:
                heapq.heappop(m.ready)
                continue
            if actual != vt:
                heapq.heappop(m.ready)
                heapq.heappush(m.ready, (actual, lid))
                continue
            if not self._eligible(vt):
                return None
            heapq.heappop(m.ready)
            return lid
        return None

    def _mark_ready(self, lp) -> None:
        vt = lp.next_pending_vt()
        if vt is not None:
            m = self.machines[self.lp_machine[lp.lid]]
            heapq.heappush(m.ready, (vt, lp.lid))
            if self._conservative:
                heapq.heappush(self._global_ready, (vt, lp.lid))

    def _global_ready_min(self) -> int | None:
        heap = self._global_ready
        while heap:
            vt, lid = heap[0]
            actual = self.lps[lid].next_pending_vt()
            if actual is None or actual != vt:
                heapq.heappop(heap)
                if actual is not None:
                    heapq.heappush(heap, (actual, lid))
                continue
            return vt
        return None


# -- the speed study --------------------------------------------------------


@dataclass
class SimSweepStats:
    """Structural outcome of one pre-simulation (k, b) sweep plus its
    host wall.  Everything except ``host_seconds`` (and the kernel
    counters, which only the vectorized path increments) is
    deterministic and must be identical across implementations —
    :func:`sim_speed_study` asserts it; ``digest`` is the golden hash
    over the canonical per-point rows."""

    impl: str
    best_k: int
    best_b: float
    committed_events: int
    processed_events: int
    messages: int
    anti_messages: int
    rollbacks: int
    rolled_back_events: int
    seq_gate_evals: int
    points: list[dict] = field(default_factory=list)
    digest: str = ""
    host_seconds: float = 0.0
    kernel_batches: int = 0
    kernel_batch_gates: int = 0
    kernel_scalar_gates: int = 0


def run_sim_sweep(
    impl: str = "vectorized",
    circuit_name: str = "viterbi-single",
    vectors: int = 40,
    ks: Sequence[int] = (2, 3, 4),
    bs: Sequence[float] = (7.5, 12.5),
    seed: int = 1,
    gvt_interval: int = 64,
) -> SimSweepStats:
    """One pre-simulation sweep through the chosen simulation stack.

    The candidate partitions are computed up front (the partitioner is
    shared and outside this study's scope) and only the simulation —
    sequential baseline plus one Time Warp run per (k, b) — is timed.
    """
    if impl == "vectorized":
        engine_cls, seq_cls = TimeWarpEngine, SequentialSimulator
    elif impl == "legacy":
        engine_cls, seq_cls = LegacyTimeWarpEngine, LegacySequentialSimulator
    else:
        raise ValueError(f"unknown impl {impl!r}")
    netlist = compile_verilog(circuit_source(circuit_name))
    events = random_vectors(netlist, vectors, seed=seed)
    combos = [(k, b) for k in ks for b in bs]
    partitions = [
        design_driven_partition(netlist, k, b, seed=seed) for k, b in combos
    ]
    circuit = compile_circuit(netlist)
    config = TimeWarpConfig(gvt_interval=gvt_interval)
    base_spec = ClusterSpec(num_machines=1)

    t0 = time.perf_counter()
    seq = seq_cls(circuit)
    seq.add_inputs(events)
    seq_stats = seq.run()
    rows: list[dict] = []
    totals = SimSweepStats(
        impl=impl, best_k=0, best_b=0.0, committed_events=0,
        processed_events=0, messages=0, anti_messages=0, rollbacks=0,
        rolled_back_events=0, seq_gate_evals=seq_stats.gate_evals,
    )
    best_key: tuple | None = None
    for (k, b), part in zip(combos, partitions):
        clusters, lp_machine = part.to_simulation()
        spec = replace(base_spec, num_machines=k)
        engine = engine_cls(circuit, clusters, lp_machine, spec, config)
        engine.load_inputs(events)
        stats = engine.run()
        seq_wall = seq_stats.gate_evals * spec.event_cost
        speedup = seq_wall / stats.wall_time if stats.wall_time > 0 else 0.0
        rows.append({
            "k": k, "b": b, "cut": part.cut_size,
            "committed": stats.committed_events,
            "processed": stats.processed_events,
            "messages": stats.messages,
            "antis": stats.anti_messages,
            "rollbacks": stats.rollbacks,
            "undone": stats.rolled_back_events,
            "gvt_rounds": stats.gvt_rounds,
            "straggler_depth": stats.max_straggler_depth,
            "wall": repr(stats.wall_time),
            "machine_walls": [repr(m.wall_time) for m in stats.machines],
            "speedup": repr(speedup),
        })
        totals.committed_events += stats.committed_events
        totals.processed_events += stats.processed_events
        totals.messages += stats.messages
        totals.anti_messages += stats.anti_messages
        totals.rollbacks += stats.rollbacks
        totals.rolled_back_events += stats.rolled_back_events
        totals.kernel_batches += stats.kernel_batches
        totals.kernel_batch_gates += stats.kernel_batch_gates
        totals.kernel_scalar_gates += stats.kernel_scalar_gates
        # the presim winner rule: best speedup, fewest machines, then b
        key = (speedup, -k, b)
        if best_key is None or key > best_key:
            best_key = key
            totals.best_k, totals.best_b = k, b
    totals.host_seconds = time.perf_counter() - t0
    totals.points = rows
    totals.digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()
    return totals


def sim_speed_study(
    circuit_name: str = "viterbi-single",
    vectors: int = 40,
    ks: Sequence[int] = (2, 3, 4),
    bs: Sequence[float] = (7.5, 12.5),
    seed: int = 1,
    gvt_interval: int = 64,
) -> tuple[SimSweepStats, SimSweepStats]:
    """Run the sweep through both stacks; assert structural identity.

    Returns ``(fast, slow)``; after the parity assertions the wall
    ratio ``slow.host_seconds / fast.host_seconds`` is a pure
    like-for-like measurement of the simulation substrate.
    """
    kwargs = dict(circuit_name=circuit_name, vectors=vectors, ks=ks, bs=bs,
                  seed=seed, gvt_interval=gvt_interval)
    fast = run_sim_sweep("vectorized", **kwargs)
    slow = run_sim_sweep("legacy", **kwargs)
    assert fast.points == slow.points, "structural rows diverge"
    assert fast.digest == slow.digest, "golden digest diverges"
    assert (fast.best_k, fast.best_b) == (slow.best_k, slow.best_b)
    for name in ("committed_events", "processed_events", "messages",
                 "anti_messages", "rollbacks", "rolled_back_events",
                 "seq_gate_evals"):
        if getattr(fast, name) != getattr(slow, name):  # pragma: no cover
            raise AssertionError(f"{name} diverges between implementations")
    return fast, slow


def smoke_sim_study() -> tuple[SimSweepStats, SimSweepStats]:
    """Tier-1-sized study: same parity assertions, miniature workload
    (no wall-ratio claim — too small to time meaningfully)."""
    return sim_speed_study(
        circuit_name="viterbi-test", vectors=10, ks=(2, 3), bs=(7.5,),
        gvt_interval=32,
    )
