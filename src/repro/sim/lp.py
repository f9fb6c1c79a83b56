"""Cluster logical process (LP) for the Time Warp kernel.

Following the paper (§4.3) and Clustered Time Warp [Avril & Tropper],
an LP is a *cluster of gates* — a visible node of the circuit
hypergraph: a top-level gate, or a whole Verilog module instance whose
children roll back along with their parent.  Each LP is a private
unit-delay simulator over its gate subset — it runs the sequential
simulator's own timestep, :func:`repro.sim.kernel.step`, over a gate
table in local slot space:

* its **state** is the value array of the nets its gates touch, plus
  the internal future-event agenda;
* **input messages** are net-change events for boundary nets driven by
  other LPs (or the vector source);
* **output messages** are emitted when a locally driven boundary net
  changes value (a last-sent-value filter keeps message traffic
  identical to the net's committed change stream).

Rollback uses periodic state saving: every ``checkpoint_interval``
processed timestamp batches the LP snapshots its state; a straggler or
anti-message restores the latest snapshot strictly before the straggler
time and normal re-execution coasts forward.

Cancellation and re-send suppression both run through one mechanism,
the **unconfirmed-send buffer**: a rollback moves every send the
restored region might or might not reproduce into the buffer instead of
transmitting anti-messages for all of them.  When re-execution would
emit a message with the same (send time, net, destination) key:

* identical value → the original message is still correct at its
  receiver; nothing is transmitted and the original is confirmed back
  into the live-send log;
* different value → an anti-message for the original is transmitted
  followed by the new positive.

Any buffered send whose send time falls below the LP's next possible
batch can never be re-issued, so its anti-message is transmitted then
(see :meth:`ClusterLP.flush_unconfirmed`).  Under *aggressive*
cancellation, sends at or after the straggler time skip the buffer and
are cancelled immediately (classic Time Warp); under *lazy*
cancellation they too enter the buffer.  A simpler scheme — cancel
everything after the restore point, or suppress every re-send below the
straggler time ("coast forward") — is unsound under interleaved
rollbacks whose replay regions overlap but see different input sets;
the key-matched buffer handles every interleaving.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import SimulationError
from .compiled import CompiledCircuit
from .events import Message
from .kernel import GateTable, step

__all__ = ["ClusterLP", "BatchResult", "RollbackResult"]


@dataclass
class BatchResult:
    """Outcome of executing one timestamp batch."""

    vt: int
    gate_evals: int
    sends: list[Message]


@dataclass
class RollbackResult:
    """Outcome of a rollback: anti-messages to route and undo counts."""

    anti_messages: list[Message]
    undone_events: int
    restored_to: int


class _Checkpoint:
    """One saved LP state: array copies of the net values and the
    last-sent-value filter, plus the future-event agenda."""

    __slots__ = ("vt", "values", "agenda", "heap", "pending", "size")

    def __init__(
        self,
        vt: int,
        values: np.ndarray,
        agenda: dict[int, dict[int, int]],
        heap: list[int],
        pending: np.ndarray,
    ) -> None:
        self.vt = vt
        self.values = values
        self.agenda = agenda
        self.heap = heap
        self.pending = pending
        # snapshots are immutable once taken, so the size is computed
        # exactly once and the LP keeps a running total instead of
        # re-summing every checkpoint on each GVT round
        self.size = self.nbytes()

    def nbytes(self) -> int:
        # the two arrays report their true buffer sizes; the agenda and
        # heap are estimated at CPython dict-entry / list-slot cost
        return (
            self.values.nbytes
            + self.pending.nbytes
            + 32 * sum(len(s) + 1 for s in self.agenda.values())
            + 8 * len(self.heap)
        )


def _msg_sort_key(m: Message) -> tuple[int, int, int]:
    return (m.recv_time, m.src_lp, m.uid)


def _send_key(m: Message) -> tuple[int, int, int]:
    return (m.send_time, m.net, m.dst_lp)


class ClusterLP:
    """One cluster LP: a gate subset with Time Warp state management.

    Parameters
    ----------
    lid:
        Dense LP id (index into the engine's LP table).
    circuit:
        The shared compiled circuit.
    gate_ids:
        The gates this LP simulates (a partition cluster).
    checkpoint_interval:
        Batches between state saves (periodic state saving).
    lazy:
        Cancellation policy for sends at/after a straggler: buffered
        for re-match (lazy) or cancelled immediately (aggressive).
    """

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

        # local net table: every net a local gate reads or drives
        out_list = circuit.gate_output_list
        local_nets: set[int] = set()
        for gid in self.gate_ids:
            local_nets.update(circuit.gate_inputs[gid])
            local_nets.add(out_list[gid])
        self._net_list = sorted(local_nets)
        self._net_loc = {n: i for i, n in enumerate(self._net_list)}

        # the gate table in local slot space (index = position in
        # gate_ids) and, beside it, each gate's global output net for
        # the message layer
        self._table = GateTable.for_gates(circuit, self.gate_ids, self._net_loc)
        self._g_out_net: list[int] = [out_list[gid] for gid in self.gate_ids]

        # locally driven nets back the last-sent-value filter: an int8
        # array (checkpointed by copy) seeded with the nets' initial
        # values, which is exactly the old dict's .get() default
        self._driven_list = sorted({n for n in self._g_out_net})
        driven_idx = {n: i for i, n in enumerate(self._driven_list)}
        self._g_pend: list[int] = [driven_idx[n] for n in self._g_out_net]
        self._pending = circuit.initial_values[self._driven_list].copy()
        self._pending_list: list[int] = self._pending.tolist()

        #: populated by the engine: driven global net id -> external
        #: reader LP ids
        self.out_dests: dict[int, tuple[int, ...]] = {}

        # dynamic state
        self.values = circuit.initial_values[self._net_list].copy()
        self._vlist: list[int] = self.values.tolist()
        self._agenda: dict[int, dict[int, int]] = {}
        self._heap: list[int] = []
        self.lvt = -1
        #: cached earliest unprocessed virtual time (None = quiescent);
        #: every queue/heap mutator refreshes it so the engine scheduler
        #: reads an attribute instead of re-deriving the minimum
        self.next_vt: int | None = None
        # vectorized-kernel counters (aggregated into RunStats)
        self.kernel_batches = 0
        self.kernel_batch_gates = 0
        self.kernel_scalar_gates = 0

        # queues and logs
        self._in_msgs: list[Message] = []
        self._in_keys: list[tuple[int, int, int]] = []  # parallel sort keys
        self._next_idx = 0
        #: live sends confirmed against the current execution history
        self._out_log: list[Message] = []
        self._batch_log: list[tuple[int, int]] = []  # (vt, gate_evals)
        #: optional committed-history oracle: (vt, global net, value)
        #: entries; rolled-back entries are rewound with the batches
        self.record_changes = record_changes
        self._change_log: list[tuple[int, int, int]] = []
        self._checkpoints: list[_Checkpoint] = []
        self._ckpt_bytes = 0
        self._fossil_floor = -1  # oldest kept restore point (vt)
        self._batches_since_ckpt = 0
        self._uid = 0
        #: live sends awaiting confirmation by re-execution, keyed by
        #: (send_time, net, dst_lp)
        self._unconfirmed: dict[tuple[int, int, int], Message] = {}
        #: anti-messages produced when a re-send superseded a buffered
        #: message with a different value; drained by flush_unconfirmed
        self._deferred_antis: list[Message] = []
        #: anti-messages that arrived before their positive twin
        #: ((uid, src_lp) -> anti); channels are FIFO per machine pair,
        #: but LP migration re-routes queued traffic and can reorder
        self._orphan_antis: dict[tuple[int, int], Message] = {}
        self._save_checkpoint()  # initial state at vt = -1

    # -- inspection -------------------------------------------------------

    def local_value(self, net: int) -> int:
        """Current local value of a global net id (must be local)."""
        return int(self.values[self._net_loc[net]])

    def has_net(self, net: int) -> bool:
        """Whether this LP holds a copy of ``net``."""
        return net in self._net_loc

    def next_pending_vt(self) -> int | None:
        """Virtual time of the earliest unprocessed work, or None."""
        return self.next_vt

    def _recompute_next_vt(self) -> None:
        """Refresh the cached :attr:`next_vt` after a queue mutation."""
        t_int: int | None = self._heap[0] if self._heap else None
        t_in: int | None = (
            self._in_msgs[self._next_idx].recv_time
            if self._next_idx < len(self._in_msgs)
            else None
        )
        if t_int is None:
            self.next_vt = t_in
        elif t_in is None:
            self.next_vt = t_int
        else:
            self.next_vt = min(t_int, t_in)

    def checkpoint_bytes(self) -> int:
        """Approximate memory held by saved states (fossil metric)."""
        return self._ckpt_bytes

    def min_unconfirmed_recv_time(self) -> int | None:
        """Earliest receive time among buffered sends and deferred
        antis — these bound GVT, since their anti-messages may still
        have to be transmitted."""
        if not self._unconfirmed and not self._deferred_antis:
            return None  # the common case: checked once per GVT round
        times = [m.recv_time for m in self._unconfirmed.values()]
        times.extend(m.recv_time for m in self._deferred_antis)
        return min(times) if times else None

    # -- message insertion --------------------------------------------------

    def insert_positive(self, msg: Message) -> RollbackResult | None:
        """Enqueue a positive message; rolls back on a straggler.

        Returns a :class:`RollbackResult` when the message's receive
        time is not after ``lvt`` (the LP had optimistically advanced
        past it), else None.  A positive whose anti-message already
        arrived (channel reordering under LP migration) annihilates on
        the spot without entering the queue.
        """
        orphan = self._orphan_antis.pop((msg.uid, msg.src_lp), None)
        if orphan is not None:
            return None  # annihilated in flight
        rollback = None
        if msg.recv_time <= self.lvt:
            rollback = self._rollback_to(msg.recv_time)
        self._insort(msg)
        return rollback

    def insert_anti(self, msg: Message) -> RollbackResult | None:
        """Process an anti-message: annihilate its positive twin.

        If the twin was already processed, first rolls back so it moves
        into the unprocessed region, then removes it.  If the twin has
        not arrived yet (channels are FIFO per machine pair, but LP
        migration re-routes queued traffic and can reorder), the anti is
        parked and annihilates the twin on arrival.
        """
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
        self._recompute_next_vt()
        return rollback

    def _insort(self, msg: Message) -> None:
        key = _msg_sort_key(msg)
        idx = bisect_right(self._in_keys, key)
        self._in_msgs.insert(idx, msg)
        self._in_keys.insert(idx, key)
        if idx < self._next_idx:  # pragma: no cover - defensive
            raise SimulationError(
                f"{self.name}: message inserted into processed region "
                f"without rollback (recv_time={msg.recv_time}, lvt={self.lvt})"
            )
        self._recompute_next_vt()

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

    # -- execution ---------------------------------------------------------

    def execute_batch(self) -> BatchResult:
        """Process every pending event at the earliest pending time.

        Mirrors one timestamp step of the sequential simulator over the
        local gate subset; returns the boundary messages to transmit
        (re-sends confirmed against the unconfirmed buffer are not
        among them — nothing needs to travel for those).
        """
        T = self.next_vt
        if T is None:
            raise SimulationError(f"{self.name}: execute_batch with no work")
        if T <= self.lvt:  # pragma: no cover - defensive
            raise SimulationError(
                f"{self.name}: batch time {T} not after lvt {self.lvt}"
            )
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

        vlist = self._vlist
        table = self._table
        old, affected, outs = step(table, self.values, vlist, changes, self)
        if self.record_changes:
            net_list = self._net_list
            self._change_log.extend((T, net_list[loc], vlist[loc]) for loc in old)

        sends: list[Message] = []
        n_evals = len(affected)
        if outs:
            g_out_slot = table.out
            g_out_net = self._g_out_net
            g_pend = self._g_pend
            pending = self._pending
            pending_list = self._pending_list
            out_dests = self.out_dests
            T1 = T + 1
            slot = self._agenda.get(T1)
            if slot is None:
                slot = self._agenda[T1] = {}
                heapq.heappush(self._heap, T1)
            for gi, new in outs:
                slot[g_out_slot[gi]] = new
                out_net = g_out_net[gi]
                dests = out_dests.get(out_net)
                pidx = g_pend[gi]
                if dests is not None and new != pending_list[pidx]:
                    pending[pidx] = new
                    pending_list[pidx] = new
                    for dst in dests:
                        msg = self._emit(T, T1, out_net, new, dst)
                        if msg is not None:
                            sends.append(msg)
        self.lvt = T
        self._batch_log.append((T, n_evals))
        self._out_log.extend(sends)
        self._batches_since_ckpt += 1
        if self._batches_since_ckpt >= self.checkpoint_interval:
            self._save_checkpoint()
        self._recompute_next_vt()
        return BatchResult(T, n_evals, sends)

    def _emit(
        self, send_time: int, recv_time: int, net: int, value: int, dst: int
    ) -> Message | None:
        """Create an outgoing message unless an identical live one is
        already at the receiver (unconfirmed-buffer match)."""
        prev = self._unconfirmed.pop((send_time, net, dst), None)
        if prev is not None:
            if prev.value == value:
                # the original is still correct: confirm it back into
                # the live log, transmit nothing
                self._out_log.append(prev)
                return None
            # superseded: the original must die before the replacement
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
        """Anti-messages for buffered sends that can no longer be
        re-issued: re-execution has advanced (or can only advance)
        beyond their send time without re-emitting them.

        ``before_vt=None`` flushes everything (used at quiescence).
        Deferred supersede-antis are always drained.
        """
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

    # -- state saving / rollback -------------------------------------------

    def _save_checkpoint(self) -> None:
        cp = _Checkpoint(
            self.lvt,
            self.values.copy(),
            {t: dict(s) for t, s in self._agenda.items()},
            list(self._heap),
            self._pending.copy(),
        )
        self._checkpoints.append(cp)
        self._ckpt_bytes += cp.size
        self._batches_since_ckpt = 0

    def _rollback_to(self, straggler_vt: int) -> RollbackResult:
        """Restore the latest checkpoint strictly before ``straggler_vt``.

        Sends after the restore point move into the unconfirmed buffer
        for re-execution to confirm or supersede; under aggressive
        cancellation the ones at/after the straggler time (which the
        straggler may genuinely invalidate) are cancelled immediately
        instead.
        """
        cp = None
        while self._checkpoints:
            cand = self._checkpoints[-1]
            if cand.vt < straggler_vt:
                cp = cand
                break
            self._ckpt_bytes -= self._checkpoints.pop().size
        if cp is None:  # pragma: no cover - fossil collection keeps one
            raise SimulationError(
                f"{self.name}: no checkpoint before t={straggler_vt} "
                f"(over-aggressive fossil collection)"
            )
        self.values = cp.values.copy()
        self._vlist = self.values.tolist()
        self._agenda = {t: dict(s) for t, s in cp.agenda.items()}
        self._heap = list(cp.heap)
        self._pending = cp.pending.copy()
        self._pending_list = self._pending.tolist()
        self.lvt = cp.vt
        self._batches_since_ckpt = 0

        # reset the input cursor to the first message after the restore point
        self._next_idx = bisect_right(self._in_keys, (cp.vt, 1 << 62, 1 << 62))
        self._recompute_next_vt()

        antis: list[Message] = []
        keep: list[Message] = []
        for msg in self._out_log:
            if msg.send_time <= cp.vt:
                keep.append(msg)  # below the restore point: untouched
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

    # -- fossil collection ---------------------------------------------------

    def fossil_collect(self, gvt: int) -> None:
        """Reclaim state older than GVT, keeping one restore point."""
        # keep the newest checkpoint with vt < gvt, drop older ones
        keep_from = 0
        for i, cp in enumerate(self._checkpoints):
            if cp.vt < gvt:
                keep_from = i
        if keep_from > 0:
            for cp in self._checkpoints[:keep_from]:
                self._ckpt_bytes -= cp.size
            del self._checkpoints[:keep_from]
        floor = self._checkpoints[0].vt
        if floor == self._fossil_floor:
            # unchanged restore point: every surviving log entry and
            # processed message already cleared this floor last round,
            # and entries added since are strictly above it
            return
        self._fossil_floor = floor
        # drop processed input messages at or before the kept restore point
        cut = bisect_right(self._in_keys, (floor, 1 << 62, 1 << 62))
        cut = min(cut, self._next_idx)
        if cut:
            del self._in_msgs[:cut]
            del self._in_keys[:cut]
            self._next_idx -= cut
        self._out_log = [m for m in self._out_log if m.send_time > floor]
        self._batch_log = [b for b in self._batch_log if b[0] > floor]
        self._recompute_next_vt()

