"""Time Warp ready-heap scheduler: audit, growth guard and oracle parity.

The engine keeps one lazy ``(next_vt, lid)`` min-heap per machine (and
a global one in conservative mode) and drops an entry for good once it
no longer matches its LP.  That is sound only if every change to an
LP's ``next_vt`` pushes a fresh entry; these tests check that
invariant after every driver step, bound the heaps' size, and compare
whole runs against :class:`repro.bench.sim_speed.LegacyTimeWarpEngine`,
the retained scheduler that re-pushes stale entries instead.
"""

import pytest

from repro.bench.sim_speed import LegacyTimeWarpEngine
from repro.circuits import random_vectors
from repro.core import design_driven_partition
from repro.sim import ClusterSpec, TimeWarpConfig, TimeWarpEngine
from repro.sim.lp import ClusterLP

#: heap entries allowed per hosted LP before the guard trips
MAX_ENTRIES_PER_LP = 4


class OracleEngine(LegacyTimeWarpEngine):
    """The old re-pushing scheduler over the production LP, so that
    only the scheduling methods differ from :class:`TimeWarpEngine`."""

    lp_class = ClusterLP


class AuditedEngine(TimeWarpEngine):
    """Checks the scheduler invariant at the start of every driver step
    (each step begins with a machine pick) and records heap peaks."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.audits = 0
        self.peak_ratio = 0.0

    def _pick_machine(self):
        self._audit()
        return super()._pick_machine()

    def _audit(self) -> None:
        self.audits += 1
        global_live = set(self._global_ready)
        for m in self.machines:
            live = set(m.ready)
            for lid in m.lp_ids:
                vt = self.lps[lid].next_vt
                if vt is None:
                    continue
                assert (vt, lid) in live, (
                    f"LP {lid} (next_vt={vt}) has no entry on machine {m.mid}")
                if self._conservative:
                    assert (vt, lid) in global_live, (
                        f"LP {lid} (next_vt={vt}) missing from the global heap")
            hosted = max(len(m.lp_ids), 1)
            assert len(m.ready) <= MAX_ENTRIES_PER_LP * hosted, (
                f"machine {m.mid}: {len(m.ready)} heap entries "
                f"for {hosted} LPs")
            self.peak_ratio = max(self.peak_ratio, len(m.ready) / hosted)
        assert len(self._global_ready) <= MAX_ENTRIES_PER_LP * len(self.lps)


@pytest.fixture(scope="module")
def events(viterbi_test):
    return random_vectors(viterbi_test, 12, seed=5)


def _partition(netlist, k):
    clusters, lp_machine = design_driven_partition(
        netlist, k, 10.0, seed=1).to_simulation()
    return clusters, lp_machine


def _run(engine_cls, circuit, clusters, lp_machine, events, config):
    spec = ClusterSpec(num_machines=max(lp_machine) + 1)
    eng = engine_cls(circuit, clusters, lp_machine, spec, config)
    eng.load_inputs(events)
    stats = eng.run()
    return eng, stats


CONFIGS = {
    "lazy": TimeWarpConfig(gvt_interval=32),
    "aggressive": TimeWarpConfig(gvt_interval=32, lazy_cancellation=False,
                                 optimism_window=64),
    "conservative": TimeWarpConfig(gvt_interval=32, conservative=True),
    "migration": TimeWarpConfig(gvt_interval=16, migration=True,
                                migration_threshold=0.1,
                                migration_cooldown=0),
}


class TestOracleParity:
    """Same run, statistic for statistic, as the re-pushing scheduler."""

    def _assert_same(self, circuit, clusters, lp_machine, events, config):
        new, new_stats = _run(TimeWarpEngine, circuit, clusters, lp_machine,
                              events, config)
        old, old_stats = _run(OracleEngine, circuit, clusters, lp_machine,
                              events, config)
        assert new_stats.to_dict() == old_stats.to_dict()
        assert new.final_net_values() == old.final_net_values()
        return new_stats

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_design_partition(self, viterbi_test, viterbi_test_circuit,
                              events, k, mode):
        clusters, lp_machine = _partition(viterbi_test, k)
        stats = self._assert_same(viterbi_test_circuit, clusters, lp_machine,
                                  events, CONFIGS[mode])
        assert stats.committed_events > 0
        if mode == "conservative":
            assert stats.rollbacks == 0
        if mode == "migration":
            assert stats.migrations > 0  # moves leave stale entries behind

    @pytest.mark.parametrize("mode", ["lazy", "aggressive"])
    def test_gate_per_lp(self, viterbi_test_circuit, events, mode):
        # hundreds of single-gate LPs per machine
        n = viterbi_test_circuit.num_gates
        clusters = [[g] for g in range(n)]
        lp_machine = [g % 2 for g in range(n)]
        self._assert_same(viterbi_test_circuit, clusters, lp_machine,
                          events, CONFIGS[mode])


class TestAudit:
    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_invariant_and_growth(self, viterbi_test, viterbi_test_circuit,
                                  events, mode):
        # the re-pushing scheduler keeps every stale copy: 127-155
        # entries on one machine for these 16 LPs (16-20 per LP)
        clusters, lp_machine = _partition(viterbi_test, 2)
        eng, stats = _run(AuditedEngine, viterbi_test_circuit, clusters,
                          lp_machine, events, CONFIGS[mode])
        assert eng.audits > stats.gvt_rounds
        assert 0 < eng.peak_ratio <= MAX_ENTRIES_PER_LP

    def test_gate_per_lp_growth(self, viterbi_test_circuit, events):
        n = viterbi_test_circuit.num_gates
        clusters = [[g] for g in range(n)]
        lp_machine = [g % 2 for g in range(n)]
        eng, _ = _run(AuditedEngine, viterbi_test_circuit, clusters,
                      lp_machine, events, CONFIGS["lazy"])
        assert 0 < eng.peak_ratio <= MAX_ENTRIES_PER_LP
