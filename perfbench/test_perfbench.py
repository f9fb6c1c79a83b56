"""Tests of the pipeline benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

They use the small twin of every workload (``workloads.SMOKE``), which
runs the same code path in about a second per pass.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = run.load_design()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_pass(workload: str, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declarations_agree():
    assert list(BENCHMARK["paths"]) == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert list(DESIGN["workloads"]) == list(WORKLOADS) == list(SMOKE)
    for key in ("end_to_end", "per_layer"):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in BENCHMARK[key]}
        designed = {name: (m["unit"], m["better"])
                    for name, m in DESIGN[key].items()}
        assert declared == designed, key


def test_metric_names_and_units():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in BENCHMARK[key]] + [w["name"]
                                         for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for key in ("end_to_end", "per_layer"):
        for m in BENCHMARK[key]:
            assert NAME.match(m["name"]), m["name"]
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("higher", "lower"), m
    for m in BENCHMARK["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    for name, spec in DESIGN["per_layer"].items():
        for w in spec["on"] + spec.get("bypassed_by", []):
            assert w in WORKLOADS, (name, w)


@pytest.mark.parametrize("workload", list(SMOKE))
def test_smoke_run_reports_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(SMOKE))
def test_deterministic_metrics_repeat(workload):
    a, b = smoke_pass(workload), smoke_pass(workload)
    assert a["failures"] == b["failures"] == []
    assert a["digest"] == b["digest"]
    assert a["end_to_end"]["cut"] == b["end_to_end"]["cut"]
    assert a["end_to_end"].get("modeled_speedup") == \
        b["end_to_end"].get("modeled_speedup")
    counts = [name for name, m in DESIGN["per_layer"].items()
              if m["unit"] in ("count", "bytes", "ratio", "moves/pass", "x")
              and not name.startswith("obs.")]
    assert {n: a["layers"][n] for n in counts if n in a["layers"]} == \
        {n: b["layers"][n] for n in counts if n in b["layers"]}


def test_layer_accounting_sums_to_run():
    rec = smoke_pass("psim-paper")
    run_s = rec["end_to_end"]["run_s"]
    layers = sum(rec["layers"][f"{n}_s"] for n in child.RUN_LAYERS)
    assert layers + rec["layers"]["obs.unattributed_s"] == \
        pytest.approx(run_s, abs=1e-9)


@pytest.fixture(scope="module")
def psim_smoke():
    """A real smoke psim result and its independent check hypergraph."""
    from repro.circuits import load_circuit
    from repro.core import design_driven_partition
    from repro.hypergraph import flat_hypergraph

    w = SMOKE["psim-rollback"]
    netlist = load_circuit(w.circuit)
    part = design_driven_partition(netlist, k=w.k, b=w.b)
    return w, flat_hypergraph(netlist), part


def test_honest_output_passes(psim_smoke):
    w, hg, part = psim_smoke
    assert child.check_outputs(w, hg, part.gate_assignment(), part.cut_size,
                               True, messages=5, rollbacks=5) == []


def test_corrupted_assignment_fails(psim_smoke):
    w, hg, part = psim_smoke
    bad = part.gate_assignment().copy()
    bad[: len(bad) // 2] = 0  # breaks balance and changes the cut
    failures = child.check_outputs(w, hg, bad, part.cut_size, True,
                                   messages=5, rollbacks=5)
    assert any("balance" in f for f in failures)
    assert any("recomputed cut" in f for f in failures)


def test_wrong_reported_cut_fails(psim_smoke):
    w, hg, part = psim_smoke
    failures = child.check_outputs(w, hg, part.gate_assignment(),
                                   part.cut_size + 1, True, messages=5,
                                   rollbacks=5)
    assert failures == [f"recomputed cut {part.cut_size} != reported "
                        f"{part.cut_size + 1}"]


def test_unverified_simulation_fails(psim_smoke):
    w, hg, part = psim_smoke
    failures = child.check_outputs(w, hg, part.gate_assignment(),
                                   part.cut_size, False, messages=5,
                                   rollbacks=5)
    assert len(failures) == 1 and "not verified" in failures[0]


def test_workload_guards_fail(psim_smoke):
    w, hg, part = psim_smoke
    failures = child.check_outputs(w, hg, part.gate_assignment(),
                                   part.cut_size, True, messages=0,
                                   rollbacks=0)
    assert len(failures) == 2
    assert all(f.startswith("workload guard") for f in failures)
    failures = child.check_outputs(
        replace(w, min_edge_pins=10**6), hg, part.gate_assignment(),
        part.cut_size, True, messages=5, rollbacks=5)
    assert len(failures) == 1 and "largest net" in failures[0]


def test_digest_mismatch_counts_as_failure():
    records = [{"digest": "a", "failures": []}, {"digest": "b",
                                                 "failures": []},
               {"digest": "a", "failures": []}]
    run.check_digests(records)
    assert [bool(r["failures"]) for r in records] == [False, True, False]
    assert child.assignment_digest(np.array([0, 1])) != \
        child.assignment_digest(np.array([1, 0]))


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "psim-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
