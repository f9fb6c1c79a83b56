"""Pipeline benchmark: one workload per run, from circuit to verified result.

Run from the repository root::

    python3 perfbench/run.py --workload psim-paper --seed 1 --seconds 20 \
        --trace 0

A run starts passes of the workload one after another, each in a fresh
interpreter (``child.py``), until ``--seconds`` have gone by; at least
one pass always runs, and every metric, set-up time included, is the
median over the passes.  Every pass is a closed loop of one client: the
next pass starts when the previous one has ended.  Each pass builds its
inputs from ``--seed``, runs the program, and checks its outputs
(Formula 1 balance, the cut recomputed from the gate assignment, Time
Warp verified against the sequential oracle, and the workload guards);
the run also checks that every pass of the same seed produced the same
assignment digest.  A pass that fails a check counts in ``failed`` and
the run goes on.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's passes.  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics of the traced one, the tracing overhead
(traced minus untraced ``run_s``) and the part of ``run_s`` no layer
span covers; its spans are written to ``.perfbench/`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric
declarations and the layer -> end-to-end -> workload map are in
``design.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: a run must end within 180 s; no pass starts that is unlikely to
#: finish before this many seconds
DEADLINE_S = 170.0
TRACE_DIR = ".perfbench"
#: end-to-end quantities only the psim workloads have; the JSON line of
#: a --trace 0 run carries the metrics every workload has, so these are
#: printed there and reported as per-layer metrics of the trace run
#: (taken from its untraced pass)
SIM_METRICS = ("sim_s", "tw_events_per_s", "modeled_speedup")


def load_design() -> dict:
    with open(HERE / "design.json") as fh:
        return json.load(fh)


def start_pass(root: Path, workload: str, seed: int, trace: bool,
               run_id: str, timeout: float, smoke: bool) -> dict:
    """One pass in a fresh interpreter; returns its record.

    A pass that crashes, prints no record or outlives ``timeout`` comes
    back as a record whose only content is the failure.
    """
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--run-id", run_id]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0),
                              check=False)
    except subprocess.TimeoutExpired:
        return {"failures": [f"pass exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"failures": [f"pass exited {proc.returncode}: "
                             + " | ".join(tail)]}
    return json.loads(lines[-1])


def check_digests(records: list[dict]) -> None:
    """Every pass of one seed must produce the same assignment."""
    digests = [r["digest"] for r in records if "digest" in r]
    for r in records:
        if "digest" in r and r["digest"] != digests[0]:
            r["failures"].append("assignment digest differs from the "
                                 "run's first pass of the same seed")


def summarize(values: list[float]) -> tuple[float, float, int]:
    """(median, highest percentile the count supports, count).

    With under ten samples beyond any percentile but the maximum, the
    maximum is the highest one that can be stated.
    """
    return statistics.median(values), max(values), len(values)


def layer_metrics(untraced: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of a trace run: the traced pass's layer values
    plus overhead and unattributed time as seconds and as shares."""
    layers = dict(traced["layers"])
    run_traced = traced["end_to_end"]["run_s"]
    run_untraced = untraced["end_to_end"]["run_s"]
    layers["obs.trace_overhead_s"] = run_traced - run_untraced
    layers["obs.trace_overhead_share"] = (
        layers["obs.trace_overhead_s"] / run_untraced)
    layers["obs.unattributed_share"] = (
        layers["obs.unattributed_s"] / run_traced)
    for name in SIM_METRICS:
        layers[name] = untraced["end_to_end"].get(name, 0.0)
    return layers


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small twin of the workload (the benchmark's tests)")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {root / 'src'}; run from "
              "the repository root", file=sys.stderr)
        return 2
    if "REPRO_WORKERS" in os.environ:
        print("error: REPRO_WORKERS is set; the benchmark measures the "
              "program's default worker policy", file=sys.stderr)
        return 2
    design = load_design()
    if args.workload not in design["workloads"]:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(design['workloads'])}")

    run_id = uuid.uuid4().hex
    began = time.monotonic()
    records: list[dict] = []
    if args.trace:
        for traced in (False, True):
            left = DEADLINE_S - (time.monotonic() - began)
            records.append(start_pass(root, args.workload, args.seed, traced,
                                      run_id, left, args.smoke))
    else:
        while True:
            t = time.monotonic()
            records.append(start_pass(
                root, args.workload, args.seed, False, run_id,
                DEADLINE_S - (t - began), args.smoke))
            now = time.monotonic()
            if now - began >= args.seconds or \
                    now - began + (now - t) > DEADLINE_S:
                break
    check_digests(records)
    wall = time.monotonic() - began

    measured = [r for r in records if "end_to_end" in r]
    attempted = len(records)
    failed = sum(1 for r in records if r["failures"])
    for r in records:
        for failure in r["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
    if not measured or (args.trace and len(measured) < 2):
        print("error: no pass produced measurements", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {attempted} pass(es) "
          f"in {wall:.1f} s; nproc {os.cpu_count()}, REPRO_WORKERS unset, "
          f"run id {run_id}")
    metrics: dict[str, dict] = {}
    if args.trace:
        untraced, traced = records
        layers = layer_metrics(untraced, traced)
        for name, spec in design["per_layer"].items():
            metrics[name] = {"value": layers[name], "unit": spec["unit"]}
            print(f"  {name:<28} {layers[name]:>14.6g} {spec['unit']}")
        print(f"  unattributed {layers['obs.unattributed_s']:.6g} s = "
              f"{layers['obs.unattributed_share']:.3%} of the traced pass's "
              f"run_s {traced['end_to_end']['run_s']:.6g} s; tracing "
              f"overhead {layers['obs.trace_overhead_s']:.6g} s = "
              f"{layers['obs.trace_overhead_share']:.3%} of the untraced "
              f"pass's run_s {untraced['end_to_end']['run_s']:.6g} s")
        trace_dir = root / TRACE_DIR
        trace_dir.mkdir(exist_ok=True)
        out = trace_dir / f"spans-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"run_id": run_id,
                                   "spans": traced["spans"]}, indent=1))
        print(f"  spans written to {out.relative_to(root)}")
    else:
        for name, spec in design["end_to_end"].items():
            med, top, n = summarize([r["end_to_end"][name]
                                     for r in measured])
            metrics[name] = {"value": med, "unit": spec["unit"]}
            print(f"  {name:<14} {med:>14.6g} {spec['unit']:<10} "
                  f"(median; max {top:.6g}; n={n})")
        for name in SIM_METRICS:
            values = [r["end_to_end"][name] for r in measured
                      if name in r["end_to_end"]]
            if values:
                med, top, n = summarize(values)
                unit = design["per_layer"][name]["unit"]
                print(f"  {name:<14} {med:>14.6g} {unit:<10} "
                      f"(median; max {top:.6g}; n={n}; not in the JSON "
                      "line: ml workloads have no simulation)")
    print(f"  {'failure_rate':<14} {failed / attempted:>14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
