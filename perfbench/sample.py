"""One benchmark sample: run a workload once in this fresh process.

Usage (``run.py`` spawns this; the repository's ``src`` must be on
``PYTHONPATH``)::

    python3 perfbench/sample.py WORKLOAD INPUTS_JSON --mode light|traced \\
        --spawned-at MONOTONIC_S --scratch DIR [--tx-batch-limit N]

Prints one JSON record as its last stdout line: raw wall and set-up
seconds, the reference kernel's seconds timed right after the workload
(refkernel.py), peak RSS, the results fingerprint, the engine identity
and, in traced mode, the per-layer numbers.  ``--tx-batch-limit`` runs the workload
under ``engine_defaults(tx_batch_limit=N)``; the self-test uses it to
show that the fidelity gate rejects the batched engine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time

# Imports are set-up, not workload: they count in setup_s only.
from repro.sim import compiled_available, compiled_error, engine_defaults
from refkernel import kernel_seconds
from tracer import POOL_ALLOCATORS, PROVENANCE_KEY, Tracer
from workloads import RUNNERS, SWEEP_JOBS, run_sweep_grid


def fingerprint(cells) -> str:
    """Canonical hash of every cell's metrics, series and event count."""
    blob = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb(include_children: bool, jobs: int) -> float:
    """Max RSS of this process; with ``include_children``, plus ``jobs``
    times the largest reaped child (the pool's workers run concurrently,
    so this bounds their joint peak from above)."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss_kb += jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss_kb / 1024.0


def layer_metrics(tracer) -> dict:
    """The traced per-layer numbers (``engine.run_s``/``ns_per_event`` and
    ``sweep.*`` come from the untraced sample; see run.py)."""
    totals = tracer.layer_totals()
    entries = tracer.entries
    counters = tracer.counters

    def calls(key):
        return entries[key][1] if key in entries else 0

    def incl(layer):
        return totals[layer]["incl_s"]

    allocs = sum(calls(f"PacketPool.{name}") for name in POOL_ALLOCATORS)
    misses = counters.get("pool.misses", 0)
    metrics = {
        "engine.events": counters.get("engine.events", 0),
        "engine.self_s": totals["engine"]["self_s"],
    }
    for layer in ("port", "circuit", "switch", "transport", "cc", "pool"):
        metrics[f"{layer}.calls"] = totals[layer]["calls"]
        metrics[f"{layer}.self_s"] = totals[layer]["self_s"]
    metrics.update({
        "port.drops": counters.get("port.drops", 0),
        "port.ecn_marks": counters.get("port.ecn_marks", 0),
        "port.max_qlen_bytes": tracer.max_qlen_bytes,
        "routing.select_calls": counters.get("routing.select_calls", 0),
        "transport.retransmits": counters.get("transport.retransmits", 0),
        "transport.flows": counters.get("transport.flows", 0),
        "pool.reuse_ratio": (allocs - misses) / allocs if allocs else 0.0,
        "topology.build_s": incl("topology"),
        "driver.start_flow_calls": calls("FlowDriver.start_flow"),
        "driver.start_flow_s": (
            entries["FlowDriver.start_flow"][2]
            if "FlowDriver.start_flow" in entries else 0.0
        ),
        "analysis.collect_s": incl("analysis"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("inputs", help="JSON object from workloads.inputs()")
    parser.add_argument("--mode", choices=("light", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--tx-batch-limit", type=int, default=None)
    args = parser.parse_args(argv)

    tracer = Tracer(light=args.mode == "light").install()
    inp = json.loads(args.inputs)
    engine = (
        engine_defaults(tx_batch_limit=args.tx_batch_limit)
        if args.tx_batch_limit is not None
        else contextlib.nullcontext()
    )
    sweep_cells = []

    def fold_workers(result):
        for cell in result.cells:
            delta = cell.result.provenance.pop(PROVENANCE_KEY, None)
            if delta is not None:
                tracer.merge(delta)
            sweep_cells.append(cell.result.provenance["wall_time_s"])

    is_sweep = args.workload == "sweep"
    with engine:
        start = time.monotonic()
        if is_sweep:
            cells = run_sweep_grid(inp, args.scratch, fold_workers)
        else:
            cells = RUNNERS[args.workload](inp)
        wall_s = time.monotonic() - start

    set_up_until = tracer.first_entry["sweep" if is_sweep else "engine"]
    record = {
        "workload": args.workload,
        "mode": args.mode,
        "wall_s": wall_s,
        "setup_s": set_up_until - args.spawned_at,
        "kernel_s": kernel_seconds(wall_s),
        "peak_rss_mb": peak_rss_mb(is_sweep, SWEEP_JOBS),
        "fingerprint": fingerprint(cells),
        "engine": {
            "schedulers": sorted(
                f"{scheduler}/tx_batch_limit={limit}"
                for scheduler, limit in tracer.engines
            ),
            "compiled_loaded": compiled_available(),
            "compiled_error": compiled_error(),
        },
        "engine_run_s": tracer.entries["Simulator.run"][2],
        "engine_events": tracer.counters.get("engine.events", 0),
    }
    if is_sweep:
        record["sweep"] = {
            "cells": len(sweep_cells),
            "cell_s_max": max(sweep_cells),
            "cell_s_sum": sum(sweep_cells),
            "jobs": SWEEP_JOBS,
        }
    if args.mode == "traced":
        record["layers"] = layer_metrics(tracer)
        record["calibration"] = {"inner_s": tracer.inner, "outer_s": tracer.outer}
        record["entries"] = {
            key: {"layer": layer, "calls": calls, "incl_s": incl, "self_s": self_s}
            for key, (layer, calls, incl, self_s, _children) in sorted(
                tracer.entries.items()
            )
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
