"""The benchmark's four workloads, written against the public API only.

Each workload drives registered scenarios exactly as a user would
(``get_scenario(...).run`` in ``RUNNERS``, ``run_sweep`` in
:func:`run_sweep_grid`) and returns the per-cell results whose canonical
hash is the workload's fingerprint.  ``inputs(name, seed)`` turns the
benchmark seed into the workload's concrete inputs; it runs in the
parent process, so a sample process receives only the generated inputs.

Why these four (see LAYERS.md for the layer each one stresses):

* ``websearch`` — the Fig. 6b PowerTCP cell at 60 % load on the
  fat-tree: multi-path ECMP, INT at every hop, 500 flow set-ups.  The
  paper's headline number and the egress port's heaviest use.
* ``incast``    — the Fig. 4 grid, five CC laws x fan-in {10, 255} on the
  dumbbell: single path (routing idle), deep bottleneck queue, drops and
  go-back-N recovery on the 255:1 cells, CNPs and pacing from DCQCN and
  TIMELY.
* ``rdcn``      — Fig. 8 cells (PowerTCP, reTCP with the 600 us
  prebuffer) on the rotating circuit: ``CircuitPort``/``RdcnToR`` paths
  instead of the class-swapped ``_HeapPort``/``_EcmpSwitch``.
* ``sweep``     — a 5-law x 2-load grid of short web-search cells through
  ``run_sweep(jobs=2)``, persisted like ``repro sweep``: the execution
  layer (process pool, pickling, persistence).

Seeds.  ``incast`` and ``rdcn`` are seed-free: their only randomness is
each port's ECN RNG, seeded by the port's name.  ``websearch`` passes a
cell seed to ``WebsearchConfig.seed``; ``sweep`` passes a base seed to
``SweepSpec.seed``.  Web-search flow sizes are heavy-tailed, so the
offered bytes of a 500-flow draw vary by about 13 % (coefficient of
variation) from seed to seed, and host time follows them.  To keep
``wall_s`` comparable across seeds, the benchmark seed picks the first
candidate seed whose offered bytes lie within ``VOLUME_TOLERANCE`` of
the default seed's; the candidates are the benchmark seed itself and
then a fixed pseudo-random sequence derived from it.  Flow sizes,
arrival times and host pairs still change with the seed; only the total
volume is held.
"""

from __future__ import annotations

import os
import random
import tempfile
from typing import Any, Callable, Dict, List

from repro.experiments.rdcn import scaled_prebuffer_ns, scaled_rdcn
from repro.experiments.websearch import scaled_fattree
from repro.scenarios import get_scenario
from repro.scenarios.sweep import SweepSpec, cell_overrides, expand_cells, run_sweep
from repro.units import GBPS, MSEC, USEC
from repro.workloads.arrivals import poisson_flows
from repro.workloads.distributions import WEB_SEARCH

#: the seed the committed reference fingerprints are for
DEFAULT_SEED = 1

#: offered-bytes window a seed's draw must fall in (share of the default)
VOLUME_TOLERANCE = 0.01

#: candidate seeds tried before giving up on the volume window
MAX_CANDIDATES = 5000

#: Fig. 6b cell (benchmarks/test_fig6_fct.py), PowerTCP at 60 % load
WEBSEARCH = dict(
    algorithm="powertcp",
    load=0.6,
    duration_ns=25 * MSEC,
    drain_ns=40 * MSEC,
    size_scale=1 / 16,
    max_flows=500,
)

#: Fig. 4 grid: the five window/rate laws x {10:1, 255:1} incast
INCAST_LAWS = ("powertcp", "theta-powertcp", "hpcc", "timely", "dcqcn")
INCAST_FANINS = (
    dict(fanout=10, burst_bytes=200_000, duration_ns=4 * MSEC),
    dict(fanout=255, burst_bytes=20_000, duration_ns=16 * MSEC),
)

#: Fig. 8 cells at the paper's 25 Gbps packet network
RDCN_DURATION_NS = 8 * MSEC
RDCN_PAPER_PREBUFFER_NS = 600 * USEC

#: short multi-CC web-search cells fanned over two worker processes
SWEEP_JOBS = 2
SWEEP_GRID = {
    "algorithm": ["powertcp", "theta-powertcp", "hpcc", "timely", "dcqcn"],
    "load": [0.4, 0.6],
}
SWEEP_BASE = dict(
    duration_ns=5 * MSEC, drain_ns=20 * MSEC, size_scale=1 / 16, max_flows=60
)


def _offered_bytes(overrides: Dict[str, Any]) -> int:
    """Total flow bytes ``run_websearch`` will draw for ``overrides``.

    Repeats the scenario's own arrival draw (``poisson_flows`` over a
    ``random.Random(seed)``) without simulating anything."""
    params = scaled_fattree()
    distribution = WEB_SEARCH.scaled(overrides["size_scale"])
    requests = poisson_flows(
        random.Random(overrides["seed"]),
        params,
        distribution,
        overrides["load"],
        overrides["duration_ns"],
        max_flows=overrides["max_flows"],
    )
    return sum(r.size_bytes for r in requests)


def _sweep_offered_bytes(seed: int) -> int:
    spec = SweepSpec(
        scenario="websearch", grid=SWEEP_GRID, base=SWEEP_BASE, seed=seed
    )
    return sum(
        _offered_bytes(cell_overrides(spec, params))
        for params in expand_cells(spec)
    )


def _volume_matched(seed: int, volume: Callable[[int], int], label: str) -> int:
    """First candidate seed whose offered bytes match the default's."""
    target = volume(DEFAULT_SEED)
    rng = random.Random(f"perfbench-{label}-{seed}")
    candidate = seed
    for _ in range(MAX_CANDIDATES):
        if abs(volume(candidate) / target - 1.0) <= VOLUME_TOLERANCE:
            return candidate
        candidate = rng.randrange(1, 2**31)
    raise RuntimeError(
        f"{label}: no candidate seed within {VOLUME_TOLERANCE:.0%} of the "
        f"default offered volume after {MAX_CANDIDATES} tries (seed {seed})"
    )


def inputs(name: str, seed: int) -> Dict[str, Any]:
    """The concrete inputs of workload ``name`` for benchmark seed ``seed``."""
    if name == "websearch":
        return {
            "seed": _volume_matched(
                seed, lambda s: _offered_bytes(dict(WEBSEARCH, seed=s)), name
            )
        }
    if name == "sweep":
        return {"seed": _volume_matched(seed, _sweep_offered_bytes, name)}
    if name in ("incast", "rdcn"):
        return {}
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def _cell(result) -> Dict[str, Any]:
    return {
        "metrics": result.metrics,
        "series": result.series,
        "events_processed": result.provenance.get("events_processed"),
    }


def run_websearch(inp: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [_cell(get_scenario("websearch").run(**WEBSEARCH, seed=inp["seed"]))]


def run_incast(inp: Dict[str, Any]) -> List[Dict[str, Any]]:
    scenario = get_scenario("incast")
    return [
        _cell(scenario.run(algorithm=law, **fanin))
        for fanin in INCAST_FANINS
        for law in INCAST_LAWS
    ]


def run_rdcn(inp: Dict[str, Any]) -> List[Dict[str, Any]]:
    scenario = get_scenario("rdcn")
    params = scaled_rdcn(packet_bw_bps=25 * GBPS)
    prebuffer = scaled_prebuffer_ns(params, RDCN_PAPER_PREBUFFER_NS)
    return [
        _cell(scenario.run(
            algorithm="powertcp", duration_ns=RDCN_DURATION_NS, params=params
        )),
        _cell(scenario.run(
            algorithm="retcp",
            prebuffer_ns=prebuffer,
            duration_ns=RDCN_DURATION_NS,
            params=params,
        )),
    ]


def run_sweep_grid(
    inp: Dict[str, Any], scratch_dir: str, on_result: Callable
) -> List[Dict[str, Any]]:
    """The grid through ``run_sweep``, persisted under ``scratch_dir``.

    ``on_result`` sees the :class:`SweepResult` before it is persisted
    (the sample folds the workers' layer counts in there)."""
    result = run_sweep(
        "websearch",
        grid=SWEEP_GRID,
        base=SWEEP_BASE,
        seed=inp["seed"],
        jobs=SWEEP_JOBS,
    )
    on_result(result)
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        result.persist(os.path.join(tmp, "websearch_sweep.json"))
    return [_cell(cell.result) for cell in result.cells]


#: in-process workloads; ``sweep`` is driven by :func:`run_sweep_grid`
RUNNERS = {"websearch": run_websearch, "incast": run_incast, "rdcn": run_rdcn}

WORKLOADS = ("websearch", "incast", "rdcn", "sweep")
