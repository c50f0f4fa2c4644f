"""Per-layer accounting by wrapping layer entry points from outside ``src/``.

A :class:`Tracer` replaces methods on the simulator's concrete classes
with timing wrappers.  It must be installed before any topology is
built: ``EgressPort.__new__`` and ``Switch.__new__`` class-swap to
``_HeapPort``/``_EcmpSwitch``, and ports cache bound methods
(``_finish_cb``, ``_deliver``) at construction, so every concrete class
gets its own wrapper and a wrapper installed later would be bypassed.

Accounting is online: each wrapper owns one stats record (calls,
inclusive seconds, self seconds, direct child spans) and updates it on
return; nothing is stored per call.  A call into a layer from the same
layer (``Host.receive`` -> ``Sender.on_packet``) passes straight through,
so a layer's ``calls`` counts entries from other layers and its time is
one span.  Self time is a span minus its wrapped children.  The engine
span is ``Simulator.run``; its self time is the residual: event dispatch
plus every callback no layer claims (probes, driver completions).

The wrappers' own cost is measured once per process (:meth:`calibrate`)
and removed from the self times: ``inner`` seconds per call land inside
the callee's window, ``outer`` seconds per child call land in the
caller's.  The hot calibration loop underestimates the cost in a real
run, so run.py rescales the in-run self times to the untraced run time.

``light=True`` installs only the engine hook (first ``Simulator.run``
entry, engine identity, run time, events) and the per-cell harvest, which
cost one wrapper call per ``run()``; untraced samples use it for
``setup_s`` and engine identity.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.cc.base import CongestionControl
from repro.cc.registry import get_algorithm, load_builtin_algorithms
from repro.experiments.driver import FlowDriver
from repro.routing.base import RoutingPolicy
from repro.routing.registry import load_builtin_policies
from repro.scenarios.registry import SCENARIOS, load_builtin_scenarios
from repro.scenarios.sweep import SweepRunner
from repro.sim import EgressPort, Host, Packet, PacketPool, Simulator, Switch
from repro.sim.circuit import CircuitPort, RotorController
from repro.topology.rdcn import RdcnToR
from repro.topology.registry import RegisteredTopology, load_builtin_topologies
from repro.transport.receiver import Receiver
from repro.transport.sender import Sender

#: layers in report order
LAYERS = (
    "engine", "port", "circuit", "switch", "transport", "cc", "pool",
    "topology", "driver", "analysis", "sweep",
)

#: the layers whose spans partition ``Simulator.run``; the others run
#: before or after it (set-up and collection)
IN_RUN_LAYERS = LAYERS[:7]

#: provenance key carrying a worker process's per-cell layer delta
PROVENANCE_KEY = "perfbench_trace"

CC_HOOKS = ("on_start", "on_ack", "on_cnp", "on_loss", "on_timeout")
TRANSPORT_HOOKS = ("start", "on_packet", "_pace_fire", "_rto_fire")
POOL_HOOKS = (
    "data", "ack", "cnp", "grant", "hop", "recycle_hop",
    "release", "release_with_hops",
)
POOL_ALLOCATORS = ("data", "ack", "cnp", "grant")


def _subclasses(root: type) -> List[type]:
    """``root`` and every subclass, parents before children."""
    seen, order, todo = set(), [], [root]
    while todo:
        cls = todo.pop(0)
        if cls in seen:
            continue
        seen.add(cls)
        order.append(cls)
        todo.extend(sorted(cls.__subclasses__(), key=lambda c: c.__qualname__))
    return order


def _original(cls: type, name: str) -> Optional[Callable]:
    """The unwrapped function ``cls.name`` resolves to, or None."""
    for klass in cls.__mro__:
        if name in klass.__dict__:
            fn = klass.__dict__[name]
            return inspect.unwrap(fn) if inspect.isfunction(fn) else None
    return None


class Tracer:
    """Online per-layer counters and timers for one sample process."""

    def __init__(self, light: bool = False):
        self.light = light
        self.pid = os.getpid()
        #: open spans: [layer, child seconds, child span count]
        self.stack: List[list] = []
        #: entry key -> [layer, calls, inclusive s, self s, child spans]
        self.entries: Dict[str, list] = {}
        self.counters: Dict[str, int] = defaultdict(int)
        self.max_qlen_bytes = 0
        #: (scheduler, tx_batch_limit) of every simulator that ran
        self.engines = set()
        #: layer -> monotonic time of its first entry ("engine": the first
        #: ``Simulator.run``, "sweep": ``SweepRunner.run``)
        self.first_entry: Dict[str, float] = {}
        self._ports: List[Any] = []
        self._senders: List[Any] = []
        self.inner = 0.0
        self.outer = 0.0

    # -- wrappers ------------------------------------------------------
    def _span(self, layer: str, key: str, fn: Callable) -> Callable:
        stats = self.entries.setdefault(key, [layer, 0, 0.0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[1] += 1
                stats[2] += elapsed
                stats[3] += elapsed - frame[1]
                stats[4] += frame[2]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent[2] += 1

        return wrapper

    def _count(self, key: str, fn: Callable, when_in: Optional[str] = None):
        counters = self.counters
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when_in is None or (stack and stack[-1][0] == when_in):
                counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _collect(self, bucket: List[Any], fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            bucket.append(obj)
            return fn(obj, *args, **kwargs)

        return wrapper

    def _engine(self, fn: Callable) -> Callable:
        span = self._span("engine", "Simulator.run", fn)
        counters = self.counters
        engines = self.engines

        @functools.wraps(fn)
        def run(sim, *args, **kwargs):
            self.first_entry.setdefault("engine", time.monotonic())
            engines.add((sim.scheduler, sim.tx_batch_limit))
            processed = span(sim, *args, **kwargs)
            counters["engine.events"] += processed
            return processed

        return run

    def _sweep(self, fn: Callable) -> Callable:
        span = self._span("sweep", "SweepRunner.run", fn)

        @functools.wraps(fn)
        def run(*args, **kwargs):
            self.first_entry.setdefault("sweep", time.monotonic())
            return span(*args, **kwargs)

        return run

    def _harvest(self, fn: Callable) -> Callable:
        """Per-cell fold of instance counters; in a worker process also
        ships the cell's layer delta home through its provenance."""

        @functools.wraps(fn)
        def run(scenario, *args, **kwargs):
            worker = os.getpid() != self.pid
            if worker:
                self.stack.clear()
                before = self.snapshot()
            result = fn(scenario, *args, **kwargs)
            self._fold_instances()
            if worker:
                result.provenance[PROVENANCE_KEY] = _delta(self.snapshot(), before)
            return result

        return run

    def _wrap(self, cls: type, name: str, make: Callable[[Callable], Callable]):
        fn = _original(cls, name)
        if fn is not None:
            setattr(cls, name, make(fn))

    # -- installation --------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every layer entry point (engine + harvest only when light)."""
        load_builtin_scenarios()
        load_builtin_algorithms()
        load_builtin_topologies()
        load_builtin_policies()
        self._wrap(Simulator, "run", self._engine)
        self._wrap(SweepRunner, "run", self._sweep)
        scenario_classes = {type(s) for s in SCENARIOS.values()}
        for cls in sorted(scenario_classes, key=lambda c: c.__qualname__):
            self._wrap(cls, "run", self._harvest)
        if self.light:
            return self

        def span(layer: str, cls: type, name: str) -> None:
            key = f"{cls.__qualname__}.{name}"
            self._wrap(cls, name, lambda fn: self._span(layer, key, fn))

        for cls in _subclasses(EgressPort):
            layer = "circuit" if issubclass(cls, CircuitPort) else "port"
            for name in ("enqueue", "_finish_tx"):
                span(layer, cls, name)
        for name in ("activate", "deactivate"):
            span("circuit", CircuitPort, name)
        for name in ("_day_start", "_day_end"):
            span("circuit", RotorController, name)
        for cls in _subclasses(Switch):
            span("circuit" if issubclass(cls, RdcnToR) else "switch", cls, "receive")
        for cls in _subclasses(RoutingPolicy):
            self._wrap(
                cls, "select", lambda fn: self._count("routing.select_calls", fn)
            )
        for name in ("receive", "send"):
            span("transport", Host, name)
        for root in (Sender, Receiver):
            for cls in _subclasses(root):
                for name in TRANSPORT_HOOKS:
                    if name in cls.__dict__:
                        span("transport", cls, name)
        for cls in _subclasses(CongestionControl):
            for name in CC_HOOKS:
                if name in cls.__dict__:
                    span("cc", cls, name)
        # CC-owned timers fire straight from the engine; without these
        # their work would land in the engine residual.
        for algorithm, names in (
            ("dcqcn", ("_on_timer", "_on_alpha_timer")),
            ("retcp", ("_apply",)),
        ):
            for name in names:
                span("cc", get_algorithm(algorithm).cls, name)
        for name in POOL_HOOKS:
            span("pool", PacketPool, name)
        self._wrap(
            Packet, "__init__",
            lambda fn: self._count("pool.misses", fn, when_in="pool"),
        )
        self._wrap(EgressPort, "__init__", lambda fn: self._collect(self._ports, fn))
        self._wrap(Sender, "__init__", lambda fn: self._collect(self._senders, fn))
        span("topology", RegisteredTopology, "build")
        span("driver", FlowDriver, "start_flow")
        # A flow's launch at its start time builds and starts its
        # endpoints inside the run: transport work, not set-up.
        span("transport", FlowDriver, "_launch")
        for cls in sorted(scenario_classes, key=lambda c: c.__qualname__):
            if "collect" in cls.__dict__:
                span("analysis", cls, "collect")
        self.calibrate()
        return self

    def calibrate(self, n: int = 100_000, repeats: int = 5) -> None:
        """Measure the wrapper's per-call cost split (``inner``/``outer``)."""

        def noop():
            return None

        probe = Tracer()
        wrapped = probe._span("calib", "calib", noop)
        clock = time.perf_counter
        best = None
        for _ in range(repeats):
            t0 = clock()
            for _ in range(n):
                pass
            empty = clock() - t0
            t0 = clock()
            for _ in range(n):
                noop()
            plain = clock() - t0
            probe.entries["calib"][1:] = [0, 0.0, 0.0, 0]
            probe.stack.append(["root", 0.0, 0])
            t0 = clock()
            for _ in range(n):
                wrapped()
            traced = clock() - t0
            probe.stack.clear()
            window = probe.entries["calib"][2]
            call = plain - empty
            inner = (window - call) / n
            outer = (traced - empty - window) / n
            if best is None or inner + outer < best[0] + best[1]:
                best = (inner, outer)
        self.inner, self.outer = max(best[0], 0.0), max(best[1], 0.0)

    # -- results -------------------------------------------------------
    def _fold_instances(self) -> None:
        counters = self.counters
        for port in self._ports:
            counters["port.drops"] += port.drops
            counters["port.ecn_marks"] += port.marks
            self.max_qlen_bytes = max(self.max_qlen_bytes, port.max_qlen_bytes)
        for sender in self._senders:
            counters["transport.retransmits"] += sender.flow.retransmissions
        counters["transport.flows"] += len(self._senders)
        self._ports.clear()
        self._senders.clear()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "entries": {k: list(v) for k, v in self.entries.items()},
            "counters": dict(self.counters),
            "max_qlen_bytes": self.max_qlen_bytes,
            "engines": sorted(self.engines),
        }

    def merge(self, delta: Dict[str, Any]) -> None:
        """Fold a worker's per-cell delta (see :meth:`_harvest`) in."""
        for key, (layer, *values) in delta["entries"].items():
            stats = self.entries.setdefault(key, [layer, 0, 0.0, 0.0, 0])
            for i, value in enumerate(values, start=1):
                stats[i] += value
        for key, value in delta["counters"].items():
            self.counters[key] += value
        self.max_qlen_bytes = max(self.max_qlen_bytes, delta["max_qlen_bytes"])
        self.engines.update(tuple(e) for e in delta["engines"])

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, inclusive s, calibrated self s."""
        totals = {
            layer: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for layer in LAYERS
        }
        for layer, calls, incl, self_s, children in self.entries.values():
            if layer not in totals:
                continue
            row = totals[layer]
            row["calls"] += calls
            row["incl_s"] += incl
            row["self_s"] += max(
                self_s - calls * self.inner - children * self.outer, 0.0
            )
        return totals


def _delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    entries = {}
    for key, (layer, *values) in after["entries"].items():
        old = before["entries"].get(key, [layer, 0, 0.0, 0.0, 0])[1:]
        entries[key] = [layer] + [a - b for a, b in zip(values, old)]
    counters = {
        k: v - before["counters"].get(k, 0) for k, v in after["counters"].items()
    }
    return {
        "entries": entries,
        "counters": counters,
        "max_qlen_bytes": after["max_qlen_bytes"],
        "engines": after["engines"],
    }
