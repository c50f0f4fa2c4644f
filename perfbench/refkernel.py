"""Fixed reference kernel: how fast this machine runs Python right now.

The host this benchmark runs on is shared. Its speed drifts by 20-30 %
over seconds to minutes, and process CPU time drifts with wall time, so
the drift is slower execution, not descheduling. A run of the benchmark
is too short to average that out. So each sample also times this kernel
right after its workload, for half as long as the workload took, and
run.py reports every host time at the kernel's nominal speed::

    reported_s = median(measured_s) * NOMINAL_S / median(kernel_s)

with both medians over the samples of one run: the kernel and the
workload alternate through the run, so both see the same slow drift.

The kernel is a small event loop in pure Python: a ``heapq`` of
``(time, seq, item, node)`` tuples, slotted-object method calls, short
lists and dict stores. That is the simulator's instruction mix, and it
slows down with the simulator under contention. It imports nothing from
``repro``, so no change to the program under test can change its work.
Interleaved with an incast cell for five minutes, the 25 s window medians
of the raw cell time spread by 0.29 (interquartile range / median); the
same medians of cell time / kernel time spread by 0.034.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import time

#: nominal seconds of one kernel pass: a round figure near its median on
#: the machine the benchmark was written on (0.08-0.10 s).  It only sets
#: the scale, so reported times read close to raw host seconds there.
NOMINAL_S = 0.100

STEPS = 80_000
#: kernel passes run for at least this share of the workload's wall time
COVERAGE = 0.5
MIN_PASSES = 5


class _Node:
    __slots__ = ("node_id", "peer", "count", "recent")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.peer = None
        self.count = 0
        self.recent = []

    def receive(self, item: int, heap: list, now: int, seq) -> None:
        self.count += 1
        recent = self.recent
        recent.append(item)
        if len(recent) > 4:
            recent.pop(0)
        delay = (item * 7 + self.node_id) % 97 + 1
        heapq.heappush(heap, (now + delay, next(seq), item, self.peer))


def _one_pass(steps: int = STEPS) -> int:
    seq = itertools.count()
    nodes = [_Node(i) for i in range(64)]
    for i, node in enumerate(nodes):
        node.peer = nodes[(i * 17 + 5) % 64]
    heap = [(i, next(seq), i, nodes[i % 64]) for i in range(256)]
    heapq.heapify(heap)
    last_seen = {}
    for _ in range(steps):
        now, _, item, node = heapq.heappop(heap)
        last_seen[item & 1023] = now
        node.receive(item + 1, heap, now, seq)
    return sum(node.count for node in nodes)


def kernel_seconds(workload_s: float) -> float:
    """Mean seconds of one kernel pass, over at least ``MIN_PASSES``
    passes and at least ``COVERAGE`` times ``workload_s`` in total.

    The cyclic collector is paused while timing: the kernel runs after a
    workload whose object graph may still await collection, and a
    collector pass over it would be charged to the machine's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        passes = 0
        while passes < MIN_PASSES or (
            time.perf_counter() - start < COVERAGE * workload_s
        ):
            _one_pass()
            passes += 1
        return (time.perf_counter() - start) / passes
    finally:
        if enabled:
            gc.enable()
