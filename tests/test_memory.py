"""Memory contracts: finished scenarios free their networks, and a port
allocates its queues and ECN RNG only when it first needs them
(docs/INVARIANTS.md#memory)."""

import gc
import random

import pytest

from repro.scenarios import SCENARIOS, get_scenario, load_builtin_scenarios
from repro.scenarios.registry import BUILTIN_MODULES
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import NUM_PRIORITIES, EgressPort
from repro.units import GBPS


class Sink:
    def receive(self, pkt):
        pass


def _live_simulation_objects():
    return [o for o in gc.get_objects() if isinstance(o, (Simulator, EgressPort))]


def _builtin_scenarios():
    load_builtin_scenarios()
    return sorted(
        name
        for name, scenario in SCENARIOS.items()
        if type(scenario).__module__ in BUILTIN_MODULES
    )


def test_finished_scenarios_leave_no_live_simulation():
    # Objects alive before the runs (other tests' fixtures) stay
    # referenced here, so their ids cannot be reused by new objects.
    before = _live_simulation_objects()
    known = {id(o) for o in before}
    scenario = get_scenario("incast")
    for _ in range(2):
        result = scenario.run(**scenario.tiny_overrides())
        assert result.metrics["completed_bursts"] > 0
    # Deliberately no gc.collect() here: the scenario boundary must
    # already have freed both networks (each one is a reference cycle).
    leaked = [o for o in _live_simulation_objects() if id(o) not in known]
    assert leaked == []


@pytest.mark.parametrize("name", _builtin_scenarios())
def test_raw_result_keeps_no_simulation_alive(name):
    # Raw results must hold only data: while the caller still holds the
    # result (raw included), its network must already be gone.
    before = _live_simulation_objects()
    known = {id(o) for o in before}
    scenario = get_scenario(name)
    result = scenario.run(**scenario.tiny_overrides())
    assert result.raw is not None
    leaked = [o for o in _live_simulation_objects() if id(o) not in known]
    assert leaked == []


def test_fresh_port_owns_no_queue_and_no_rng():
    port = EgressPort(Simulator(), 8 * GBPS, 1000, peer=Sink(), name="p")
    assert port.queues == [None] * NUM_PRIORITIES
    assert port._rng is None


def test_queued_packet_creates_only_its_priority_queue():
    sim = Simulator()
    port = EgressPort(sim, 8 * GBPS, 1000, peer=Sink())
    port.enqueue(Packet.data(1, 0, 1, 0, 1000))  # starts serializing
    assert port.busy
    created = [i for i, q in enumerate(port.queues) if q is not None]
    assert created == [0]
    waiting = Packet.data(1, 0, 1, 1000, 1000, priority=5)
    port.enqueue(waiting)
    created = [i for i, q in enumerate(port.queues) if q is not None]
    assert created == [0, 5]
    assert list(port.queues[5]) == [waiting]
    assert port._rng is None  # no ECN config: the RNG is never built
    sim.run()
    assert port.tx_bytes == 2 * waiting.size


def test_lazy_rng_draws_match_the_named_seed():
    port = EgressPort(Simulator(), 1e9, 0, name="bottleneck")
    reference = random.Random("bottleneck")
    assert [port.rng.random() for _ in range(4)] == [
        reference.random() for _ in range(4)
    ]


def test_explicit_rng_is_kept():
    rng = random.Random(7)
    port = EgressPort(Simulator(), 1e9, 0, rng=rng)
    assert port.rng is rng


def test_anonymous_seeds_follow_construction_order_not_first_use():
    sim = Simulator()
    ports = [EgressPort(sim, 1e9, 0) for _ in range(3)]
    # First use in reverse construction order.
    draws = [p.rng.random() for p in reversed(ports)][::-1]
    assert draws == [random.Random(f"port#{n}").random() for n in (1, 2, 3)]

