"""The per-episode network surface is one surface: solo SoA network, batch lane.

:class:`~repro.noc.soa.SoAMeshNetwork` serves it as episode 0 of its own
arrays and :class:`~repro.noc.soa_batch.SoAMeshLane` as episode ``k`` of a
batched network.  These tests pin that a lane answers every surface method
exactly as a solo run of the same seed, that node ids are checked against
the episode (so no call reaches into another episode's block), and that
the object backend validates node ids the same way.
"""

import pytest

from repro.noc.batch_sim import BatchedNoCSimulator
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.topology import Direction
from repro.traffic.flooding import FloodingAttacker, FloodingConfig
from repro.traffic.synthetic import UniformRandomTraffic

# Every test runs under both SoA per-cycle kernels (see conftest).
pytestmark = pytest.mark.usefixtures("soa_kernel_name")

ROWS = 4
ATTACKER = 0
VICTIM = 10
CYCLES = 240
SEEDS = (5, 6, 7)


def _wire_quarantined_flood(simulator, seed):
    """Benign traffic plus a flood from ATTACKER, quarantined from cycle 0."""
    topology = simulator.topology
    simulator.add_source(
        UniformRandomTraffic(topology, injection_rate=0.05, seed=seed + 1)
    )
    simulator.add_source(
        FloodingAttacker(
            FloodingConfig(attackers=(ATTACKER,), victim=VICTIM, fir=0.8),
            topology,
            seed=seed + 2,
        )
    )
    simulator.quarantine_node(ATTACKER)


def _solo(seed):
    simulator = NoCSimulator(
        SimulationConfig(rows=ROWS, warmup_cycles=0, backend="soa", seed=seed)
    )
    _wire_quarantined_flood(simulator, seed)
    return simulator


def _batch():
    batched = BatchedNoCSimulator(
        SimulationConfig(rows=ROWS, warmup_cycles=0, backend="soa"),
        episodes=len(SEEDS),
    )
    for lane, seed in zip(batched.lanes, SEEDS):
        _wire_quarantined_flood(lane, seed)
    return batched


def _router_counters(net):
    return [
        (net.router(node).vco(direction), net.router(node).boc(direction))
        for node in range(ROWS * ROWS)
        for direction in Direction
    ]


#: Read-only surface members compared between a lane and a solo network.
OBSERVABLES = {
    "local_boc": lambda net: net.local_boc(),
    "drainable_queued_flits": lambda net: net.drainable_queued_flits,
    "source_queues": lambda net: [len(queue) for queue in net.source_queues],
    "source_queue_count": lambda net: len(net.source_queues),
    "router_vco_boc": _router_counters,
    "injection_limits": lambda net: net.injection_limits,
    "restricted_nodes": lambda net: net.restricted_nodes,
    "queued_flits": lambda net: net.queued_flits,
    "in_flight_flits": lambda net: net.in_flight_flits,
    "dropped_packets": lambda net: net.dropped_packets,
}

#: Surface actions applied to both, in order; their return values must match.
ACTIONS = (
    ("flush_source_queue", lambda net: net.flush_source_queue(ATTACKER)),
    ("reset_injection_limits", lambda net: net.reset_injection_limits()),
    ("reset_boc_counters", lambda net: net.reset_boc_counters()),
)


def _assert_surfaces_equal(lane_net, solo_net, when):
    for name, read in OBSERVABLES.items():
        assert read(lane_net) == read(solo_net), (when, name)


class TestLaneMatchesSolo:
    def test_lane_surface_equals_solo_run(self):
        """Lane 1 of an N=3 batch answers every surface method like a solo
        run of its seed, before and after flush/reset actions, and the
        actions leave the neighbouring lanes untouched."""
        batched = _batch()
        solos = [_solo(seed) for seed in SEEDS]
        batched.run(CYCLES)
        for solo in solos:
            solo.run(CYCLES)
        lane_net, solo_net = batched.lane(1).network, solos[1].network

        # The scenario exercises the surface: a quarantined backlog exists.
        assert solo_net.restricted_nodes == [ATTACKER]
        assert len(solo_net.source_queues[ATTACKER]) > 0
        assert solo_net.drainable_queued_flits < solo_net.queued_flits
        _assert_surfaces_equal(lane_net, solo_net, "after run")

        for name, act in ACTIONS:
            assert act(lane_net) == act(solo_net), name
            _assert_surfaces_equal(lane_net, solo_net, f"after {name}")
        assert solo_net.dropped_packets > 0

        batched.run(60)
        for solo in solos:
            solo.run(60)
        for lane, solo in zip(batched.lanes, solos):
            _assert_surfaces_equal(lane.network, solo.network, "after rerun")


class TestNodeIdsStayInTheirEpisode:
    def test_lane_rejects_node_ids_of_other_episodes(self):
        """Lane 0 cannot read or flush lane 1's node 0 as its node 16."""
        batched = _batch()
        batched.run(CYCLES)
        lane0, lane1 = batched.lane(0).network, batched.lane(1).network
        queued, dropped = lane1.queued_flits, lane1.dropped_packets
        assert len(lane1.source_queues[ATTACKER]) > 0
        outside = ROWS * ROWS + ATTACKER
        for call in (lane0.flush_source_queue, lane0.injection_limit):
            with pytest.raises(ValueError):
                call(outside)
            with pytest.raises(ValueError):
                call(-1)
        assert lane1.queued_flits == queued
        assert lane1.dropped_packets == dropped
        assert lane1.injection_limit(ATTACKER) == 0.0

    @pytest.mark.parametrize("backend", ["soa", "object"])
    def test_solo_rejects_out_of_mesh_node_ids(self, backend):
        network = NoCSimulator(SimulationConfig(rows=ROWS, backend=backend)).network
        for node in (-1, ROWS * ROWS):
            for call in (network.flush_source_queue, network.injection_limit):
                with pytest.raises(ValueError):
                    call(node)
        assert network.injection_limit(ROWS * ROWS - 1) == 1.0


class TestBatchedNetworkSurface:
    @pytest.mark.parametrize(
        "name",
        ["stats", "dropped_packets", "queued_flits", "local_boc", "router"],
    )
    def test_per_episode_members_raise(self, name):
        """Read directly on the batched network, a per-episode member would
        act on episode 0's block or mix every episode's state."""
        network = _batch().network
        with pytest.raises(TypeError):
            getattr(network, name)
