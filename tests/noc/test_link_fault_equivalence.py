"""Fingerprint equivalence of the backends under data-plane faults.

The fault-aware routing layer must not cost the repo its central
invariant: for the same seeds and the same fault schedule, the ``soa``
backend remains bit-identical to the object model — feature frames (VCO
floats included), delivered-packet order, drop/kill/unroutable counters,
latency statistics, and the monitor metadata that names detour carriers
and dead routers.  The matrix covers a mid-episode link kill, a dead
router (which strands west-first-unreachable pairs), a kill at cycle 0
(the enqueue gates see the fault before any packet moves), on-the-fly
routing with the table cache disabled, multi-fault escalation, and the
episode-batched backend sharing one fault across its lanes.
"""

import numpy as np
import pytest

from repro.faults import dead_link_for
from repro.monitor.features import FeatureKind
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.batch_sim import BatchedNoCSimulator
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.topology import Direction
from repro.traffic.flooding import FloodingAttacker, FloodingConfig
from repro.traffic.synthetic import UniformRandomTraffic

SAMPLE_PERIOD = 64

# Every test runs under both SoA per-cycle kernels (see conftest).
pytestmark = pytest.mark.usefixtures("soa_kernel_name")


def _packet_key(packet):
    return (
        packet.source,
        packet.destination,
        packet.size_flits,
        packet.created_cycle,
        packet.injected_cycle,
        packet.ejected_cycle,
        packet.is_malicious,
    )


def _flooded_simulator(backend, rows, fir=0.8, seed=0):
    simulator = NoCSimulator(
        SimulationConfig(rows=rows, warmup_cycles=16, seed=seed, backend=backend)
    )
    simulator.add_source(
        UniformRandomTraffic(simulator.topology, injection_rate=0.05, seed=seed + 1)
    )
    if fir > 0.0:
        last = rows * rows - 1
        simulator.add_source(
            FloodingAttacker(
                FloodingConfig(attackers=(last, 3), victim=1, fir=fir),
                simulator.topology,
                seed=seed + 2,
            )
        )
    return simulator


def _run(backend, rows, cycles, schedule, fir=0.8, seed=0):
    """One monitored episode; ``schedule`` installs the fault timeline."""
    simulator = _flooded_simulator(backend, rows, fir=fir, seed=seed)
    monitor = GlobalPerformanceMonitor(
        MonitorConfig(sample_period=SAMPLE_PERIOD)
    ).attach(simulator)
    schedule(simulator)
    simulator.run(cycles)
    return simulator, monitor


def assert_same_samples(monitor_a, monitor_b):
    assert len(monitor_a.samples) == len(monitor_b.samples) > 0
    for sample_a, sample_b in zip(monitor_a.samples, monitor_b.samples):
        assert sample_a.cycle == sample_b.cycle
        assert sample_a.attack_active == sample_b.attack_active
        # Monitor metadata carries the degradation annotations the guard
        # consumes (detour carriers, unobservable routers) — they must be
        # fingerprint-identical too, or the guards would diverge.
        assert sample_a.metadata == sample_b.metadata, sample_a.cycle
        for kind in FeatureKind:
            for direction in Direction.cardinal():
                values_a = sample_a.feature(kind).frames[direction].values
                values_b = sample_b.feature(kind).frames[direction].values
                assert np.array_equal(values_a, values_b), (
                    sample_a.cycle,
                    kind,
                    direction,
                )


def assert_same_stats(simulator_a, simulator_b):
    stats_a, stats_b = simulator_a.stats, simulator_b.stats
    for field in (
        "cycles",
        "packets_created",
        "packets_injected",
        "packets_delivered",
        "flits_delivered",
        "malicious_packets_created",
        "malicious_packets_delivered",
    ):
        assert getattr(stats_a, field) == getattr(stats_b, field), field
    assert [_packet_key(p) for p in stats_a.delivered] == [
        _packet_key(p) for p in stats_b.delivered
    ]
    net_a, net_b = simulator_a.network, simulator_b.network
    assert net_a.dropped_packets == net_b.dropped_packets
    assert net_a.killed_packets == net_b.killed_packets
    assert net_a.unroutable_packets == net_b.unroutable_packets
    for benign_only in (True, False):
        assert (
            simulator_a.latency(benign_only=benign_only).as_dict()
            == simulator_b.latency(benign_only=benign_only).as_dict()
        )


def _detour_samples(monitor):
    return [
        sample
        for sample in monitor.samples
        if sample.metadata.get("detour_nodes")
    ]


class TestMidEpisodeLinkKill:
    @pytest.mark.parametrize("rows", [4, 8])
    def test_link_kill_is_backend_identical(self, rows):
        cycles = 600 if rows < 8 else 450

        def schedule(simulator):
            node = dead_link_for(simulator.topology)
            simulator.schedule_data_fault(
                300, dead_links=((node, Direction.NORTH),)
            )

        soa = _run("soa", rows, cycles, schedule)
        obj = _run("object", rows, cycles, schedule)
        assert_same_samples(soa[1], obj[1])
        assert_same_stats(soa[0], obj[0])
        # The comparison must not be vacuous: post-kill windows really do
        # carry detour annotations, and pre-kill windows do not.
        flagged = _detour_samples(soa[1])
        assert flagged and all(s.cycle > 300 for s in flagged)

    def test_dead_router_is_backend_identical(self):
        """A dead router kills in-flight packets and strands west-first
        unreachable pairs — both accounting paths must agree."""

        def schedule(simulator):
            dead = simulator.topology.node_id(2, 2)
            simulator.schedule_data_fault(300, dead_routers=(dead,))

        soa = _run("soa", 5, 650, schedule, seed=4)
        obj = _run("object", 5, 650, schedule, seed=4)
        assert_same_samples(soa[1], obj[1])
        assert_same_stats(soa[0], obj[0])
        assert soa[0].network.unroutable_packets > 0
        assert 12 in soa[1].samples[-1].metadata.get("unobservable_nodes", ())


class TestEdgeSchedules:
    def test_kill_at_cycle_zero(self):
        """A fault live from the first cycle exercises the source-drop
        gates on traffic that never saw a healthy mesh."""

        def schedule(simulator):
            node = dead_link_for(simulator.topology)
            simulator.schedule_data_fault(
                0, dead_links=((node, Direction.NORTH),)
            )

        soa = _run("soa", 5, 500, schedule, seed=2)
        obj = _run("object", 5, 500, schedule, seed=2)
        assert_same_samples(soa[1], obj[1])
        assert_same_stats(soa[0], obj[0])
        assert soa[0].route_provider is not None

    def test_multi_fault_escalation(self):
        """Link death followed by a router death: providers accumulate."""

        def schedule(simulator):
            topology = simulator.topology
            simulator.schedule_data_fault(
                200, dead_links=((topology.node_id(2, 2), Direction.NORTH),)
            )
            simulator.schedule_data_fault(
                400, dead_routers=(topology.node_id(1, 3),)
            )

        soa = _run("soa", 5, 700, schedule, seed=6)
        obj = _run("object", 5, 700, schedule, seed=6)
        assert_same_samples(soa[1], obj[1])
        assert_same_stats(soa[0], obj[0])
        provider = soa[0].route_provider
        assert provider.dead_links and provider.dead_routers

    def test_on_the_fly_routing_leg(self, monkeypatch):
        """With the route-table cache disabled both backends route every
        hop on the fly — same fingerprints, same fault behaviour."""
        monkeypatch.setenv("REPRO_XY_TABLE_MAX_NODES", "0")

        def schedule(simulator):
            node = dead_link_for(simulator.topology)
            simulator.schedule_data_fault(
                250, dead_links=((node, Direction.NORTH),)
            )

        soa = _run("soa", 5, 500, schedule, seed=8)
        obj = _run("object", 5, 500, schedule, seed=8)
        assert_same_samples(soa[1], obj[1])
        assert_same_stats(soa[0], obj[0])


class TestLocalInjectionTelemetry:
    """The ``local_boc`` annotation separating carriers from injectors."""

    @pytest.mark.parametrize("backend", ["soa", "object"])
    def test_faulted_windows_carry_local_boc(self, backend):
        def schedule(simulator):
            node = dead_link_for(simulator.topology)
            simulator.schedule_data_fault(
                300, dead_links=((node, Direction.NORTH),)
            )

        # Colluder-grade regime: light benign load, a mild flood.  The
        # meter discriminates *injection*, so the scenario must not
        # saturate the mesh — a saturating flood backpressures its own
        # LOCAL port and the victim column chokes everyone's ratios.
        simulator = NoCSimulator(
            SimulationConfig(rows=8, warmup_cycles=16, seed=0, backend=backend)
        )
        simulator.add_source(
            UniformRandomTraffic(simulator.topology, injection_rate=0.02, seed=1)
        )
        flooder = simulator.topology.num_nodes - 1
        simulator.add_source(
            FloodingAttacker(
                FloodingConfig(attackers=(flooder,), victim=1, fir=0.25),
                simulator.topology,
                seed=2,
            )
        )
        monitor = GlobalPerformanceMonitor(
            MonitorConfig(sample_period=SAMPLE_PERIOD)
        ).attach(simulator)
        schedule(simulator)
        simulator.run(450)
        num_nodes = simulator.topology.num_nodes
        pre = [s for s in monitor.samples if s.cycle <= 300]
        post = [s for s in monitor.samples if s.cycle > 300]
        assert pre and post
        # Healthy-mesh windows carry no annotation; faulted windows carry
        # one integer per node.
        assert all("local_boc" not in s.metadata for s in pre)
        for sample in post:
            local = sample.metadata["local_boc"]
            assert len(local) == num_nodes
            assert all(isinstance(v, int) and v >= 0 for v in local)
        # The meter must actually discriminate: the flooder's LOCAL-port
        # activity dwarfs the benign median, every window.
        for sample in post:
            local = sample.metadata["local_boc"]
            median = sorted(local)[num_nodes // 2]
            assert local[flooder] > 2 * max(median, 1)


class TestBatchedBackendUnderFault:
    def test_batched_lanes_match_solo_runs(self):
        """A fault scheduled on the batched simulator hits every lane at
        the same cycle and each lane stays bit-identical to a solo run
        with the same seeds and the same schedule."""
        rows, cycles, kill = 4, 500, 260
        episodes = [("flood", 7), ("benign", 11)]

        def wire(simulator, variant, seed):
            simulator.add_source(
                UniformRandomTraffic(
                    simulator.topology, injection_rate=0.05, seed=seed + 1
                )
            )
            if variant == "flood":
                last = rows * rows - 1
                simulator.add_source(
                    FloodingAttacker(
                        FloodingConfig(attackers=(last, 3), victim=1, fir=0.8),
                        simulator.topology,
                        seed=seed + 2,
                    )
                )
            return GlobalPerformanceMonitor(
                MonitorConfig(sample_period=SAMPLE_PERIOD)
            ).attach(simulator)

        batched = BatchedNoCSimulator(
            SimulationConfig(rows=rows, warmup_cycles=16, backend="soa"),
            episodes=len(episodes),
        )
        monitors = [
            wire(batched.lane(index), variant, seed)
            for index, (variant, seed) in enumerate(episodes)
        ]
        node = dead_link_for(batched.topology)
        batched.schedule_data_fault(kill, dead_links=((node, Direction.NORTH),))
        batched.run(cycles)

        solo_killed = 0
        solo_unroutable = 0
        for index, (variant, seed) in enumerate(episodes):
            solo = NoCSimulator(
                SimulationConfig(
                    rows=rows, warmup_cycles=16, backend="soa", seed=seed
                )
            )
            solo_monitor = wire(solo, variant, seed)
            solo.schedule_data_fault(kill, dead_links=((node, Direction.NORTH),))
            solo.run(cycles)
            assert_same_samples(monitors[index], solo_monitor)
            lane = batched.lane(index)
            # Per-lane fingerprint (counters, delivery order, drops).
            stats_a, stats_b = lane.stats, solo.stats
            for field in (
                "cycles",
                "packets_created",
                "packets_injected",
                "packets_delivered",
                "flits_delivered",
                "malicious_packets_created",
                "malicious_packets_delivered",
            ):
                assert getattr(stats_a, field) == getattr(stats_b, field), field
            assert [_packet_key(p) for p in stats_a.delivered] == [
                _packet_key(p) for p in stats_b.delivered
            ]
            assert lane.network.dropped_packets == solo.network.dropped_packets
            for benign_only in (True, False):
                assert (
                    lane.latency(benign_only=benign_only).as_dict()
                    == solo.latency(benign_only=benign_only).as_dict()
                )
            solo_killed += solo.network.killed_packets
            solo_unroutable += solo.network.unroutable_packets

        # Kill/unroutable accounting aggregates across the batch exactly.
        assert batched.network.killed_packets == solo_killed
        assert batched.network.unroutable_packets == solo_unroutable
        assert batched.route_provider is not None
