"""Fingerprint equivalence of the SoA and object simulator backends.

The ``soa`` backend is only allowed to be *faster* — every observable must
be bit-identical to the object model for the same seeds: feature frames
(VCO floats included), latency statistics, delivered-packet order, drop
counts, and whole closed-loop ``DefenseReport.as_dict()`` timelines.  These
tests sweep mesh size, FIR, multi-attack and quarantine/release transitions
so a behavioural divergence in any kernel path fails loudly.
"""

import numpy as np
import pytest

from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.monitor.features import FeatureKind
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.batch_sim import BatchedNoCSimulator
from repro.noc.network import MeshNetwork
from repro.noc.packet import Packet
from repro.noc.route_provider import RouteProvider
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.soa import SoAMeshNetwork
from repro.noc.soa_batch import BatchedSoAMeshNetwork
from repro.noc.topology import Direction, MeshTopology
from repro.traffic.flooding import FloodingAttacker, FloodingConfig
from repro.traffic.synthetic import UniformRandomTraffic, make_synthetic_traffic

BACKENDS = ("soa", "object")

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


def _flooded_simulator(backend, rows, fir, num_vcs=4, seed=0, attackers=None):
    simulator = NoCSimulator(
        SimulationConfig(
            rows=rows, warmup_cycles=16, num_vcs=num_vcs, seed=seed, backend=backend
        )
    )
    simulator.add_source(
        UniformRandomTraffic(simulator.topology, injection_rate=0.05, seed=seed + 1)
    )
    if fir > 0.0:
        last = rows * rows - 1
        simulator.add_source(
            FloodingAttacker(
                FloodingConfig(
                    attackers=attackers or (last, 3), victim=1, fir=fir
                ),
                simulator.topology,
                seed=seed + 2,
            )
        )
    return simulator


def _run_with_monitor(backend, rows, fir, cycles, num_vcs=4):
    simulator = _flooded_simulator(backend, rows, fir, num_vcs=num_vcs)
    monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=64)).attach(
        simulator
    )
    simulator.run(cycles)
    return simulator, monitor


def assert_same_samples(monitor_a, monitor_b):
    assert len(monitor_a.samples) == len(monitor_b.samples)
    for sample_a, sample_b in zip(monitor_a.samples, monitor_b.samples):
        assert sample_a.cycle == sample_b.cycle
        assert sample_a.attack_active == sample_b.attack_active
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
    assert simulator_a.network.dropped_packets == simulator_b.network.dropped_packets
    assert (
        simulator_a.latency(benign_only=True).as_dict()
        == simulator_b.latency(benign_only=True).as_dict()
    )
    assert simulator_a.latency(benign_only=False).as_dict() == simulator_b.latency(
        benign_only=False
    ).as_dict()


class TestFrameFingerprints:
    @pytest.mark.parametrize("rows", [4, 6, 8, 16])
    def test_mesh_size_sweep(self, rows):
        """Same seeds → same frames and stats on every mesh size."""
        cycles = 400 if rows < 16 else 260
        soa = _run_with_monitor("soa", rows, fir=0.8, cycles=cycles)
        obj = _run_with_monitor("object", rows, fir=0.8, cycles=cycles)
        assert_same_samples(soa[1], obj[1])
        assert_same_stats(soa[0], obj[0])

    @pytest.mark.parametrize("fir", [0.0, 0.2, 0.5, 1.0])
    def test_fir_sweep(self, fir):
        """Equivalence from benign-only up to the saturation regime."""
        soa = _run_with_monitor("soa", 6, fir=fir, cycles=500)
        obj = _run_with_monitor("object", 6, fir=fir, cycles=500)
        assert_same_samples(soa[1], obj[1])
        assert_same_stats(soa[0], obj[0])

    @pytest.mark.parametrize("num_vcs", [1, 3, 4])
    def test_vc_configurations(self, num_vcs):
        """Odd VC counts exercise the non-exact occupancy accumulation."""
        soa = _run_with_monitor("soa", 5, fir=0.6, cycles=400, num_vcs=num_vcs)
        obj = _run_with_monitor("object", 5, fir=0.6, cycles=400, num_vcs=num_vcs)
        assert_same_samples(soa[1], obj[1])
        assert_same_stats(soa[0], obj[0])

    @pytest.mark.parametrize("pattern", ["tornado", "bit_complement"])
    def test_deterministic_patterns(self, pattern):
        """Table-memoised synthetic patterns stay identical across backends."""

        def build(backend):
            simulator = NoCSimulator(
                SimulationConfig(rows=6, warmup_cycles=0, seed=0, backend=backend)
            )
            simulator.add_source(
                make_synthetic_traffic(
                    pattern, simulator.topology, injection_rate=0.1, seed=3
                )
            )
            simulator.run(400)
            return simulator

        assert_same_stats(build("soa"), build("object"))


class TestKernelShapes:
    """Buffer shapes where a kernel port drifts first.

    Non-power-of-two VC depths take the modulo ring wrap, injection
    bandwidth above one takes the multi-pass inject (with throttled nodes,
    so the credit cap is ``bandwidth``), and small non-power-of-two source
    queues wrap their ring and drop packets.
    """

    @pytest.mark.parametrize(
        "shape",
        [
            {"vc_depth": 3},
            {"vc_depth": 5},
            {"injection_bandwidth": 2},
            {"injection_bandwidth": 3},
            {"source_queue_capacity": 7},
            {"source_queue_capacity": 24},
        ],
        ids=lambda shape: "-".join(f"{k}={v}" for k, v in shape.items()),
    )
    def test_shape_matches_object_backend(self, shape):
        def run(backend):
            simulator = NoCSimulator(
                SimulationConfig(
                    rows=5, warmup_cycles=16, seed=0, backend=backend, **shape
                )
            )
            simulator.add_source(
                UniformRandomTraffic(simulator.topology, injection_rate=0.08, seed=1)
            )
            simulator.add_source(
                FloodingAttacker(
                    FloodingConfig(attackers=(24, 3), victim=1, fir=0.7),
                    simulator.topology,
                    seed=2,
                )
            )
            monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=64)).attach(
                simulator
            )
            simulator.run(250)
            # The flooder is always backlogged; the mostly idle benign node
            # banks credit up to the ``bandwidth`` cap between packets.
            simulator.throttle_node(24, 0.3)
            simulator.throttle_node(12, 0.5)
            simulator.run(250)
            return simulator, monitor

        soa, soa_monitor = run("soa")
        obj, obj_monitor = run("object")
        assert_same_samples(soa_monitor, obj_monitor)
        assert_same_stats(soa, obj)
        if "source_queue_capacity" in shape:
            assert soa.network.dropped_packets > 0


class TestDefenseHookFingerprints:
    def test_quarantine_release_transitions(self):
        """Throttle, quarantine+flush, release and drain stay identical."""

        def churn(backend):
            simulator = _flooded_simulator(backend, 6, fir=0.9)
            simulator.run(250)
            simulator.throttle_node(34, 0.25)
            simulator.run(100)
            simulator.quarantine_node(3)
            flushed = simulator.network.flush_source_queue(3)
            simulator.run(150)
            simulator.release_node(34)
            simulator.release_node(3)
            simulator.run(200)
            drained = simulator.drain(4000)
            return simulator, flushed, drained

        soa, flushed_a, drained_a = churn("soa")
        obj, flushed_b, drained_b = churn("object")
        assert flushed_a == flushed_b
        assert drained_a == drained_b
        assert_same_stats(soa, obj)

    def test_fractional_throttle_credit(self):
        """The credit accumulator admits identical flit schedules."""

        def throttled(backend):
            simulator = _flooded_simulator(backend, 4, fir=1.0, attackers=(15,))
            simulator.throttle_node(15, 0.3)
            simulator.run(400)
            return simulator

        assert_same_stats(throttled("soa"), throttled("object"))


class TestClosedLoopFingerprints:
    @pytest.mark.parametrize("num_attackers", [1, 2])
    def test_defense_report_identical(self, trained_pipeline, num_attackers):
        """End-to-end guarded episodes produce the same DefenseReport dict."""
        fence = trained_pipeline

        def episode(backend):
            simulator = NoCSimulator(
                SimulationConfig(rows=6, warmup_cycles=16, seed=0, backend=backend)
            )
            simulator.add_source(
                UniformRandomTraffic(
                    simulator.topology, injection_rate=0.04, seed=5
                )
            )
            attackers = (34, 5)[:num_attackers]
            simulator.add_source(
                FloodingAttacker(
                    FloodingConfig(
                        attackers=attackers,
                        victim=1,
                        fir=0.8,
                        start_cycle=200,
                        end_cycle=900,
                    ),
                    simulator.topology,
                    seed=6,
                )
            )
            guard = DL2FenceGuard(
                fence,
                MitigationPolicy.quarantine(
                    engage_after=1, release_after=2, flush_queue=True
                ),
                attack_start=200,
                attack_end=900,
                true_attackers=attackers,
            )
            guard.attach(
                simulator, monitor_config=MonitorConfig(sample_period=100)
            )
            simulator.run(1200)
            return guard.report.as_dict()

        assert episode("soa") == episode("object")


class _IngressEpisode:
    """One episode of a backend driven by a hand-written ingress script.

    ``object`` is the reference :class:`MeshNetwork` (batches become
    per-packet ``enqueue_packet`` calls in order); ``solo`` is
    :class:`SoAMeshNetwork`; ``lane`` is episode 1 of a two-episode
    :class:`BatchedSoAMeshNetwork` whose episode 0 gets a different stream,
    so lane offsets and episode isolation are exercised too.
    """

    COUNTERS = (
        "cycles",
        "packets_created",
        "packets_injected",
        "packets_delivered",
        "flits_delivered",
        "malicious_packets_created",
        "malicious_packets_delivered",
    )

    def __init__(self, kind, rows=4, capacity=24):
        topology = MeshTopology(rows=rows)
        self.kind = kind
        self.nodes = topology.num_nodes
        if kind == "lane":
            self.mesh = BatchedSoAMeshNetwork(
                topology, episodes=2, source_queue_capacity=capacity
            )
            self.net = self.mesh.lane(1)
            self.noise = self.mesh.lane(0)
        else:
            network = MeshNetwork if kind == "object" else SoAMeshNetwork
            self.mesh = self.net = network(topology, source_queue_capacity=capacity)
        self.cycle = 0

    def enqueue(self, sources, destinations, size, malicious=False):
        cycle = self.cycle
        if self.kind == "object":
            return sum(
                self.net.enqueue_packet(
                    Packet(
                        source=source,
                        destination=destination,
                        size_flits=size,
                        created_cycle=cycle,
                        is_malicious=malicious,
                    )
                )
                for source, destination in zip(sources, destinations)
            )
        if self.kind == "lane":
            # A different stream into the neighbouring episode.
            self.noise.enqueue_batch(
                np.array(destinations), np.array(sources), size, cycle, not malicious
            )
        return self.net.enqueue_batch(
            np.array(sources), np.array(destinations), size, cycle, malicious
        )

    def run(self, cycles):
        for _ in range(cycles):
            self.mesh.step(self.cycle)
            self.cycle += 1

    def fingerprint(self):
        net = self.net
        stats = net.stats
        return (
            [getattr(stats, field) for field in self.COUNTERS],
            [_packet_key(packet) for packet in stats.delivered],
            net.dropped_packets,
            net.unroutable_packets,
            [len(net.source_queues[node]) for node in range(self.nodes)],
            net.in_flight_flits,
            net.drainable_queued_flits,
        )


def _both(kind, script, **kwargs):
    """Run ``script`` on the reference object backend and on ``kind``."""
    reference = _IngressEpisode("object", **kwargs)
    candidate = _IngressEpisode(kind, **kwargs)
    results = [script(reference), script(candidate)]
    assert results[0] == results[1]
    assert reference.fingerprint() == candidate.fingerprint()
    return reference, candidate


@pytest.mark.parametrize("kind", ["solo", "lane"])
class TestIngressEdgeCases:
    """The compiled and NumPy ingress paths against the object backend."""

    def test_duplicate_sources_in_one_batch(self, kind):
        def script(episode):
            # Seven 4-flit packets at node 5: six fit a 24-flit queue.
            accepted = episode.enqueue(
                [5, 5, 2, 5, 5, 5, 5, 5], [0, 1, 3, 4, 6, 7, 8, 9], 4
            )
            episode.run(150)
            return accepted

        reference, _ = _both(kind, script)
        assert reference.net.dropped_packets == 1

    @pytest.mark.parametrize("capacity", [7, 24])
    def test_source_ring_wraps(self, kind, capacity):
        def script(episode):
            accepted = []
            for cycle in range(60):
                size = 3 if cycle % 2 else 5
                accepted.append(episode.enqueue([5, 9, 5], [0, 14, 12], size))
                episode.run(1)
            episode.run(300)
            return accepted

        reference, _ = _both(kind, script, capacity=capacity)
        assert reference.net.dropped_packets > 0
        assert reference.net.stats.packets_delivered > 20

    def test_full_queue_drops(self, kind):
        def script(episode):
            first = episode.enqueue([5, 5], [0, 1], 4)
            second = episode.enqueue([5, 6], [2, 3], 8)  # 8 > capacity 7
            episode.run(80)
            return first, second

        reference, _ = _both(kind, script, capacity=7)
        assert reference.net.dropped_packets == 3

    def test_unroutable_drops_after_link_kill(self, kind):
        def script(episode):
            episode.enqueue([5, 6], [0, 10], 4)
            episode.run(3)
            # Node 0's only links die: no route can reach or leave it.
            provider = RouteProvider(
                MeshTopology(rows=4),
                dead_links=((0, Direction.EAST), (0, Direction.NORTH)),
            )
            episode.mesh.apply_data_faults(provider)
            accepted = episode.enqueue([5, 0, 7, 5], [0, 3, 12, 15], 4)
            episode.run(120)
            return accepted

        reference, _ = _both(kind, script)
        assert reference.net.unroutable_packets == 2

    def test_throttled_and_quarantined_nodes(self, kind):
        def script(episode):
            episode.net.set_injection_limit(5, 0.5)
            episode.net.set_injection_limit(9, 0.0)
            drainable = []
            for _ in range(40):
                episode.enqueue([5, 9, 2], [0, 15, 13], 3)
                episode.run(1)
                drainable.append(episode.net.drainable_queued_flits)
            episode.net.set_injection_limit(9, 1.0)
            episode.run(400)
            return drainable

        reference, _ = _both(kind, script)
        assert reference.net.dropped_packets > 0

    def test_caller_packet_is_the_delivered_object(self, kind):
        def script(episode):
            packet = Packet(source=5, destination=0, size_flits=3, created_cycle=0)
            assert episode.net.enqueue_packet(packet)
            episode.enqueue([5, 2], [1, 3], 2)
            episode.run(60)
            assert packet.is_delivered
            assert any(delivered is packet for delivered in episode.net.stats.delivered)
            return packet.injected_cycle, packet.ejected_cycle

        _both(kind, script)

    def test_flushed_caller_packet_is_no_longer_tracked(self, kind):
        def script(episode):
            queued = Packet(source=5, destination=0, size_flits=3, created_cycle=0)
            passing = Packet(source=6, destination=1, size_flits=2, created_cycle=0)
            assert episode.net.enqueue_packet(queued)
            assert episode.net.enqueue_packet(passing)
            flushed = episode.net.flush_source_queue(5)
            episode.run(60)
            assert passing.is_delivered
            return flushed, queued.injected_cycle, queued.ejected_cycle

        _, candidate = _both(kind, script)
        assert not candidate.mesh._registry.in_flight_callers
        assert not candidate.mesh._registry.callers

    def test_excised_caller_packet_is_no_longer_tracked(self, kind):
        def script(episode):
            # An 8-flit worm from node 5 to node 0 is part-way injected when
            # the links of node 0 die: it is excised and its queued rest purged.
            packet = Packet(source=5, destination=0, size_flits=8, created_cycle=0)
            assert episode.net.enqueue_packet(packet)
            episode.run(3)
            provider = RouteProvider(
                MeshTopology(rows=4),
                dead_links=((0, Direction.EAST), (0, Direction.NORTH)),
            )
            killed = episode.mesh.apply_data_faults(provider)
            episode.run(60)
            return killed, packet.injected_cycle, packet.ejected_cycle

        reference, candidate = _both(kind, script)
        assert reference.mesh.killed_packets == 1
        assert not candidate.mesh._registry.in_flight_callers
        assert not candidate.mesh._registry.callers


@pytest.mark.parametrize("backend", ["object", "soa", "lane"])
def test_delivered_view_matches_delivered_packets(backend):
    """The columnar view is the delivered list, field by field (any start)."""
    if backend == "lane":
        batched = BatchedNoCSimulator(
            SimulationConfig(rows=5, warmup_cycles=16, seed=0), episodes=2
        )
        simulator = batched.lane(1)
        for lane in batched.lanes:
            lane.add_source(
                UniformRandomTraffic(
                    lane.topology, injection_rate=0.05, seed=lane.lane_index
                )
            )
        batched.run(300)
    else:
        simulator = _flooded_simulator(backend, rows=5, fir=0.8)
        simulator.run(300)
    stats = simulator.stats
    for start in (0, 7):
        view = stats.delivered_view(start)
        packets = stats.delivered[start:]
        assert len(view) == len(packets) > 0
        assert view.created.tolist() == [p.created_cycle for p in packets]
        assert view.injected.tolist() == [p.injected_cycle for p in packets]
        assert view.ejected.tolist() == [p.ejected_cycle for p in packets]
        assert view.size.tolist() == [p.size_flits for p in packets]
        assert view.malicious.tolist() == [p.is_malicious for p in packets]
