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
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.topology import Direction
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
