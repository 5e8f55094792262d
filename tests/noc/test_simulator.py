"""Unit tests for the simulator driver and latency statistics."""

import numpy as np
import pytest

from repro.noc.packet import Packet
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.stats import LatencyStats
from repro.noc.topology import MeshTopology
from repro.traffic.flooding import FloodingAttacker, FloodingConfig
from repro.traffic.synthetic import UniformRandomTraffic


class OneShotSource:
    """Injects a fixed list of packets at given cycles."""

    def __init__(self, schedule):
        self.schedule = schedule  # dict: cycle -> list[Packet]

    def packets_for_cycle(self, cycle):
        return self.schedule.get(cycle, [])


class TestSimulationConfig:
    def test_square_default(self):
        config = SimulationConfig(rows=4)
        assert config.columns == 4
        assert config.topology().num_nodes == 16

    def test_invalid(self):
        with pytest.raises(ValueError):
            SimulationConfig(rows=0)
        with pytest.raises(ValueError):
            SimulationConfig(rows=4, warmup_cycles=-1)


class TestSimulatorRun:
    def test_delivers_scheduled_packets(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        packet = Packet(source=0, destination=15, size_flits=2, created_cycle=0)
        sim.add_source(OneShotSource({0: [packet]}))
        sim.run(40)
        assert packet.is_delivered
        assert sim.stats.packets_delivered == 1
        assert sim.cycle == 40

    def test_run_negative_rejected(self):
        sim = NoCSimulator(SimulationConfig(rows=4))
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_drain_empties_network(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        packets = [
            Packet(source=i, destination=15 - i, size_flits=4, created_cycle=0)
            for i in range(4)
        ]
        sim.add_source(OneShotSource({0: packets}))
        sim.run(2)
        extra = sim.drain()
        assert extra > 0
        assert sim.network.in_flight_flits == 0
        assert all(p.is_delivered for p in packets)

    def test_drain_restores_sources(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        source = OneShotSource({})
        sim.add_source(source)
        sim.drain()
        assert sim.sources == (source,)

    def test_sources_are_read_only(self):
        """In-place mutation would bypass the per-cycle emitters: it must
        fail loudly instead of attaching a source that never emits."""
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        with pytest.raises(AttributeError):
            sim.sources.append(OneShotSource({}))
        packet = Packet(source=0, destination=3, size_flits=1, created_cycle=2)
        source = OneShotSource({2: [packet]})
        sim.sources = [source]
        assert sim.sources == (source,)
        sim.run(40)
        assert sim.stats.packets_delivered == 1

    def test_batch_method_resolved_once_and_kept_across_drain(self):
        """The per-cycle step does no attribute lookup on its sources, and a
        drain's detach/restore leaves the sources emitting."""

        class CountingTraffic(UniformRandomTraffic):
            lookups = 0

            def __getattribute__(self, name):
                if name == "packet_batch_for_cycle":
                    type(self).lookups += 1
                return super().__getattribute__(name)

        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        sim.add_source(CountingTraffic(sim.topology, injection_rate=0.2, seed=1))
        sim.run(30)
        assert CountingTraffic.lookups == 1
        created = sim.stats.packets_created
        assert created > 0
        sim.drain()
        assert sim.stats.packets_created == created
        sim.run(30)
        assert sim.stats.packets_created > created


class TestObservers:
    def test_observer_called_at_period(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        calls = []
        sim.add_observer(10, lambda s: calls.append(s.cycle))
        sim.run(35)
        assert calls == [10, 20, 30]

    def test_observer_respects_warmup(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=20))
        calls = []
        sim.add_observer(10, lambda s: calls.append(s.cycle))
        sim.run(45)
        assert calls == [30, 40]

    def test_invalid_period(self):
        sim = NoCSimulator(SimulationConfig(rows=4))
        with pytest.raises(ValueError):
            sim.add_observer(0, lambda s: None)


class TestLatencyStats:
    def test_from_delivered_packets(self):
        packet = Packet(source=0, destination=1, size_flits=2, created_cycle=0)
        packet.injected_cycle = 4
        packet.ejected_cycle = 10
        stats = LatencyStats.from_packets([packet])
        assert stats.delivered_packets == 1
        assert stats.delivered_flits == 2
        assert stats.packet_latency == 10.0
        assert stats.packet_queue_latency == 4.0
        assert stats.flit_queue_latency == 4.0
        assert stats.flit_latency == pytest.approx(4.0 + 3.0)

    def test_empty_stats(self):
        stats = LatencyStats.from_packets([])
        assert stats.delivered_packets == 0
        assert stats.packet_latency == 0.0

    def test_ignores_undelivered(self):
        undelivered = Packet(source=0, destination=1)
        stats = LatencyStats.from_packets([undelivered])
        assert stats.delivered_packets == 0

    @pytest.mark.parametrize("benign_only", [False, True])
    def test_columns_bit_identical_to_packets(self, benign_only):
        sim = NoCSimulator(SimulationConfig(rows=5, warmup_cycles=0))
        sim.add_source(UniformRandomTraffic(sim.topology, injection_rate=0.1, seed=3))
        sim.add_source(
            FloodingAttacker(
                FloodingConfig(attackers=(24, 3), victim=1, fir=0.8),
                sim.topology,
                seed=4,
            )
        )
        sim.run(400)
        view = sim.stats.delivered_view()
        packets = sim.stats.delivered
        if benign_only:
            view = view.select(~view.malicious)
            packets = [p for p in packets if not p.is_malicious]
        columns = LatencyStats.from_columns(
            view.created, view.injected, view.ejected, view.size
        )
        assert columns.delivered_packets > 100
        assert columns == LatencyStats.from_packets(packets)
        assert columns == sim.latency(benign_only=benign_only)

    def test_columns_empty(self):
        empty = np.empty(0, dtype=np.int64)
        columns = LatencyStats.from_columns(empty, empty, empty, empty)
        assert columns == LatencyStats.from_packets([]) == LatencyStats()

    def test_benign_only_filter(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        benign = Packet(source=0, destination=3, size_flits=1, created_cycle=0)
        malicious = Packet(
            source=12, destination=15, size_flits=1, created_cycle=0, is_malicious=True
        )
        sim.add_source(OneShotSource({0: [benign, malicious]}))
        sim.run(30)
        assert sim.latency(benign_only=True).delivered_packets == 1
        assert sim.latency(benign_only=False).delivered_packets == 2

    def test_delivery_ratio(self):
        sim = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        assert sim.stats.delivery_ratio == 1.0
