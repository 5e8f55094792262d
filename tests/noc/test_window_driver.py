"""The compiled window driver against the per-cycle path.

On the compiled kernel, ``NoCSimulator.run`` advances the solo SoA network
one window per C call: every source emits through its own generator, then
ingress, inject, switch and the occupancy accumulation run, cycle by cycle,
up to the next observer sample, scheduled data fault or the end of the run.
Two suites pin it to the per-cycle path it replaces:

* emitter streams — each source's per-cycle ``(sources, destinations)``,
  read back off the packet registry, and its final generator state equal
  the NumPy emitter's (every synthetic pattern, the flooding attacker in
  and out of its window, all five attack variants);
* whole runs — ``run(n)`` equals a loop of ``step()`` in the delivered log,
  the counters, every observer's frames, the end generator states and
  ``stats.cycles``, across throttling observers, mid-window data faults,
  registry growth, the warm-up boundary, odd run chunks and ``drain()``;
  sources without an emission plan and the NumPy kernel take ``step()``.
"""

import numpy as np
import pytest

from repro.attacks import (
    ATTACK_LIBRARY,
    ColludingFloodAttack,
    MigratingFloodAttack,
    OnRouteFloodAttack,
    PulsedFloodAttack,
    RampingFloodAttack,
    default_attack,
)
from repro.monitor.features import FeatureKind
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc import soa, soa_kernel, soa_step
from repro.noc.packet import Packet
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.soa_kernel import COL_CREATED, COL_DEST, COL_SOURCE
from repro.noc.topology import Direction, MeshTopology
from repro.obs.metrics import METRICS, sim_phase_histogram
from repro.traffic.flooding import FloodingAttacker, FloodingConfig
from repro.traffic.parsec import ParsecWorkload
from repro.traffic.synthetic import SYNTHETIC_PATTERNS, UniformRandomTraffic

pytestmark = pytest.mark.skipif(
    soa_kernel.find_compiler() is None, reason="no C compiler"
)


@pytest.fixture(autouse=True)
def compiled_kernel():
    previous = soa_step.use_kernel("compiled")
    assert soa_step.active_kernel() == "compiled"
    yield
    soa_step.use_kernel(previous)


@pytest.fixture
def steps(monkeypatch):
    """Simulators that took a per-cycle ``step()``, one entry per call."""
    calls = []
    original = NoCSimulator.step

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(NoCSimulator, "step", counting)
    return calls


# -- emitter streams ---------------------------------------------------------


def _compiled_stream(make_source, cycles, rows):
    """Per-cycle packets a driver run emits, read off the packet registry."""
    simulator = NoCSimulator(
        SimulationConfig(
            rows=rows, warmup_cycles=0, source_queue_capacity=1 << 14, backend="soa"
        )
    )
    source = make_source(simulator.topology)
    simulator.add_source(source)
    simulator.run(cycles)
    network = simulator.network
    assert network.dropped_packets == 0
    table = network._registry.table[:, : network._registry.rows]
    stream = []
    for cycle in range(cycles):
        created = table[COL_CREATED] == cycle
        stream.append((table[COL_SOURCE, created].tolist(), table[COL_DEST, created].tolist()))
    return stream, source


def _numpy_stream(make_source, cycles, rows):
    source = make_source(MeshTopology(rows=rows, columns=rows))
    stream = []
    for cycle in range(cycles):
        batch = source.packet_batch_for_cycle(cycle)
        stream.append(([], []) if batch is None else (batch[0].tolist(), batch[1].tolist()))
    return stream, source


def assert_same_stream(make_source, cycles, steps, rows=6):
    compiled, compiled_source = _compiled_stream(make_source, cycles, rows)
    assert not steps, "the driver run fell back to step()"
    expected, numpy_source = _numpy_stream(make_source, cycles, rows)
    assert compiled == expected
    assert sum(len(sources) for sources, _ in expected) > 0 or cycles == 0
    assert compiled_source.rng.bit_generator.state == numpy_source.rng.bit_generator.state
    assert getattr(compiled_source, "packets_generated", None) == getattr(
        numpy_source, "packets_generated", None
    )


def _reference_profile(model, rel):
    """Per-cycle rates of ``model`` from scalar Python arithmetic, or None on
    a silent cycle: the reference the vectorised tables must equal bit for
    bit, since episode digests depend on every rate."""
    if isinstance(model, PulsedFloodAttack):
        if (rel + model.phase) % model.period >= model.on_cycles:
            return None
        return [model.fir] * len(model.attackers)
    if isinstance(model, RampingFloodAttack):
        fir = model.fir_peak
        if rel < model.ramp_cycles:
            span = model.fir_peak - model.fir_start
            fir = model.fir_start + span * (rel / model.ramp_cycles)
        return [fir] * len(model.attackers)
    if isinstance(model, MigratingFloodAttack):
        profile = [0.0] * len(model.path)
        profile[(rel // model.dwell_cycles) % len(model.path)] = model.fir
        return profile
    if isinstance(model, ColludingFloodAttack):
        return [model.fir] * len(model.sources)
    assert isinstance(model, OnRouteFloodAttack)
    return [model.primary_fir, model.onroute_fir]


class TestEmitterStreams:
    @pytest.mark.parametrize("rate", [0.0, 0.02, 1.0])
    @pytest.mark.parametrize("pattern", sorted(SYNTHETIC_PATTERNS))
    def test_synthetic_pattern(self, pattern, rate, steps):
        cls = SYNTHETIC_PATTERNS[pattern]

        def make(topology):
            return cls(topology, injection_rate=rate, seed=11)

        if rate == 0.0:
            compiled, source = _compiled_stream(make, 40, rows=6)
            assert not steps
            assert compiled == [([], [])] * 40
            fresh = make(MeshTopology(rows=6, columns=6))
            assert source.rng.bit_generator.state == fresh.rng.bit_generator.state
            return
        assert_same_stream(make, 40 if rate == 1.0 else 300, steps)

    @pytest.mark.parametrize(
        "fir, window", [(0.7, (10, 40)), (1.0, (0, None)), (0.0, (0, None))]
    )
    def test_flooding_attacker(self, fir, window, steps):
        start, end = window

        def make(topology):
            config = FloodingConfig(
                attackers=(35, 7, 20), victim=1, fir=fir, start_cycle=start, end_cycle=end
            )
            return FloodingAttacker(config, topology, seed=5)

        if fir == 0.0:
            compiled, source = _compiled_stream(make, 30, rows=6)
            assert compiled == [([], [])] * 30 and source.packets_generated == 0
            return
        assert_same_stream(make, 60, steps)

    @pytest.mark.parametrize("name", sorted(ATTACK_LIBRARY))
    def test_attack_variant(self, name, steps):
        def make(topology):
            model = default_attack(name, topology, sample_period=16)
            return model.build_source(topology, seed=9, start_cycle=12, end_cycle=150)

        assert_same_stream(make, 170, steps, rows=8)

    @pytest.mark.parametrize("name", sorted(ATTACK_LIBRARY))
    def test_rate_table_matches_reference_under_any_split(self, name):
        topology = MeshTopology(rows=8, columns=8)
        model = default_attack(name, topology, sample_period=16)
        rates, silent = model.fir_profile_table(0, 400)
        assert rates.shape == (400, len(model.emitters()[0]))
        for rel in range(400):
            expected = _reference_profile(model, rel)
            assert silent[rel] == (expected is None)
            if expected is None:
                expected = [0.0] * rates.shape[1]
            assert rates[rel].tobytes() == np.array(expected, dtype=np.float64).tobytes()
        for cuts in ((0, 1, 97, 300, 400), (0, 13, 14, 399, 400)):
            parts = [model.fir_profile_table(a, b) for a, b in zip(cuts, cuts[1:])]
            assert np.concatenate([p[0] for p in parts]).tobytes() == rates.tobytes()
            assert np.concatenate([p[1] for p in parts]).tolist() == silent.tolist()
            assert all(
                (model.fir_profile_at(rel) is None) == silent[rel] for rel in cuts[:-1]
            )

    def test_pulsed_off_phase_makes_no_draw(self):
        topology = MeshTopology(rows=8, columns=8)
        model = default_attack("pulsed", topology, sample_period=16)
        source = model.build_source(topology, seed=9)
        simulator = NoCSimulator(SimulationConfig(rows=8, warmup_cycles=0, backend="soa"))
        simulator.add_source(source)
        simulator.run(model.period)
        fresh = model.build_source(topology, seed=9).rng
        fresh.random((model.on_cycles, len(model.attackers)))
        assert source.rng.bit_generator.state == fresh.bit_generator.state


# -- whole runs -----------------------------------------------------------------


def _episode(rows=6, warmup=20, period=16, sources=None, observers=(), **config):
    simulator = NoCSimulator(
        SimulationConfig(
            rows=rows, warmup_cycles=warmup, seed=0, backend="soa", **config
        )
    )
    topology = simulator.topology
    if sources is None:
        last = topology.num_nodes - 1
        sources = [
            UniformRandomTraffic(topology, injection_rate=0.06, seed=1),
            SYNTHETIC_PATTERNS["tornado"](topology, injection_rate=0.02, seed=4),
            FloodingAttacker(
                FloodingConfig(
                    attackers=(last, 3), victim=1, fir=0.7, start_cycle=40, end_cycle=400
                ),
                topology,
                seed=2,
            ),
            default_attack("pulsed", topology, sample_period=period).build_source(
                topology, seed=3, start_cycle=30, end_cycle=350
            ),
        ]
    for source in sources:
        simulator.add_source(source)
    monitors = [
        GlobalPerformanceMonitor(MonitorConfig(sample_period=period)).attach(simulator),
        GlobalPerformanceMonitor(MonitorConfig(sample_period=period + 8)).attach(simulator),
    ]
    for observer_period, callback in observers:
        simulator.add_observer(observer_period, callback)
    return simulator, monitors


def _fingerprint(simulator, monitors):
    network = simulator.network
    stats = simulator.stats
    frames = [
        (
            sample.cycle,
            sample.attack_active,
            [
                sample.feature(kind).frames[direction].values.tobytes()
                for kind in FeatureKind
                for direction in Direction.cardinal()
            ],
        )
        for monitor in monitors
        for sample in monitor.samples
    ]
    return {
        "cycle": simulator.cycle,
        "stats.cycles": stats.cycles,
        "counters": [
            stats.packets_created,
            stats.packets_injected,
            stats.packets_delivered,
            stats.flits_delivered,
            stats.malicious_packets_created,
            stats.malicious_packets_delivered,
            network.dropped_packets,
            network.unroutable_packets,
            network.killed_packets,
        ],
        "delivered": [
            (
                p.source,
                p.destination,
                p.size_flits,
                p.created_cycle,
                p.injected_cycle,
                p.ejected_cycle,
                p.is_malicious,
            )
            for p in stats.delivered
        ],
        "frames": frames,
        "rng": [source.rng.bit_generator.state for source in simulator.sources],
        "generated": [
            getattr(source, "packets_generated", None) for source in simulator.sources
        ],
        "state": [
            array.tobytes()
            for array in (
                network._vc_slots,
                network._vc_count,
                network._sq_count,
                network._occ_sum_int,
                network._buf_writes,
                network._buf_reads,
                network._limits,
                network._allowance,
            )
        ],
    }


def assert_run_matches_steps(build, cycles, steps, chunks=None):
    """``run`` on the driver (in ``chunks``) against ``cycles`` steps."""
    reference, reference_monitors = build()
    for _ in range(cycles):
        reference.step()
    del steps[:]
    simulator, monitors = build()
    for chunk in chunks or (cycles,):
        simulator.run(chunk)
    assert sum(chunks or (cycles,)) == cycles
    assert simulator not in steps, "the driver run fell back to step()"
    assert _fingerprint(simulator, monitors) == _fingerprint(reference, reference_monitors)
    return simulator, reference


class TestWholeRuns:
    def test_run_matches_step_loop(self, steps):
        simulator, _ = assert_run_matches_steps(_episode, 500, steps)
        assert simulator.stats.packets_delivered > 100

    def test_router_configurations(self, steps):
        """Float occupancy sums (3 VCs), odd VC depth, two injection passes."""

        def build():
            return _episode(num_vcs=3, vc_depth=3, injection_bandwidth=2)

        assert_run_matches_steps(build, 400, steps)

    def test_throttling_observers_at_window_boundaries(self, steps):
        def build():
            state = {"samples": 0}

            def guard(simulator):
                state["samples"] += 1
                count = state["samples"]
                if count == 3:
                    simulator.throttle_node(35, 0.3)
                if count == 5:
                    simulator.quarantine_node(3)
                    simulator.network.flush_source_queue(3)
                if count == 9:
                    simulator.release_node(3)
                    simulator.throttle_node(35, 0.05)
                if count == 14:
                    simulator.release_node(35)

            return _episode(observers=[(16, guard)])

        assert_run_matches_steps(build, 420, steps)

    def test_data_fault_scheduled_mid_window(self, steps):
        def build():
            simulator, monitors = _episode()
            topology = simulator.topology
            # Sample boundaries fall at 20 + 16k and 20 + 24k; 123 and 251 do not.
            simulator.schedule_data_fault(
                123, dead_links=((topology.node_id(2, 2), Direction.EAST),)
            )
            simulator.schedule_data_fault(251, dead_routers=(topology.node_id(4, 1),))
            return simulator, monitors

        simulator, _ = assert_run_matches_steps(build, 400, steps)
        assert simulator.dead_routers and simulator.network.killed_packets >= 0

    def test_registry_growth_inside_a_call(self, monkeypatch, steps):
        monkeypatch.setattr(soa, "REGISTRY_CAPACITY", 8)
        simulator, _ = assert_run_matches_steps(_episode, 300, steps)
        assert simulator.network._registry.generation > 3

    def test_warmup_boundary_and_odd_chunks(self, steps):
        def build():
            return _episode(warmup=37, period=11)

        assert_run_matches_steps(
            build, 331, steps, chunks=(0, 1, 7, 29, 1, 13, 0, 64, 5, 211)
        )

    def test_drain_after_driver_run(self, steps):
        reference, reference_monitors = _episode()
        for _ in range(300):
            reference.step()
        reference_extra = reference.drain()
        simulator, monitors = _episode()
        simulator.run(300)
        assert simulator.drain() == reference_extra > 0
        assert simulator.network.in_flight_flits == 0
        assert _fingerprint(simulator, monitors) == _fingerprint(
            reference, reference_monitors
        )

    def test_caller_built_packets_take_steps_while_in_flight(self, steps):
        def build():
            simulator, monitors = _episode()
            simulator.network.enqueue_packet(
                Packet(source=0, destination=35, size_flits=4, created_cycle=0)
            )
            return simulator, monitors

        reference, reference_monitors = build()
        for _ in range(200):
            reference.step()
        del steps[:]
        simulator, monitors = build()
        simulator.run(200)
        # Per-cycle steps only until the caller's packet left the network.
        assert 0 < steps.count(simulator) < 100
        assert _fingerprint(simulator, monitors) == _fingerprint(
            reference, reference_monitors
        )

    def test_parsec_source_falls_back_to_steps(self, steps):
        def build():
            topology = MeshTopology(rows=6, columns=6)
            flood = FloodingAttacker(
                FloodingConfig(attackers=(35,), victim=1, fir=0.5), topology, seed=2
            )
            return _episode(
                sources=[ParsecWorkload("blackscholes", topology, seed=3), flood]
            )

        reference, reference_monitors = build()
        for _ in range(150):
            reference.step()
        del steps[:]
        simulator, monitors = build()
        simulator.run(150)
        assert steps.count(simulator) == 150
        assert _fingerprint(simulator, monitors) == _fingerprint(
            reference, reference_monitors
        )

    def test_source_outside_the_mesh_fails_as_on_steps(self, steps):
        big = MeshTopology(rows=8, columns=8)
        flood = FloodingAttacker(
            FloodingConfig(attackers=(63,), victim=0, fir=1.0), big, seed=2
        )
        simulator, _ = _episode(sources=[flood])
        with pytest.raises(ValueError, match="outside the mesh"):
            simulator.run(10)
        assert steps == [simulator]

    def test_numpy_kernel_takes_steps(self, steps):
        soa_step.use_kernel("numpy")
        simulator, _ = _episode()
        simulator.run(60)
        assert steps.count(simulator) == 60

    def test_metrics_on_stays_on_the_driver(self, steps):
        METRICS.reset()
        METRICS.enable()
        try:
            simulator, _ = _episode()
            simulator.run(100)
            windows = sim_phase_histogram().count(backend="soa", phase="window")
            switches = sim_phase_histogram().count(backend="soa", phase="switch")
        finally:
            METRICS.disable()
            METRICS.reset()
        assert simulator not in steps
        # Boundaries after cycles 36, 44, 52, 68, 84, 92 (two monitors) and the end.
        assert windows == 7
        assert switches == 0
