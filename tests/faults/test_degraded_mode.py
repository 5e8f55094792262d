"""Degraded-mode tests: window sanitisation and the guard's fault invariants."""

import numpy as np
import pytest

from repro.core.pipeline import LocalizationResult
from repro.defense.degraded import DegradedModeConfig, WindowSanitizer
from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.faults import (
    DelayedWindowFault,
    DroppedWindowFault,
    FaultScenario,
    SilentMonitorFault,
    node_port_cells,
)
from repro.faults.base import clone_sample
from repro.monitor.features import FeatureKind
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.topology import Direction, MeshTopology

from tests.faults.test_monitor_faults import make_sample


@pytest.fixture
def topology():
    return MeshTopology(rows=4, columns=4)


class TestPlausibilityClamp:
    def test_implausible_vco_cell_is_imputed_from_history(self, topology):
        sanitizer = WindowSanitizer(topology, sample_period=100)
        clean, health = sanitizer.sanitize(make_sample(topology, 100, fill=0.4))
        assert health.imputed_cells == 0
        corrupt = make_sample(topology, 200, fill=0.4)
        from repro.noc.topology import Direction

        corrupt.vco.frames[Direction.EAST].values[1, 1] = float(1 << 20)
        clean, health = sanitizer.sanitize(corrupt)
        assert health.imputed_cells == 1
        assert clean.vco.frames[Direction.EAST].values[1, 1] == 0.4

    def test_genuine_flood_values_survive(self, topology):
        config = DegradedModeConfig()
        sanitizer = WindowSanitizer(topology, config, sample_period=100)
        # Saturated but physical: VCO at 1.0, BOC at the per-window ceiling.
        sample = make_sample(topology, 100, fill=1.0)
        for frame in sample.boc.frames.values():
            frame.values[...] = config.boc_rate_ceiling * 100
        clean, health = sanitizer.sanitize(sample)
        assert health.imputed_cells == 0
        from repro.noc.topology import Direction

        assert clean.vco.frames[Direction.EAST].values[0, 0] == 1.0

    def test_unknown_period_disables_boc_ceiling(self, topology):
        sanitizer = WindowSanitizer(topology, sample_period=None)
        sample = make_sample(topology, 100, fill=0.4)
        from repro.noc.topology import Direction

        sample.boc.frames[Direction.EAST].values[0, 0] = float(1 << 30)
        _, health = sanitizer.sanitize(sample)
        assert health.imputed_cells == 0


class TestStuckDetection:
    def test_repeated_signature_declares_stuck_then_heals(self, topology):
        rng = np.random.default_rng(3)
        node = topology.node_id(1, 1)
        cells = node_port_cells(topology, node)
        sanitizer = WindowSanitizer(
            topology, DegradedModeConfig(stuck_after=3), sample_period=100
        )

        def send(cycle, frozen):
            sample = make_sample(topology, cycle, rng=rng)
            if frozen:
                for direction, row, col in cells:
                    sample.vco.frames[direction].values[row, col] = 0.5
                    sample.boc.frames[direction].values[row, col] = 7.0
            return sanitizer.sanitize(sample)

        _, h1 = send(100, frozen=True)
        _, h2 = send(200, frozen=True)
        assert not h1.stuck and not h2.stuck
        clean, h3 = send(300, frozen=True)
        assert h3.stuck == frozenset((node,))
        assert node in h3.unobservable
        # Stuck cells are masked to zero for the pipeline.
        for direction, row, col in cells:
            assert clean.vco.frames[direction].values[row, col] == 0.0
        # The moment real values flow again the node heals.
        _, h4 = send(400, frozen=False)
        assert h4.stuck == frozenset()

    def test_idle_all_zero_node_is_not_stuck(self, topology):
        sanitizer = WindowSanitizer(
            topology, DegradedModeConfig(stuck_after=2), sample_period=100
        )
        for i in range(6):
            _, health = sanitizer.sanitize(make_sample(topology, 100 * i, fill=0.0))
            assert not health.stuck

    def test_declared_silent_nodes_reported(self, topology):
        from repro.faults.monitor import UNOBSERVABLE_KEY

        sanitizer = WindowSanitizer(topology, sample_period=100)
        sample = make_sample(topology, 100, fill=0.2)
        sample.metadata[UNOBSERVABLE_KEY] = (5, 9)
        _, health = sanitizer.sanitize(sample)
        assert health.declared_silent == frozenset((5, 9))
        assert health.unobservable == frozenset((5, 9))


class FlaggingFence:
    """Stub pipeline that always detects and names a fixed node."""

    def __init__(self, node, detect=True):
        self.node = node
        self.detect = detect

    def process_sample(self, sample, force_localization=False, detection=None):
        return LocalizationResult(
            cycle=sample.cycle,
            detected=self.detect,
            detection_probability=0.9 if self.detect else 0.1,
            attackers=[self.node] if self.detect else [],
        )


def guarded_run(fence, scenario=None, windows=8, period=100, policy=None, rows=4):
    """A real monitor stream (idle simulator) through a guard, with faults."""
    simulator = NoCSimulator(SimulationConfig(rows=rows, warmup_cycles=0))
    guard = DL2FenceGuard(
        fence, policy or MitigationPolicy.quarantine(engage_after=2)
    )
    monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=period)).attach(
        simulator
    )
    if scenario is not None:
        monitor.set_fault_plane(scenario.build_plane(simulator.topology, seed=3))
    guard.attach(simulator, monitor=monitor)
    simulator.run(windows * period)
    return guard


class TestGuardFaultInvariants:
    def test_unobservable_node_is_never_engaged(self):
        topology = MeshTopology(rows=4, columns=4)
        silent = topology.node_id(2, 2)
        scenario = FaultScenario(
            name="silent", monitor_faults=(SilentMonitorFault(node=silent),)
        )
        guard = guarded_run(FlaggingFence(silent), scenario=scenario, windows=10)
        assert guard.engaged_nodes == []
        assert all(
            silent in window.unobservable for window in guard.report.windows
        )

    def test_observable_node_engages_under_same_fence(self):
        guard = guarded_run(FlaggingFence(5), scenario=None, windows=10)
        assert guard.engaged_nodes == [5]

    def test_silent_elsewhere_does_not_block_real_engagement(self):
        topology = MeshTopology(rows=4, columns=4)
        silent = topology.node_id(2, 2)
        scenario = FaultScenario(
            name="silent", monitor_faults=(SilentMonitorFault(node=silent),)
        )
        guard = guarded_run(FlaggingFence(5), scenario=scenario, windows=10)
        assert guard.engaged_nodes == [5]

    def test_dropped_windows_shrink_the_timeline_but_not_the_loop(self):
        scenario = FaultScenario(
            name="drop",
            monitor_faults=(DroppedWindowFault(probability=0.4, seed=5),),
        )
        guard = guarded_run(FlaggingFence(5), scenario=scenario, windows=24)
        assert 0 < len(guard.report.windows) < 24
        assert guard.engaged_nodes == [5]

    def test_delayed_windows_keep_cycles_monotone(self):
        scenario = FaultScenario(
            name="delay",
            monitor_faults=(DelayedWindowFault(probability=0.5, seed=5),),
        )
        guard = guarded_run(FlaggingFence(5, detect=False), scenario=scenario, windows=24)
        cycles = [window.cycle for window in guard.report.windows]
        assert cycles == sorted(cycles)

    def test_stale_windows_do_not_release(self):
        """A burst of delayed clean windows must not lift a fence."""
        simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        policy = MitigationPolicy.quarantine(
            engage_after=1, release_after=2, stale_after=99, reengage_backoff=1.0
        )
        fence = FlaggingFence(5)
        guard = DL2FenceGuard(fence, policy)
        guard.simulator = simulator
        guard.report.sample_period = 100
        topology = simulator.topology
        simulator.run(200)
        guard.on_sample(make_sample(topology, 100), simulator)
        assert guard.engaged_nodes == [5]
        # Clean windows now — but delivered with badly stale capture clocks.
        fence.detect = False
        simulator.run(800)  # simulator.cycle = 1000
        guard.on_sample(make_sample(topology, 200), simulator)
        guard.on_sample(make_sample(topology, 300), simulator)
        guard.on_sample(make_sample(topology, 400), simulator)
        assert guard.engaged_nodes == [5]
        # Fresh clean windows release as usual.
        guard.on_sample(make_sample(topology, 900), simulator)
        guard.on_sample(make_sample(topology, 1000), simulator)
        assert guard.engaged_nodes == []

    def test_degraded_off_restores_unsanitized_stream(self):
        topology = MeshTopology(rows=4, columns=4)
        silent = topology.node_id(2, 2)
        scenario = FaultScenario(
            name="silent", monitor_faults=(SilentMonitorFault(node=silent),)
        )
        simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0))
        guard = DL2FenceGuard(
            FlaggingFence(silent),
            MitigationPolicy.quarantine(engage_after=2),
            degraded=None,
        )
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=100)).attach(
            simulator
        )
        monitor.set_fault_plane(scenario.build_plane(topology, seed=3))
        guard.attach(simulator, monitor=monitor)
        simulator.run(800)
        # Without degraded mode the silent node is fenced on naming alone —
        # exactly the failure mode degraded mode exists to prevent.
        assert guard.engaged_nodes == [silent]


class _TupleStuckScan:
    """The per-node tuple scan the vectorized stuck detector replaced: the
    reference its streaks, stuck sets and masking are pinned against."""

    def __init__(self, topology, stuck_after):
        self.cells = [node_port_cells(topology, n) for n in range(topology.num_nodes)]
        self.stuck_after = stuck_after
        self.previous = [None] * topology.num_nodes
        self.streaks = np.zeros(topology.num_nodes, dtype=np.int64)
        self.stuck = set()

    def scan(self, sample):
        """Update from a (clamped) window; returns its masked copy."""
        for node, cells in enumerate(self.cells):
            signature = tuple(
                float(frame_set.frames[direction].values[row, col])
                for direction, row, col in cells
                for frame_set in (sample.vco, sample.boc)
            )
            previous = self.previous[node]
            self.previous[node] = signature
            if (
                previous is not None
                and signature == previous
                and any(value != 0.0 for value in signature)
            ):
                self.streaks[node] += 1
            else:
                self.streaks[node] = 0
                self.stuck.discard(node)
            if self.streaks[node] >= self.stuck_after - 1:
                self.stuck.add(node)
        masked = clone_sample(sample)
        for node in self.stuck:
            for direction, row, col in self.cells[node]:
                masked.vco.frames[direction].values[row, col] = 0.0
                masked.boc.frames[direction].values[row, col] = 0.0
        return masked


def _set_node(sample, cells, values):
    for (direction, row, col), (vco, boc) in zip(cells, values):
        sample.vco.frames[direction].values[row, col] = vco
        sample.boc.frames[direction].values[row, col] = boc


def _node_values(sample, cells):
    return [
        (
            sample.vco.frames[direction].values[row, col],
            sample.boc.frames[direction].values[row, col],
        )
        for direction, row, col in cells
    ]


def _faulty_stream(topology, rng, windows):
    """Random windows in which nodes freeze for a few windows and heal,
    one node idles at zero, one keeps a constant signature whose zero cell
    flips sign, and frozen nodes sometimes carry a NaN cell."""
    cells = [node_port_cells(topology, n) for n in range(topology.num_nodes)]
    idle, signed = 0, topology.num_nodes - 1
    frozen: dict[int, int] = {}
    previous = None
    for window in range(windows):
        sample = make_sample(topology, 100 * (window + 1), rng=rng)
        _set_node(sample, cells[idle], [(0.0, 0.0)] * len(cells[idle]))
        sign = -1.0 if window % 2 else 1.0
        _set_node(
            sample,
            cells[signed],
            [(0.5, sign * 0.0)] + [(0.25, 3.0)] * (len(cells[signed]) - 1),
        )
        if previous is not None:
            for node in rng.choice(topology.num_nodes - 1, size=2, replace=False):
                frozen.setdefault(int(node) + 1, int(rng.integers(1, 6)))
            for node in list(frozen):
                if node == signed:
                    continue
                _set_node(sample, cells[node], _node_values(previous, cells[node]))
                if rng.random() < 0.1:
                    direction, row, col = cells[node][0]
                    sample.vco.frames[direction].values[row, col] = np.nan
                frozen[node] -= 1
                if frozen[node] == 0:
                    del frozen[node]
        previous = sample
        yield sample


class TestVectorizedStuckScan:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("stuck_after", [2, 3, 5])
    def test_matches_per_node_tuple_scan(self, seed, stuck_after):
        topology = MeshTopology(rows=5, columns=6)
        sanitizer = WindowSanitizer(
            topology, DegradedModeConfig(stuck_after=stuck_after), sample_period=100
        )
        reference = _TupleStuckScan(topology, stuck_after)
        rng = np.random.default_rng(seed)
        held = 0
        for sample in _faulty_stream(topology, rng, windows=60):
            expected = reference.scan(sample)
            clean, health = sanitizer.sanitize(sample)
            assert health.stuck == frozenset(reference.stuck)
            assert np.array_equal(sanitizer._streaks, reference.streaks)
            for kind in FeatureKind:
                for direction in Direction.cardinal():
                    assert np.array_equal(
                        clean.feature(kind).frames[direction].values,
                        expected.feature(kind).frames[direction].values,
                        equal_nan=True,
                    )
            held += len(health.stuck)
        assert held > 0, "the stream never held a node stuck"
        # The constant node whose zero cell flips sign is stuck (0.0 == -0.0);
        # the all-zero idle node never is.
        assert topology.num_nodes - 1 in health.stuck
        assert 0 not in health.stuck
