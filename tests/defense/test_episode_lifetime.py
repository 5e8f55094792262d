"""Finished episodes free themselves without the cyclic collector.

The solo twin extends
``test_guard.py::test_dropped_episode_is_freed_without_cycle_collection``
to the monitor and the guard: the monitor's listener holds the guard, and
the guard holds neither the monitor nor (strongly) the simulator, so
dropping a guarded episode frees all three at once.  The batched twin:
lane simulators hold their batch weakly and the batched network builds
lane views on demand, so dropping a guarded batch frees its state arrays
at once instead of at the next garbage collection.
"""

import gc
import weakref

from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.noc.batch_sim import BatchedNoCSimulator
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.traffic.synthetic import UniformRandomTraffic
from tests.defense.test_guard import OracleFence


def _guarded_batch(episodes):
    batched = BatchedNoCSimulator(
        SimulationConfig(rows=4, warmup_cycles=0, seed=3), episodes=episodes
    )
    guards = []
    for index in range(episodes):
        lane = batched.lane(index)
        lane.add_source(
            UniformRandomTraffic(lane.topology, injection_rate=0.05, seed=42 + index)
        )
        guard = DL2FenceGuard(
            OracleFence([5]), MitigationPolicy.quarantine(engage_after=1)
        )
        guard.attach(lane, monitor_config=MonitorConfig(sample_period=64))
        guards.append(guard)
    return batched, guards


def test_dropped_batch_is_freed_without_cycle_collection():
    gc.disable()
    try:
        batched, guards = _guarded_batch(episodes=2)
        batched.run(300)
        assert [guard.simulator for guard in guards] == batched.lanes
        assert all(lane.stats.delivered for lane in batched.lanes)
        network = weakref.ref(batched.network)
        del batched
        assert network() is None
        assert all(guard.simulator is None for guard in guards)
    finally:
        gc.enable()


def test_dropped_solo_episode_frees_monitor_and_guard_without_cycle_collection():
    gc.disable()
    try:
        simulator = NoCSimulator(SimulationConfig(rows=4, warmup_cycles=0, seed=3))
        simulator.add_source(
            UniformRandomTraffic(simulator.topology, injection_rate=0.05, seed=42)
        )
        monitor = GlobalPerformanceMonitor(MonitorConfig(sample_period=64))
        guard = DL2FenceGuard(
            OracleFence([5]), MitigationPolicy.quarantine(engage_after=1)
        )
        guard.attach(simulator, monitor=monitor.attach(simulator))
        simulator.run(300)
        assert guard.report.windows
        refs = [weakref.ref(obj) for obj in (simulator, monitor, guard)]
        del simulator, monitor, guard
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
