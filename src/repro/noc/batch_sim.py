"""Episode-batched simulation driver over :class:`BatchedSoAMeshNetwork`.

:class:`BatchedNoCSimulator` advances N independent simulation episodes —
each with its own traffic sources, observers and defense hooks — with one
kernel dispatch per cycle.  It shares the data-fault schedule of
:class:`~repro.noc.simulator.NoCSimulator`
(:class:`~repro.noc.simulator.DataFaultSchedule`); a fault hits every
episode alike.

Each episode is wired through a :class:`LaneSimulator`, which serves the
same per-episode surface as a solo simulator
(:class:`~repro.noc.simulator.EpisodeHooks`: observers, throttle hooks,
``stats``, ``latency``) over its :class:`~repro.noc.soa_batch.SoAMeshLane`,
so the global performance monitor, the dataset builder and the defense
guard attach to a lane exactly as they would to a solo simulator.  A lane
holds its parent weakly and the parent's network builds lane views on
demand, so a dropped batch is freed without the cyclic garbage collector.

Ingress is grouped: each cycle, the batch-capable sources at the same
source *position* across lanes are drained together and handed to
:meth:`BatchedSoAMeshNetwork.enqueue_group` as one cross-episode sweep.
Positions are processed outer-loop so the within-lane enqueue order
(workload before attacker) matches the solo simulator's source order, and
every source keeps its own per-episode RNG stream — the emitted packet
streams are identical per episode to a solo run with the same seeds
(pinned by ``tests/noc/test_batched_equivalence.py``).
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from repro.noc.backend import resolve_backend
from repro.noc.simulator import (
    DataFaultSchedule,
    EpisodeHooks,
    SimulationConfig,
    TrafficSource,
)
from repro.noc.soa_batch import BatchedSoAMeshNetwork, SoAMeshLane

__all__ = ["BatchedNoCSimulator", "LaneSimulator"]


class LaneSimulator(EpisodeHooks):
    """The ``NoCSimulator``-facing view of one episode of a batched run.

    Holds the episode's traffic sources and observers; the parent
    :class:`BatchedNoCSimulator` drives them.  Observer callbacks receive
    this lane, so samplers written against ``NoCSimulator`` (reading
    ``.network`` / ``.cycle`` / ``.sources``) run unchanged per episode.
    """

    def __init__(self, parent: "BatchedNoCSimulator", index: int) -> None:
        self._parent = weakref.proxy(parent)
        self.lane_index = index
        self.config = parent.config
        self.topology = parent.topology
        self.backend = parent.backend
        self.network: SoAMeshLane = parent.network.lane(index)
        self.sources: list[TrafficSource] = []
        self._observers: list[tuple[int, Callable[["LaneSimulator"], None]]] = []

    @property
    def cycle(self) -> int:
        return self._parent.cycle

    def add_source(self, source: TrafficSource) -> None:
        """Attach a traffic source to this episode."""
        self.sources.append(source)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LaneSimulator({self.lane_index} of {self._parent.episodes}, "
            f"cycle={self.cycle})"
        )


class BatchedNoCSimulator(DataFaultSchedule):
    """Drives N independent episodes with one kernel dispatch per cycle."""

    def __init__(
        self, config: SimulationConfig | None = None, episodes: int = 1
    ) -> None:
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        self.config = config or SimulationConfig()
        self.backend = resolve_backend(self.config.backend)
        if self.backend != "soa":
            raise ValueError(
                "episode batching requires the 'soa' backend "
                f"(configured: {self.backend!r})"
            )
        self.topology = self.config.topology()
        self.episodes = int(episodes)
        self.network = BatchedSoAMeshNetwork(
            self.topology,
            self.episodes,
            num_vcs=self.config.num_vcs,
            vc_depth=self.config.vc_depth,
            injection_bandwidth=self.config.injection_bandwidth,
            source_queue_capacity=self.config.source_queue_capacity,
        )
        self.lanes: list[LaneSimulator] = [
            LaneSimulator(self, index) for index in range(self.episodes)
        ]
        self.cycle = 0
        self._init_fault_schedule()

    def lane(self, index: int) -> LaneSimulator:
        """The per-episode simulator view of episode ``index``."""
        return self.lanes[index]

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Advance every episode by a single cycle."""
        cycle = self.cycle
        if self._pending_data_faults:
            self._activate_due_faults(cycle)
        self._ingress(cycle)
        self.network.step(cycle)
        post_warmup = cycle - self.config.warmup_cycles
        if post_warmup >= 0:
            for lane in self.lanes:
                for period, callback in lane._observers:
                    if post_warmup > 0 and post_warmup % period == 0:
                        callback(lane)
        self.cycle += 1

    def run(self, cycles: int) -> None:
        """Advance every episode by ``cycles`` cycles."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        for _ in range(cycles):
            self.step()

    def _ingress(self, cycle: int) -> None:
        """Drain every lane's sources for ``cycle``, grouped across lanes.

        Source positions are processed outer-loop: all lanes' position-0
        sources are enqueued before any position-1 source, so the relative
        enqueue order *within* a lane (e.g. benign workload before
        attacker) is exactly the solo simulator's.  Batch emissions of the
        same shape (packet size, malicious flag) are concatenated into one
        cross-lane :meth:`BatchedSoAMeshNetwork.enqueue_group` sweep;
        per-packet sources fall back to the lane's scalar enqueue.
        """
        max_sources = max((len(lane.sources) for lane in self.lanes), default=0)
        for position in range(max_sources):
            # (size_flits, malicious) -> [(lane, sources, destinations)]
            groups: dict[tuple[int, bool], list] = {}
            for lane in self.lanes:
                if position >= len(lane.sources):
                    continue
                source = lane.sources[position]
                batch_fn = getattr(source, "packet_batch_for_cycle", None)
                if batch_fn is None:
                    for packet in source.packets_for_cycle(cycle):
                        lane.network.enqueue_packet(packet)
                    continue
                batch = batch_fn(cycle)
                if batch is None:
                    continue
                sources, destinations, size_flits, malicious = batch
                groups.setdefault((int(size_flits), bool(malicious)), []).append(
                    (lane, np.asarray(sources), np.asarray(destinations))
                )
            for (size_flits, malicious), entries in groups.items():
                if len(entries) == 1:
                    lane, sources, destinations = entries[0]
                    lane.network.enqueue_batch(
                        sources, destinations, size_flits, cycle, malicious
                    )
                    continue
                lane_ids = np.concatenate(
                    [
                        np.full(sources.size, lane.lane_index, dtype=np.int64)
                        for lane, sources, _ in entries
                    ]
                )
                all_sources = np.concatenate([s for _, s, _ in entries])
                all_destinations = np.concatenate([d for _, _, d in entries])
                self.network.enqueue_group(
                    lane_ids, all_sources, all_destinations, size_flits, cycle, malicious
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedNoCSimulator({self.topology.rows}x{self.topology.columns}"
            f" x{self.episodes} episodes, cycle={self.cycle})"
        )
