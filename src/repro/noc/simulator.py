"""Cycle-driven NoC simulator that couples traffic sources to the mesh.

The simulator plays the role Gem5/Garnet plays in the paper: it advances the
mesh cycle by cycle, asks every attached traffic source (benign workloads and
the FDoS attacker) which packets to create, and lets observers — such as the
global performance monitor of :mod:`repro.monitor` — sample runtime features
at a fixed period.

:meth:`NoCSimulator.step` is the per-cycle path: every source emits through
NumPy, the network ingests and steps, observers fire.  On the structure-of-
arrays backend with the compiled kernel, :meth:`NoCSimulator.run` instead
hands whole windows to the compiled window driver
(:class:`~repro.noc.soa_kernel.WindowDriver`): one C call per window runs
every cycle up to the next observer sample, scheduled data fault or the end
of the run, drawing each source's packets from the source's own generator
as its :class:`EmissionPlan` describes.  Observers, throttling and fault
activation stay in Python at the window boundaries, so both paths produce
the same packets, frames and RNG end states.  ``step()`` remains the path
(and the oracle) for the NumPy kernel, the object backend, sources without
an emission plan (PARSEC), caller-built packets in flight and meshes past
the route-table cut-over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

import numpy as np

from repro.noc.backend import BACKENDS, build_network, resolve_backend
from repro.noc.packet import Packet
from repro.noc.route_provider import RouteProvider
from repro.noc.soa_kernel import WindowDriver
from repro.noc.stats import LatencyStats
from repro.noc.topology import MeshTopology
from repro.obs.bus import BUS

__all__ = [
    "DataFaultSchedule",
    "EmissionPlan",
    "EpisodeHooks",
    "NoCSimulator",
    "SimulationConfig",
    "TrafficSource",
]


class TrafficSource(Protocol):
    """Anything that can generate packets for a given cycle.

    Both the synthetic/PARSEC workload generators and the FDoS attacker of
    :mod:`repro.traffic` implement this protocol.
    """

    def packets_for_cycle(self, cycle: int) -> Iterable[Packet]:
        """Packets created during ``cycle`` (may be empty)."""
        ...


@dataclass(frozen=True)
class EmissionPlan:
    """How a traffic source draws its packets, for the compiled window driver.

    A source that can be expressed returns one from ``emission_plan()``.
    On every cycle of ``[first, last)`` that emits, the source makes
    ``count`` draws ``rng.random(count)`` and emits one packet per draw
    below its rate, in draw order: from ``sources[i]`` (the draw index
    itself when ``None``) to ``targets[i]``; with ``targets=None`` all
    kept draws then take their destinations from one
    ``rng.integers(0, count - 1, size=k)`` call, skipping over the source
    (uniform random over the other nodes).  Packets whose destination is
    their source are dropped.

    The per-draw rate is the constant ``rate`` (``0.0`` draws nothing), or,
    with ``rate_table``, row ``c - start`` of ``rate_table(start, stop)``:
    ``(rates, silent)`` with ``rates`` of shape ``(stop - start, count)``
    and ``silent`` marking cycles that draw nothing at all.  A source with a
    ``packets_generated`` counter has it advanced by every kept draw.
    """

    rng: object
    count: int
    size_flits: int
    malicious: bool
    rate: float = 0.0
    sources: object = None
    targets: object = None
    first: int = 0
    last: int | None = None
    rate_table: Callable | None = None

    def fits(self, nodes: int) -> bool:
        """Whether every packet the plan can emit is valid on a mesh of
        ``nodes`` nodes (the compiled ingress does not check node ids)."""
        if self.size_flits < 1 or (self.sources is None and self.count > nodes):
            return False
        ids = [np.asarray(a) for a in (self.sources, self.targets) if a is not None]
        return all(((a >= 0) & (a < nodes)).all() for a in ids)


@dataclass
class SimulationConfig:
    """Static configuration of a simulation run.

    Defaults follow the paper's setup: Mesh-XY, one virtual network with a
    small number of VCs per port, 4-flit packets, and a warmup period before
    feature sampling starts so VCO/BOC frames describe steady-state traffic.
    """

    rows: int = 8
    columns: int = 0
    num_vcs: int = 4
    vc_depth: int = 4
    injection_bandwidth: int = 1
    source_queue_capacity: int = 512
    warmup_cycles: int = 64
    seed: int = 0
    #: Simulator backend: "" resolves REPRO_SIM_BACKEND (default "soa");
    #: "object" forces the router/VC/flit reference model.
    backend: str = ""

    def __post_init__(self) -> None:
        if self.columns == 0:
            self.columns = self.rows
        if self.rows <= 0 or self.columns <= 0:
            raise ValueError("mesh dimensions must be positive")
        if self.warmup_cycles < 0:
            raise ValueError("warmup_cycles must be non-negative")
        if self.backend and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown simulator backend {self.backend!r}; "
                f"expected one of {BACKENDS}"
            )

    def topology(self) -> MeshTopology:
        return MeshTopology(rows=self.rows, columns=self.columns)


class EpisodeHooks:
    """Observers, defense hooks and results of one simulated episode.

    Shared by :class:`NoCSimulator` and the per-episode
    :class:`repro.noc.batch_sim.LaneSimulator`; both provide ``network``
    (the episode's ``MeshNetwork``-facing surface) and ``_observers``.
    """

    def add_observer(self, period: int, callback: Callable) -> None:
        """Call ``callback(self)`` every ``period`` cycles after warmup."""
        if period <= 0:
            raise ValueError("observer period must be positive")
        self._observers.append((period, callback))

    # -- runtime defense hooks ------------------------------------------------
    def throttle_node(self, node_id: int, fraction: float) -> None:
        """Rate-limit ``node_id`` to ``fraction`` of the injection bandwidth.

        This is the countermeasure surface a runtime defense such as
        :class:`repro.defense.DL2FenceGuard` uses once attackers are
        localized; ``fraction=0.0`` quarantines the node entirely.
        """
        self.network.set_injection_limit(node_id, fraction)

    def quarantine_node(self, node_id: int) -> None:
        """Block all injection from ``node_id`` (limit 0.0)."""
        self.network.set_injection_limit(node_id, 0.0)

    def release_node(self, node_id: int) -> None:
        """Lift any injection restriction on ``node_id``."""
        self.network.set_injection_limit(node_id, 1.0)

    @property
    def restricted_nodes(self) -> list[int]:
        """Nodes currently throttled or quarantined."""
        return self.network.restricted_nodes

    # -- results ---------------------------------------------------------------
    @property
    def stats(self):
        """Network-level counters (delivered packets, drops, etc.)."""
        return self.network.stats

    def latency(self, benign_only: bool = True) -> LatencyStats:
        """Latency statistics over delivered packets (benign-only by default)."""
        return self.network.stats.latency(benign_only=benign_only)


class DataFaultSchedule:
    """Scheduled and immediate data-plane faults of one simulated network.

    Shared by :class:`NoCSimulator` and
    :class:`repro.noc.batch_sim.BatchedNoCSimulator`, where a fault hits
    every episode of the batch alike.  Both provide ``topology``,
    ``network`` and ``cycle``.
    """

    def _init_fault_schedule(self) -> None:
        # Scheduled (cycle, dead_links, dead_routers) activations plus the
        # accumulated fault set already applied.
        self._pending_data_faults: list[tuple[int, tuple, tuple]] = []
        self._dead_links: set = set()
        self._dead_routers: set = set()

    def schedule_data_fault(
        self, cycle: int, dead_links=(), dead_routers=()
    ) -> None:
        """Kill links/routers at the start of ``cycle`` (permanently).

        ``dead_links`` holds ``(node, Direction)`` pairs naming a physical
        (bidirectional) link; ``dead_routers`` holds node ids.  Faults
        accumulate: each activation rebuilds one
        :class:`~repro.noc.route_provider.RouteProvider` over the union of
        everything dead so far and installs it on the backend, which excises
        doomed in-flight packets atomically (see ``apply_data_faults``).
        """
        if cycle < self.cycle:
            raise ValueError(
                f"cannot schedule a fault at past cycle {cycle} "
                f"(current cycle {self.cycle})"
            )
        self._pending_data_faults.append(
            (cycle, tuple(dead_links), tuple(dead_routers))
        )
        self._pending_data_faults.sort(key=lambda item: item[0])

    def inject_data_fault(self, dead_links=(), dead_routers=()) -> int:
        """Apply a link/router kill immediately (between cycles).

        Returns the number of in-flight packets excised.
        """
        self._dead_links.update(
            (int(node), direction) for node, direction in dead_links
        )
        self._dead_routers.update(int(node) for node in dead_routers)
        provider = RouteProvider(
            self.topology,
            dead_links=tuple(self._dead_links),
            dead_routers=tuple(self._dead_routers),
        )
        excised = self.network.apply_data_faults(provider)
        if BUS.active:
            BUS.emit(
                "fault_activated",
                cycle=self.cycle,
                dead_links=sorted(
                    [int(node), direction.name]
                    for node, direction in provider.dead_links
                ),
                dead_routers=sorted(int(n) for n in provider.dead_routers),
                excised=int(excised),
            )
        return excised

    @property
    def route_provider(self):
        """Active fault-aware route provider (None on a healthy mesh)."""
        return self.network.route_provider

    @property
    def dead_links(self) -> frozenset:
        """Directed dead links of the active fault set (normalized)."""
        provider = self.network.route_provider
        return provider.dead_links if provider is not None else frozenset()

    @property
    def dead_routers(self) -> frozenset:
        """Dead routers of the active fault set."""
        provider = self.network.route_provider
        return provider.dead_routers if provider is not None else frozenset()

    def _activate_due_faults(self, cycle: int) -> None:
        pending = self._pending_data_faults
        due = [fault for fault in pending if fault[0] <= cycle]
        if not due:
            return
        self._pending_data_faults = [f for f in pending if f[0] > cycle]
        links: list = []
        routers: list = []
        for _, dead_links, dead_routers in due:
            links.extend(dead_links)
            routers.extend(dead_routers)
        self.inject_data_fault(dead_links=links, dead_routers=routers)


class NoCSimulator(EpisodeHooks, DataFaultSchedule):
    """Drives a :class:`MeshNetwork` with one or more traffic sources."""

    def __init__(self, config: SimulationConfig | None = None) -> None:
        self.config = config or SimulationConfig()
        self.topology = self.config.topology()
        self.backend = resolve_backend(self.config.backend)
        self.network = build_network(
            self.topology,
            backend=self.backend,
            num_vcs=self.config.num_vcs,
            vc_depth=self.config.vc_depth,
            injection_bandwidth=self.config.injection_bandwidth,
            source_queue_capacity=self.config.source_queue_capacity,
        )
        # Array ingress: when both the source and the backend support batch
        # transfer, one vectorized hand-off per source replaces the
        # per-packet enqueue loop (same packets, same RNG stream).
        self._batch_ingress = hasattr(self.network, "enqueue_batch")
        self._sources_version = 0
        self.sources = ()
        self.cycle = 0
        self._observers: list[tuple[int, Callable[["NoCSimulator"], None]]] = []
        self._init_fault_schedule()

    # -- wiring ------------------------------------------------------------
    @property
    def sources(self) -> tuple[TrafficSource, ...]:
        """Attached traffic sources, in per-cycle emission order.

        Read-only: attach with :meth:`add_source` or assign a whole new
        sequence, so the per-cycle emitters stay in step with the sources.
        """
        return tuple(self._sources)

    @sources.setter
    def sources(self, sources) -> None:
        self._sources = list(sources)
        self._emitters = [self._emitter(source) for source in self._sources]
        self._sources_version += 1

    def _emitter(self, source: TrafficSource):
        """``(batch_fn, packets_fn)`` of one source, resolved once when it is
        attached: array ingress when both the source and the backend
        support it, else the per-packet path."""
        if self._batch_ingress:
            batch_fn = getattr(source, "packet_batch_for_cycle", None)
            if batch_fn is not None:
                return batch_fn, None
        return None, source.packets_for_cycle

    def add_source(self, source: TrafficSource) -> None:
        """Attach a traffic source (benign workload or attacker)."""
        self._sources.append(source)
        self._emitters.append(self._emitter(source))
        self._sources_version += 1

    def _window_driver(self) -> WindowDriver | None:
        """The compiled window driver of the attached sources, or None when
        the network cannot take one or a source has no valid emission plan."""
        takes_driver = getattr(self.network, "takes_window_driver", None)
        if takes_driver is None or not takes_driver():
            return None
        plans = []
        for source in self._sources:
            plan_for = getattr(source, "emission_plan", None)
            plan = plan_for() if plan_for is not None else None
            # An invalid plan (a source built for a bigger mesh) falls back
            # to step(), whose checked ingress raises when it emits.
            if plan is None or not plan.fits(self.topology.num_nodes):
                return None
            plans.append((source, plan))
        return WindowDriver(plans)

    # -- execution ------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by a single cycle."""
        cycle = self.cycle
        if self._pending_data_faults:
            self._activate_due_faults(cycle)
        network = self.network
        for batch_fn, packets_fn in self._emitters:
            if batch_fn is not None:
                batch = batch_fn(cycle)
                if batch is not None:
                    sources, destinations, size_flits, malicious = batch
                    network.enqueue_batch(
                        sources, destinations, size_flits, cycle, malicious
                    )
                continue
            for packet in packets_fn(cycle):
                network.enqueue_packet(packet)
        network.step(cycle)
        self._notify_observers()
        self.cycle += 1

    def _notify_observers(self) -> None:
        """Fire the observers due at the current cycle (after its step)."""
        post_warmup = self.cycle - self.config.warmup_cycles
        if post_warmup > 0:
            for period, callback in self._observers:
                if post_warmup % period == 0:
                    callback(self)

    def _window_stop(self, end: int) -> int:
        """End (exclusive) of the window starting at the current cycle: the
        cycle after the next observer sample, the next scheduled data
        fault, or ``end``."""
        stop = end
        warmup = self.config.warmup_cycles
        for period, _ in self._observers:
            # First sample cycle at or after this one: warmup + k * period, k >= 1.
            k = max(1, -(-(self.cycle - warmup) // period))
            stop = min(stop, warmup + k * period + 1)
        if self._pending_data_faults:
            stop = min(stop, self._pending_data_faults[0][0])
        return stop

    def run(self, cycles: int) -> None:
        """Advance the simulation by ``cycles`` cycles.

        Window by window through the compiled driver when the network and
        every source support it (see the module docstring), else one
        :meth:`step` per cycle; both give the same result.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        end = self.cycle + cycles
        version = None
        while self.cycle < end:
            if version != self._sources_version:
                # Plans capture each source's generator: rebuilt per run and
                # whenever an observer changes the sources.
                version = self._sources_version
                driver = self._window_driver()
            if driver is None:
                self.step()
                continue
            if self._pending_data_faults:
                self._activate_due_faults(self.cycle)
            stop = self._window_stop(end)
            if not self.network.run_window(driver, self.cycle, stop):
                self.step()
                continue
            self.cycle = stop - 1
            self._notify_observers()
            self.cycle = stop

    def drain(self, max_cycles: int = 10_000) -> int:
        """Run with no new injection until all in-flight traffic is delivered.

        Returns the number of extra cycles simulated.  Traffic sources are
        detached during the drain so the network empties.  Backlog stuck
        behind a quarantined interface is ignored — by policy it can never
        inject, so waiting on it would always hit ``max_cycles``.
        """
        saved_sources = self.sources
        self.sources = ()
        extra = 0
        try:
            while (
                self.network.in_flight_flits > 0
                or self.network.drainable_queued_flits > 0
            ) and extra < max_cycles:
                self.step()
                extra += 1
        finally:
            self.sources = saved_sources
        return extra

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NoCSimulator({self.topology.rows}x{self.topology.columns}, "
            f"cycle={self.cycle}, sources={len(self.sources)})"
        )
