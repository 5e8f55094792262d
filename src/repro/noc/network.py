"""Mesh network: routers, links and the per-cycle switching procedure."""

from __future__ import annotations

from collections import deque
from time import perf_counter

from repro.noc.packet import Flit, Packet
from repro.noc.router import Router, VirtualChannel
from repro.noc.routing import UnroutableError, xy_next_direction
from repro.noc.stats import NetworkStats
from repro.noc.topology import Direction, MeshTopology
from repro.obs.metrics import METRICS, sim_phase_histogram

__all__ = ["MeshNetwork"]


class MeshNetwork:
    """A 2-D mesh of :class:`Router` objects with XY wormhole switching.

    The network advances in cycles.  Each cycle performs, in order:

    1. **Injection** — up to ``injection_bandwidth`` flits per node move from
       the node's source queue into the local input port of its router.
    2. **Switch allocation** — every router picks at most one flit per output
       link, honouring wormhole VC allocation and downstream buffer space.
    3. **Link traversal** — scheduled flits move into the downstream router's
       input buffer (or are ejected at their destination).

    The two-phase allocate/execute split guarantees a flit advances at most
    one hop per cycle regardless of router iteration order.
    """

    def __init__(
        self,
        topology: MeshTopology,
        num_vcs: int = 4,
        vc_depth: int = 4,
        injection_bandwidth: int = 1,
        source_queue_capacity: int = 512,
    ) -> None:
        if injection_bandwidth < 1:
            raise ValueError("injection_bandwidth must be >= 1")
        if source_queue_capacity < 1:
            raise ValueError("source_queue_capacity must be >= 1")
        self.topology = topology
        self.num_vcs = num_vcs
        self.vc_depth = vc_depth
        self.injection_bandwidth = injection_bandwidth
        self.source_queue_capacity = source_queue_capacity
        self.routers: list[Router] = [
            Router(node, topology, num_vcs=num_vcs, vc_depth=vc_depth)
            for node in topology.nodes()
        ]
        for router in self.routers:
            for direction in Direction.cardinal():
                neighbor = topology.neighbor(router.node_id, direction)
                if neighbor is not None:
                    router.down_ports[direction] = self.routers[neighbor].input_ports[
                        direction.opposite
                    ]
        # Flat port list for the per-cycle occupancy accumulation sweep.
        self._all_ports = [
            port for router in self.routers for port in router.input_ports.values()
        ]
        self.source_queues: list[deque[Flit]] = [deque() for _ in topology.nodes()]
        # Nodes whose source queue holds flits, and nodes under an injection
        # limit — the only nodes the injection phase has to visit.
        self._queued_nodes: set[int] = set()
        self._limited_nodes: set[int] = set()
        # Per-node injection limit in [0, 1]: the fraction of the injection
        # bandwidth a node may use.  1.0 is unrestricted, 0.0 quarantines the
        # node entirely.  This is the rate-limit hook a runtime defense
        # (:mod:`repro.defense`) pulls to fence off localized attackers.
        self.injection_limits: list[float] = [1.0] * topology.num_nodes
        self._injection_allowance: list[float] = [0.0] * topology.num_nodes
        self.stats = NetworkStats()
        self.dropped_packets = 0
        # Data-plane fault state (dead links/routers).  None on a healthy
        # mesh, so the fault-free allocator keeps the plain XY path.
        self._route_provider = None
        self._routable_start = None
        self.killed_packets = 0
        self.unroutable_packets = 0

    # -- data-plane faults (dead links / routers) ----------------------------
    @property
    def route_provider(self):
        """The active fault-aware route provider (None on a healthy mesh)."""
        return self._route_provider

    def apply_data_faults(self, provider) -> int:
        """Install a degraded :class:`~repro.noc.route_provider.RouteProvider`.

        The object-graph mirror of ``SoAMeshNetwork.apply_data_faults``:
        dead down-links are unwired, doomed in-flight packets are excised
        wholesale (administrative purge — no buffer-read/BOC accounting),
        stale cached output directions of unbound VCs are cleared so the
        next allocation consults the provider, and freshly queued packets
        are gated by start-state routability.  Returns the number of
        in-flight packets killed (also accumulated on ``killed_packets``).
        """
        self._route_provider = provider
        self._routable_start = provider.routable_from_start
        for router in self.routers:
            for direction in list(router.down_ports):
                if not provider.link_is_live(router.node_id, direction):
                    del router.down_ports[direction]
        doomed = self._excise_doomed(provider)
        self._purge_unroutable_queued(doomed)
        self.killed_packets += len(doomed)
        return len(doomed)

    def _excise_doomed(self, provider) -> set[int]:
        """Doom and clear in-flight packets stranded by the new fault set.

        A packet is doomed when any of its VCs sits in a dead router, any of
        its wormhole bindings crosses a dead link, or its head flit's
        ``(node, travel-state)`` can no longer reach the destination under
        the turn model (same three rules as the SoA backend).
        """
        doomed: set[int] = set()
        for router in self.routers:
            dead_router = router.node_id in provider.dead_routers
            for port in router.input_ports.values():
                for vc in port.vcs:
                    pid = vc.allocated_packet
                    if pid is None:
                        continue
                    if dead_router:
                        doomed.add(pid)
                        continue
                    if vc.downstream_vc is not None and not provider.link_is_live(
                        router.node_id, vc.output_direction
                    ):
                        doomed.add(pid)
                        continue
                    flit = vc.peek()
                    if flit is not None and flit.is_head:
                        travel = (
                            None
                            if port.direction is Direction.LOCAL
                            else port.direction.opposite
                        )
                        try:
                            provider.next_direction(
                                router.node_id, flit.destination, travel
                            )
                        except UnroutableError:
                            doomed.add(pid)
        for router in self.routers:
            for port in router.input_ports.values():
                for vc in port.vcs:
                    if vc.allocated_packet is None:
                        continue
                    if vc.allocated_packet in doomed:
                        # Whole-VC clears are exact: a VC only ever holds
                        # flits of its single allocated packet.
                        flits = len(vc.flits)
                        vc.flits.clear()
                        vc.allocated_packet = None
                        vc.output_direction = None
                        vc.downstream_vc = None
                        port.occupied_vcs -= 1
                        port.buffered_flits -= flits
                        router.buffered_flits -= flits
                    elif vc.downstream_vc is None:
                        # Surviving unbound front: drop the cached direction
                        # so the next allocation re-routes via the provider
                        # (bound VCs keep following their wormhole binding).
                        vc.output_direction = None
        return doomed

    def _purge_unroutable_queued(self, doomed: set[int]) -> None:
        """Drop doomed remnants and START-unroutable packets from the source
        queues (continuation flits of *surviving* partially injected packets
        stay, mirroring :meth:`flush_source_queue`)."""
        routable = self._routable_start
        for node in list(self._queued_nodes):
            queue = self.source_queues[node]
            kept: list[Flit] = []
            dropped_fresh: set[int] = set()
            for flit in queue:
                packet = flit.packet
                if packet.packet_id in doomed:
                    continue
                if packet.injected_cycle is None and not routable[
                    node, packet.destination
                ]:
                    dropped_fresh.add(packet.packet_id)
                    continue
                kept.append(flit)
            if len(kept) == len(queue):
                continue
            queue.clear()
            queue.extend(kept)
            if dropped_fresh:
                self.dropped_packets += len(dropped_fresh)
                self.unroutable_packets += len(dropped_fresh)
            if not queue:
                self._queued_nodes.discard(node)

    # -- injection interface ------------------------------------------------
    def enqueue_packet(self, packet: Packet) -> bool:
        """Queue a packet's flits at its source node.

        Returns False (and counts a drop) when the source queue is already at
        capacity — this models the saturation / "system crashed" regime the
        paper reaches at FIR = 1 — or when no route to the destination
        survives the active fault set.
        """
        if self._routable_start is not None and not self._routable_start[
            packet.source, packet.destination
        ]:
            self.dropped_packets += 1
            self.unroutable_packets += 1
            return False
        queue = self.source_queues[packet.source]
        if len(queue) + packet.size_flits > self.source_queue_capacity:
            self.dropped_packets += 1
            return False
        self.stats.record_created(packet)
        for flit in packet.to_flits():
            queue.append(flit)
        self._queued_nodes.add(packet.source)
        return True

    def router(self, node_id: int) -> Router:
        """Router attached to ``node_id``."""
        return self.routers[node_id]

    # -- injection rate limiting (defense hook) -----------------------------
    def set_injection_limit(self, node_id: int, fraction: float) -> None:
        """Restrict ``node_id`` to ``fraction`` of the injection bandwidth.

        ``fraction=1.0`` restores normal service, ``fraction=0.0`` blocks the
        node's network interface completely (quarantine).  Fractional limits
        are enforced with a credit accumulator so e.g. ``0.25`` injects one
        flit every four cycles on a unit-bandwidth interface.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("injection limit must be in [0, 1]")
        if node_id not in self.topology:
            raise ValueError(f"node {node_id} outside the {self.topology!r} mesh")
        self.injection_limits[node_id] = float(fraction)
        if fraction < 1.0:
            self._limited_nodes.add(node_id)
        else:
            self._limited_nodes.discard(node_id)
        # Changing the limit restarts the credit accumulator: credit accrued
        # under an older, looser limit must not leak through a quarantine.
        self._injection_allowance[node_id] = 0.0

    def injection_limit(self, node_id: int) -> float:
        """Current injection limit of ``node_id`` (1.0 = unrestricted)."""
        self.topology._check_node(node_id)
        return self.injection_limits[node_id]

    def flush_source_queue(self, node_id: int) -> int:
        """Discard flits queued at ``node_id``'s network interface.

        Used when quarantining a localized attacker so its accumulated flood
        backlog cannot pour out once the restriction is lifted.  Flits of a
        packet whose head already entered the network are kept — dropping
        them would strand a headless worm inside the routers.  Returns the
        number of flits discarded; fully dropped packets count as drops.
        """
        self.topology._check_node(node_id)
        queue = self.source_queues[node_id]
        kept = [flit for flit in queue if flit.packet.injected_cycle is not None]
        dropped_flits = len(queue) - len(kept)
        dropped_packets = {
            flit.packet.packet_id
            for flit in queue
            if flit.packet.injected_cycle is None
        }
        self.dropped_packets += len(dropped_packets)
        queue.clear()
        queue.extend(kept)
        if not queue:
            self._queued_nodes.discard(node_id)
        return dropped_flits

    def reset_injection_limits(self) -> None:
        """Lift every injection restriction (full rollback)."""
        for node in range(self.topology.num_nodes):
            self.injection_limits[node] = 1.0
            self._injection_allowance[node] = 0.0
        self._limited_nodes.clear()

    @property
    def restricted_nodes(self) -> list[int]:
        """Nodes currently running under an injection limit below 1.0."""
        return [
            node
            for node, limit in enumerate(self.injection_limits)
            if limit < 1.0
        ]

    # -- cycle advance ---------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Advance the network by one cycle."""
        if METRICS.active:
            series = getattr(self, "_phase_series", None)
            if series is None:
                hist = sim_phase_histogram()
                series = self._phase_series = (
                    hist.series(backend="object", phase="inject"),
                    hist.series(backend="object", phase="allocate"),
                    hist.series(backend="object", phase="execute"),
                )
            start = perf_counter()
            self._inject(cycle)
            t_inject = perf_counter()
            moves = self._allocate(cycle)
            t_allocate = perf_counter()
            self._execute(moves, cycle)
            t_execute = perf_counter()
            series[0].observe(t_inject - start)
            series[1].observe(t_allocate - t_inject)
            series[2].observe(t_execute - t_allocate)
        else:
            self._inject(cycle)
            moves = self._allocate(cycle)
            self._execute(moves, cycle)
        # Inlined occupancy accumulation over the flat port list: each port
        # maintains its occupied-VC count incrementally, so this sweep is two
        # attribute updates per port instead of a scan over its VCs.
        for port in self._all_ports:
            port.occupancy_sum += port.occupied_vcs / len(port.vcs)
            port.occupancy_samples += 1
        self.stats.cycles = cycle + 1

    # -- phase 1: injection -----------------------------------------------------
    def _inject(self, cycle: int) -> None:
        # Only nodes with queued flits or an active injection limit need a
        # visit: unrestricted idle nodes carry no per-cycle state.  Sorted so
        # the stats record order matches a full 0..N-1 scan.
        active = self._queued_nodes | self._limited_nodes
        for node in sorted(active):
            queue = self.source_queues[node]
            limit = self.injection_limits[node]
            throttled = limit < 1.0
            if throttled:
                # Accrue fractional bandwidth credit; cap the burst at one
                # cycle's worth so a long-idle node cannot flush a backlog.
                self._injection_allowance[node] = min(
                    self._injection_allowance[node] + limit * self.injection_bandwidth,
                    float(self.injection_bandwidth),
                )
            if not queue:
                continue
            port = self.routers[node].input_ports[Direction.LOCAL]
            for _ in range(self.injection_bandwidth):
                if not queue:
                    break
                flit = queue[0]
                starts_new_packet = flit.is_head and flit.packet.injected_cycle is None
                # The policy limit gates *new* packets only.  Continuation
                # flits of a packet whose head already entered the network
                # always pass (driving the allowance negative, which delays
                # the next head) — a throttle must never strand a partial
                # worm holding VCs inside the routers.
                if (
                    throttled
                    and starts_new_packet
                    and self._injection_allowance[node] < 1.0
                ):
                    break
                vc = port.free_vc_for(flit)
                if vc is None:
                    break
                queue.popleft()
                port.write_flit(flit, vc)
                if throttled:
                    self._injection_allowance[node] -= 1.0
                if starts_new_packet:
                    flit.packet.injected_cycle = cycle
                    self.stats.record_injected(flit.packet)
            if not queue:
                self._queued_nodes.discard(node)

    # -- phase 2: switch allocation ----------------------------------------------
    def _allocate(self, cycle: int) -> list[tuple]:
        """Pick flit moves for this cycle.

        Returns a list of ``(port, vc, target)`` tuples where ``target`` is
        either ``("eject", router)`` or ``("forward", downstream_port,
        downstream_vc)``.
        """
        moves: list[tuple] = []
        # Space already promised to a downstream VC this cycle, so two
        # upstream routers cannot overfill the same buffer slot.
        reserved: dict[int, int] = {}
        # Downstream VCs already granted to a head flit this cycle: a second
        # head must not be allocated the same VC.
        head_reserved: set[int] = set()

        for router in self.routers:
            # Empty routers (the common case on a large mesh) contribute no
            # moves and can be skipped without touching the arbitration state.
            if router.buffered_flits == 0:
                continue
            used_outputs: set[Direction] = set()
            # Rotate arbitration priority each cycle to avoid starvation.
            rotations = router.port_rotations
            for port in rotations[cycle % len(rotations)]:
                if port.buffered_flits == 0:
                    continue
                for vc in port.vcs:
                    flit = vc.peek()
                    if flit is None:
                        continue
                    out_dir = vc.output_direction
                    if out_dir is None:
                        if self._route_provider is None:
                            out_dir = xy_next_direction(
                                self.topology, router.node_id, flit.destination
                            )
                        else:
                            travel = (
                                None
                                if port.direction is Direction.LOCAL
                                else port.direction.opposite
                            )
                            out_dir = self._route_provider.next_direction(
                                router.node_id, flit.destination, travel
                            )
                        vc.output_direction = out_dir
                    if out_dir in used_outputs:
                        continue
                    if out_dir is Direction.LOCAL:
                        moves.append((port, vc, ("eject", router)))
                        used_outputs.add(out_dir)
                        continue
                    down_port = router.down_ports.get(out_dir)
                    if down_port is None:  # pragma: no cover - excision invariant
                        raise RuntimeError(
                            "unroutable head reached the switch allocator"
                        )
                    down_vc = vc.downstream_vc
                    if down_vc is None or not flit.is_head:
                        if flit.is_head:
                            down_vc = down_port.free_vc_for(flit)
                        else:
                            down_vc = vc.downstream_vc
                    if down_vc is None:
                        continue
                    already = reserved.get(id(down_vc), 0)
                    if len(down_vc.flits) + already >= down_vc.depth:
                        continue
                    if flit.is_head:
                        if down_vc.occupied or id(down_vc) in head_reserved:
                            continue
                        head_reserved.add(id(down_vc))
                    moves.append((port, vc, ("forward", down_port, down_vc)))
                    used_outputs.add(out_dir)
                    reserved[id(down_vc)] = already + 1
        return moves

    # -- phase 3: link traversal --------------------------------------------------
    def _execute(self, moves: list[tuple], cycle: int) -> None:
        for port, vc, target in moves:
            kind = target[0]
            if kind == "eject":
                router: Router = target[1]
                flit = port.read_flit(vc)
                router.flits_ejected += 1
                if flit.is_tail:
                    flit.packet.ejected_cycle = cycle
                    router.packets_ejected += 1
                    self.stats.record_delivered(flit.packet)
            else:
                _, down_port, down_vc = target
                flit = port.read_flit(vc)
                remember_downstream = not flit.is_tail
                down_port.write_flit(flit, down_vc)
                # Wormhole: body/tail flits of this packet must follow the
                # head into the same downstream VC.
                vc.downstream_vc = down_vc if remember_downstream else None

    # -- bookkeeping --------------------------------------------------------
    @property
    def in_flight_flits(self) -> int:
        """Flits buffered anywhere in the network (excluding source queues)."""
        return sum(router.buffered_flits for router in self.routers)

    @property
    def queued_flits(self) -> int:
        """Flits still waiting in source injection queues."""
        return sum(len(self.source_queues[node]) for node in self._queued_nodes)

    @property
    def drainable_queued_flits(self) -> int:
        """Queued flits that can still legally enter the network.

        Excludes new packets queued at quarantined nodes (injection limit
        0): that backlog is fenced off by policy and will never inject, so
        waiting on it — e.g. in :meth:`NoCSimulator.drain` — would never
        terminate.  Continuation flits of a partially injected packet *do*
        count even under quarantine, mirroring the injection gate that
        always lets them through.
        """
        total = 0
        for node in self._queued_nodes:
            queue = self.source_queues[node]
            if self.injection_limits[node] > 0.0:
                total += len(queue)
            else:
                total += sum(
                    1 for flit in queue if flit.packet.injected_cycle is not None
                )
        return total

    def reset_boc_counters(self) -> None:
        """Reset every router's BOC accumulators (one sampling window ends)."""
        for router in self.routers:
            router.reset_counters()

    def local_boc(self) -> list[int]:
        """Per-node LOCAL-port BOC accumulated this sampling window.

        The LOCAL input port only ever holds flits the node's own PE
        injected, so its buffer-operation count is a router-local injection
        activity meter — telemetry the directional frames (which read only
        the four mesh-facing ports) never expose.  The degraded guard uses
        it to tell a detour carrier that merely *forwards* rerouted traffic
        from one that injects a flood of its own.
        """
        return [
            router.boc(Direction.LOCAL) for router in self.routers
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MeshNetwork({self.topology.rows}x{self.topology.columns}, "
            f"vcs={self.num_vcs}, depth={self.vc_depth})"
        )
