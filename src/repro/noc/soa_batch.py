"""Episode-batched structure-of-arrays mesh backend: one dispatch, N meshes.

``BENCH_PR4.json`` showed the remaining 16x16 per-cycle cost is numpy
per-call dispatch (~85 kernel ops per cycle), which no amount of
micro-optimization inside one mesh removes.  Every sweep, training-data
build and robustness-matrix cell runs dozens of *independent* episodes, so
the architectural fix is a leading episode axis: advance all N meshes with
a single run of the existing kernels, amortizing the fixed dispatch cost
N-fold.

:class:`BatchedSoAMeshNetwork` realises that axis without a second kernel
implementation.  The :mod:`repro.noc.soa_step` kernels are agnostic to mesh
shape — they only consume the precomputed lookup tables — so N independent
meshes are advanced as one **disjoint union**: the per-episode tables are
tiled block-diagonally (node ids offset per episode, no links between
blocks, XY routing on per-episode-local coordinates), every state array
spans ``episodes * num_nodes`` nodes, and one ``inject`` + ``switch``
dispatch moves every flit of every episode.  Because blocks share no edges,
no packet, credit or arbitration decision can cross episodes; each episode
block evolves exactly as a solo :class:`~repro.noc.soa.SoAMeshNetwork`
would.

Per-episode observability comes from :class:`SoAMeshLane` views: episode
``i``'s lane exposes the full ``MeshNetwork``-facing surface (enqueue,
stats, feature frames, injection limits, flush) reading and writing the
``i``-th block of the shared arrays, with its own
:class:`~repro.noc.stats.NetworkStats` and packet registry slice — so
``batched(N=1)`` is fingerprint-identical to the solo SoA path, and row
``i`` of ``batched(N=k)`` is fingerprint-identical to a solo run of episode
``i`` (pinned by ``tests/noc/test_batched_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noc import soa_step
from repro.noc.packet import Packet
from repro.noc.soa import (
    DIRECTION_INDEX,
    MeshTables,
    SoAMeshNetwork,
    SoARouterView,
    _GrowableInt,
    _vc_tables,
    _xy_table_limit,
    mesh_tables,
)
from repro.noc.soa_step import PKT_SHIFT, TAIL_BIT
from repro.noc.stats import NetworkStats
from repro.noc.topology import Direction, MeshTopology

__all__ = ["BatchedSoAMeshNetwork", "SoAMeshLane", "batched_tables"]


@dataclass(frozen=True)
class _BatchVcTables:
    """Tiled per-VC lookup tables spanning every episode block."""

    q_node: np.ndarray
    q_port: np.ndarray
    q_node5: np.ndarray
    q_node_base: np.ndarray | None
    key_table: np.ndarray
    down_port: np.ndarray
    route_slot: np.ndarray | None
    q_slot_off: np.ndarray | None


#: Keyed by (rows, columns, num_vcs, episodes, with_route_table).
_BATCH_TABLES_CACHE: dict[
    tuple[int, int, int, int, bool], tuple[MeshTables, _BatchVcTables]
] = {}


def batched_tables(
    topology: MeshTopology, num_vcs: int, episodes: int
) -> tuple[MeshTables, _BatchVcTables]:
    """Block-diagonal lookup tables for ``episodes`` disjoint copies of a mesh.

    Node/port/VC ids of episode ``e`` are the per-episode ids offset by
    ``e * num_nodes`` (respectively ``* 5`` / ``* 5 * num_vcs``); edge and
    downstream-port entries stay ``-1`` at block boundaries, so no kernel
    path can cross episodes.

    Routing keeps the solo backend's fused single-gather lookup:
    ``route_slot`` is the *unmodified* per-episode-local table — it stays
    ``nodes²`` entries no matter how many episodes are batched, small
    enough to live in cache — and ``q_node_base`` is biased by the VC's
    episode so that ``q_node_base[q] + global_dest`` lands on the local
    ``(node, dest)`` entry.  The gathered slot id is episode-local; the
    switch kernel adds ``q_slot_off[q]`` (the episode's arbitration-slot
    offset, ``e * nodes * 5``) to globalise it.  Whenever the solo table
    itself is disabled (``REPRO_XY_TABLE_MAX_NODES``), ``route_slot`` is
    ``None`` and the switch kernel derives XY directions on the fly from
    the tiled per-episode-local coordinates (exact, because source and
    destination of a packet always live in the same block).
    """
    base = mesh_tables(topology)
    vc = _vc_tables(topology, num_vcs)
    nodes = topology.num_nodes
    with_route_table = vc.route_slot is not None
    key = (topology.rows, topology.columns, num_vcs, episodes, with_route_table)
    cached = _BATCH_TABLES_CACHE.get(key)
    if cached is not None:
        return cached

    node_offsets = (np.arange(episodes, dtype=np.int64) * nodes).repeat(nodes)
    neighbor = np.tile(base.neighbor, (episodes, 1))
    neighbor = np.where(neighbor >= 0, neighbor + node_offsets[:, None], -1)
    tables = MeshTables(
        neighbor=neighbor,
        port_exists=np.tile(base.port_exists, (episodes, 1)),
        port_pos=np.tile(base.port_pos, (episodes, 1)),
        nports=np.tile(base.nports, episodes),
        route=None,
        opposite=base.opposite,
        x=np.tile(base.x, episodes),
        y=np.tile(base.y, episodes),
    )

    num_slots = nodes * 5 * num_vcs
    slot_node_off = (np.arange(episodes, dtype=np.int64) * nodes).repeat(num_slots)
    q_node = np.tile(vc.q_node, episodes) + slot_node_off
    port_off = (np.arange(episodes, dtype=np.int64) * nodes * 5).repeat(nodes * 5)
    down_port = np.tile(vc.down_port, episodes)
    down_port = np.where(down_port >= 0, down_port + port_off, -1)
    route_slot = None
    q_node_base = None
    q_slot_off = None
    if with_route_table:
        # Share the solo (node, dest) -> local-slot table and bias the base
        # index so the global destination id cancels its episode offset:
        #   q_node_base[q] + global_dest
        #     = (local_node * nodes - e * nodes) + (e * nodes + local_dest)
        #     = local_node * nodes + local_dest
        route_slot = vc.route_slot
        q_node_base = np.tile(vc.q_node_base, episodes) - slot_node_off
        q_slot_off = (slot_node_off * 5).astype(np.int32)
    batch_vc = _BatchVcTables(
        q_node=q_node,
        q_port=np.tile(vc.q_port, episodes) + slot_node_off * 5,
        q_node5=q_node * 5,
        q_node_base=q_node_base,
        key_table=np.ascontiguousarray(np.tile(vc.key_table, (1, episodes))),
        down_port=down_port,
        route_slot=route_slot,
        q_slot_off=q_slot_off,
    )
    built = (tables, batch_vc)
    _BATCH_TABLES_CACHE[key] = built
    return built


class _LaneStats(NetworkStats):
    """Per-lane counters whose ``delivered`` list materialises lazily.

    All counters are maintained live by the batched kernels; only the
    ``Packet`` objects behind ``delivered`` are deferred.  The property
    flushes the pending delivered log on first read, so latency consumers
    (the guard's recovery windows, Figure 1 curves) see the complete list,
    while counter-only consumers — dataset generation, the robustness
    sweeps — never pay for per-packet object construction.
    """

    def __init__(self, net: "BatchedSoAMeshNetwork") -> None:
        super().__init__()
        self._net = net

    @property
    def delivered(self) -> list[Packet]:  # type: ignore[override]
        self._net._materialize_delivered()
        return self._delivered

    @delivered.setter
    def delivered(self, value: list[Packet]) -> None:
        # Intercepts the dataclass constructor's field assignment.
        self._delivered = value


def _no_direct_surface(name: str):
    def method(self, *args, **kwargs):
        raise TypeError(
            f"BatchedSoAMeshNetwork.{name} is per-episode state; "
            f"use network.lane(i).{name}(...) instead"
        )

    return method


class BatchedSoAMeshNetwork(SoAMeshNetwork):
    """N disjoint mesh copies advanced by one kernel dispatch per cycle.

    The episode-facing surface lives on the :class:`SoAMeshLane` views
    returned by :meth:`lane`; calling a per-episode method (enqueue,
    limits, frames) on the batched network directly raises.
    """

    backend_name = "soa-batch"

    def __init__(
        self,
        topology: MeshTopology,
        episodes: int,
        num_vcs: int = 4,
        vc_depth: int = 4,
        injection_bandwidth: int = 1,
        source_queue_capacity: int = 512,
    ) -> None:
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        self.episodes = int(episodes)
        super().__init__(
            topology,
            num_vcs=num_vcs,
            vc_depth=vc_depth,
            injection_bandwidth=injection_bandwidth,
            source_queue_capacity=source_queue_capacity,
        )
        self._lane_stats = [_LaneStats(self) for _ in range(self.episodes)]
        self._lane_dropped = [0] * self.episodes
        self._lane_occ_samples = np.zeros(self.episodes, dtype=np.int64)
        self._pkt_episode = _GrowableInt()
        # Columnar packet registry: ``Packet`` objects are not built on the
        # hot path at all.  ``enqueue_group`` appends one row per packet
        # (episode-local source, size, creation cycle, malicious flag) and a
        # ``None`` placeholder in ``_packets``; delivered packets are logged
        # as (pid, ejection cycle) pairs and materialised into per-lane
        # ``stats.delivered`` lists — in recorded order — the first time a
        # lane's stats are read (:meth:`_materialize_delivered`).
        self._pkt_source = _GrowableInt()
        self._pkt_size = _GrowableInt()
        self._pkt_created = _GrowableInt()
        self._pkt_malicious = _GrowableInt()
        self._dlog_pid = _GrowableInt()
        self._dlog_cycle = _GrowableInt()
        self._dlog_done = 0
        self._lanes = [SoAMeshLane(self, index) for index in range(self.episodes)]

    def _install_tables(self) -> None:
        tables, vc = batched_tables(self.topology, self.num_vcs, self.episodes)
        self._tables = tables
        self._q_node = vc.q_node
        self._q_port = vc.q_port
        self._q_node5 = vc.q_node5
        # Shared episode-local fused-XY table plus per-VC slot offsets (all
        # None when the table is disabled — the switch kernel then routes
        # on the fly from the tiled local coordinates).
        self._q_node_base = vc.q_node_base
        self._key_table = vc.key_table
        self._down_port = vc.down_port
        self._route_slot = vc.route_slot
        self._q_slot_off = vc.q_slot_off
        self._array_nodes = self.topology.num_nodes * self.episodes

    # -- episode views -------------------------------------------------------
    def lane(self, index: int) -> "SoAMeshLane":
        """The ``MeshNetwork``-facing view of episode ``index``."""
        return self._lanes[index]

    @property
    def lanes(self) -> list["SoAMeshLane"]:
        return list(self._lanes)

    # -- cycle advance -------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Advance every episode by one cycle in a single kernel dispatch."""
        self._advance(cycle)
        self._lane_occ_samples += 1
        next_cycle = cycle + 1
        for stats in self._lane_stats:
            stats.cycles = next_cycle

    # -- kernel callbacks (route per-packet events to their episode) ---------
    def _record_injected_ids(self, injected_ids: np.ndarray, cycle: int) -> None:
        # No object is touched: the injection cycle lives in the registry
        # column and lands on the Packet at delivery materialisation.
        self._pkt_injected.values[injected_ids] = cycle
        counts = np.bincount(
            self._pkt_episode.values[injected_ids], minlength=self.episodes
        )
        for lane in np.nonzero(counts)[0].tolist():
            self._lane_stats[lane].packets_injected += int(counts[lane])

    def _record_ejections(
        self, nodes: np.ndarray, tails: np.ndarray, pids: np.ndarray, cycle: int
    ) -> None:
        # A router ejects at most one flit per cycle, so ``nodes`` holds no
        # duplicates and plain fancy-indexed increments are exact.
        self._flits_ejected[nodes] += 1
        tail_idx = np.nonzero(tails)[0]
        if tail_idx.size == 0:
            return
        tail_pids = pids[tail_idx]
        self._packets_ejected[nodes[tail_idx]] += 1
        episodes = self._pkt_episode.values[tail_pids]
        delivered = np.bincount(episodes, minlength=self.episodes)
        flits = np.bincount(
            episodes, weights=self._pkt_size.values[tail_pids], minlength=self.episodes
        )
        malicious = np.bincount(
            episodes,
            weights=self._pkt_malicious.values[tail_pids],
            minlength=self.episodes,
        )
        for lane in np.nonzero(delivered)[0].tolist():
            stats = self._lane_stats[lane]
            stats.packets_delivered += int(delivered[lane])
            stats.flits_delivered += int(flits[lane])
            stats.malicious_packets_delivered += int(malicious[lane])
        self._dlog_pid.extend(tail_pids)
        self._dlog_cycle.extend_fill(cycle, tail_pids.size)

    def _materialize_delivered(self) -> None:
        """Flush the delivered log into per-lane ``stats.delivered`` lists.

        Counters are maintained live by :meth:`_record_ejections`; only the
        per-packet ``Packet`` objects are deferred.  Appending in log order
        preserves each lane's delivery order (the fingerprint the
        equivalence tests pin), and consumers that never read delivered
        packets — training-set generation reads feature frames only — never
        pay for their materialisation.
        """
        done = self._dlog_done
        total = len(self._dlog_pid)
        if done == total:
            return
        self._dlog_done = total
        pids = self._dlog_pid.values[done:total]
        episodes = self._pkt_episode.values[pids]
        nodes = self.topology.num_nodes
        dest_local = (self._pkt_dest.values[pids] - episodes * nodes).tolist()
        sources = self._pkt_source.values[pids].tolist()
        sizes = self._pkt_size.values[pids].tolist()
        created = self._pkt_created.values[pids].tolist()
        malicious = self._pkt_malicious.values[pids].tolist()
        injected = self._pkt_injected.values[pids].tolist()
        ejected = self._dlog_cycle.values[done:total].tolist()
        lanes = episodes.tolist()
        packets = self._packets
        # The raw per-lane lists: going through the _LaneStats.delivered
        # property here would re-enter this method once per append.
        lane_delivered = [stats._delivered for stats in self._lane_stats]
        for row, pid in enumerate(pids.tolist()):
            packet = packets[pid]
            if packet is None:
                packet = Packet(
                    source=sources[row],
                    destination=dest_local[row],
                    size_flits=sizes[row],
                    created_cycle=created[row],
                    is_malicious=bool(malicious[row]),
                )
                packets[pid] = packet
            packet.injected_cycle = injected[row]
            packet.ejected_cycle = ejected[row]
            lane_delivered[lanes[row]].append(packet)

    # -- grouped cross-episode ingress ---------------------------------------
    def enqueue_group(
        self,
        lane_ids: np.ndarray,
        sources: np.ndarray,
        destinations: np.ndarray,
        size_flits: int,
        cycle: int,
        malicious: bool,
    ) -> int:
        """Queue one packet per (lane, source, destination) triple in one sweep.

        ``sources`` / ``destinations`` are episode-local node ids aligned
        with ``lane_ids``.  Semantically identical to calling each lane's
        :meth:`SoAMeshLane.enqueue_batch` separately (per-lane capacity
        checks, drop counters and stats), but the ring writes of every
        episode happen as one array sweep — the batched emission path of
        :class:`repro.noc.batch_sim.BatchedNoCSimulator`.
        """
        lane_ids = np.asarray(lane_ids, dtype=np.int64)
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        count = sources.size
        if count == 0:
            return 0
        if self._routable_start is not None:
            routable = self._routable_start[sources, destinations]
            if not routable.all():
                drops = np.bincount(lane_ids[~routable], minlength=self.episodes)
                for lane in np.nonzero(drops)[0].tolist():
                    self._lane_dropped[lane] += int(drops[lane])
                self.unroutable_packets += int(count - routable.sum())
                lane_ids = lane_ids[routable]
                sources = sources[routable]
                destinations = destinations[routable]
                count = sources.size
                if count == 0:
                    return 0
        nodes = self.topology.num_nodes
        gsources = sources + lane_ids * nodes
        if count < 12 or np.unique(gsources).size != count:
            accepted = 0
            for lane, source, destination in zip(
                lane_ids.tolist(), sources.tolist(), destinations.tolist()
            ):
                accepted += self._lanes[lane].enqueue_packet(
                    Packet(
                        source=source,
                        destination=destination,
                        size_flits=size_flits,
                        created_cycle=cycle,
                        is_malicious=malicious,
                    )
                )
            return accepted
        capacity = self.source_queue_capacity
        fits = self._sq_count[gsources] + size_flits <= capacity
        if not fits.all():
            drops = np.bincount(lane_ids[~fits], minlength=self.episodes)
            for lane in np.nonzero(drops)[0].tolist():
                self._lane_dropped[lane] += int(drops[lane])
            lane_ids = lane_ids[fits]
            sources = sources[fits]
            destinations = destinations[fits]
            gsources = gsources[fits]
            count = sources.size
            if count == 0:
                return 0
        created = np.bincount(lane_ids, minlength=self.episodes)
        for lane in np.nonzero(created)[0].tolist():
            stats = self._lane_stats[lane]
            stats.packets_created += int(created[lane])
            if malicious:
                stats.malicious_packets_created += int(created[lane])
        first_pid = len(self._packets)
        # Registry columns only — the Packet objects of the delivered subset
        # are materialised lazily (see _materialize_delivered).
        self._packets.extend([None] * count)
        self._pkt_source.extend(sources)
        self._pkt_dest.extend(destinations + lane_ids * nodes)
        self._pkt_episode.extend(lane_ids)
        self._pkt_injected.extend_fill(-1, count)
        self._pkt_size.extend_fill(size_flits, count)
        self._pkt_created.extend_fill(cycle, count)
        self._pkt_malicious.extend_fill(1 if malicious else 0, count)
        template = self._flit_templates.get(size_flits)
        if template is None:
            template = np.arange(size_flits, dtype=np.int64)
            template[-1] += TAIL_BIT
            self._flit_templates[size_flits] = template
        pids = np.arange(first_pid, first_pid + count, dtype=np.int64)
        starts = (self._sq_head[gsources] + self._sq_count[gsources]) % capacity
        if (starts + size_flits <= capacity).all():
            positions = (gsources * capacity + starts)[:, None] + np.arange(size_flits)
            self._sq_flat[positions] = (pids[:, None] << PKT_SHIFT) + template[None, :]
        else:
            values = (pids[:, None] << PKT_SHIFT) + template[None, :]
            for row, (node, start) in enumerate(
                zip(gsources.tolist(), starts.tolist())
            ):
                end = start + size_flits
                if end <= capacity:
                    self._sq_vals[node, start:end] = values[row]
                else:
                    split = capacity - start
                    self._sq_vals[node, start:] = values[row, :split]
                    self._sq_vals[node, : end - capacity] = values[row, split:]
        self._sq_count[gsources] += size_flits
        return count

    def _credit_unroutable_drops(self, node: int, packets: int) -> None:
        """Unroutable drops land on the owning episode's lane counter."""
        self._lane_dropped[node // self.topology.num_nodes] += packets
        self.unroutable_packets += packets

    # -- global bookkeeping ---------------------------------------------------
    @property
    def dropped_packets(self) -> int:  # type: ignore[override]
        """Drops across every episode (per-episode counts live on the lanes)."""
        return sum(self._lane_dropped)

    @dropped_packets.setter
    def dropped_packets(self, value: int) -> None:
        # Assigned 0 by the base constructor before the lane lists exist.
        if value != 0:
            raise TypeError("per-episode drops are tracked on the lanes")

    def _occ_samples_for_port(self, flat_port: int) -> int:
        return int(self._lane_occ_samples[flat_port // (self.topology.num_nodes * 5)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedSoAMeshNetwork({self.topology.rows}x{self.topology.columns}"
            f" x{self.episodes} episodes, vcs={self.num_vcs})"
        )

    # Per-episode surface: direct calls would silently mix episode state.
    enqueue_packet = _no_direct_surface("enqueue_packet")
    enqueue_batch = _no_direct_surface("enqueue_batch")
    set_injection_limit = _no_direct_surface("set_injection_limit")
    injection_limit = _no_direct_surface("injection_limit")
    flush_source_queue = _no_direct_surface("flush_source_queue")
    feature_frame = _no_direct_surface("feature_frame")
    feature_frames = _no_direct_surface("feature_frames")
    reset_boc_counters = _no_direct_surface("reset_boc_counters")
    router = _no_direct_surface("router")


class SoAMeshLane:
    """The ``MeshNetwork``-facing surface of one episode of a batched mesh.

    Reads and writes the episode's block of the shared state arrays; every
    observable (stats, frames, drops, limits) is private to the episode, so
    consumers written against :class:`~repro.noc.soa.SoAMeshNetwork` — the
    monitor, the defense guard, the dataset builder — run unchanged.
    """

    backend_name = "soa"

    def __init__(self, net: BatchedSoAMeshNetwork, index: int) -> None:
        self._net = net
        self.lane_index = index
        self.topology = net.topology
        self._nodes = net.topology.num_nodes
        self._off = index * self._nodes

    # -- shared configuration -------------------------------------------------
    @property
    def num_vcs(self) -> int:
        return self._net.num_vcs

    @property
    def vc_depth(self) -> int:
        return self._net.vc_depth

    @property
    def injection_bandwidth(self) -> int:
        return self._net.injection_bandwidth

    @property
    def source_queue_capacity(self) -> int:
        return self._net.source_queue_capacity

    @property
    def stats(self) -> NetworkStats:
        # Counters are live; the delivered Packet list flushes itself on
        # first read (see _LaneStats), so counter reads stay O(1).
        return self._net._lane_stats[self.lane_index]

    @property
    def dropped_packets(self) -> int:
        return self._net._lane_dropped[self.lane_index]

    @property
    def route_provider(self):
        """Active fault-aware route provider (shared by every episode)."""
        return self._net._route_provider

    # -- injection interface --------------------------------------------------
    def enqueue_packet(self, packet: Packet) -> bool:
        """Queue a packet's flits at its (episode-local) source node."""
        net = self._net
        node = self._off + packet.source
        if net._routable_start is not None and not net._routable_start[
            packet.source, packet.destination
        ]:
            net._credit_unroutable_drops(node, 1)
            return False
        size = packet.size_flits
        capacity = net.source_queue_capacity
        count = int(net._sq_count[node])
        if count + size > capacity:
            net._lane_dropped[self.lane_index] += 1
            return False
        net._lane_stats[self.lane_index].record_created(packet)
        pid = len(net._packets)
        net._packets.append(packet)
        net._pkt_dest.append(self._off + packet.destination)
        net._pkt_episode.append(self.lane_index)
        net._pkt_injected.append(
            -1 if packet.injected_cycle is None else packet.injected_cycle
        )
        net._pkt_source.append(packet.source)
        net._pkt_size.append(size)
        net._pkt_created.append(packet.created_cycle)
        net._pkt_malicious.append(1 if packet.is_malicious else 0)
        template = net._flit_templates.get(size)
        if template is None:
            template = np.arange(size, dtype=np.int64)
            template[-1] += TAIL_BIT
            net._flit_templates[size] = template
        values = (pid << PKT_SHIFT) + template
        start = (int(net._sq_head[node]) + count) % capacity
        end = start + size
        if end <= capacity:
            net._sq_vals[node, start:end] = values
        else:
            split = capacity - start
            net._sq_vals[node, start:] = values[:split]
            net._sq_vals[node, : end - capacity] = values[split:]
        net._sq_count[node] = count + size
        return True

    def enqueue_batch(
        self,
        sources: np.ndarray,
        destinations: np.ndarray,
        size_flits: int,
        cycle: int,
        malicious: bool,
    ) -> int:
        """Queue one packet per (source, destination) pair in one sweep."""
        sources = np.asarray(sources, dtype=np.int64)
        lane_ids = np.full(sources.size, self.lane_index, dtype=np.int64)
        return self._net.enqueue_group(
            lane_ids, sources, destinations, size_flits, cycle, malicious
        )

    # -- injection rate limiting (defense hooks) ------------------------------
    def set_injection_limit(self, node_id: int, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("injection limit must be in [0, 1]")
        if node_id not in self.topology:
            raise ValueError(f"node {node_id} outside the {self.topology!r} mesh")
        net = self._net
        node = self._off + node_id
        net._limits[node] = float(fraction)
        net._allowance[node] = 0.0
        net._limited_idx = np.nonzero(net._limits < 1.0)[0]

    def injection_limit(self, node_id: int) -> float:
        return float(self._net._limits[self._off + node_id])

    @property
    def injection_limits(self) -> list[float]:
        return self._net._limits[self._off : self._off + self._nodes].tolist()

    def reset_injection_limits(self) -> None:
        net = self._net
        net._limits[self._off : self._off + self._nodes] = 1.0
        net._allowance[self._off : self._off + self._nodes] = 0.0
        net._limited_idx = np.nonzero(net._limits < 1.0)[0]

    @property
    def restricted_nodes(self) -> list[int]:
        block = self._net._limits[self._off : self._off + self._nodes]
        return [int(node) for node in np.nonzero(block < 1.0)[0]]

    def flush_source_queue(self, node_id: int) -> int:
        """Discard not-yet-injected flits queued at the episode's ``node_id``."""
        net = self._net
        node = self._off + node_id
        count = int(net._sq_count[node])
        if count == 0:
            return 0
        slots = (net._sq_head[node] + np.arange(count)) % net.source_queue_capacity
        values = net._sq_vals[node, slots]
        pkts = values >> PKT_SHIFT
        keep = net._pkt_injected.values[pkts] >= 0
        kept = int(keep.sum())
        net._lane_dropped[self.lane_index] += int(np.unique(pkts[~keep]).size)
        net._sq_head[node] = 0
        net._sq_count[node] = kept
        if kept:
            net._sq_vals[node, :kept] = values[keep]
        return count - kept

    # -- DL2Fence observables -------------------------------------------------
    def feature_frame(self, direction: Direction, kind) -> np.ndarray:
        return self.feature_frames(kind)[direction]

    def feature_frames(self, kind) -> dict[Direction, np.ndarray]:
        """All four directional frames of the episode, sliced off its block."""
        from repro.monitor.features import FeatureKind

        net = self._net
        rows, cols = self.topology.rows, self.topology.columns
        p0 = self._off * 5
        p1 = p0 + self._nodes * 5
        if kind is FeatureKind.VCO:
            samples = int(net._lane_occ_samples[self.lane_index])
            if samples == 0:
                values = net._occupied[p0:p1] / float(net.num_vcs)
            elif net._occ_exact:
                values = (net._occ_sum_int[p0:p1] / float(net.num_vcs)) / samples
            else:
                values = net._occ_sum[p0:p1] / samples
        else:
            values = (net._buf_writes[p0:p1] + net._buf_reads[p0:p1]).astype(
                np.float64
            )
        grid = values.reshape(self._nodes, 5)

        def plane(direction: Direction) -> np.ndarray:
            return grid[:, DIRECTION_INDEX[direction]].reshape(rows, cols)

        return {
            Direction.EAST: plane(Direction.EAST)[:, : cols - 1].copy(),
            Direction.NORTH: plane(Direction.NORTH)[: rows - 1, :].copy(),
            Direction.WEST: plane(Direction.WEST)[:, 1:].copy(),
            Direction.SOUTH: plane(Direction.SOUTH)[1:, :].copy(),
        }

    def local_boc(self) -> list[int]:
        """Per-node LOCAL-slot BOC this window (see MeshNetwork.local_boc)."""
        net = self._net
        p0 = self._off * 5
        p1 = p0 + self._nodes * 5
        grid = (net._buf_writes[p0:p1] + net._buf_reads[p0:p1]).reshape(
            self._nodes, 5
        )
        return [int(value) for value in grid[:, 0]]

    def reset_boc_counters(self) -> None:
        """Reset the episode's BOC and VCO accumulators (window boundary)."""
        net = self._net
        p0 = self._off * 5
        p1 = p0 + self._nodes * 5
        net._buf_writes[p0:p1] = 0
        net._buf_reads[p0:p1] = 0
        net._occ_sum_int[p0:p1] = 0
        net._occ_sum[p0:p1] = 0.0
        net._lane_occ_samples[self.lane_index] = 0

    # -- bookkeeping ----------------------------------------------------------
    @property
    def in_flight_flits(self) -> int:
        net = self._net
        q0 = self._off * 5 * net.num_vcs
        q1 = q0 + self._nodes * 5 * net.num_vcs
        return int(net._vc_count[q0:q1].sum())

    @property
    def queued_flits(self) -> int:
        return int(self._net._sq_count[self._off : self._off + self._nodes].sum())

    @property
    def drainable_queued_flits(self) -> int:
        net = self._net
        total = 0
        block = net._sq_count[self._off : self._off + self._nodes]
        for local in np.nonzero(block > 0)[0]:
            node = self._off + int(local)
            count = int(net._sq_count[node])
            if net._limits[node] > 0.0:
                total += count
                continue
            slots = (
                net._sq_head[node] + np.arange(count)
            ) % net.source_queue_capacity
            pkts = net._sq_vals[node, slots] >> PKT_SHIFT
            total += int((net._pkt_injected.values[pkts] >= 0).sum())
        return total

    # -- object-backend compatibility views -----------------------------------
    @property
    def source_queues(self) -> "_LaneSourceQueuesView":
        return _LaneSourceQueuesView(self)

    def router(self, node_id: int) -> SoARouterView:
        """Read-only router view of the episode's ``node_id``."""
        self.topology._check_node(node_id)
        return SoARouterView(self._net, self._off + int(node_id))

    @property
    def routers(self) -> list[SoARouterView]:
        return [self.router(node) for node in self.topology.nodes()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SoAMeshLane({self.lane_index} of {self._net.episodes}, "
            f"{self.topology.rows}x{self.topology.columns})"
        )


class _LaneSourceQueuesView:
    """Length-reporting view of one episode's source queues."""

    def __init__(self, lane: SoAMeshLane) -> None:
        self._lane = lane

    def __len__(self) -> int:
        return self._lane.topology.num_nodes

    def __getitem__(self, node_id: int) -> "_LaneSourceQueueView":
        return _LaneSourceQueueView(self._lane, node_id)


class _LaneSourceQueueView:
    """Length view of one node's source queue inside an episode."""

    def __init__(self, lane: SoAMeshLane, node_id: int) -> None:
        self._lane = lane
        self._node = node_id

    def __len__(self) -> int:
        return int(self._lane._net._sq_count[self._lane._off + self._node])

    def __bool__(self) -> bool:
        return len(self) > 0
