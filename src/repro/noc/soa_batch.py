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
:class:`~repro.noc.stats.NetworkStats` over the shared packet registry
(rows tagged with their episode) — so
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
    _vc_tables,
    mesh_tables,
)
from repro.noc.soa_kernel import CNT_DROPPED, CNT_UNROUTABLE
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
        self._lane_occ_samples = np.zeros(self.episodes, dtype=np.int64)
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
        checks, drop counters and stats), but every episode's packets go
        through one ingress kernel call — the batched emission path of
        :class:`repro.noc.batch_sim.BatchedNoCSimulator`.
        """
        return soa_step.ingress(
            self, -1, sources, destinations, size_flits, cycle, malicious, lane_ids
        )

    # -- global bookkeeping ---------------------------------------------------
    @property
    def stats(self) -> NetworkStats:  # type: ignore[override]
        raise TypeError(
            "BatchedSoAMeshNetwork.stats is per-episode state; "
            "use network.lane(i).stats instead"
        )

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
        # Counters are live; the delivered Packet list is built on first
        # read (see repro.noc.soa._RegistryStats), so counter reads stay O(1).
        return self._net._lane_stats[self.lane_index]

    @property
    def dropped_packets(self) -> int:
        return int(self._net._counts[self.lane_index, CNT_DROPPED])

    @property
    def unroutable_packets(self) -> int:
        return int(self._net._counts[self.lane_index, CNT_UNROUTABLE])

    @property
    def route_provider(self):
        """Active fault-aware route provider (shared by every episode)."""
        return self._net._route_provider

    # -- injection interface --------------------------------------------------
    def enqueue_packet(self, packet: Packet) -> bool:
        """Queue a packet's flits at its (episode-local) source node."""
        return self._net._enqueue_object(self.lane_index, packet)

    def enqueue_batch(
        self,
        sources: np.ndarray,
        destinations: np.ndarray,
        size_flits: int,
        cycle: int,
        malicious: bool,
    ) -> int:
        """Queue one packet per (source, destination) pair in one kernel call."""
        return soa_step.ingress(
            self._net,
            self.lane_index,
            sources,
            destinations,
            size_flits,
            cycle,
            malicious,
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
        return self._net._flush_node(self._off + node_id)

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
        return self._net._drainable(self._off, self._off + self._nodes)

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
