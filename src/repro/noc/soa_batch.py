"""Episode-batched structure-of-arrays mesh backend: one dispatch, N meshes.

Every sweep, training-data build and robustness-matrix cell runs dozens of
*independent* episodes, and a small mesh's per-cycle cost is mostly fixed
dispatch overhead, so a leading episode axis advances all N meshes with a
single run of the existing kernels, amortizing that cost N-fold.

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

The batched network keeps only what differs from the solo one: the tiled
tables, the cross-episode :meth:`~BatchedSoAMeshNetwork.enqueue_group`
ingress, the cross-batch ``killed_packets`` / ``unroutable_packets``
totals, and a ``TypeError`` on every per-episode member read directly.
Episode ``k`` is served by a :class:`SoAMeshLane`, which is the solo
network's own per-episode surface (:class:`~repro.noc.soa.EpisodeSurface`)
pointed at block ``k``: node ``i`` is array node ``k * num_nodes + i``, and
its ``NetworkStats`` reads row ``k`` of the shared packet registry and
counters.  Lane views are built on demand and only the view refers to the
network, so a dropped batch is freed without the cyclic garbage collector.
``batched(N=1)`` is fingerprint-identical to the solo SoA path, and row
``k`` of ``batched(N=n)`` is fingerprint-identical to a solo run of
episode ``k`` (pinned by ``tests/noc/test_batched_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noc import soa_step
from repro.noc.packet import Packet
from repro.noc.soa import (
    EpisodeSurface,
    MeshTables,
    SoAMeshNetwork,
    _vc_tables,
    mesh_tables,
)
from repro.noc.soa_kernel import CNT_UNROUTABLE
from repro.noc.topology import MeshTopology

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


class _PerEpisode:
    """Class-body guard for a per-episode member of the batched network.

    Reading it raises: on the batched network it would silently act on
    episode 0's block, or mix every episode's state.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, network, owner=None):
        if network is None:
            return self
        raise TypeError(
            f"BatchedSoAMeshNetwork.{self.name} is per-episode state; "
            f"use network.lane(i).{self.name} instead"
        )


class BatchedSoAMeshNetwork(SoAMeshNetwork):
    """N disjoint mesh copies advanced by one kernel dispatch per cycle.

    The episode-facing surface lives on the :class:`SoAMeshLane` views
    returned by :meth:`lane`; reading a per-episode member (enqueue,
    limits, frames, stats) on the batched network directly raises.
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
        """The ``MeshNetwork``-facing view of episode ``index``.

        Views are built on demand and hold the network, never the reverse,
        so a dropped batch is freed without the cyclic garbage collector.
        """
        if not 0 <= index < self.episodes:
            raise IndexError(f"episode {index} outside the batch of {self.episodes}")
        return SoAMeshLane(self, index)

    @property
    def lanes(self) -> list["SoAMeshLane"]:
        return [SoAMeshLane(self, index) for index in range(self.episodes)]

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

    # -- cross-batch totals ----------------------------------------------------
    # ``killed_packets`` (set by apply_data_faults) already counts every
    # episode's excised packets.
    @property
    def unroutable_packets(self) -> int:
        """Never-injected unroutable packets dropped, summed over episodes."""
        return int(self._counts[:, CNT_UNROUTABLE].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedSoAMeshNetwork({self.topology.rows}x{self.topology.columns}"
            f" x{self.episodes} episodes, vcs={self.num_vcs})"
        )

    # Per-episode surface: direct reads would silently mix episode state.
    enqueue_packet = _PerEpisode()
    enqueue_batch = _PerEpisode()
    stats = _PerEpisode()
    dropped_packets = _PerEpisode()
    set_injection_limit = _PerEpisode()
    injection_limit = _PerEpisode()
    injection_limits = _PerEpisode()
    reset_injection_limits = _PerEpisode()
    restricted_nodes = _PerEpisode()
    flush_source_queue = _PerEpisode()
    feature_frame = _PerEpisode()
    feature_frames = _PerEpisode()
    reset_boc_counters = _PerEpisode()
    local_boc = _PerEpisode()
    in_flight_flits = _PerEpisode()
    queued_flits = _PerEpisode()
    drainable_queued_flits = _PerEpisode()
    source_queues = _PerEpisode()
    router = _PerEpisode()
    routers = _PerEpisode()


class SoAMeshLane(EpisodeSurface):
    """The ``MeshNetwork``-facing surface of one episode of a batched mesh.

    Serves :class:`~repro.noc.soa.EpisodeSurface` over the episode's block
    of the shared state arrays; every observable (stats, frames, drops,
    limits) is private to the episode, so consumers written against
    :class:`~repro.noc.soa.SoAMeshNetwork` — the monitor, the defense
    guard, the dataset builder — run unchanged.
    """

    backend_name = "soa"

    def __init__(self, net: BatchedSoAMeshNetwork, index: int) -> None:
        self._net = net
        self.lane_index = index
        self.topology = net.topology
        self._off = index * net.topology.num_nodes
        self.num_vcs = net.num_vcs
        self.vc_depth = net.vc_depth
        self.injection_bandwidth = net.injection_bandwidth
        self.source_queue_capacity = net.source_queue_capacity

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SoAMeshLane({self.lane_index} of {self._net.episodes}, "
            f"{self.topology.rows}x{self.topology.columns})"
        )
