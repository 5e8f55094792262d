"""Structure-of-arrays mesh network backend (vectorized hot path).

:class:`SoAMeshNetwork` is a drop-in replacement for
:class:`repro.noc.network.MeshNetwork` whose per-cycle state lives in flat
NumPy arrays — per-VC ring buffers of packed flit words, per-port
occupancy/BOC counters, per-node source-queue rings, injection credits and
a precomputed XY next-hop table — updated by the vectorized kernels of
:mod:`repro.noc.soa_step`.  It is pinned behavior-fingerprint-identical to
the object backend: the same seeds produce the same feature frames and the
same ``DefenseReport.as_dict()``.

The arrays may hold several episodes side by side (the batched subclass of
:mod:`repro.noc.soa_batch`), so the ``MeshNetwork``-facing surface the
monitor and defense layers use — stats, injection limits and
``flush_source_queue``, feature frames and BOC counters, queued and
in-flight flits, source queues and router views — is written once, in
:class:`EpisodeSurface`, against one episode's block of the arrays.  A
solo network serves it as episode 0; a batch lane serves it as episode
``k``.  Only ingress (``enqueue_packet`` / ``enqueue_batch``) stays defined
per class.

Packets are rows of a columnar :class:`PacketRegistry` (source, destination,
size, creation/injection/ejection cycle, malicious flag, episode) plus a
delivered log, written in place by the ingress, inject and switch kernels
together with per-episode counters.  ``Packet`` objects are built only when
someone reads ``stats.delivered``; latency consumers read the columnar
:meth:`~repro.noc.stats.NetworkStats.delivered_view` instead, so no
per-packet, per-flit or per-router Python object is touched while the
network advances.

The backend is selected through ``REPRO_SIM_BACKEND`` (``soa``, the
default, or ``object``) or explicitly via
``SimulationConfig(backend=...)``; see :func:`repro.noc.backend.resolve_backend`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.noc import soa_step
from repro.noc.packet import Packet
from repro.noc.soa_kernel import (
    CNT_CREATED,
    CNT_DELIVERED,
    CNT_DROPPED,
    CNT_FLITS_DELIVERED,
    CNT_INJECTED,
    CNT_MAL_CREATED,
    CNT_MAL_DELIVERED,
    CNT_UNROUTABLE,
    COL_CREATED,
    COL_DEST,
    COL_EJECTED,
    COL_EPISODE,
    COL_INJECTED,
    COL_LOG,
    COL_MALICIOUS,
    NUM_COUNTS,
    REG_COLUMNS,
    COL_SIZE,
    COL_SOURCE,
)
from repro.noc.soa_step import FIDX_MASK, KEY_PERIOD, PKT_SHIFT
from repro.noc.stats import DeliveredView, NetworkStats
from repro.noc.topology import Direction, MeshTopology
from repro.obs.metrics import METRICS, sim_phase_histogram

__all__ = [
    "DIRECTION_INDEX",
    "EpisodeSurface",
    "PacketRegistry",
    "SoAMeshNetwork",
    "mesh_tables",
]

#: Fixed direction→axis-index mapping of every per-port array: the LOCAL
#: port first, then the paper's E, N, W, S cardinal order.
DIRECTION_INDEX: dict[Direction, int] = {
    Direction.LOCAL: 0,
    Direction.EAST: 1,
    Direction.NORTH: 2,
    Direction.WEST: 3,
    Direction.SOUTH: 4,
}
_INDEX_DIRECTION = {index: direction for direction, index in DIRECTION_INDEX.items()}


#: Largest node count for which the O(nodes²) XY next-hop table is
#: precomputed; bigger meshes route on the fly from coordinates.  At the
#: default 48x48 cut-over the table already costs ~10 MB of int16 plus
#: ~21 MB of fused int32 route slots; a 64x64 mesh would need 4x that.
#: Override with ``REPRO_XY_TABLE_MAX_NODES`` (0 forces on-the-fly routing
#: everywhere — the equivalence tests use that).
DEFAULT_XY_TABLE_MAX_NODES = 48 * 48


def _xy_table_limit() -> int:
    """Node-count cut-over for the precomputed XY route table."""
    raw = os.environ.get("REPRO_XY_TABLE_MAX_NODES", "")
    return int(raw) if raw else DEFAULT_XY_TABLE_MAX_NODES


def _route_table_enabled(num_nodes: int) -> bool:
    """Whether ``num_nodes`` is small enough for the precomputed route table."""
    return num_nodes <= _xy_table_limit()


@dataclass(frozen=True)
class MeshTables:
    """Static per-topology lookup tables shared by every SoA network.

    ``route[n, d]`` is the XY output direction (as a :data:`DIRECTION_INDEX`
    value) chosen at node ``n`` for destination ``d`` — the precomputed
    next-hop table that replaces per-flit routing calls.  It is ``None``
    past the :data:`DEFAULT_XY_TABLE_MAX_NODES` cut-over, where the switch
    kernel computes directions on the fly from the ``x``/``y`` coordinate
    columns instead (the table is O(nodes²) and stops paying for itself).
    """

    neighbor: np.ndarray  # (N, 5) int64, -1 at the mesh edge
    port_exists: np.ndarray  # (N, 5) bool, input ports present per node
    port_pos: np.ndarray  # (N, 5) int64, position in the router's port list
    nports: np.ndarray  # (N,) int64
    route: np.ndarray | None  # (N, N) int16, XY next-hop direction index
    opposite: np.ndarray  # (5,) int64, direction seen from the other side
    x: np.ndarray  # (N,) int64, node column coordinate
    y: np.ndarray  # (N,) int64, node row coordinate


@dataclass(frozen=True)
class _VcTables:
    """Per-(topology, num_vcs) candidate lookup tables of the switch kernel.

    Indexed by the flat VC id ``q = (node * 5 + port) * num_vcs + vc``:

    * ``q_node`` / ``q_port`` / ``q_node5`` / ``q_node_base`` — the owning
      node, flat port id, ``node * 5`` and ``node * N`` of each VC;
    * ``key_table[phase, q]`` — the rotation-arbitration priority key
      (``rank * num_vcs + vc``) of each VC for every one of the
      :data:`~repro.noc.soa_step.KEY_PERIOD` arbitration phases;
    * ``down_port[node * 5 + out_dir]`` — flat port id of the downstream
      input port reached through ``out_dir`` (-1 at edges / LOCAL);
    * ``route_slot[node * N + dest]`` — the fused XY lookup yielding the
      arbitration slot id ``node * 5 + out_dir`` in a single gather, or
      ``None`` past the route-table cut-over (the switch kernel then
      derives the slot from coordinates on the fly).
    """

    q_node: np.ndarray
    q_port: np.ndarray
    q_node5: np.ndarray
    q_node_base: np.ndarray
    key_table: np.ndarray
    down_port: np.ndarray
    route_slot: np.ndarray | None


#: Keyed by (rows, columns, with_route_table) — the route-table cut-over is
#: part of the identity, so flipping REPRO_XY_TABLE_MAX_NODES can never
#: serve stale tables.
_TABLES_CACHE: dict[tuple[int, int, bool], MeshTables] = {}
#: Keyed by (rows, columns, num_vcs, with_route_table).
_VC_TABLES_CACHE: dict[tuple[int, int, int, bool], _VcTables] = {}


def mesh_tables(topology: MeshTopology) -> MeshTables:
    """Build (or reuse) the static lookup tables for ``topology``."""
    with_route_table = _route_table_enabled(topology.num_nodes)
    cache_key = (topology.rows, topology.columns, with_route_table)
    cached = _TABLES_CACHE.get(cache_key)
    if cached is not None:
        return cached

    rows, cols = topology.rows, topology.columns
    num_nodes = rows * cols
    ids = np.arange(num_nodes, dtype=np.int64)
    x = ids % cols
    y = ids // cols

    neighbor = np.full((num_nodes, 5), -1, dtype=np.int64)
    neighbor[:, DIRECTION_INDEX[Direction.LOCAL]] = ids
    neighbor[x < cols - 1, DIRECTION_INDEX[Direction.EAST]] = ids[x < cols - 1] + 1
    neighbor[y < rows - 1, DIRECTION_INDEX[Direction.NORTH]] = ids[y < rows - 1] + cols
    neighbor[x > 0, DIRECTION_INDEX[Direction.WEST]] = ids[x > 0] - 1
    neighbor[y > 0, DIRECTION_INDEX[Direction.SOUTH]] = ids[y > 0] - cols

    port_exists = neighbor >= 0
    port_exists[:, DIRECTION_INDEX[Direction.LOCAL]] = True

    # Port list order of the object backend's Router: LOCAL first, then the
    # existing input directions in cardinal (E, N, W, S) order.
    port_pos = np.full((num_nodes, 5), -1, dtype=np.int64)
    port_pos[:, 0] = 0
    cardinal = port_exists[:, 1:5].astype(np.int64)
    port_pos[:, 1:5] = np.where(port_exists[:, 1:5], np.cumsum(cardinal, axis=1), -1)
    nports = 1 + cardinal.sum(axis=1)

    route = None
    if with_route_table:
        cx, dx = x[:, None], x[None, :]
        cy, dy = y[:, None], y[None, :]
        route = np.where(
            cx < dx,
            DIRECTION_INDEX[Direction.EAST],
            np.where(
                cx > dx,
                DIRECTION_INDEX[Direction.WEST],
                np.where(
                    cy < dy,
                    DIRECTION_INDEX[Direction.NORTH],
                    np.where(cy > dy, DIRECTION_INDEX[Direction.SOUTH], 0),
                ),
            ),
        ).astype(np.int16)

    opposite = np.array([0, 3, 4, 1, 2], dtype=np.int64)  # L, E→W, N→S, W→E, S→N

    tables = MeshTables(
        neighbor=neighbor,
        port_exists=port_exists,
        port_pos=port_pos,
        nports=nports,
        route=route,
        opposite=opposite,
        x=x,
        y=y,
    )
    _TABLES_CACHE[cache_key] = tables
    return tables


def _vc_tables(topology: MeshTopology, num_vcs: int) -> _VcTables:
    """Build (or reuse) the per-VC lookup tables of the switch kernel."""
    cache_key = (
        topology.rows,
        topology.columns,
        num_vcs,
        _route_table_enabled(topology.num_nodes),
    )
    cached = _VC_TABLES_CACHE.get(cache_key)
    if cached is not None:
        return cached

    tables = mesh_tables(topology)
    num_nodes = topology.num_nodes
    num_slots = num_nodes * 5 * num_vcs
    q = np.arange(num_slots, dtype=np.int64)
    q_node = q // (5 * num_vcs)
    port_dir = (q // num_vcs) % 5
    vci = (q % num_vcs).astype(np.int32)

    pos = tables.port_pos[q_node, port_dir]
    nports = tables.nports[q_node]
    key_table = np.empty((KEY_PERIOD, num_slots), dtype=np.int32)
    for phase in range(KEY_PERIOD):
        rank = (pos - phase % nports) % nports
        key_table[phase] = rank.astype(np.int32) * num_vcs + vci

    down_port = np.full(num_nodes * 5, -1, dtype=np.int64)
    for direction in range(1, 5):
        targets = tables.neighbor[:, direction]
        valid = targets >= 0
        down_port[np.nonzero(valid)[0] * 5 + direction] = (
            targets[valid] * 5 + tables.opposite[direction]
        )

    route_slot = None
    if tables.route is not None:
        node_ids = np.arange(num_nodes, dtype=np.int64)
        route_slot = np.ascontiguousarray(
            (node_ids[:, None] * 5 + tables.route).reshape(-1).astype(np.int32)
        )

    built = _VcTables(
        q_node=q_node,
        q_port=q // num_vcs,
        q_node5=q_node * 5,
        q_node_base=q_node * num_nodes,
        key_table=key_table,
        down_port=down_port,
        route_slot=route_slot,
    )
    _VC_TABLES_CACHE[cache_key] = built
    return built


class EpisodeSurface:
    """The ``MeshNetwork``-facing surface of one episode block of SoA state.

    Every per-episode method is written once here, against three names:
    ``_net``, the network owning the state arrays; ``lane_index``, the
    episode's row of the count table; and ``_off``, its first array node
    (episode-local node ``i`` is array node ``_off + i``).
    :class:`SoAMeshNetwork` serves this surface as episode 0 of its own
    arrays; :class:`repro.noc.soa_batch.SoAMeshLane` serves episode ``k``
    of a batched network.  Node ids are checked against the episode's
    topology, so no call can reach into another episode's block.
    """

    topology: MeshTopology
    lane_index: int
    _off: int

    def _block(self, width: int = 1) -> slice:
        """The episode's slice of an array holding ``width`` entries per node."""
        return slice(self._off * width, (self._off + self.topology.num_nodes) * width)

    # -- results --------------------------------------------------------------
    @property
    def stats(self) -> NetworkStats:
        """Counters and delivered packets of the episode.

        Counters are live; the delivered ``Packet`` list is built on first
        read (see :class:`_RegistryStats`), so counter reads stay O(1).
        """
        return self._net._lane_stats[self.lane_index]

    @property
    def dropped_packets(self) -> int:
        """Packets dropped at ingress, by a flush or as unroutable."""
        return int(self._net._counts[self.lane_index, CNT_DROPPED])

    @property
    def unroutable_packets(self) -> int:
        """Never-injected packets dropped because no route could exist."""
        return int(self._net._counts[self.lane_index, CNT_UNROUTABLE])

    @property
    def route_provider(self):
        """The active fault-aware route provider (None on a healthy mesh);
        one provider serves every episode of a batch."""
        return self._net._route_provider

    # -- injection rate limiting (defense hooks) ------------------------------
    def set_injection_limit(self, node_id: int, fraction: float) -> None:
        """Restrict ``node_id`` to ``fraction`` of the injection bandwidth."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("injection limit must be in [0, 1]")
        if node_id not in self.topology:
            raise ValueError(f"node {node_id} outside the {self.topology!r} mesh")
        net = self._net
        node = self._off + node_id
        net._limits[node] = float(fraction)
        # Changing the limit restarts the credit accumulator: credit accrued
        # under an older, looser limit must not leak through a quarantine.
        net._allowance[node] = 0.0
        net._limited_idx = np.nonzero(net._limits < 1.0)[0]

    def injection_limit(self, node_id: int) -> float:
        """Current injection limit of ``node_id`` (1.0 = unrestricted)."""
        self.topology._check_node(node_id)
        return float(self._net._limits[self._off + node_id])

    @property
    def injection_limits(self) -> list[float]:
        """Per-node injection limits (list view, like the object backend)."""
        return self._net._limits[self._block()].tolist()

    def reset_injection_limits(self) -> None:
        """Lift every injection restriction (full rollback)."""
        net, block = self._net, self._block()
        net._limits[block] = 1.0
        net._allowance[block] = 0.0
        net._limited_idx = np.nonzero(net._limits < 1.0)[0]

    @property
    def restricted_nodes(self) -> list[int]:
        """Nodes currently running under an injection limit below 1.0."""
        limits = self._net._limits[self._block()]
        return [int(node) for node in np.nonzero(limits < 1.0)[0]]

    def flush_source_queue(self, node_id: int) -> int:
        """Discard not-yet-injected flits queued at ``node_id``'s interface.

        Flits of packets whose head already entered the network are kept so
        no headless worm is stranded inside the routers; fully dropped
        packets count as drops.  Returns the number of flits discarded.
        """
        self.topology._check_node(node_id)
        net = self._net
        node = self._off + node_id
        count = int(net._sq_count[node])
        if count == 0:
            return 0
        slots = (net._sq_head[node] + np.arange(count)) % net.source_queue_capacity
        values = net._sq_vals[node, slots]
        pkts = values >> PKT_SHIFT
        keep = net._registry.table[COL_INJECTED, pkts] >= 0
        kept = int(keep.sum())
        dropped = np.unique(pkts[~keep])
        net._registry.forget(dropped)
        net._counts[self.lane_index, CNT_DROPPED] += int(dropped.size)
        net._sq_head[node] = 0
        net._sq_count[node] = kept
        if kept:
            net._sq_vals[node, :kept] = values[keep]
        return count - kept

    # -- DL2Fence observables -------------------------------------------------
    def feature_frame(self, direction: Direction, kind) -> np.ndarray:
        """One directional feature frame, read straight off the counters."""
        return self.feature_frames(kind)[direction]

    def feature_frames(self, kind) -> dict[Direction, np.ndarray]:
        """All four directional frames of one feature, no router walk.

        The episode's per-port counters are sliced into the natural
        directional geometries (east-most columns lack EAST input ports,
        etc.), exactly matching
        :func:`repro.monitor.features.extract_feature_frames` on the object
        backend.
        """
        from repro.monitor.features import FeatureKind

        net = self._net
        ports = self._block(5)
        rows, cols = self.topology.rows, self.topology.columns
        if kind is FeatureKind.VCO:
            samples = net._window_samples(self.lane_index)
            if samples == 0:
                values = net._occupied[ports] / float(net.num_vcs)
            elif net._occ_exact:
                values = (net._occ_sum_int[ports] / float(net.num_vcs)) / samples
            else:
                values = net._occ_sum[ports] / samples
        else:
            values = (net._buf_writes[ports] + net._buf_reads[ports]).astype(np.float64)
        grid = values.reshape(self.topology.num_nodes, 5)

        def plane(direction: Direction) -> np.ndarray:
            return grid[:, DIRECTION_INDEX[direction]].reshape(rows, cols)

        return {
            Direction.EAST: plane(Direction.EAST)[:, : cols - 1].copy(),
            Direction.NORTH: plane(Direction.NORTH)[: rows - 1, :].copy(),
            Direction.WEST: plane(Direction.WEST)[:, 1:].copy(),
            Direction.SOUTH: plane(Direction.SOUTH)[1:, :].copy(),
        }

    def reset_boc_counters(self) -> None:
        """Reset every port's BOC and VCO accumulators (window boundary)."""
        net = self._net
        ports = self._block(5)
        net._buf_writes[ports] = 0
        net._buf_reads[ports] = 0
        net._occ_sum_int[ports] = 0
        net._occ_sum[ports] = 0.0
        net._window_start[self.lane_index] = net._steps

    def local_boc(self) -> list[int]:
        """Per-node LOCAL-slot BOC this window (see MeshNetwork.local_boc)."""
        net = self._net
        ports = self._block(5)
        grid = (net._buf_writes[ports] + net._buf_reads[ports]).reshape(
            self.topology.num_nodes, 5
        )
        return [int(value) for value in grid[:, 0]]

    # -- bookkeeping ----------------------------------------------------------
    @property
    def in_flight_flits(self) -> int:
        """Flits buffered anywhere in the network (excluding source queues)."""
        net = self._net
        return int(net._vc_count[self._block(5 * net.num_vcs)].sum())

    @property
    def queued_flits(self) -> int:
        """Flits still waiting in source injection queues."""
        return int(self._net._sq_count[self._block()].sum())

    @property
    def drainable_queued_flits(self) -> int:
        """Queued flits that can still legally enter the network.

        Excludes new packets queued at quarantined nodes — by policy that
        backlog can never inject (continuation flits of partially injected
        packets still count, mirroring the injection gate).
        """
        net = self._net
        injected = net._registry.table[COL_INJECTED]
        backlog = np.nonzero(net._sq_count[self._block()] > 0)[0]
        total = 0
        for node in (self._off + backlog).tolist():
            count = int(net._sq_count[node])
            if net._limits[node] > 0.0:
                total += count
                continue
            slots = (net._sq_head[node] + np.arange(count)) % net.source_queue_capacity
            pkts = net._sq_vals[node, slots] >> PKT_SHIFT
            total += int((injected[pkts] >= 0).sum())
        return total

    # -- object-backend compatibility views -----------------------------------
    @property
    def source_queues(self) -> "_SourceQueuesView":
        """Length-reporting view of the episode's per-node source queues."""
        return _SourceQueuesView(self._net, self._off, self.topology.num_nodes)

    def router(self, node_id: int) -> "SoARouterView":
        """Read-only router view (VCO/BOC observables of one node)."""
        self.topology._check_node(node_id)
        return SoARouterView(self._net, self._off + int(node_id))

    @property
    def routers(self) -> list["SoARouterView"]:
        """Read-only router views in node order."""
        net, first = self._net, self._off
        return [SoARouterView(net, first + node) for node in self.topology.nodes()]


class SoAMeshNetwork(EpisodeSurface):
    """A 2-D mesh with XY wormhole switching on flat NumPy state arrays.

    The network owns the state arrays and serves the per-episode surface of
    :class:`EpisodeSurface` as episode 0 of them.
    """

    backend_name = "soa"
    #: Episode blocks in the state arrays (the batched subclass has more).
    episodes = 1
    #: The per-episode surface: episode 0, starting at array node 0.
    lane_index = 0
    _off = 0

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
        if num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        if vc_depth < 1:
            raise ValueError("virtual channel depth must be >= 1")
        self.topology = topology
        self.num_vcs = num_vcs
        self.vc_depth = vc_depth
        self.injection_bandwidth = injection_bandwidth
        self.source_queue_capacity = source_queue_capacity
        # Label-bound metric handles by phase, created on first metered use.
        self._phase_series: dict = {}
        # Compiled kernel binding (see soa_step.compiled), resolved on the
        # first kernel call.
        self._kernel = None

        self._install_tables()
        # All state arrays are sized by the *array* node count, which equals
        # the topology's node count here but spans every episode block in
        # the batched subclass (repro.noc.soa_batch).
        num_nodes = self._array_nodes
        num_ports = num_nodes * 5
        num_vc_slots = num_ports * num_vcs
        self._arange_vcs = np.arange(num_vcs, dtype=np.int64)
        self._best_key = np.empty(num_ports, dtype=np.int32)
        # Power-of-two fast paths for the kernels: ring-index wraps become a
        # bitwise AND instead of numpy's runtime-divisor ``%`` (a hardware
        # integer division per element), and the LOCAL-output test becomes a
        # gather from a cache-resident bool table instead of ``slot_id % 5``.
        self._depth_mask = vc_depth - 1 if vc_depth & (vc_depth - 1) == 0 else None
        self._cap_mask = (
            source_queue_capacity - 1
            if source_queue_capacity & (source_queue_capacity - 1) == 0
            else None
        )
        self._slot_is_local = np.zeros(num_ports, dtype=bool)
        self._slot_is_local[::5] = True
        # Continuation-VC cache per node: the LOCAL VC the most recent head
        # flit was injected into (see soa_step._inject_pass).
        self._node_vc = np.zeros(num_nodes, dtype=np.int64)
        # First free (= unallocated) VC index per port, or num_vcs when the
        # port has no free VC.  Maintained incrementally by the kernels:
        # head pushes trigger a recompute of their port, tail pops lower the
        # index.  Replaces the per-candidate free-VC grid search.
        self._port_first_free = np.zeros(num_ports, dtype=np.int16)

        # Virtual channels: fixed-depth ring buffers of packed flit words
        # (packet id << 21 | tail bit << 20 | flit index).
        if vc_depth >= 1 << 15:
            raise ValueError("vc_depth too large for the SoA ring index dtype")
        self._vc_slots = np.zeros(num_vc_slots * vc_depth, dtype=np.int64)
        self._vc_head = np.zeros(num_vc_slots, dtype=np.int16)
        self._vc_count = np.zeros(num_vc_slots, dtype=np.int16)
        self._vc_alloc = np.full(num_vc_slots, -1, dtype=np.int32)
        self._vc_down = np.full(num_vc_slots, -1, dtype=np.int32)

        # Per-port observables (VCO/BOC counters of the DL2Fence monitor).
        # When num_vcs is a power of two, every per-cycle ``occupied/V``
        # term — and every partial sum of them — is exactly representable
        # in float64, so windowed occupancy can accumulate as plain integers
        # and divide once at read time, bit-identical to the object
        # backend's per-cycle float accumulation.
        self._buf_writes = np.zeros(num_ports, dtype=np.int64)
        self._buf_reads = np.zeros(num_ports, dtype=np.int64)
        self._occupied = np.zeros(num_ports, dtype=np.int64)
        self._occ_exact = num_vcs & (num_vcs - 1) == 0
        self._occ_sum_int = np.zeros(num_ports, dtype=np.int64)
        self._occ_sum = np.zeros(num_ports, dtype=np.float64)
        self._occ_tmp = np.empty(num_ports, dtype=np.float64)
        # Cycles stepped, and the step count at each episode's last window
        # reset (see _window_samples).
        self._steps = 0
        self._window_start = [0] * self.episodes

        # Per-router ejection counters.
        self._flits_ejected = np.zeros(num_nodes, dtype=np.int64)
        self._packets_ejected = np.zeros(num_nodes, dtype=np.int64)

        # Source-queue rings of packed flit words awaiting injection.
        self._sq_vals = np.zeros((num_nodes, source_queue_capacity), dtype=np.int64)
        self._sq_flat = self._sq_vals.reshape(-1)  # shared-memory flat view
        self._sq_head = np.zeros(num_nodes, dtype=np.int64)
        self._sq_count = np.zeros(num_nodes, dtype=np.int64)

        # Injection rate limiting (defense hook) — see MeshNetwork.
        self._limits = np.ones(num_nodes, dtype=np.float64)
        self._allowance = np.zeros(num_nodes, dtype=np.float64)
        self._limited_idx = np.empty(0, dtype=np.int64)

        # Packet registry and per-episode counters, written by the kernels;
        # each episode's NetworkStats reads its row of the counters.
        self._registry = PacketRegistry(self.episodes, self.topology.num_nodes)
        self._counts = np.zeros((self.episodes, NUM_COUNTS), dtype=np.int64)
        self._lane_stats = [
            _RegistryStats(self._registry, self._counts[lane], lane)
            for lane in range(self.episodes)
        ]

        # Data-plane fault state (dead links/routers).  Fault-free networks
        # keep every one of these untouched, so the hot path is unchanged:
        # ``_dynamic_routes`` stays False and the kernels take the exact
        # pre-existing XY table / on-the-fly branches.
        self._dynamic_routes = False
        self._route_provider = None
        self._route3 = None  # (num_nodes * 5 * num_nodes,) int8, flattened
        self._routable_start = None  # (num_nodes, num_nodes) bool
        self._q_state_base = None
        self.killed_packets = 0

    def _install_tables(self) -> None:
        """Bind the static lookup tables and the state-array node count.

        The batched subclass overrides this to install block-diagonal tiled
        tables spanning every episode (see :mod:`repro.noc.soa_batch`); the
        kernels of :mod:`repro.noc.soa_step` are agnostic to the difference.
        """
        self._tables = mesh_tables(self.topology)
        vc_tables = _vc_tables(self.topology, self.num_vcs)
        self._q_node = vc_tables.q_node
        self._q_port = vc_tables.q_port
        self._q_node5 = vc_tables.q_node5
        self._q_node_base = vc_tables.q_node_base
        self._key_table = vc_tables.key_table
        self._down_port = vc_tables.down_port
        self._route_slot = vc_tables.route_slot
        # Per-VC arbitration-slot offset added after the route-table gather;
        # only the batched disjoint-union subclass sets it (its table holds
        # episode-local slot ids).
        self._q_slot_off = None
        self._array_nodes = self.topology.num_nodes

    @property
    def _net(self) -> "SoAMeshNetwork":
        """The array owner of the episode surface: this network itself."""
        return self

    def _window_samples(self, lane: int) -> int:
        """Cycles stepped since episode ``lane`` last reset its window: the
        sample count of its windowed VCO average."""
        return self._steps - self._window_start[lane]

    # -- data-plane faults (dead links / routers) ----------------------------
    def apply_data_faults(self, provider) -> int:
        """Install a degraded :class:`~repro.noc.route_provider.RouteProvider`.

        Runs atomically between cycles: the state-aware route table replaces
        the XY one, freshly queued packets are gated by start-state
        routability, and every *doomed* in-flight packet is excised wholesale
        — a packet is doomed when any of its VCs sits in a dead router, any
        of its wormhole bindings crosses a dead link, or its head flit's
        ``(node, travel-state)`` can no longer reach the destination under
        the turn model.  After excision the switch kernel never sees an
        unroutable head, so the per-cycle path needs no failure handling.

        Returns the number of in-flight packets killed (also accumulated on
        ``killed_packets``).  The batched subclass applies the same faults
        to every episode block.
        """
        self._route_provider = provider
        self._route3 = np.ascontiguousarray(provider.route_table3.reshape(-1))
        self._routable_start = np.ascontiguousarray(
            provider.routable_from_start, dtype=bool
        )
        self._install_dynamic_tables()
        self._dynamic_routes = True
        # The compiled binding holds the routing pointers: rebind next call.
        self._kernel = None
        killed = self._excise_doomed(provider)
        self._purge_unroutable_queued(provider, self._doomed_pids)
        self.killed_packets += killed
        return killed

    def _install_dynamic_tables(self) -> None:
        """Per-VC base index into the flattened state-aware route table.

        ``_q_state_base[q] + dest`` lands on ``route3[(node*5 + in_state),
        dest_local]``: the in-state of a VC is the travel direction of the
        hop that filled it (the opposite of its input-port direction; START
        for the LOCAL port).  Written against episode-local node ids so the
        same expression serves the batched disjoint union (the episode bias
        cancels against the global destination id, as for ``q_node_base``).
        """
        n = self.topology.num_nodes
        q = np.arange(self._array_nodes * 5 * self.num_vcs, dtype=np.int64)
        port_dir = (q // self.num_vcs) % 5
        state = self._tables.opposite[port_dir]
        episode = self._q_node // n
        local_node = self._q_node - episode * n
        self._q_state_base = (local_node * 5 + state) * n - episode * n

    def _excise_doomed(self, provider) -> int:
        """Clear every VC of every doomed in-flight packet (administrative
        purge: no buffer-read/BOC accounting, identical in both backends)."""
        self._doomed_pids = np.empty(0, dtype=np.int64)
        n = self.topology.num_nodes
        num_vcs = self.num_vcs
        alloc = self._vc_alloc
        active = np.nonzero(alloc >= 0)[0]
        if active.size == 0:
            return 0
        q_node = self._q_node[active]
        episode = q_node // n
        local_node = q_node - episode * n
        port_dir = self._q_port[active] % 5
        state = self._tables.opposite[port_dir]
        pid = alloc[active].astype(np.int64)
        dest_local = self._registry.table[COL_DEST, pid] - episode * n

        doomed = np.zeros(active.size, dtype=bool)
        if provider.dead_routers:
            dead_router = np.zeros(n, dtype=bool)
            dead_router[sorted(provider.dead_routers)] = True
            doomed |= dead_router[local_node]
        cached = self._vc_down[active]
        bound = np.nonzero(cached >= 0)[0]
        if bound.size:
            out_dir = self._tables.opposite[(cached[bound] // num_vcs) % 5]
            alive = provider.link_alive_matrix
            doomed[bound[~alive[local_node[bound], out_dir]]] = True
        # Head flit at the front of its VC: stranded when its travel state
        # can no longer reach the destination under the turn model.
        hol = self._vc_slots[active * self.vc_depth + self._vc_head[active]]
        head_front = (self._vc_count[active] > 0) & ((hol & FIDX_MASK) == 0)
        route3 = provider.route_table3
        doomed |= head_front & (route3[local_node * 5 + state, dest_local] < 0)

        doomed_pids = np.unique(pid[doomed])
        if doomed_pids.size == 0:
            return 0
        self._doomed_pids = doomed_pids
        self._registry.forget(doomed_pids)
        # Whole-VC clears are exact: a VC only ever holds flits of its single
        # allocated packet, so no ring surgery is needed.
        victims = active[np.isin(pid, doomed_pids)]
        ports = self._q_port[victims]
        np.add.at(self._occupied, ports, -1)
        self._vc_count[victims] = 0
        self._vc_head[victims] = 0
        self._vc_alloc[victims] = -1
        self._vc_down[victims] = -1
        soa_step._refresh_first_free(self, np.unique(ports))
        return int(doomed_pids.size)

    def _purge_unroutable_queued(self, provider, doomed_pids: np.ndarray) -> None:
        """Drop doomed remnants and START-unroutable packets from the source
        queues (continuation flits of *surviving* partially injected packets
        stay, mirroring ``flush_source_queue``)."""
        n = self.topology.num_nodes
        routable = self._routable_start
        injected = self._registry.table[COL_INJECTED]
        dest = self._registry.table[COL_DEST]
        for node in np.nonzero(self._sq_count > 0)[0].tolist():
            count = int(self._sq_count[node])
            slots = (
                self._sq_head[node] + np.arange(count)
            ) % self.source_queue_capacity
            values = self._sq_vals[node, slots]
            pkts = values >> PKT_SHIFT
            local = node % n
            dest_local = dest[pkts] - (node // n) * n
            fresh = injected[pkts] < 0
            drop = np.isin(pkts, doomed_pids) | (
                fresh & ~routable[local, dest_local]
            )
            if not drop.any():
                continue
            self._registry.forget(pkts[drop])
            keep = ~drop
            kept = int(keep.sum())
            unroutable = int(np.unique(pkts[drop & fresh]).size)
            if unroutable:
                self._credit_unroutable_drops(node, unroutable)
            self._sq_head[node] = 0
            self._sq_count[node] = kept
            if kept:
                self._sq_vals[node, :kept] = values[keep]

    def _credit_unroutable_drops(self, node: int, packets: int) -> None:
        """Account dropped never-injected unroutable packets on the episode
        owning ``node``."""
        lane = node // self.topology.num_nodes
        self._counts[lane, CNT_DROPPED] += packets
        self._counts[lane, CNT_UNROUTABLE] += packets

    # -- injection interface ------------------------------------------------
    def _enqueue_object(self, lane: int, packet: Packet) -> bool:
        """Queue a caller-built packet of episode ``lane``; the same object
        is what ``stats.delivered`` returns once it is delivered."""
        registry = self._registry
        pid = registry.rows
        accepted = soa_step.ingress(
            self,
            lane,
            (packet.source,),
            (packet.destination,),
            packet.size_flits,
            packet.created_cycle,
            packet.is_malicious,
        )
        if not accepted:
            return False
        if packet.injected_cycle is not None:
            registry.table[COL_INJECTED, pid] = packet.injected_cycle
        registry.adopt(pid, packet)
        return True

    def enqueue_packet(self, packet: Packet) -> bool:
        """Queue a packet's flits at its source node (drop when full)."""
        return self._enqueue_object(0, packet)

    def enqueue_batch(
        self,
        sources: np.ndarray,
        destinations: np.ndarray,
        size_flits: int,
        cycle: int,
        malicious: bool,
    ) -> int:
        """Queue one packet per (source, destination) pair in one kernel call.

        The array ingress of :meth:`NoCSimulator.step` for sources exposing
        ``packet_batch_for_cycle``: routability and capacity checks, drop
        and stat counters, registry rows and source-queue ring writes all
        happen in :func:`repro.noc.soa_step.ingress`, with no ``Packet``
        object.  Semantically identical to calling :meth:`enqueue_packet`
        per packet, duplicate sources included.
        """
        return soa_step.ingress(
            self, 0, sources, destinations, size_flits, cycle, malicious
        )

    # -- cycle advance ------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Advance the network by one cycle (inject, allocate, traverse)."""
        self._advance(cycle)
        self._steps += 1
        for stats in self._lane_stats:
            stats.cycles = cycle + 1

    def takes_window_driver(self) -> bool:
        """Whether :meth:`run_window` can serve this network: one episode on
        the compiled kernel (not the NumPy one, and the build succeeded)
        with a route table (not past the cut-over)."""
        if self.episodes != 1:
            return False
        kernel = soa_step.compiled(self)
        return kernel is not None and kernel.routes

    def run_window(self, driver, cycle: int, stop: int) -> bool:
        """Advance through cycles ``[cycle, stop)`` in one compiled call.

        Per cycle the driver's emitters (a
        :class:`~repro.noc.soa_kernel.WindowDriver`) draw and queue their
        packets, then inject, switch and the occupancy accumulation run,
        in :meth:`step`'s order.  Only for a network that
        :meth:`takes_window_driver`; returns False, having run nothing,
        while caller-built packets are in flight.
        """
        if self._registry.in_flight_callers:
            return False
        kernel = soa_step.compiled(self)
        if METRICS.active:
            start = perf_counter()
            driver.advance(self, kernel, cycle, stop)
            self._phase("window").observe(perf_counter() - start)
        else:
            driver.advance(self, kernel, cycle, stop)
        self._steps += stop - cycle
        for stats in self._lane_stats:
            stats.cycles = stop
        return True

    def _phase(self, phase: str):
        """The ``repro_sim_phase_seconds`` series of ``phase`` on this backend."""
        series = self._phase_series.get(phase)
        if series is None:
            series = self._phase_series[phase] = sim_phase_histogram().series(
                backend=self.backend_name, phase=phase
            )
        return series

    def _advance(self, cycle: int) -> None:
        """Both kernel phases (timed per phase when metrics are on), then the
        Garnet-style windowed occupancy: this cycle's occupied fraction per
        port, accumulated exactly as the object backend's per-port sweep."""
        if METRICS.active:
            start = perf_counter()
            soa_step.inject(self, cycle)
            mid = perf_counter()
            soa_step.switch(self, cycle)
            end = perf_counter()
            self._phase("inject").observe(mid - start)
            self._phase("switch").observe(end - mid)
        else:
            soa_step.inject(self, cycle)
            soa_step.switch(self, cycle)
        if self._occ_exact:
            self._occ_sum_int += self._occupied
        else:
            np.divide(self._occupied, float(self.num_vcs), out=self._occ_tmp)
            self._occ_sum += self._occ_tmp
        if self._registry.in_flight_callers:
            self._registry.stamp_callers()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SoAMeshNetwork({self.topology.rows}x{self.topology.columns}, "
            f"vcs={self.num_vcs}, depth={self.vc_depth})"
        )


#: Rows allocated up front per packet-registry column.
REGISTRY_CAPACITY = 4096


class PacketRegistry:
    """Columnar per-packet state shared with the compiled kernels.

    One ``(REG_COLUMNS, capacity)`` int64 table: a column per packet field
    (see the column indices in :mod:`repro.noc.soa_kernel`; ``COL_DEST`` holds
    the array-global destination the switch routes on, ``COL_SOURCE`` the
    episode-local source) plus the ``COL_LOG`` column of delivered packet ids.
    ``lengths`` holds the row count and the delivered-log length; the
    kernels append to both in place.  Every packet is delivered at most
    once, so the log never outgrows the table.

    Growth reallocates the whole table and bumps :attr:`generation`, the one
    number a kernel binding compares to know its pointers are current.

    ``callers`` keeps caller-built ``Packet`` objects by row until they are
    handed out in ``stats.delivered``.  While such packets are in flight,
    :meth:`stamp_callers` copies their injection and ejection cycles onto
    the objects after every cycle, as the object backend would set them.

    :meth:`delivered_view` and :meth:`materialize_delivered` read one
    episode's deliveries for its ``NetworkStats``; ``nodes`` is the
    per-episode node count that turns ``COL_DEST`` back into a local id.
    """

    def __init__(self, episodes: int, nodes: int) -> None:
        self.table = np.empty((REG_COLUMNS, REGISTRY_CAPACITY), dtype=np.int64)
        self.lengths = np.zeros(2, dtype=np.int64)
        self.generation = 0
        self.nodes = nodes
        # Per-episode delivered pid logs, split off the shared log on demand
        # (a single episode reads the shared log directly).
        self._lane_logs = [_GrowableInt() for _ in range(episodes)]
        self._log_split = 0
        self.callers: dict[int, Packet] = {}
        # Rows of caller-built packets not yet injected / not yet delivered.
        self._adopted: list[int] = []
        self._uninjected = np.empty(0, dtype=np.int64)
        self._undelivered = np.empty(0, dtype=np.int64)
        self.in_flight_callers = False

    @property
    def capacity(self) -> int:
        return self.table.shape[1]

    @property
    def rows(self) -> int:
        return int(self.lengths[0])

    @property
    def delivered(self) -> int:
        return int(self.lengths[1])

    def reserve(self, extra: int) -> None:
        """Make room for ``extra`` more rows (doubling; bumps the generation)."""
        rows = self.rows
        if rows + extra <= self.capacity:
            return
        grown = np.empty(
            (REG_COLUMNS, max(rows + extra, 2 * self.capacity)), dtype=np.int64
        )
        grown[:, :rows] = self.table[:, :rows]
        self.table = grown
        self.generation += 1

    def adopt(self, pid: int, packet: Packet) -> None:
        """Track caller-built ``packet`` queued as row ``pid``."""
        self.callers[pid] = packet
        self._adopted.append(pid)
        self.in_flight_callers = True

    def stamp_callers(self) -> None:
        """Copy new injection/ejection cycles onto in-flight caller packets."""
        if self._adopted:
            self._uninjected = np.append(self._uninjected, self._adopted)
            self._adopted.clear()
        entered = self._stamp(self._uninjected, COL_INJECTED, "injected_cycle")
        self._undelivered = np.append(self._undelivered, self._uninjected[entered])
        self._uninjected = self._uninjected[~entered]
        left = self._stamp(self._undelivered, COL_EJECTED, "ejected_cycle")
        self._undelivered = self._undelivered[~left]
        self.in_flight_callers = bool(self._uninjected.size or self._undelivered.size)

    def forget(self, pids: np.ndarray) -> None:
        """Stop tracking rows ``pids``, packets a flush or a data fault
        removed: they are never injected or delivered afterwards."""
        if not self.callers:
            return
        for pid in pids.tolist():
            self.callers.pop(pid, None)
        self._adopted = [pid for pid in self._adopted if pid in self.callers]
        self._uninjected = np.setdiff1d(self._uninjected, pids)
        self._undelivered = np.setdiff1d(self._undelivered, pids)
        self.in_flight_callers = bool(
            self._adopted or self._uninjected.size or self._undelivered.size
        )

    def _stamp(self, pids: np.ndarray, column: int, field: str) -> np.ndarray:
        """Set ``field`` on the caller packets of ``pids`` whose ``column``
        cycle is known; returns that mask."""
        cycles = self.table[column, pids]
        known = cycles >= 0
        for pid, cycle in zip(pids[known].tolist(), cycles[known].tolist()):
            setattr(self.callers[pid], field, cycle)
        return known

    def lane_pids(self, lane: int) -> np.ndarray:
        """Packet ids delivered by episode ``lane``, in delivery order."""
        log = self.table[COL_LOG, : self.delivered]
        if len(self._lane_logs) == 1:
            return log
        if self._log_split < log.size:
            new = log[self._log_split :]
            owners = self.table[COL_EPISODE, new]
            for owner in np.unique(owners).tolist():
                self._lane_logs[owner].extend(new[owners == owner])
            self._log_split = log.size
        return self._lane_logs[lane].values

    def delivered_view(self, lane: int, start: int) -> DeliveredView:
        """Columns of episode ``lane``'s deliveries from the ``start``-th on."""
        pids = self.lane_pids(lane)[start:]
        table = self.table
        return DeliveredView(
            created=table[COL_CREATED, pids],
            injected=table[COL_INJECTED, pids],
            ejected=table[COL_EJECTED, pids],
            size=table[COL_SIZE, pids],
            malicious=table[COL_MALICIOUS, pids].astype(bool),
        )

    def materialize_delivered(self, lane: int, delivered: list[Packet]) -> None:
        """Extend ``delivered`` with ``Packet`` objects of the lane's
        deliveries it does not hold yet (caller-built packets are reused)."""
        pids = self.lane_pids(lane)[len(delivered) :]
        if pids.size == 0:
            return
        table = self.table
        source, dest, size, created, injected, ejected, malicious, episode = (
            table[column, pids].tolist()
            for column in (
                COL_SOURCE, COL_DEST, COL_SIZE, COL_CREATED,
                COL_INJECTED, COL_EJECTED, COL_MALICIOUS, COL_EPISODE,
            )
        )  # fmt: skip
        nodes = self.nodes
        callers = self.callers
        for row, pid in enumerate(pids.tolist()):
            packet = callers.pop(pid, None)
            if packet is None:
                packet = Packet(
                    source=source[row],
                    destination=dest[row] - episode[row] * nodes,
                    size_flits=size[row],
                    created_cycle=created[row],
                    is_malicious=bool(malicious[row]),
                )
            packet.injected_cycle = injected[row]
            packet.ejected_cycle = ejected[row]
            delivered.append(packet)

    def append(self, source, dest, size, created, malicious, episode) -> int:
        """Append rows (arrays or scalars broadcast over ``source``); returns
        the first new packet id."""
        count = len(source)
        self.reserve(count)
        first = self.rows
        block = self.table[:, first : first + count]
        block[COL_SOURCE] = source
        block[COL_DEST] = dest
        block[COL_SIZE] = size
        block[COL_CREATED] = created
        block[COL_INJECTED] = -1
        block[COL_EJECTED] = -1
        block[COL_MALICIOUS] = 1 if malicious else 0
        block[COL_EPISODE] = episode
        self.lengths[0] = first + count
        return first


class _CountField:
    """A :class:`NetworkStats` counter stored in the network's count table."""

    def __init__(self, index: int) -> None:
        self.index = index

    def __get__(self, stats, owner=None):
        if stats is None:
            return self
        return int(stats._counts[self.index])

    def __set__(self, stats, value: int) -> None:
        stats._counts[self.index] = value


class _RegistryStats(NetworkStats):
    """One episode's :class:`NetworkStats`, read off the packet registry.

    The counters are the episode's row of the kernel-maintained count table;
    ``delivered`` materialises ``Packet`` objects from the delivered log on
    read, in delivery order, and :meth:`delivered_view` /
    :meth:`latency` read the registry columns without building any.
    """

    packets_created = _CountField(CNT_CREATED)
    packets_injected = _CountField(CNT_INJECTED)
    packets_delivered = _CountField(CNT_DELIVERED)
    flits_delivered = _CountField(CNT_FLITS_DELIVERED)
    malicious_packets_created = _CountField(CNT_MAL_CREATED)
    malicious_packets_delivered = _CountField(CNT_MAL_DELIVERED)

    def __init__(self, registry: PacketRegistry, counts: np.ndarray, lane: int) -> None:
        # The registry, not the network: a back-reference from the network's
        # own stats would leave every network in a reference cycle that only
        # the cyclic garbage collector frees.
        self._registry = registry
        self._counts = counts
        self._lane = lane
        super().__init__()

    @property
    def delivered(self) -> list[Packet]:  # type: ignore[override]
        self._registry.materialize_delivered(self._lane, self._delivered)
        return self._delivered

    @delivered.setter
    def delivered(self, value: list[Packet]) -> None:
        # Intercepts the dataclass constructor's field assignment.
        self._delivered = value

    def delivered_view(self, start: int = 0) -> DeliveredView:
        return self._registry.delivered_view(self._lane, start)


class _GrowableInt:
    """Amortised-append int64 array (per-episode delivered logs)."""

    def __init__(self, capacity: int = 1024) -> None:
        self._data = np.empty(capacity, dtype=np.int64)
        self._size = 0

    def extend(self, values: np.ndarray) -> None:
        count = len(values)
        needed = self._size + count
        if needed > self._data.size:
            grown = np.empty(max(needed, 2 * self._data.size), dtype=np.int64)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size : needed] = values
        self._size = needed

    @property
    def values(self) -> np.ndarray:
        return self._data[: self._size]


class _SourceQueuesView:
    """Sequence view over one episode's source-queue rings (lengths only)."""

    def __init__(self, net: SoAMeshNetwork, first: int, nodes: int) -> None:
        self._net = net
        self._first = first
        self._nodes = nodes

    def __len__(self) -> int:
        return self._nodes

    def __getitem__(self, node_id: int) -> "_SourceQueueView":
        if not 0 <= node_id < self._nodes:
            raise IndexError(f"node {node_id} outside the episode's {self._nodes}")
        return _SourceQueueView(self._net, self._first + node_id)


class _SourceQueueView:
    """Length view of one array node's source queue."""

    def __init__(self, net: SoAMeshNetwork, node: int) -> None:
        self._net = net
        self._node = node

    def __len__(self) -> int:
        return int(self._net._sq_count[self._node])

    def __bool__(self) -> bool:
        return len(self) > 0


class SoAPortView:
    """Read-only observables of one input port (VCO/BOC counters)."""

    def __init__(self, net: SoAMeshNetwork, node_id: int, direction: Direction) -> None:
        self.direction = direction
        self._net = net
        self._flat = node_id * 5 + DIRECTION_INDEX[direction]

    @property
    def buffer_writes(self) -> int:
        return int(self._net._buf_writes[self._flat])

    @property
    def buffer_reads(self) -> int:
        return int(self._net._buf_reads[self._flat])

    @property
    def buffer_operation_count(self) -> int:
        return self.buffer_writes + self.buffer_reads

    @property
    def occupied_vcs(self) -> int:
        return int(self._net._occupied[self._flat])

    @property
    def occupancy_samples(self) -> int:
        net = self._net
        return net._window_samples(self._flat // (net.topology.num_nodes * 5))

    @property
    def instantaneous_occupancy(self) -> float:
        return self.occupied_vcs / self._net.num_vcs

    @property
    def occupancy_sum(self) -> float:
        if self._net._occ_exact:
            return float(self._net._occ_sum_int[self._flat]) / self._net.num_vcs
        return float(self._net._occ_sum[self._flat])

    @property
    def vc_occupancy(self) -> float:
        samples = self.occupancy_samples
        if samples == 0:
            return self.instantaneous_occupancy
        return self.occupancy_sum / samples

    @property
    def buffered_flits(self) -> int:
        base = self._flat * self._net.num_vcs
        return int(self._net._vc_count[base : base + self._net.num_vcs].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SoAPortView({self.direction.value}, occ={self.vc_occupancy:.2f})"


class SoARouterView:
    """Read-only router facade over the SoA state (tests / generic readers)."""

    def __init__(self, net: SoAMeshNetwork, node_id: int) -> None:
        self._net = net
        self.node_id = node_id

    @property
    def input_ports(self) -> dict[Direction, SoAPortView]:
        exists = self._net._tables.port_exists[self.node_id]
        return {
            _INDEX_DIRECTION[index]: SoAPortView(
                self._net, self.node_id, _INDEX_DIRECTION[index]
            )
            for index in range(5)
            if exists[index]
        }

    def port(self, direction: Direction) -> SoAPortView | None:
        if not self._net._tables.port_exists[self.node_id, DIRECTION_INDEX[direction]]:
            return None
        return SoAPortView(self._net, self.node_id, direction)

    def vco(self, direction: Direction) -> float:
        port = self.port(direction)
        return port.vc_occupancy if port is not None else 0.0

    def boc(self, direction: Direction) -> int:
        port = self.port(direction)
        return port.buffer_operation_count if port is not None else 0

    @property
    def flits_ejected(self) -> int:
        return int(self._net._flits_ejected[self.node_id])

    @property
    def packets_ejected(self) -> int:
        return int(self._net._packets_ejected[self.node_id])

    @property
    def buffered_flits(self) -> int:
        base = self.node_id * 5 * self._net.num_vcs
        span = 5 * self._net.num_vcs
        return int(self._net._vc_count[base : base + span].sum())

    @property
    def total_buffered_flits(self) -> int:
        return self.buffered_flits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SoARouterView(node={self.node_id})"
