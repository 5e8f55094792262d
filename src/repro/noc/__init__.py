"""Garnet-like 2-D mesh Network-on-Chip simulator substrate.

The paper evaluates DL2Fence on a 16x16 Mesh-XY NoC modelled in Gem5/Garnet.
This package provides an offline, cycle-driven replacement that exposes the
observables the DL2Fence monitors consume:

* per-input-port **Virtual Channel Occupancy (VCO)** — the instantaneous
  fraction of occupied virtual channels,
* per-input-port **Buffer Operation Counts (BOC)** — accumulated buffer
  reads/writes inside a sampling window,
* packet / flit latency and queueing latency statistics (Figure 1).

The router model is a simplified wormhole-switched input-queued router with
per-port virtual channels and dimension-ordered (XY) routing, which is the
configuration used throughout the paper.

Two interchangeable backends implement the mesh: the ``object`` model
(:class:`MeshNetwork`, routers/VCs/flits as Python objects — the readable
reference) and the default ``soa`` model (:class:`SoAMeshNetwork`, flat
NumPy state arrays advanced by vectorized kernels).  They are pinned
fingerprint-identical; select with ``REPRO_SIM_BACKEND`` or
``SimulationConfig(backend=...)``.
"""

from repro.noc.topology import Direction, MeshTopology
from repro.noc.packet import Flit, FlitType, Packet
from repro.noc.routing import (
    reverse_xy_sources,
    xy_next_direction,
    xy_route_path,
    xy_route_victims,
)
from repro.noc.router import InputPort, Router, VirtualChannel
from repro.noc.network import MeshNetwork
from repro.noc.soa import SoAMeshNetwork
from repro.noc.soa_batch import BatchedSoAMeshNetwork, SoAMeshLane
from repro.noc.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    build_network,
    episode_batch_size,
    resolve_backend,
)
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.noc.batch_sim import BatchedNoCSimulator, LaneSimulator
from repro.noc.stats import DeliveredView, LatencyStats, NetworkStats

__all__ = [
    "BACKENDS",
    "BatchedNoCSimulator",
    "BatchedSoAMeshNetwork",
    "DEFAULT_BACKEND",
    "DeliveredView",
    "Direction",
    "Flit",
    "FlitType",
    "InputPort",
    "LaneSimulator",
    "LatencyStats",
    "MeshNetwork",
    "MeshTopology",
    "NetworkStats",
    "NoCSimulator",
    "Packet",
    "Router",
    "SimulationConfig",
    "SoAMeshLane",
    "SoAMeshNetwork",
    "VirtualChannel",
    "build_network",
    "episode_batch_size",
    "resolve_backend",
    "reverse_xy_sources",
    "xy_next_direction",
    "xy_route_path",
    "xy_route_victims",
]
