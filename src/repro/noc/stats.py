"""Latency and throughput statistics collected during simulation.

These feed the latency-vs-FIR curves of Figure 1: the paper reports packet
latency, flit latency, and their queueing components as the Flooding
Injection Rate increases from 0 (attack disabled) to 1 (system crash).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.noc.packet import Packet

__all__ = ["DeliveredView", "LatencyStats", "NetworkStats"]


@dataclass
class LatencyStats:
    """Aggregate latency metrics over a set of delivered packets."""

    packet_latency: float = 0.0
    packet_queue_latency: float = 0.0
    flit_latency: float = 0.0
    flit_queue_latency: float = 0.0
    delivered_packets: int = 0
    delivered_flits: int = 0

    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "LatencyStats":
        """Compute averages over all delivered packets in ``packets``.

        Packet latency is creation-to-ejection; queue latency is the portion
        spent waiting in the source queue.  Flit latency follows the Garnet
        convention of normalising the network traversal per flit (a long
        packet's flits each see the serialisation latency of the whole
        packet, so flit latency is latency averaged per flit).
        """
        total_latencies = []
        queue_latencies = []
        flit_latencies = []
        flit_queue_latencies = []
        delivered_flits = 0
        for packet in packets:
            if not packet.is_delivered:
                continue
            total = packet.total_latency()
            queue = packet.queue_latency()
            total_latencies.append(total)
            queue_latencies.append(queue)
            # Each flit of the packet experiences the same queueing delay but
            # the network portion is spread across the packet's flits.
            per_flit_network = packet.network_latency() / packet.size_flits
            flit_latencies.extend([queue + per_flit_network] * packet.size_flits)
            flit_queue_latencies.extend([queue] * packet.size_flits)
            delivered_flits += packet.size_flits
        if not total_latencies:
            return cls()
        return cls(
            packet_latency=float(np.mean(total_latencies)),
            packet_queue_latency=float(np.mean(queue_latencies)),
            flit_latency=float(np.mean(flit_latencies)),
            flit_queue_latency=float(np.mean(flit_queue_latencies)),
            delivered_packets=len(total_latencies),
            delivered_flits=delivered_flits,
        )

    @classmethod
    def from_columns(
        cls,
        created: np.ndarray,
        injected: np.ndarray,
        ejected: np.ndarray,
        size: np.ndarray,
    ) -> "LatencyStats":
        """:meth:`from_packets` over per-packet int64 columns of delivered
        packets (bit-identical for the same packets in the same order)."""
        if len(created) == 0:
            return cls()
        total = ejected - created
        queue = injected - created
        per_flit_network = (ejected - injected) / size
        return cls(
            packet_latency=float(np.mean(total)),
            packet_queue_latency=float(np.mean(queue)),
            flit_latency=float(np.mean(np.repeat(queue + per_flit_network, size))),
            flit_queue_latency=float(np.mean(np.repeat(queue, size))),
            delivered_packets=len(total),
            delivered_flits=int(size.sum()),
        )

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for table/figure generation."""
        return {
            "packet_latency": self.packet_latency,
            "packet_queue_latency": self.packet_queue_latency,
            "flit_latency": self.flit_latency,
            "flit_queue_latency": self.flit_queue_latency,
            "delivered_packets": float(self.delivered_packets),
            "delivered_flits": float(self.delivered_flits),
        }


@dataclass(frozen=True)
class DeliveredView:
    """Columns of delivered packets, in delivery order (one row per packet).

    The latency readers — the guard's per-window latency, the unmitigated
    comparators, :meth:`NetworkStats.latency` — work on this view, so the
    SoA backends never build ``Packet`` objects for them.
    """

    created: np.ndarray
    injected: np.ndarray
    ejected: np.ndarray
    size: np.ndarray
    malicious: np.ndarray  # bool

    @classmethod
    def from_packets(cls, packets: list[Packet]) -> "DeliveredView":
        def column(values, dtype=np.int64) -> np.ndarray:
            return np.fromiter(values, dtype=dtype, count=len(packets))

        return cls(
            created=column(p.created_cycle for p in packets),
            injected=column(p.injected_cycle for p in packets),
            ejected=column(p.ejected_cycle for p in packets),
            size=column(p.size_flits for p in packets),
            malicious=column((p.is_malicious for p in packets), bool),
        )

    def __len__(self) -> int:
        return len(self.created)

    def select(self, mask: np.ndarray) -> "DeliveredView":
        """The rows where ``mask`` holds."""
        return DeliveredView(
            created=self.created[mask],
            injected=self.injected[mask],
            ejected=self.ejected[mask],
            size=self.size[mask],
            malicious=self.malicious[mask],
        )

    def latency(self) -> LatencyStats:
        return LatencyStats.from_columns(
            self.created, self.injected, self.ejected, self.size
        )


@dataclass
class NetworkStats:
    """Running counters maintained by the simulator."""

    cycles: int = 0
    packets_created: int = 0
    packets_injected: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    malicious_packets_created: int = 0
    malicious_packets_delivered: int = 0
    delivered: list[Packet] = field(default_factory=list)

    def record_created(self, packet: Packet) -> None:
        self.packets_created += 1
        if packet.is_malicious:
            self.malicious_packets_created += 1

    def record_injected(self, packet: Packet) -> None:
        self.packets_injected += 1

    def record_delivered(self, packet: Packet) -> None:
        self.packets_delivered += 1
        self.flits_delivered += packet.size_flits
        if packet.is_malicious:
            self.malicious_packets_delivered += 1
        self.delivered.append(packet)

    def delivered_view(self, start: int = 0) -> DeliveredView:
        """Columns of ``delivered[start:]`` (the SoA backends read them off
        their packet registry instead of the list)."""
        return DeliveredView.from_packets(self.delivered[start:])

    def latency(self, benign_only: bool = False) -> LatencyStats:
        """Latency statistics over delivered packets.

        ``benign_only=True`` excludes flooding packets, matching the paper's
        Figure 1 which measures the impact of the attack on the *workload*.
        """
        view = self.delivered_view()
        if benign_only:
            view = view.select(~view.malicious)
        return view.latency()

    @property
    def delivery_ratio(self) -> float:
        """Delivered / created packets (drops towards 0 as the NoC saturates)."""
        if self.packets_created == 0:
            return 1.0
        return self.packets_delivered / self.packets_created
