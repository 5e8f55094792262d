"""Refined Flooding-DoS model with an adjustable Flooding Injection Rate.

Section 2.3 of the paper defines the threat model this module implements:

* one or more **malicious nodes** simultaneously flood a single **target
  victim** node with superfluous (but protocol-legal) packets;
* the flooding **overlays** normal workload traffic — benign communication is
  slowed down, not halted;
* attackers do not tamper with routing: flooding packets follow the default
  XY routes, so every router on the route becomes a Routing-Path Victim;
* the attack intensity is controlled by the **Flooding Injection Rate (FIR)**
  in [0, 1] — the probability that an attacker injects a flooding packet in a
  given cycle.  At FIR close to 1 the NoC saturates ("system crashed" in
  Figure 1); low FIR values are stealthier but still degrade performance.

In the paper the model is implemented as a malicious ``Tick`` function inside
Gem5 workloads; here it is a :class:`FloodingAttacker` traffic source attached
to the simulator next to the benign workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.noc.packet import Packet
from repro.noc.simulator import EmissionPlan
from repro.noc.topology import MeshTopology

__all__ = ["FloodingConfig", "FloodingAttacker"]


@dataclass(frozen=True)
class FloodingConfig:
    """Static parameters of a flooding attack.

    Attributes
    ----------
    attackers:
        Node ids of the malicious tiles.
    victim:
        Node id of the target victim.
    fir:
        Flooding Injection Rate in [0, 1]: per-attacker, per-cycle packet
        injection probability.  ``fir=0`` disables the attack.
    packet_size_flits:
        Size of each flooding packet.  The paper's FDoS variant that extends
        payload length instead of rate can be modelled by raising this.
    start_cycle, end_cycle:
        Attack window; ``end_cycle=None`` keeps the attack active forever.
    """

    attackers: tuple[int, ...]
    victim: int
    fir: float = 0.8
    packet_size_flits: int = 4
    start_cycle: int = 0
    end_cycle: int | None = None

    def __post_init__(self) -> None:
        if not self.attackers:
            raise ValueError("at least one attacker node is required")
        if not 0.0 <= self.fir <= 1.0:
            raise ValueError("fir must be in [0, 1]")
        if self.packet_size_flits < 1:
            raise ValueError("packet_size_flits must be >= 1")
        if self.victim in self.attackers:
            raise ValueError("the victim cannot also be an attacker")
        if self.start_cycle < 0:
            raise ValueError("start_cycle must be non-negative")
        if self.end_cycle is not None and self.end_cycle <= self.start_cycle:
            raise ValueError("end_cycle must be after start_cycle")

    @property
    def num_attackers(self) -> int:
        return len(self.attackers)


class FloodingAttacker:
    """Traffic source injecting flooding packets from attackers to the victim."""

    #: Marker the global performance monitor uses to track ground-truth
    #: "attack active" flags (shared with :class:`repro.attacks.AttackSource`).
    is_attack_source = True

    def __init__(
        self,
        config: FloodingConfig,
        topology: MeshTopology,
        seed: int = 0,
    ) -> None:
        for node in config.attackers + (config.victim,):
            if node not in topology:
                raise ValueError(f"node {node} outside the {topology!r} mesh")
        self.config = config
        self.topology = topology
        self.rng = np.random.default_rng(seed)
        self.packets_generated = 0

    @property
    def active(self) -> bool:
        """True when the attack can inject (FIR > 0)."""
        return self.config.fir > 0.0

    def is_active_at(self, cycle: int) -> bool:
        """True when the attack window covers ``cycle``."""
        if not self.active:
            return False
        if cycle < self.config.start_cycle:
            return False
        if self.config.end_cycle is not None and cycle >= self.config.end_cycle:
            return False
        return True

    def is_active_in(self, start: int, end: int) -> bool:
        """True when the attack window overlaps ``[start, end)`` at all.

        Window-level ground truth for the monitor: a constant-rate flood is
        active in every window its [start_cycle, end_cycle) range touches.
        """
        if not self.active:
            return False
        lo = max(start, self.config.start_cycle)
        hi = end if self.config.end_cycle is None else min(end, self.config.end_cycle)
        return hi > lo

    # -- TrafficSource protocol -------------------------------------------------
    def _draw_batch(self, cycle: int) -> np.ndarray | None:
        """Attacker node ids flooding during ``cycle`` (None when inactive).

        All attackers draw from one vectorized RNG call — the stream is
        identical to per-attacker scalar draws, so results are reproducible
        across both the object-building and the array-batch paths.
        """
        if not self.is_active_at(cycle):
            return None
        draws = self.rng.random(len(self.config.attackers))
        sources = np.asarray(self.config.attackers)[draws < self.config.fir]
        self.packets_generated += int(sources.size)
        return sources

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        """Flooding packets injected by all attackers during ``cycle``."""
        sources = self._draw_batch(cycle)
        if sources is None:
            return []
        return [
            Packet(
                source=attacker,
                destination=self.config.victim,
                size_flits=self.config.packet_size_flits,
                created_cycle=cycle,
                is_malicious=True,
            )
            for attacker in sources.tolist()
        ]

    def packet_batch_for_cycle(
        self, cycle: int
    ) -> tuple[np.ndarray, np.ndarray, int, bool] | None:
        """Array form of :meth:`packets_for_cycle` for batch-capable backends."""
        sources = self._draw_batch(cycle)
        if sources is None or sources.size == 0:
            return None
        destinations = np.full(sources.size, self.config.victim, dtype=np.int64)
        return sources, destinations, self.config.packet_size_flits, True

    def emission_plan(self) -> EmissionPlan | None:
        """The compiled window driver's form of :meth:`_draw_batch`: one draw
        per attacker inside the attack window, every packet to the victim
        (FIR 0 draws nothing, as :meth:`is_active_at` says)."""
        if type(self) is not FloodingAttacker:
            return None
        config = self.config
        return EmissionPlan(
            rng=self.rng,
            count=config.num_attackers,
            size_flits=config.packet_size_flits,
            malicious=True,
            rate=config.fir,
            sources=np.asarray(config.attackers, dtype=np.int64),
            targets=np.full(config.num_attackers, config.victim, dtype=np.int64),
            first=config.start_cycle,
            last=config.end_cycle,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FloodingAttacker(attackers={self.config.attackers}, "
            f"victim={self.config.victim}, fir={self.config.fir})"
        )
