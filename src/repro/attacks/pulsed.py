"""Pulsed (duty-cycled) flooding: bursts tuned to dodge per-window thresholds.

A constant-rate flood saturates every sampling window it overlaps, so any
per-window detector sees it immediately.  A pulsed attacker floods hard for
``on_cycles``, then goes silent for ``off_cycles``: each monitor window
averages the burst over the whole period, so the windowed VCO/BOC signature
sits far below what the same peak FIR would produce continuously — while the
victim still suffers periodic congestion spikes (the classic low-rate
shrew/pulsing DoS shape).  Detecting it reliably takes evidence accumulated
across windows, not a single-window threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.base import AttackModel
from repro.noc.topology import MeshTopology

__all__ = ["PulsedFloodAttack"]


@dataclass(frozen=True)
class PulsedFloodAttack(AttackModel):
    """On/off flood: FIR ``fir`` for ``on_cycles``, silence for ``off_cycles``.

    Attributes
    ----------
    attackers:
        Malicious node ids, all flooding ``victim``.
    victim:
        Target victim node id.
    fir:
        Flooding Injection Rate during the on phase.
    on_cycles, off_cycles:
        Burst and silence lengths; the duty cycle is
        ``on_cycles / (on_cycles + off_cycles)``.
    phase:
        Offset (in cycles) into the on/off period at attack start, so several
        pulsed attackers can interleave their bursts.
    """

    attackers: tuple[int, ...]
    victim: int
    fir: float = 0.9
    on_cycles: int = 64
    off_cycles: int = 128
    phase: int = 0

    name = "pulsed"

    def __post_init__(self) -> None:
        if not self.attackers:
            raise ValueError("at least one attacker node is required")
        if self.victim in self.attackers:
            raise ValueError("the victim cannot also be an attacker")
        if not 0.0 <= self.fir <= 1.0:
            raise ValueError("fir must be in [0, 1]")
        if self.on_cycles < 1 or self.off_cycles < 1:
            raise ValueError("on_cycles and off_cycles must be >= 1")
        if self.phase < 0:
            raise ValueError("phase must be non-negative")

    @property
    def period(self) -> int:
        return self.on_cycles + self.off_cycles

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the attacker emits — its window-averaged stealth."""
        return self.on_cycles / self.period

    def emitters(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.attackers, (self.victim,) * len(self.attackers)

    def fir_profile_table(self, rel_start: int, rel_end: int):
        rel = np.arange(rel_start, rel_end, dtype=np.int64)
        silent = (rel + self.phase) % self.period >= self.on_cycles
        rates = np.full((rel.size, len(self.attackers)), self.fir, dtype=np.float64)
        rates[silent] = 0.0
        return rates, silent

    def emits_between(self, rel_start: int, rel_end: int) -> bool:
        """Any burst inside ``[rel_start, rel_end)``: modular interval overlap."""
        span = rel_end - rel_start
        if span <= 0 or self.fir == 0.0:
            return False
        if span >= self.period:
            return True
        offset = (rel_start + self.phase) % self.period
        # Either the range starts inside a burst, or it reaches the next one.
        return offset < self.on_cycles or span > self.period - offset

    def describe(self) -> str:
        return (
            f"pulsed flood {list(self.attackers)} -> {self.victim} @ FIR "
            f"{self.fir:g}, {self.on_cycles}on/{self.off_cycles}off "
            f"(duty {self.duty_cycle:.0%})"
        )
