"""Ramping / stealth flooding: a sub-threshold FIR that slowly climbs.

A detector trained on full-rate floods has an effective FIR floor below
which single windows look benign.  The ramping attacker starts well under
that floor and raises its injection rate linearly over ``ramp_cycles``, so
early windows are individually unconvictable; by the time any single window
crosses the detector's threshold the victim has already been degraded for
the whole climb.  Catching the climb early requires fusing weak evidence
(sub-threshold detector probabilities, partial segmentations) across
windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.base import AttackModel

__all__ = ["RampingFloodAttack"]


@dataclass(frozen=True)
class RampingFloodAttack(AttackModel):
    """Linear FIR ramp from ``fir_start`` to ``fir_peak`` over ``ramp_cycles``.

    After the ramp completes the attack holds ``fir_peak``.
    """

    attackers: tuple[int, ...]
    victim: int
    fir_start: float = 0.05
    fir_peak: float = 0.8
    ramp_cycles: int = 1024

    name = "ramping"

    def __post_init__(self) -> None:
        if not self.attackers:
            raise ValueError("at least one attacker node is required")
        if self.victim in self.attackers:
            raise ValueError("the victim cannot also be an attacker")
        for value in (self.fir_start, self.fir_peak):
            if not 0.0 <= value <= 1.0:
                raise ValueError("FIRs must be in [0, 1]")
        if self.fir_peak < self.fir_start:
            raise ValueError("fir_peak must be >= fir_start")
        if self.ramp_cycles < 1:
            raise ValueError("ramp_cycles must be >= 1")

    def emitters(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.attackers, (self.victim,) * len(self.attackers)

    def fir_at(self, rel_cycle: int) -> float:
        """Scalar FIR of the ramp at ``rel_cycle`` since attack start."""
        rates, _ = self.fir_profile_table(rel_cycle, rel_cycle + 1)
        return float(rates[0, 0])

    def fir_profile_table(self, rel_start: int, rel_end: int):
        rel = np.arange(rel_start, rel_end, dtype=np.int64)
        span = self.fir_peak - self.fir_start
        fir = np.where(
            rel >= self.ramp_cycles,
            self.fir_peak,
            self.fir_start + span * (rel / self.ramp_cycles),
        )
        rates = np.repeat(fir[:, None], len(self.attackers), axis=1)
        return rates, np.zeros(rel.size, dtype=bool)

    def describe(self) -> str:
        return (
            f"ramping flood {list(self.attackers)} -> {self.victim} @ FIR "
            f"{self.fir_start:g}->{self.fir_peak:g} over {self.ramp_cycles} cycles"
        )
