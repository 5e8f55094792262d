"""Distributed colluding flood: N quiet sources aggregating on one victim.

The distributed-DoS shape related work (topology-aware NoC DDoS detection)
identifies as the realistic threat model: every individual source floods at
a FIR *below* the rate at which a single attacker becomes detectable, so no
per-source signature convicts anyone — but the flows converge, and the
victim's neighbourhood absorbs their sum.  Localizing the full colluder set
requires accumulating each source's weak, intermittent route signature
across windows until the union is convicted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.base import AttackModel

__all__ = ["ColludingFloodAttack"]


@dataclass(frozen=True)
class ColludingFloodAttack(AttackModel):
    """``len(sources)`` independent low-rate floods on a single victim.

    Attributes
    ----------
    sources:
        The colluding malicious node ids.
    victim:
        The common target victim node id.
    fir:
        Per-source Flooding Injection Rate — the stealth knob.  The
        aggregate arriving at the victim is ``fir * len(sources)`` per
        cycle in expectation, so the collusion trades per-source
        detectability for headcount.
    """

    sources: tuple[int, ...]
    victim: int
    fir: float = 0.15

    name = "colluding"

    def __post_init__(self) -> None:
        if len(self.sources) < 2:
            raise ValueError("a colluding flood needs at least two sources")
        if len(set(self.sources)) != len(self.sources):
            raise ValueError("colluding sources must be distinct")
        if self.victim in self.sources:
            raise ValueError("the victim cannot also be a source")
        if not 0.0 <= self.fir <= 1.0:
            raise ValueError("fir must be in [0, 1]")

    @property
    def attackers(self) -> tuple[int, ...]:
        return tuple(sorted(self.sources))

    @property
    def aggregate_fir(self) -> float:
        """Expected combined packets/cycle converging on the victim."""
        return self.fir * len(self.sources)

    def emitters(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.sources, (self.victim,) * len(self.sources)

    def fir_profile_table(self, rel_start: int, rel_end: int):
        rows = rel_end - rel_start
        rates = np.full((rows, len(self.sources)), self.fir, dtype=np.float64)
        return rates, np.zeros(rows, dtype=bool)

    def describe(self) -> str:
        return (
            f"colluding flood {list(self.sources)} -> {self.victim} @ "
            f"per-source FIR {self.fir:g} (aggregate {self.aggregate_fir:g})"
        )
