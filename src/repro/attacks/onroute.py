"""On-route attacker: a second flooder hiding *inside* another flow's route.

The Table-Like Method discards attacker candidates that fall inside the
fused victim set — geometrically they are route turning points, not sources
(Figure 3's two/three-abnormal-frame conditions).  An attacker that parks
itself **on** another flow's XY route exploits exactly that rule: its own
injection merges with the through-traffic of the louder flow, its position
is part of the observed victim set, and no single window can distinguish it
from an innocent forwarding router.  The scenario generator used to exclude
such placements outright (the documented single-window blind spot of the
TLM); this model lifts the exclusion and makes the placement a first-class
library member.  Unmasking it takes iterative rounds plus cross-window
evidence: once the loud primary is fenced, the residual abnormality keeps
terminating at the on-route node, and accumulated frontier suspicion
convicts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.base import AttackModel
from repro.noc.routing import xy_route_victims
from repro.noc.topology import MeshTopology

__all__ = ["OnRouteFloodAttack"]


@dataclass(frozen=True)
class OnRouteFloodAttack(AttackModel):
    """A primary flood plus a colluder placed on the primary's XY route.

    Attributes
    ----------
    primary_attacker:
        The loud outer source flooding ``victim``.
    onroute_attacker:
        The hidden source; must lie on the XY route from
        ``primary_attacker`` to ``victim`` (validated against the mesh).
    victim:
        The shared target victim node id.
    primary_fir, onroute_fir:
        Per-flow Flooding Injection Rates; the on-route flow is typically
        quieter — it free-rides on the primary's congestion.
    """

    primary_attacker: int
    onroute_attacker: int
    victim: int
    primary_fir: float = 0.8
    onroute_fir: float = 0.5

    name = "onroute"

    def __post_init__(self) -> None:
        if len({self.primary_attacker, self.onroute_attacker, self.victim}) != 3:
            raise ValueError("primary, on-route attacker and victim must be distinct")
        for value in (self.primary_fir, self.onroute_fir):
            if not 0.0 <= value <= 1.0:
                raise ValueError("FIRs must be in [0, 1]")

    @property
    def attackers(self) -> tuple[int, ...]:
        return tuple(sorted((self.primary_attacker, self.onroute_attacker)))

    def emitters(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (
            (self.primary_attacker, self.onroute_attacker),
            (self.victim, self.victim),
        )

    def fir_profile_table(self, rel_start: int, rel_end: int):
        rows = rel_end - rel_start
        rates = np.empty((rows, 2), dtype=np.float64)
        rates[:] = (self.primary_fir, self.onroute_fir)
        return rates, np.zeros(rows, dtype=bool)

    def validate(self, topology: MeshTopology) -> None:
        super().validate(topology)
        route = xy_route_victims(topology, self.primary_attacker, self.victim)
        if self.onroute_attacker not in route[:-1]:
            raise ValueError(
                f"node {self.onroute_attacker} is not an intermediate router of "
                f"the {self.primary_attacker}->{self.victim} XY route"
            )

    def describe(self) -> str:
        return (
            f"on-route flood: primary {self.primary_attacker} -> {self.victim} "
            f"@ FIR {self.primary_fir:g}, hidden {self.onroute_attacker} on its "
            f"route @ FIR {self.onroute_fir:g}"
        )
