"""The colluding-flood property: below-threshold sources, contained anyway.

The headline property of cross-window evidence fusion (ISSUE 5 acceptance):
a distributed colluding flood whose **every** per-source FIR sits below the
single-attacker detection threshold must still be contained.  "Below the
threshold" is established in the strongest sense — not only does the raw
per-window detector stay silent on a lone source at that FIR, the *entire*
streak-based defense (guard with evidence fusion disabled) never engages
it.  The same per-source rate, colluding four ways, is then fully fenced
with zero collateral.

The third leg pins the mechanism: with evidence fusion enabled, even the
lone below-threshold flood is eventually convicted through the accumulated
sub-threshold windows — the fused system's detection envelope extends below
the single-window threshold.

This trains one real 8x8 pipeline (the robustness matrix's scale floor), so
the module costs ~15 s; it is the flagship end-to-end property of the
evidence subsystem.
"""

import dataclasses

import pytest

from repro.attacks import RampingFloodAttack, default_attack
from repro.experiments.config import ExperimentConfig
from repro.experiments.mitigation import train_defense_pipeline
from repro.experiments.robustness import (
    DEFAULT_ROBUSTNESS_POLICY,
    run_attack_episode,
)
from repro.runtime.engine import ExperimentEngine

#: Per-source FIR measured below the 8x8 single-attacker threshold: the raw
#: detector fires in at most a couple of isolated windows, which can never
#: complete the policy's engage streak.
STEALTH_FIR = 0.15


@pytest.fixture(scope="module")
def defense_setup():
    engine = ExperimentEngine.disabled()
    fence, builder = train_defense_pipeline(
        ExperimentConfig.for_mesh(8), engine=engine
    )
    return fence, builder


@pytest.fixture(scope="module")
def colluding_attack(defense_setup):
    _, builder = defense_setup
    model = default_attack(
        "colluding", builder.topology, builder.config.sample_period
    )
    return dataclasses.replace(model, fir=STEALTH_FIR)


def lone_flood(model):
    """One colluder's flow in isolation, at the same per-source FIR."""
    return RampingFloodAttack(
        attackers=(model.sources[0],),
        victim=model.victim,
        fir_start=model.fir,
        fir_peak=model.fir,
        ramp_cycles=1,
    )


class TestColludingBelowThresholdProperty:
    def test_lone_source_is_below_the_single_attacker_threshold(
        self, defense_setup, colluding_attack
    ):
        """Without evidence fusion, a lone source at the colluders' FIR is
        never engaged — and the raw detector all but misses it."""
        fence, builder = defense_setup
        report = run_attack_episode(
            fence,
            builder,
            DEFAULT_ROBUSTNESS_POLICY,
            lone_flood(colluding_attack),
            evidence=None,
        )
        detected_windows = sum(1 for window in report.windows if window.detected)
        assert detected_windows < DEFAULT_ROBUSTNESS_POLICY.engage_after
        assert report.engaged_nodes == set()

    def test_colluding_flood_contained_with_zero_collateral(
        self, defense_setup, colluding_attack
    ):
        """All four below-threshold sources end up fenced simultaneously."""
        fence, builder = defense_setup
        report = run_attack_episode(
            fence, builder, DEFAULT_ROBUSTNESS_POLICY, colluding_attack
        )
        truth = set(colluding_attack.containment_nodes)
        assert truth.issubset(report.engaged_nodes)
        assert report.time_to_full_containment is not None
        assert report.collateral_nodes == set()

    def test_evidence_extends_detection_below_the_single_window_threshold(
        self, defense_setup, colluding_attack
    ):
        """With fusion enabled even the lone below-threshold flood is
        convicted from accumulated sub-threshold windows."""
        fence, builder = defense_setup
        report = run_attack_episode(
            fence, builder, DEFAULT_ROBUSTNESS_POLICY, lone_flood(colluding_attack)
        )
        assert set(lone_flood(colluding_attack).attackers).issubset(
            report.engaged_nodes
        )
        assert any(event.kind == "convicted" for event in report.events)
        assert report.collateral_nodes == set()
