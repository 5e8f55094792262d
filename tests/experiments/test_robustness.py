"""Unit/driver tests for the robustness-matrix sweep plumbing.

The containment acceptance itself lives in
``benchmarks/bench_robustness_matrix.py`` (it needs properly trained 8x8
and 16x16 pipelines); these tests cover the driver mechanics at the quick
test scale — point assembly, lossless payload round-trips, per-episode
caching and input validation.
"""

import math

import pytest

from repro.attacks import default_attack
from repro.experiments.config import ExperimentConfig
from repro.experiments.robustness import (
    DEFAULT_ROBUSTNESS_POLICY,
    RobustnessPoint,
    run_attack_episode,
    run_chaos_matrix,
    run_robustness_matrix,
    unmitigated_attack_episode_latency,
)
from repro.noc.packet import Packet
from repro.runtime.cache import ArtifactCache
from repro.runtime.engine import ExperimentEngine
from repro.runtime.parallel import ParallelRunner

QUICK = ExperimentConfig.quick()


def make_point(**overrides):
    values = dict(
        attack="pulsed",
        rows=8,
        policy="quarantine",
        detected=True,
        detection_latency=200,
        time_to_mitigation=400,
        time_to_full_containment=600,
        num_attackers=1,
        attackers_fenced=1,
        contained=True,
        collateral_nodes=(),
        collateral_node_windows=0,
        localization_rounds=1,
        reengagements=0,
        evidence_convictions=1,
        baseline_latency=9.5,
        attack_latency=12.0,
        unmitigated_latency=16.0,
        mitigated_latency=9.8,
        recovery_ratio=1.03,
        description="pulsed flood",
    )
    values.update(overrides)
    return RobustnessPoint(**values)


class TestRobustnessPoint:
    def test_payload_round_trip(self):
        point = make_point(collateral_nodes=(3, 7))
        assert RobustnessPoint.from_payload(point.to_payload()) == point

    def test_as_dict_is_table_shaped(self):
        row = make_point().as_dict()
        assert row["attack"] == "pulsed"
        assert row["contained"] is True
        assert row["collateral"] == 0


class TestRunRobustnessMatrix:
    def test_unknown_attack_rejected(self):
        with pytest.raises(KeyError):
            run_robustness_matrix(
                attacks=("teleporting",), engine=ExperimentEngine.disabled()
            )

    def test_quick_scale_end_to_end(self, tmp_path):
        """One variant at the quick scale: points assemble, cache memoises."""
        engine = ExperimentEngine(
            cache=ArtifactCache(root=tmp_path, enabled=True),
            runner=ParallelRunner(workers=1),
        )
        kwargs = dict(
            attacks=("pulsed",),
            rows_values=(QUICK.rows,),
            config=QUICK,
            attack_windows=6,
            engine=engine,
        )
        points = run_robustness_matrix(**kwargs)
        assert len(points) == 1
        point = points[0]
        assert point.attack == "pulsed"
        assert point.rows == QUICK.rows
        assert point.policy == DEFAULT_ROBUSTNESS_POLICY.name
        assert point.num_attackers == 1
        assert not math.isnan(point.baseline_latency)
        assert point.description.startswith("pulsed flood")
        # Second call is served from the matrix cache, identically.
        again = run_robustness_matrix(**kwargs)
        assert [p.to_payload() for p in again] == [p.to_payload() for p in points]


class TestRunChaosMatrix:
    KWARGS = dict(
        attacks=("pulsed",),
        rows_values=(6,),
        fault_scenarios=("dropout_silent", "link_faults"),
        config=QUICK,
        attack_windows=6,
    )

    def test_quick_scale_end_to_end(self, tmp_path):
        """A monitor fault and a data-plane fault: rows name their scenario
        and fault nodes, no fault-only node is punished, and the second call
        is served from the matrix cache identically."""
        engine = ExperimentEngine(
            cache=ArtifactCache(root=tmp_path, enabled=True),
            runner=ParallelRunner(workers=1),
        )
        points = run_chaos_matrix(**self.KWARGS, engine=engine)
        assert [p.scenario for p in points] == ["dropout_silent", "link_faults"]
        for point in points:
            assert point.attack == "pulsed"
            assert point.fault_nodes
            assert point.fault_node_engagements == point.fault_node_convictions == 0
        again = run_chaos_matrix(**self.KWARGS, engine=engine)
        assert [p.to_payload() for p in again] == [p.to_payload() for p in points]

    def test_unknown_scenario_rejected(self):
        kwargs = dict(self.KWARGS, fault_scenarios=("cosmic_rays",))
        with pytest.raises(KeyError):
            run_chaos_matrix(**kwargs, engine=ExperimentEngine.disabled())


def test_guarded_soa_episode_builds_no_packet_objects(
    monkeypatch, trained_pipeline, small_builder
):
    """Latency readers go through the columnar delivered view: one guarded
    SoA episode plus its unmitigated comparator construct no ``Packet``."""
    monkeypatch.setenv("REPRO_SIM_BACKEND", "soa")
    built = []
    post_init = Packet.__post_init__

    def counting_post_init(packet):
        built.append(packet)
        post_init(packet)

    monkeypatch.setattr(Packet, "__post_init__", counting_post_init)
    model = default_attack(
        "colluding", small_builder.topology, small_builder.config.sample_period
    )
    windows = dict(pre_attack_windows=2, attack_windows=4, post_attack_windows=2)
    report = run_attack_episode(
        trained_pipeline, small_builder, DEFAULT_ROBUSTNESS_POLICY, model, **windows
    )
    comparator = unmitigated_attack_episode_latency(small_builder, model, **windows)
    assert built == []
    assert sum(window.benign_delivered for window in report.windows) > 0
    assert comparator > 0
