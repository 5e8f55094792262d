"""Robustness matrix: the closed-loop defense against the refined-DoS library.

The mitigation sweep (:mod:`repro.experiments.mitigation`) measures the
defense against the paper's constant-rate flood; this driver measures it
against every variant of :mod:`repro.attacks` — pulsed, ramping, migrating,
distributed colluding and on-route — over a range of mesh sizes.  For each
(attack type, mesh) operating point it reports:

* **detection latency** — cycles from attack start until the guard first
  acts (detector fire *or* cross-window evidence conviction);
* **containment** — cycles until every node of the attack's
  ``containment_nodes`` set is simultaneously fenced (for a migrating
  attacker that means every hop position);
* **collateral** — innocent nodes fenced, and innocent-node × window
  exposure.

Episodes run at the adaptive operating point of each mesh scale
(:meth:`repro.experiments.config.ExperimentConfig.for_mesh`), train one
pipeline per mesh through the experiment engine's artifact cache, and run
their episodes through :func:`repro.experiments.episodes.run_episodes`:
extending the matrix by one attack type or mesh size only simulates what is
new (README, "Per-episode caching").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace

from repro.attacks import ATTACK_LIBRARY, AttackModel, default_attack
from repro.core.pipeline import DL2Fence
from repro.defense.evidence import EvidenceConfig
from repro.defense.policy import MitigationPolicy
from repro.defense.report import DefenseReport
from repro.experiments.config import ExperimentConfig
from repro.experiments.episodes import (
    EpisodeTask,
    report_fields,
    run_episodes,
    run_guarded_episode,
    unmitigated_latency,
)
from repro.experiments.mitigation import defended_meshes

# Re-exported for tooling that looks these up on this module
# (perfbench/tracer.py wraps them here).
from repro.experiments.mitigation import (  # noqa: F401
    baseline_benign_latency,
    train_defense_pipeline,
)
from repro.faults import default_fault_suite
from repro.faults.base import FaultScenario
from repro.monitor.dataset import DatasetBuilder
from repro.nn.dtype import default_dtype
from repro.runtime.engine import ExperimentEngine

__all__ = [
    "DEFAULT_ROBUSTNESS_POLICY",
    "ChaosPoint",
    "RobustnessPoint",
    "run_attack_episode",
    "unmitigated_attack_episode_latency",
    "run_chaos_matrix",
    "run_robustness_matrix",
]

#: Policy of the robustness matrix: full isolation with a longer engage
#: streak and stale rollback than the constant-flood sweeps.  Refined
#: attacks saturate the victim's neighbourhood in shapes the segmentation
#: never trained on, and the resulting congestion spillover produces
#: *phantom* candidates that survive a two-window streak; three consecutive
#: windows filters them (genuine attackers bridge streak gaps through
#: evidence convictions, so the longer streak costs them one window, not
#: detectability).  The longer stale rollback matters because refined
#: attackers go quiet on purpose — releasing a fenced node after three
#: silent detection windows hands a duty-cycled attacker its bursts back.
DEFAULT_ROBUSTNESS_POLICY = MitigationPolicy.quarantine(
    engage_after=3, release_after=6, stale_after=6, flush_queue=True
)

#: Attack-window horizon: refined attacks unfold over many windows (a ramp
#: climbs for five, a migration cycle spans twelve, and a distributed
#: collusion is typically only fully pinned down on the guard's *second*
#: localization pass, after the release probe re-exposes the stragglers),
#: so robustness episodes run much longer than the constant-flood sweeps.
DEFAULT_ATTACK_WINDOWS = 24


@dataclass
class RobustnessPoint:
    """Outcome of one defended episode against one refined-DoS variant."""

    attack: str
    rows: int
    policy: str
    detected: bool
    detection_latency: int | None
    time_to_mitigation: int | None
    time_to_full_containment: int | None
    num_attackers: int
    attackers_fenced: int
    contained: bool
    collateral_nodes: tuple[int, ...]
    collateral_node_windows: int
    localization_rounds: int
    reengagements: int
    evidence_convictions: int
    baseline_latency: float
    attack_latency: float
    unmitigated_latency: float
    mitigated_latency: float
    recovery_ratio: float
    benchmark: str = "uniform_random"
    description: str = ""

    def as_dict(self) -> dict:
        """Table-friendly row (see :func:`repro.experiments.tables.format_rows`)."""
        return {
            "attack": self.attack,
            "rows": self.rows,
            "policy": self.policy,
            "detected": self.detected,
            "detection_latency": self.detection_latency,
            "containment": self.time_to_full_containment,
            "attackers": self.num_attackers,
            "fenced": self.attackers_fenced,
            "contained": self.contained,
            "collateral": len(self.collateral_nodes),
            "collateral_node_windows": self.collateral_node_windows,
            "rounds": self.localization_rounds,
            "reengage": self.reengagements,
            "convictions": self.evidence_convictions,
            "attack_latency": self.attack_latency,
            "unmitigated_latency": self.unmitigated_latency,
            "mitigated_latency": self.mitigated_latency,
            "recovery_ratio": self.recovery_ratio,
        }

    # -- lossless round-trip (artifact cache) -------------------------------
    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, data: dict) -> "RobustnessPoint":
        data = dict(data)
        data["collateral_nodes"] = tuple(int(n) for n in data["collateral_nodes"])
        return cls(**data)


@dataclass
class ChaosPoint:
    """Outcome of one defended episode under one monitor-fault scenario.

    The chaos matrix adds a fault axis to the robustness matrix and asks a
    sharper question than "was the attack contained": it also demands that
    *no fault-only node was ever punished* — a silent or stuck monitor is a
    hardware problem, and fencing its node would convert a telemetry fault
    into a self-inflicted denial of service.
    """

    attack: str
    rows: int
    scenario: str
    policy: str
    #: Nodes the fault scenario touches (never legitimate fence targets).
    fault_nodes: tuple[int, ...]
    detected: bool
    detection_latency: int | None
    time_to_mitigation: int | None
    time_to_full_containment: int | None
    num_attackers: int
    attackers_fenced: int
    contained: bool
    collateral_nodes: tuple[int, ...]
    collateral_node_windows: int
    #: Engagement / conviction events naming a fault-only node (must be 0).
    fault_node_engagements: int
    fault_node_convictions: int
    #: Windows the guard actually received (drops shrink it, delays do not).
    windows_delivered: int
    localization_rounds: int
    reengagements: int
    baseline_latency: float
    attack_latency: float
    mitigated_latency: float
    fresh_mitigated_latency: float
    recovery_ratio: float
    fresh_recovery_ratio: float
    sample_period: int
    benchmark: str = "uniform_random"
    description: str = ""

    def as_dict(self) -> dict:
        """Table-friendly row (see :func:`repro.experiments.tables.format_rows`)."""
        return {
            "attack": self.attack,
            "rows": self.rows,
            "scenario": self.scenario,
            "detected": self.detected,
            "detection_latency": self.detection_latency,
            "containment": self.time_to_full_containment,
            "attackers": self.num_attackers,
            "fenced": self.attackers_fenced,
            "contained": self.contained,
            "collateral": len(self.collateral_nodes),
            "fault_nodes": len(self.fault_nodes),
            "fault_engaged": self.fault_node_engagements,
            "fault_convicted": self.fault_node_convictions,
            "windows": self.windows_delivered,
            "reengage": self.reengagements,
            "recovery_ratio": self.recovery_ratio,
            "fresh_recovery": self.fresh_recovery_ratio,
        }

    # -- lossless round-trip (artifact cache) -------------------------------
    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, data: dict) -> "ChaosPoint":
        data = dict(data)
        data["collateral_nodes"] = tuple(int(n) for n in data["collateral_nodes"])
        data["fault_nodes"] = tuple(int(n) for n in data["fault_nodes"])
        return cls(**data)


def run_attack_episode(
    fence: DL2Fence,
    builder: DatasetBuilder,
    policy: MitigationPolicy,
    model: AttackModel,
    benchmark: str = "uniform_random",
    pre_attack_windows: int = 4,
    attack_windows: int = DEFAULT_ATTACK_WINDOWS,
    post_attack_windows: int = 4,
    seed: int = 42,
    evidence: EvidenceConfig | None = EvidenceConfig(),
    faults: FaultScenario | None = None,
) -> DefenseReport:
    """One guarded episode of ``model`` over a benign workload.

    ``true_attackers`` of the report is the model's ``containment_nodes``
    set, so ``time_to_full_containment`` demands every position of a
    migrating attacker (and every colluding source) fenced at once.
    ``faults`` installs a monitor- or data-plane fault scenario (see
    :func:`repro.experiments.episodes.run_guarded_episode`).
    """
    return run_guarded_episode(
        fence,
        builder,
        policy,
        model,
        benchmark,
        pre_attack_windows,
        attack_windows,
        post_attack_windows,
        seed,
        evidence,
        faults,
    )


def unmitigated_attack_episode_latency(
    builder: DatasetBuilder,
    model: AttackModel,
    benchmark: str = "uniform_random",
    pre_attack_windows: int = 4,
    attack_windows: int = DEFAULT_ATTACK_WINDOWS,
    post_attack_windows: int = 4,
    seed: int = 42,
) -> float:
    """Benign latency of the same episode with no defense (the comparator)."""
    return unmitigated_latency(
        builder,
        model,
        benchmark,
        pre_attack_windows,
        attack_windows,
        post_attack_windows,
        seed,
    )


def _matrix_plan(
    attacks: tuple[str, ...] | None,
    rows_values: tuple[int, ...],
    config: ExperimentConfig | None,
    fir: float,
    colluding_fir: float,
) -> tuple[tuple[str, ...], dict, dict]:
    """Validated attack names, per-mesh experiments and attack suites: what
    both matrices key their cache entries by, beside their own options."""
    attack_names = tuple(attacks) if attacks is not None else tuple(ATTACK_LIBRARY)
    for name in attack_names:
        if name not in ATTACK_LIBRARY:
            raise KeyError(f"unknown attack variant {name!r}")
    experiments = {
        rows: (
            config.scaled(rows=rows)
            if config is not None
            else ExperimentConfig.for_mesh(rows)
        )
        for rows in rows_values
    }
    # The concrete attack models (not just their names) enter the key: the
    # canonical per-mesh placements evolve with the library, and a cached
    # matrix must never outlive the scenarios it measured.
    suites = {
        rows: {
            name: default_attack(
                name,
                experiment.dataset_config().topology(),
                experiment.sample_period,
                fir=fir,
                colluding_fir=colluding_fir,
            )
            for name in attack_names
        }
        for rows, experiment in experiments.items()
    }
    return attack_names, experiments, suites


def _matrix_fields(report: DefenseReport, baseline_latency: float) -> dict:
    """Report-derived fields of a robustness or chaos row."""
    return dict(
        report_fields(report, baseline_latency),
        contained=(
            report.time_to_full_containment is not None
            and not report.collateral_nodes
        ),
    )


def run_robustness_matrix(
    attacks: tuple[str, ...] | None = None,
    rows_values: tuple[int, ...] = (8,),
    policy: MitigationPolicy = DEFAULT_ROBUSTNESS_POLICY,
    config: ExperimentConfig | None = None,
    benchmark: str = "uniform_random",
    fir: float = 0.8,
    colluding_fir: float = 0.2,
    attack_windows: int = DEFAULT_ATTACK_WINDOWS,
    training_benchmarks: tuple[str, ...] = ("uniform_random", "tornado"),
    evidence: EvidenceConfig | None = EvidenceConfig(),
    engine: ExperimentEngine | None = None,
) -> list[RobustnessPoint]:
    """Detection-latency / containment / collateral matrix over attack × mesh.

    The pipeline of each mesh scale is trained once at that scale's adaptive
    operating point (:meth:`ExperimentConfig.for_mesh`, unless ``config``
    pins a different base) on the standard constant-flood curriculum — the
    refined variants are *never* trained on, so every row measures
    generalization of the deployed detector plus the evidence accumulator,
    not memorisation of the attack shape.
    """
    attack_names, experiments, suites = _matrix_plan(
        attacks, rows_values, config, fir, colluding_fir
    )
    engine = engine or ExperimentEngine.from_environment()
    payload = {
        "attacks": attack_names,
        "suites": {str(rows): suites[rows] for rows in rows_values},
        "experiments": {str(rows): experiments[rows] for rows in rows_values},
        "policy": policy,
        "benchmark": benchmark,
        "attack_windows": attack_windows,
        "training_benchmarks": tuple(training_benchmarks),
        "evidence": evidence,
        "dtype": default_dtype(),
    }

    def compute() -> list[dict]:
        records = []
        for rows, fence, builder, baseline, fence_key in defended_meshes(
            experiments.items(), training_benchmarks, benchmark, attack_windows, engine
        ):
            models = [suites[rows][name] for name in attack_names]
            tasks = []
            for model in models:
                comparator = EpisodeTask(
                    kind="robustness-unmitigated",
                    key={"attack": model},
                    config=builder.config,
                    benchmark=benchmark,
                    attack=model,
                    attack_windows=attack_windows,
                )
                guarded = replace(
                    comparator,
                    kind="robustness-episode",
                    key={"attack": model, "evidence": evidence},
                    policy=policy,
                    fence=fence,
                    evidence=evidence,
                )
                tasks += [comparator, guarded]
            # Looked up at call time, so a wrapper installed on the module
            # attribute sees every guarded episode.
            results = iter(
                run_episodes(tasks, engine, fence_key, episode=run_attack_episode)
            )
            for name, model in zip(attack_names, models):
                unmitigated, report = next(results), next(results)
                point = RobustnessPoint(
                    attack=name,
                    rows=rows,
                    policy=policy.name,
                    evidence_convictions=sum(
                        1 for event in report.events if event.kind == "convicted"
                    ),
                    unmitigated_latency=unmitigated,
                    benchmark=benchmark,
                    description=model.describe(),
                    **_matrix_fields(report, baseline),
                )
                records.append(point.to_payload())
        return records

    records = engine.cached_records("robustness-matrix", payload, compute)
    return [RobustnessPoint.from_payload(record) for record in records]


def run_chaos_matrix(
    attacks: tuple[str, ...] | None = None,
    rows_values: tuple[int, ...] = (8, 16),
    fault_scenarios: tuple[str, ...] | None = None,
    policy: MitigationPolicy = DEFAULT_ROBUSTNESS_POLICY,
    config: ExperimentConfig | None = None,
    benchmark: str = "uniform_random",
    fir: float = 0.8,
    colluding_fir: float = 0.2,
    attack_windows: int = DEFAULT_ATTACK_WINDOWS,
    training_benchmarks: tuple[str, ...] = ("uniform_random", "tornado"),
    evidence: EvidenceConfig | None = EvidenceConfig(),
    engine: ExperimentEngine | None = None,
) -> list[ChaosPoint]:
    """Fault-augmented robustness matrix: attack × mesh × monitor-fault.

    Every cell replays a defended refined-DoS episode with one scenario of
    :func:`repro.faults.default_fault_suite` installed between the sampler
    and the guard (the always-included ``"none"`` scenario is the fault-free
    comparator).  The per-mesh pipeline and its cache entry are shared with
    :func:`run_robustness_matrix`.
    """
    attack_names, experiments, suites = _matrix_plan(
        attacks, rows_values, config, fir, colluding_fir
    )
    engine = engine or ExperimentEngine.from_environment()
    # Fault scenarios are topology-dependent (the silent/stuck node picks
    # depend on the mesh), so each mesh scale gets its own suite.  The
    # canonical link kill lands three sampling windows into the attack:
    # mid-episode, after detection has had a fault-free shot, with most of
    # the attack still ahead on the degraded mesh.
    fault_suites = {
        rows: default_fault_suite(
            experiment.dataset_config().topology(),
            link_kill_cycle=(
                experiment.dataset_config().warmup_cycles
                + 7 * experiment.sample_period
            ),
        )
        for rows, experiment in experiments.items()
    }
    if fault_scenarios is None:
        scenario_names = tuple(fault_suites[rows_values[0]])
    else:
        scenario_names = tuple(fault_scenarios)
        for name in scenario_names:
            if name not in fault_suites[rows_values[0]]:
                raise KeyError(f"unknown fault scenario {name!r}")
    payload = {
        "attacks": attack_names,
        "scenarios": scenario_names,
        "suites": {str(rows): suites[rows] for rows in rows_values},
        "fault_suites": {
            str(rows): {name: fault_suites[rows][name] for name in scenario_names}
            for rows in rows_values
        },
        "experiments": {str(rows): experiments[rows] for rows in rows_values},
        "policy": policy,
        "benchmark": benchmark,
        "attack_windows": attack_windows,
        "training_benchmarks": tuple(training_benchmarks),
        "evidence": evidence,
        "dtype": default_dtype(),
    }

    def compute() -> list[dict]:
        records = []
        for rows, fence, builder, baseline, fence_key in defended_meshes(
            experiments.items(), training_benchmarks, benchmark, attack_windows, engine
        ):
            grid = [
                (attack_name, scenario_name)
                for attack_name in attack_names
                for scenario_name in scenario_names
            ]
            tasks = [
                EpisodeTask(
                    kind="chaos-episode",
                    key={
                        "attack": suites[rows][attack_name],
                        "evidence": evidence,
                        "faults": fault_suites[rows][scenario_name],
                    },
                    config=builder.config,
                    benchmark=benchmark,
                    attack=suites[rows][attack_name],
                    attack_windows=attack_windows,
                    policy=policy,
                    fence=fence,
                    evidence=evidence,
                    faults=fault_suites[rows][scenario_name],
                )
                for attack_name, scenario_name in grid
            ]
            reports = run_episodes(tasks, engine, fence_key, episode=run_attack_episode)
            for (attack_name, scenario_name), task, report in zip(grid, tasks, reports):
                model, scenario = task.attack, task.faults
                fault_nodes = tuple(sorted(scenario.affected_nodes(builder.topology)))
                # Count punishments of *fault-only* nodes: a node that is both
                # faulty and a true attacker is a legitimate fence target.
                fault_only = set(fault_nodes) - set(model.containment_nodes)
                fault_actions = {
                    kind: sum(
                        sum(1 for node in event.nodes if node in fault_only)
                        for event in report.events
                        if event.kind == kind
                    )
                    for kind in ("engaged", "convicted")
                }
                point = ChaosPoint(
                    attack=attack_name,
                    rows=rows,
                    scenario=scenario_name,
                    policy=policy.name,
                    fault_nodes=fault_nodes,
                    fault_node_engagements=fault_actions["engaged"],
                    fault_node_convictions=fault_actions["convicted"],
                    windows_delivered=len(report.windows),
                    fresh_mitigated_latency=report.post_mitigation_fresh_latency(),
                    fresh_recovery_ratio=report.fresh_recovery_ratio(baseline),
                    sample_period=builder.config.sample_period,
                    benchmark=benchmark,
                    description=f"{model.describe()} | faults: {scenario.describe()}",
                    **_matrix_fields(report, baseline),
                )
                records.append(point.to_payload())
        return records

    records = engine.cached_records("chaos-matrix", payload, compute)
    return [ChaosPoint.from_payload(record) for record in records]
