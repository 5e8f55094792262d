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
pipeline per mesh through the experiment engine's artifact cache, fan the
independent episodes out across worker processes, and memoise each episode
individually — extending the matrix by one attack type or mesh size only
simulates what is new.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from repro.attacks import ATTACK_LIBRARY, AttackModel, default_attack
from repro.core.pipeline import DL2Fence
from repro.defense.evidence import EvidenceConfig
from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.defense.report import DefenseReport
from repro.experiments.config import ExperimentConfig
from repro.experiments.mitigation import (
    EpisodeShape,
    baseline_benign_latency,
    sweep_fence_key_payload,
    train_defense_pipeline,
)
from repro.faults import default_fault_suite
from repro.faults.base import FaultScenario
from repro.monitor.dataset import DatasetBuilder, DatasetConfig
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.nn.dtype import default_dtype
from repro.noc.simulator import NoCSimulator
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


def _attacked_simulator(
    builder: DatasetBuilder,
    benchmark: str,
    model: AttackModel,
    shape: EpisodeShape,
    seed: int,
) -> NoCSimulator:
    """The episode's system under attack (same for defended and unmitigated)."""
    config = builder.config
    simulator = NoCSimulator(config.simulation_config())
    simulator.add_source(builder.make_workload(benchmark, seed=seed))
    simulator.add_source(
        model.build_source(
            builder.topology,
            seed=seed + 1,
            packet_size_flits=config.packet_size_flits,
            start_cycle=shape.attack_start,
            end_cycle=shape.attack_end,
        )
    )
    return simulator


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
    evidence: EvidenceConfig | bool = True,
    faults: FaultScenario | None = None,
    degraded: bool = True,
) -> DefenseReport:
    """One guarded episode of ``model`` over a benign workload.

    ``true_attackers`` of the report is the model's ``containment_nodes``
    set, so ``time_to_full_containment`` demands every position of a
    migrating attacker (and every colluding source) fenced at once.

    ``faults`` installs a fault scenario on the episode.  Monitor-plane
    faults sit between the sampler and the guard: the simulated hardware is
    untouched, but the guard sees the scenario's degraded window stream
    (dropped/delayed windows, silent or stuck monitors, corrupted cells).
    Data-plane faults break the mesh itself — links or routers die at
    their scheduled cycle and traffic detours around them.  The fault plane
    is seeded with the episode ``seed``, so a faulted episode is exactly as
    reproducible as a clean one.  ``degraded`` toggles the guard's window
    sanitisation.
    """
    shape = EpisodeShape.from_windows(
        builder, pre_attack_windows, attack_windows, post_attack_windows
    )
    simulator = _attacked_simulator(builder, benchmark, model, shape, seed)
    guard = DL2FenceGuard(
        fence,
        policy,
        attack_start=shape.attack_start,
        attack_end=shape.attack_end,
        true_attackers=model.containment_nodes,
        evidence=evidence,
        degraded=degraded,
    )
    monitor_config = MonitorConfig(sample_period=builder.config.sample_period)
    if faults is None:
        guard.attach(simulator, monitor_config=monitor_config)
    else:
        faults.schedule_data_faults(simulator)
        monitor = GlobalPerformanceMonitor(monitor_config).attach(simulator)
        monitor.set_fault_plane(faults.build_plane(builder.topology, seed=seed))
        guard.attach(simulator, monitor=monitor)
    simulator.run(shape.total_cycles)
    return guard.report


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
    shape = EpisodeShape.from_windows(
        builder, pre_attack_windows, attack_windows, post_attack_windows
    )
    simulator = _attacked_simulator(builder, benchmark, model, shape, seed)
    simulator.run(shape.total_cycles)
    period = builder.config.sample_period
    view = simulator.stats.delivered_view()
    span = view.select(
        ~view.malicious
        & (view.ejected >= shape.attack_start + period)
        & (view.ejected <= shape.attack_end)
    )
    if not len(span):
        return float("nan")
    return span.latency().packet_latency


@dataclass(frozen=True)
class _RobustnessTask:
    """One independent simulation of the matrix fan-out."""

    kind: str  # "unmitigated" | "episode"
    dataset_config: DatasetConfig
    benchmark: str
    model: AttackModel
    attack_windows: int
    policy: MitigationPolicy | None = None
    evidence: EvidenceConfig | bool = True
    fence: DL2Fence | None = None
    faults: FaultScenario | None = None


def _task_cache_payload(task: _RobustnessTask, fence_key: dict) -> tuple[str, dict]:
    """(cache kind, payload) of one matrix task's per-episode cache entry."""
    payload = {
        "config": task.dataset_config,
        "benchmark": task.benchmark,
        "attack": task.model,
        "attack_windows": task.attack_windows,
        "dtype": default_dtype(),
    }
    if task.kind == "unmitigated":
        return "robustness-unmitigated", payload
    payload["policy"] = task.policy
    payload["evidence"] = task.evidence
    payload["fence"] = fence_key
    if task.faults is not None:
        payload["faults"] = task.faults
        return "chaos-episode", payload
    return "robustness-episode", payload


def _run_robustness_task(task: _RobustnessTask):
    """Execute one matrix simulation (module-level for worker processes)."""
    builder = DatasetBuilder(task.dataset_config)
    if task.kind == "unmitigated":
        return unmitigated_attack_episode_latency(
            builder,
            task.model,
            benchmark=task.benchmark,
            attack_windows=task.attack_windows,
        )
    return run_attack_episode(
        task.fence,
        builder,
        task.policy,
        task.model,
        benchmark=task.benchmark,
        attack_windows=task.attack_windows,
        evidence=task.evidence,
        faults=task.faults,
    )


def _fetch_task_result(engine: ExperimentEngine, kind: str, payload: dict):
    """Load one cached matrix result (None on miss)."""
    if kind == "robustness-unmitigated":
        return engine.cache.fetch(
            kind,
            payload,
            lambda directory: float(
                json.loads((directory / "value.json").read_text())["value"]
            ),
        )
    return engine.cache.fetch(
        kind,
        payload,
        lambda directory: DefenseReport.from_payload(
            json.loads((directory / "report.json").read_text())
        ),
    )


def _store_task_result(engine: ExperimentEngine, kind: str, payload: dict, result):
    """Persist one matrix result into the per-episode cache."""
    if kind == "robustness-unmitigated":
        engine.cache.store(
            kind,
            payload,
            lambda directory: (directory / "value.json").write_text(
                json.dumps({"value": float(result)})
            ),
        )
    else:
        engine.cache.store(
            kind,
            payload,
            lambda directory: (directory / "report.json").write_text(
                json.dumps(result.to_payload())
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
    evidence: EvidenceConfig | bool = True,
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
    attack_names = tuple(attacks) if attacks is not None else tuple(ATTACK_LIBRARY)
    for name in attack_names:
        if name not in ATTACK_LIBRARY:
            raise KeyError(f"unknown attack variant {name!r}")
    if evidence is True:
        # Resolve the default up-front so the accumulator's actual knob
        # values (not the bare flag) enter every cache key below.
        evidence = EvidenceConfig()
    engine = engine or ExperimentEngine.from_environment()
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
    records = engine.cached_records(
        "robustness-matrix",
        payload,
        lambda: [
            point.to_payload()
            for point in _compute_robustness_points(
                attack_names,
                experiments,
                suites,
                policy,
                benchmark,
                attack_windows,
                tuple(training_benchmarks),
                evidence,
                engine,
            )
        ],
    )
    return [RobustnessPoint.from_payload(record) for record in records]


def _compute_robustness_points(
    attack_names: tuple[str, ...],
    experiments: dict[int, ExperimentConfig],
    suites: dict[int, dict[str, AttackModel]],
    policy: MitigationPolicy,
    benchmark: str,
    attack_windows: int,
    training_benchmarks: tuple[str, ...],
    evidence: EvidenceConfig | bool,
    engine: ExperimentEngine,
) -> list[RobustnessPoint]:
    """Cache-miss path: train per mesh, fan episodes out, assemble points."""
    points: list[RobustnessPoint] = []
    for rows, experiment in experiments.items():
        fence, builder = train_defense_pipeline(
            experiment, benchmarks=training_benchmarks, engine=engine
        )
        mesh_baseline = baseline_benign_latency(
            builder, benchmark=benchmark, attack_windows=attack_windows
        )
        suite = suites[rows]
        tasks: list[_RobustnessTask] = []
        for name in attack_names:
            tasks.append(
                _RobustnessTask(
                    kind="unmitigated",
                    dataset_config=builder.config,
                    benchmark=benchmark,
                    model=suite[name],
                    attack_windows=attack_windows,
                )
            )
            tasks.append(
                _RobustnessTask(
                    kind="episode",
                    dataset_config=builder.config,
                    benchmark=benchmark,
                    model=suite[name],
                    attack_windows=attack_windows,
                    policy=policy,
                    evidence=evidence,
                    fence=fence,
                )
            )
        fence_key = sweep_fence_key_payload(experiment, training_benchmarks)
        cache_keys = [_task_cache_payload(task, fence_key) for task in tasks]
        cached = [
            _fetch_task_result(engine, kind, payload) for kind, payload in cache_keys
        ]
        missing = [index for index, value in enumerate(cached) if value is None]
        fresh = engine.runner.map(
            _run_robustness_task, [tasks[index] for index in missing]
        )
        for index, value in zip(missing, fresh):
            cached[index] = value
            kind, payload = cache_keys[index]
            _store_task_result(engine, kind, payload, value)
        results = iter(cached)
        for name in attack_names:
            unmitigated = next(results)
            report = next(results)
            model = suite[name]
            truth = set(model.containment_nodes)
            contained = (
                report.time_to_full_containment is not None
                and not report.collateral_nodes
            )
            points.append(
                RobustnessPoint(
                    attack=name,
                    rows=rows,
                    policy=policy.name,
                    detected=report.detection_latency is not None,
                    detection_latency=report.detection_latency,
                    time_to_mitigation=report.time_to_mitigation,
                    time_to_full_containment=report.time_to_full_containment,
                    num_attackers=len(truth),
                    attackers_fenced=len(truth & report.engaged_nodes),
                    contained=contained,
                    collateral_nodes=tuple(sorted(report.collateral_nodes)),
                    collateral_node_windows=report.collateral_node_windows,
                    localization_rounds=report.localization_rounds,
                    reengagements=report.reengagements,
                    evidence_convictions=sum(
                        1 for event in report.events if event.kind == "convicted"
                    ),
                    baseline_latency=mesh_baseline,
                    attack_latency=report.attack_latency(),
                    unmitigated_latency=unmitigated,
                    mitigated_latency=report.post_mitigation_latency(),
                    recovery_ratio=report.recovery_ratio(mesh_baseline),
                    benchmark=benchmark,
                    description=model.describe(),
                )
            )
    return points


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
    evidence: EvidenceConfig | bool = True,
    engine: ExperimentEngine | None = None,
) -> list[ChaosPoint]:
    """Fault-augmented robustness matrix: attack × mesh × monitor-fault.

    Every cell replays a defended refined-DoS episode with one scenario of
    :func:`repro.faults.default_fault_suite` installed between the sampler
    and the guard (the always-included ``"none"`` scenario is the fault-free
    comparator).  The per-mesh pipeline training and its cache entry are
    shared with :func:`run_robustness_matrix` — only the episodes are new.
    """
    attack_names = tuple(attacks) if attacks is not None else tuple(ATTACK_LIBRARY)
    for name in attack_names:
        if name not in ATTACK_LIBRARY:
            raise KeyError(f"unknown attack variant {name!r}")
    if evidence is True:
        evidence = EvidenceConfig()
    engine = engine or ExperimentEngine.from_environment()
    experiments = {
        rows: (
            config.scaled(rows=rows)
            if config is not None
            else ExperimentConfig.for_mesh(rows)
        )
        for rows in rows_values
    }
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
    records = engine.cached_records(
        "chaos-matrix",
        payload,
        lambda: [
            point.to_payload()
            for point in _compute_chaos_points(
                attack_names,
                scenario_names,
                experiments,
                suites,
                fault_suites,
                policy,
                benchmark,
                attack_windows,
                tuple(training_benchmarks),
                evidence,
                engine,
            )
        ],
    )
    return [ChaosPoint.from_payload(record) for record in records]


def _compute_chaos_points(
    attack_names: tuple[str, ...],
    scenario_names: tuple[str, ...],
    experiments: dict[int, ExperimentConfig],
    suites: dict[int, dict[str, AttackModel]],
    fault_suites: dict[int, dict[str, FaultScenario]],
    policy: MitigationPolicy,
    benchmark: str,
    attack_windows: int,
    training_benchmarks: tuple[str, ...],
    evidence: EvidenceConfig | bool,
    engine: ExperimentEngine,
) -> list[ChaosPoint]:
    """Cache-miss path: train per mesh, fan faulted episodes out, assemble."""
    points: list[ChaosPoint] = []
    for rows, experiment in experiments.items():
        fence, builder = train_defense_pipeline(
            experiment, benchmarks=training_benchmarks, engine=engine
        )
        mesh_baseline = baseline_benign_latency(
            builder, benchmark=benchmark, attack_windows=attack_windows
        )
        suite = suites[rows]
        fault_suite = fault_suites[rows]
        grid = [
            (attack_name, scenario_name)
            for attack_name in attack_names
            for scenario_name in scenario_names
        ]
        tasks = [
            _RobustnessTask(
                kind="episode",
                dataset_config=builder.config,
                benchmark=benchmark,
                model=suite[attack_name],
                attack_windows=attack_windows,
                policy=policy,
                evidence=evidence,
                fence=fence,
                faults=fault_suite[scenario_name],
            )
            for attack_name, scenario_name in grid
        ]
        fence_key = sweep_fence_key_payload(experiment, training_benchmarks)
        cache_keys = [_task_cache_payload(task, fence_key) for task in tasks]
        cached = [
            _fetch_task_result(engine, kind, payload) for kind, payload in cache_keys
        ]
        missing = [index for index, value in enumerate(cached) if value is None]
        fresh = engine.runner.map(
            _run_robustness_task, [tasks[index] for index in missing]
        )
        for index, value in zip(missing, fresh):
            cached[index] = value
            kind, payload = cache_keys[index]
            _store_task_result(engine, kind, payload, value)
        for (attack_name, scenario_name), report in zip(grid, cached):
            model = suite[attack_name]
            scenario = fault_suite[scenario_name]
            topology = builder.topology
            fault_nodes = tuple(sorted(scenario.affected_nodes(topology)))
            truth = set(model.containment_nodes)
            # Count punishments of *fault-only* nodes: a node that is both
            # faulty and a true attacker is a legitimate fence target.
            fault_only = set(fault_nodes) - truth
            contained = (
                report.time_to_full_containment is not None
                and not report.collateral_nodes
            )
            fault_engagements = sum(
                sum(1 for node in event.nodes if node in fault_only)
                for event in report.events
                if event.kind == "engaged"
            )
            fault_convictions = sum(
                sum(1 for node in event.nodes if node in fault_only)
                for event in report.events
                if event.kind == "convicted"
            )
            points.append(
                ChaosPoint(
                    attack=attack_name,
                    rows=rows,
                    scenario=scenario_name,
                    policy=policy.name,
                    fault_nodes=fault_nodes,
                    detected=report.detection_latency is not None,
                    detection_latency=report.detection_latency,
                    time_to_mitigation=report.time_to_mitigation,
                    time_to_full_containment=report.time_to_full_containment,
                    num_attackers=len(truth),
                    attackers_fenced=len(truth & report.engaged_nodes),
                    contained=contained,
                    collateral_nodes=tuple(sorted(report.collateral_nodes)),
                    collateral_node_windows=report.collateral_node_windows,
                    fault_node_engagements=fault_engagements,
                    fault_node_convictions=fault_convictions,
                    windows_delivered=len(report.windows),
                    localization_rounds=report.localization_rounds,
                    reengagements=report.reengagements,
                    baseline_latency=mesh_baseline,
                    attack_latency=report.attack_latency(),
                    mitigated_latency=report.post_mitigation_latency(),
                    fresh_mitigated_latency=report.post_mitigation_fresh_latency(),
                    recovery_ratio=report.recovery_ratio(mesh_baseline),
                    fresh_recovery_ratio=report.fresh_recovery_ratio(mesh_baseline),
                    sample_period=builder.config.sample_period,
                    benchmark=benchmark,
                    description=f"{model.describe()} | faults: {scenario.describe()}",
                )
            )
    return points
