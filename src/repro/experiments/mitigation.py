"""Closed-loop mitigation experiment: FIR x mesh size x policy sweep.

This driver measures what the paper's fence enables but never evaluates:
with the online :class:`~repro.defense.DL2FenceGuard` attached to a live
simulation, how fast is a refined flooding attack detected and mitigated,
and how completely does benign-traffic latency recover?  For every
(FIR, mesh, policy) operating point it reports detection latency,
time-to-mitigation, benign latency in the three phases of the defended run,
the recovery ratio against a no-attack baseline, and collateral damage.

Episodes accept either a single :class:`AttackScenario` or a
:class:`MultiAttackScenario` of concurrent floods on disjoint victims; the
multi-attack sweep additionally reports per-attacker detection latency and
the time until *all* attackers are contained, across the guard's iterative
localization rounds.  The sweep runs at the paper's 16x16 scale and over
PARSEC workloads (see :mod:`benchmarks.bench_fig6_mitigation_recovery`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace

from repro.core.config import DL2FenceConfig
from repro.core.pipeline import DL2Fence
from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.defense.report import DefenseReport
from repro.experiments.config import ExperimentConfig
from repro.monitor.dataset import DatasetBuilder, DatasetConfig
from repro.monitor.sampler import MonitorConfig
from repro.nn.dtype import default_dtype
from repro.noc.simulator import NoCSimulator
from repro.runtime.engine import ExperimentEngine, fence_cache_payload
from repro.traffic.flooding import FloodingAttacker, FloodingConfig
from repro.traffic.scenario import AttackScenario, MultiAttackScenario

__all__ = [
    "ASYMMETRIC_FLOW_FIRS",
    "EpisodeShape",
    "MitigationPoint",
    "baseline_benign_latency",
    "default_multi_scenario",
    "sweep_fence_key_payload",
    "train_defense_pipeline",
    "run_defended_episode",
    "run_mitigation_sweep",
    "unmitigated_attack_latency",
]

#: Policies compared by default: gentle rate limiting versus full isolation.
DEFAULT_POLICIES = (
    MitigationPolicy.throttle(0.1, engage_after=2, release_after=6, flush_queue=True),
    MitigationPolicy.quarantine(engage_after=2, release_after=6, flush_queue=True),
)

#: Default loud + quiet relative FIR profile for asymmetric multi-attack
#: sweeps: at a swept FIR of 0.8 the two flows flood at 0.8 and 0.2.  The
#: profile is normalised so its maximum maps onto the swept FIR value.
ASYMMETRIC_FLOW_FIRS = (0.8, 0.2)


@dataclass
class MitigationPoint:
    """Outcome of one defended episode at one operating point."""

    fir: float
    rows: int
    policy: str
    detected: bool
    detection_latency: int | None
    time_to_mitigation: int | None
    baseline_latency: float
    attack_latency: float
    unmitigated_latency: float
    mitigated_latency: float
    recovery_ratio: float
    engaged_nodes: tuple[int, ...]
    collateral_nodes: tuple[int, ...]
    collateral_node_windows: int
    benchmark: str = "uniform_random"
    num_attackers: int = 1
    attackers_fenced: int = 0
    time_to_full_containment: int | None = None
    localization_rounds: int = 0
    reengagements: int = 0
    per_attacker_detection_latency: dict = field(default_factory=dict)
    flow_firs: tuple[float, ...] = ()

    def as_dict(self) -> dict:
        return {
            "fir": self.fir,
            "flow_firs": "/".join(f"{fir:g}" for fir in self.flow_firs) or None,
            "rows": self.rows,
            "benchmark": self.benchmark,
            "policy": self.policy,
            "attackers": self.num_attackers,
            "detected": self.detected,
            "detection_latency": self.detection_latency,
            "time_to_mitigation": self.time_to_mitigation,
            "containment": self.time_to_full_containment,
            "fenced": self.attackers_fenced,
            "rounds": self.localization_rounds,
            "reengage": self.reengagements,
            "baseline_latency": self.baseline_latency,
            "attack_latency": self.attack_latency,
            "unmitigated_latency": self.unmitigated_latency,
            "mitigated_latency": self.mitigated_latency,
            "recovery_ratio": self.recovery_ratio,
            "engaged": len(self.engaged_nodes),
            "collateral": len(self.collateral_nodes),
            "collateral_node_windows": self.collateral_node_windows,
        }

    # -- lossless round-trip (artifact cache) -------------------------------
    def to_payload(self) -> dict:
        """Full-fidelity dict (unlike :meth:`as_dict`, which is a table view)."""
        payload = dataclasses.asdict(self)
        payload["per_attacker_detection_latency"] = {
            str(node): value
            for node, value in self.per_attacker_detection_latency.items()
        }
        return payload

    @classmethod
    def from_payload(cls, data: dict) -> "MitigationPoint":
        """Inverse of :meth:`to_payload` (restores tuples and int keys)."""
        data = dict(data)
        for name in ("engaged_nodes", "collateral_nodes"):
            data[name] = tuple(int(node) for node in data[name])
        data["flow_firs"] = tuple(float(fir) for fir in data.get("flow_firs", ()))
        data["per_attacker_detection_latency"] = {
            int(node): value
            for node, value in data["per_attacker_detection_latency"].items()
        }
        return cls(**data)


def train_defense_pipeline(
    config: ExperimentConfig,
    benchmarks: tuple[str, ...] = ("uniform_random", "tornado"),
    engine: ExperimentEngine | None = None,
) -> tuple[DL2Fence, DatasetBuilder]:
    """Train a DL2Fence pipeline at this experiment scale (once per mesh).

    Routed through the experiment engine: the scenario runs and the trained
    models are cached on disk, so a second sweep at the same mesh scale never
    retrains.
    """
    engine = engine or ExperimentEngine.from_environment()
    return engine.trained_fence(
        config.dataset_config(),
        DL2FenceConfig(seed=config.seed),
        benchmarks=list(benchmarks),
        scenarios_per_benchmark=config.scenarios_per_benchmark,
        seed=config.seed,
        detector_epochs=config.detector_epochs,
        localizer_epochs=config.localizer_epochs,
    )


def _default_scenario(builder: DatasetBuilder, fir: float) -> AttackScenario:
    """A long diagonal flow: far-corner attacker, victim near the origin."""
    topology = builder.topology
    return AttackScenario(
        attackers=(topology.node_id(topology.columns - 2, topology.rows - 2),),
        victim=topology.node_id(1, 1),
        fir=fir,
    )


def default_multi_scenario(
    builder: DatasetBuilder, num_flows: int = 2, fir: float = 0.8
) -> MultiAttackScenario:
    """Deterministic concurrent floods on disjoint victims in disjoint rows.

    Flow ``i`` floods along its own mesh row (rows spread evenly across the
    mesh), alternating east- and west-bound so both E and W abnormal-frame
    rules of the Table-Like Method are exercised.  Row-disjoint routes keep
    every flow's congestion signature independent — the cleanest instance of
    the "concurrent attackers on disjoint victims" threat model.
    """
    topology = builder.topology
    rows, cols = topology.rows, topology.columns
    if num_flows < 1:
        raise ValueError("num_flows must be >= 1")
    if rows < 4 or cols < 4:
        # On a 3-wide mesh the end-of-row attacker and victim coincide.
        raise ValueError("default multi-attack flows need at least a 4x4 mesh")
    if num_flows > rows - 2:
        raise ValueError(f"at most {rows - 2} row-disjoint flows fit on this mesh")
    flows = []
    for index in range(num_flows):
        y = 1 + round(index * (rows - 3) / max(1, num_flows - 1)) if num_flows > 1 else rows - 2
        if index % 2 == 0:
            attacker = topology.node_id(cols - 2, y)
            victim = topology.node_id(1, y)
        else:
            attacker = topology.node_id(1, y)
            victim = topology.node_id(cols - 2, y)
        flows.append(AttackScenario(attackers=(attacker,), victim=victim, fir=fir))
    return MultiAttackScenario(flows=tuple(flows))


def _scenario_with_fir(
    scenario: AttackScenario | MultiAttackScenario,
    fir: float,
    flow_fir_profile: tuple[float, ...] | None = None,
) -> AttackScenario | MultiAttackScenario:
    """Override the FIR of a single- or multi-attack scenario.

    Without a profile the override is uniform.  With a profile (multi-attack
    only) the profile is normalised so its loudest flow floods at ``fir`` and
    the others keep their relative quietness — e.g. profile ``(0.8, 0.2)`` at
    ``fir=0.8`` yields per-flow FIRs ``(0.8, 0.2)``.
    """
    if isinstance(scenario, MultiAttackScenario):
        if flow_fir_profile:
            return scenario.with_firs(scaled_flow_firs(flow_fir_profile, fir))
        return scenario.with_fir(fir)
    return replace(scenario, fir=fir)


def scaled_flow_firs(profile: tuple[float, ...], fir: float) -> tuple[float, ...]:
    """Per-flow FIRs: ``profile`` rescaled so its maximum equals ``fir``."""
    loudest = max(profile)
    if loudest <= 0.0:
        raise ValueError("flow FIR profile needs at least one positive entry")
    # Ratio first: the loudest flow lands *exactly* on the swept FIR value.
    return tuple(min(1.0, fir * (value / loudest)) for value in profile)


@dataclass(frozen=True)
class EpisodeShape:
    """Cycle arithmetic shared by every run of the same attack episode."""

    total_cycles: int
    attack_start: int
    attack_end: int

    @classmethod
    def from_windows(
        cls, builder: DatasetBuilder, pre: int, attack: int, post: int
    ) -> "EpisodeShape":
        period = builder.config.sample_period
        warmup = builder.config.warmup_cycles
        return cls(
            total_cycles=warmup + (pre + attack + post) * period + 1,
            attack_start=warmup + pre * period,
            attack_end=warmup + (pre + attack) * period,
        )


def _attacked_simulator(
    builder: DatasetBuilder,
    benchmark: str,
    scenario: AttackScenario | MultiAttackScenario,
    shape: EpisodeShape,
    seed: int,
) -> NoCSimulator:
    """The defended run's system under attack (identical for all comparators).

    ``scenario`` carries its final per-flow FIRs; callers apply
    :func:`_scenario_with_fir` before building the simulator.
    """
    config = builder.config
    simulator = NoCSimulator(config.simulation_config())
    simulator.add_source(builder.make_workload(benchmark, seed=seed))
    if isinstance(scenario, MultiAttackScenario):
        for source in scenario.attacker_sources(
            builder.topology,
            seed=seed + 1,
            packet_size_flits=config.packet_size_flits,
            start_cycle=shape.attack_start,
            end_cycle=shape.attack_end,
        ):
            simulator.add_source(source)
    else:
        simulator.add_source(
            FloodingAttacker(
                FloodingConfig(
                    attackers=scenario.attackers,
                    victim=scenario.victim,
                    fir=scenario.fir,
                    packet_size_flits=config.packet_size_flits,
                    start_cycle=shape.attack_start,
                    end_cycle=shape.attack_end,
                ),
                builder.topology,
                seed=seed + 1,
            )
        )
    return simulator


def baseline_benign_latency(
    builder: DatasetBuilder,
    benchmark: str = "uniform_random",
    pre_attack_windows: int = 4,
    attack_windows: int = 10,
    post_attack_windows: int = 4,
    seed: int = 42,
) -> float:
    """No-attack benign latency over the episode's measurement horizon.

    Independent of FIR and policy — compute it once per mesh/benchmark when
    sweeping.
    """
    shape = EpisodeShape.from_windows(
        builder, pre_attack_windows, attack_windows, post_attack_windows
    )
    simulator = NoCSimulator(builder.config.simulation_config())
    simulator.add_source(builder.make_workload(benchmark, seed=seed))
    simulator.run(shape.total_cycles)
    return simulator.latency(benign_only=True).packet_latency


def run_defended_episode(
    fence: DL2Fence,
    builder: DatasetBuilder,
    policy: MitigationPolicy,
    fir: float,
    benchmark: str = "uniform_random",
    scenario: AttackScenario | MultiAttackScenario | None = None,
    pre_attack_windows: int = 4,
    attack_windows: int = 10,
    post_attack_windows: int = 4,
    seed: int = 42,
    baseline_latency: float | None = None,
    flow_fir_profile: tuple[float, ...] | None = None,
) -> tuple[DefenseReport, float]:
    """Run one attack episode under guard; returns (report, baseline latency).

    ``scenario`` may be a single :class:`AttackScenario` or a
    :class:`MultiAttackScenario` of concurrent floods; the guard then fences
    the attackers over iterative localization rounds and the report carries
    per-attacker latencies plus time-to-full-containment.
    ``flow_fir_profile`` makes a multi-attack episode asymmetric: the profile
    is rescaled so its loudest flow floods at ``fir`` (see
    :func:`_scenario_with_fir`).

    The baseline is the same workload and measurement horizon with neither
    attacker nor guard — the no-attack benign latency the defended system is
    trying to get back to.  Pass ``baseline_latency`` to reuse a previously
    measured value instead of re-simulating it.
    """
    shape = EpisodeShape.from_windows(
        builder, pre_attack_windows, attack_windows, post_attack_windows
    )
    if scenario is None:
        scenario = _default_scenario(builder, fir)
    else:
        scenario = _scenario_with_fir(scenario, fir, flow_fir_profile)
    if baseline_latency is None:
        baseline_latency = baseline_benign_latency(
            builder,
            benchmark,
            pre_attack_windows,
            attack_windows,
            post_attack_windows,
            seed,
        )

    simulator = _attacked_simulator(builder, benchmark, scenario, shape, seed)
    guard = DL2FenceGuard(
        fence,
        policy,
        attack_start=shape.attack_start,
        attack_end=shape.attack_end,
        true_attackers=scenario.attackers,
    )
    guard.attach(
        simulator,
        monitor_config=MonitorConfig(sample_period=builder.config.sample_period),
    )
    simulator.run(shape.total_cycles)
    return guard.report, baseline_latency


def unmitigated_attack_latency(
    builder: DatasetBuilder,
    fir: float,
    benchmark: str = "uniform_random",
    scenario: AttackScenario | MultiAttackScenario | None = None,
    pre_attack_windows: int = 4,
    attack_windows: int = 10,
    post_attack_windows: int = 4,
    seed: int = 42,
    flow_fir_profile: tuple[float, ...] | None = None,
) -> float:
    """Benign latency of the same attack episode with no defense at all.

    Measured over benign packets delivered while the attack runs (skipping
    the first window so the congestion has built up) — the do-nothing
    comparator for the mitigated latency.
    """
    shape = EpisodeShape.from_windows(
        builder, pre_attack_windows, attack_windows, post_attack_windows
    )
    if scenario is None:
        scenario = _default_scenario(builder, fir)
    else:
        scenario = _scenario_with_fir(scenario, fir, flow_fir_profile)
    simulator = _attacked_simulator(builder, benchmark, scenario, shape, seed)
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
class _SweepTask:
    """One independent simulation of the mitigation sweep fan-out."""

    kind: str  # "unmitigated" | "episode"
    dataset_config: DatasetConfig
    benchmark: str
    fir: float
    scenario: AttackScenario | MultiAttackScenario | None
    attack_windows: int
    flow_fir_profile: tuple[float, ...] | None
    policy: MitigationPolicy | None = None
    fence: DL2Fence | None = None
    baseline: float | None = None


def sweep_fence_key_payload(
    experiment: ExperimentConfig, training_benchmarks: tuple[str, ...]
) -> dict:
    """The training configuration that identifies a sweep's fence.

    Built by the same :func:`repro.runtime.engine.fence_cache_payload`
    helper :meth:`ExperimentEngine.trained_fence` keys its cache entry
    with (same arguments as :func:`train_defense_pipeline` passes), so
    per-episode entries are shared exactly when the pipeline defending
    them is the same.
    """
    return fence_cache_payload(
        experiment.dataset_config(),
        DL2FenceConfig(seed=experiment.seed),
        list(training_benchmarks),
        experiment.scenarios_per_benchmark,
        (1, 2),
        experiment.seed,
        experiment.detector_epochs,
        experiment.localizer_epochs,
    )


def _task_cache_payload(task: _SweepTask, fence_key: dict) -> tuple[str, dict]:
    """(cache kind, payload) of one sweep task's per-episode cache entry.

    The fence object itself cannot enter a cache key; its training
    configuration (``fence_key``) stands in for it.  The pre-computed
    baseline latency is deliberately excluded — it does not influence the
    simulated episode, only later table assembly.
    """
    payload = {
        "config": task.dataset_config,
        "benchmark": task.benchmark,
        "fir": task.fir,
        "scenario": task.scenario,
        "attack_windows": task.attack_windows,
        "flow_fir_profile": task.flow_fir_profile,
        "dtype": default_dtype(),
    }
    if task.kind == "unmitigated":
        return "unmitigated-latency", payload
    payload["policy"] = task.policy
    payload["fence"] = fence_key
    return "mitigation-episode", payload


def _fetch_task_result(engine: ExperimentEngine, kind: str, payload: dict):
    """Load one cached episode result (None on miss)."""
    if kind == "unmitigated-latency":
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
    """Persist one episode result into the per-episode cache."""
    if kind == "unmitigated-latency":
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


def _run_sweep_task(task: _SweepTask):
    """Execute one sweep simulation (module-level for worker processes)."""
    builder = DatasetBuilder(task.dataset_config)
    if task.kind == "unmitigated":
        return unmitigated_attack_latency(
            builder,
            task.fir,
            benchmark=task.benchmark,
            scenario=task.scenario,
            attack_windows=task.attack_windows,
            flow_fir_profile=task.flow_fir_profile,
        )
    report, _ = run_defended_episode(
        task.fence,
        builder,
        task.policy,
        fir=task.fir,
        benchmark=task.benchmark,
        scenario=task.scenario,
        attack_windows=task.attack_windows,
        baseline_latency=task.baseline,
        flow_fir_profile=task.flow_fir_profile,
    )
    return report


def run_mitigation_sweep(
    firs: tuple[float, ...] = (0.4, 0.8),
    rows_values: tuple[int, ...] = (8,),
    policies: tuple[MitigationPolicy, ...] = DEFAULT_POLICIES,
    config: ExperimentConfig | None = None,
    benchmark: str = "uniform_random",
    num_flows: int = 1,
    attack_windows: int = 10,
    training_benchmarks: tuple[str, ...] = ("uniform_random", "tornado"),
    flow_fir_profile: tuple[float, ...] | None = None,
    engine: ExperimentEngine | None = None,
) -> list[MitigationPoint]:
    """Sweep FIR x mesh size x mitigation policy with one trained pipeline per mesh.

    ``num_flows >= 2`` switches every episode to the deterministic
    row-disjoint :func:`default_multi_scenario` of concurrent floods, and
    ``benchmark`` accepts PARSEC workloads as well as synthetic patterns, so
    the sweep covers the paper's 16x16 + PARSEC evaluation scale.
    ``flow_fir_profile`` (e.g. :data:`ASYMMETRIC_FLOW_FIRS`) makes the
    concurrent flows asymmetric: the profile is rescaled so the loudest flow
    floods at the swept FIR while the others stay proportionally quieter.

    The pipeline is trained once per mesh through the experiment engine's
    artifact cache, the independent episode/unmitigated simulations fan out
    across the engine's worker processes (bit-identical to the serial order
    — every task carries its own seed), and the finished sweep is memoised.
    """
    base_config = config or ExperimentConfig()
    engine = engine or ExperimentEngine.from_environment()
    payload = {
        "experiment": base_config,
        "firs": tuple(firs),
        "rows_values": tuple(rows_values),
        "policies": tuple(policies),
        "benchmark": benchmark,
        "num_flows": num_flows,
        "attack_windows": attack_windows,
        "training_benchmarks": tuple(training_benchmarks),
        "flow_fir_profile": tuple(flow_fir_profile) if flow_fir_profile else None,
        "dtype": default_dtype(),
    }
    records = engine.cached_records(
        "mitigation-sweep",
        payload,
        lambda: [
            point.to_payload()
            for point in _compute_mitigation_points(
                tuple(firs),
                tuple(rows_values),
                tuple(policies),
                base_config,
                benchmark,
                num_flows,
                attack_windows,
                tuple(training_benchmarks),
                tuple(flow_fir_profile) if flow_fir_profile else None,
                engine,
            )
        ],
    )
    return [MitigationPoint.from_payload(record) for record in records]


def _compute_mitigation_points(
    firs: tuple[float, ...],
    rows_values: tuple[int, ...],
    policies: tuple[MitigationPolicy, ...],
    base_config: ExperimentConfig,
    benchmark: str,
    num_flows: int,
    attack_windows: int,
    training_benchmarks: tuple[str, ...],
    flow_fir_profile: tuple[float, ...] | None,
    engine: ExperimentEngine,
) -> list[MitigationPoint]:
    """Cache-miss path of the sweep: train once per mesh, fan episodes out."""
    points: list[MitigationPoint] = []
    for rows in rows_values:
        experiment = base_config.scaled(rows=rows)
        fence, builder = train_defense_pipeline(
            experiment, benchmarks=training_benchmarks, engine=engine
        )
        mesh_baseline = baseline_benign_latency(
            builder, benchmark=benchmark, attack_windows=attack_windows
        )
        scenario = (
            default_multi_scenario(builder, num_flows=num_flows)
            if num_flows > 1
            else None
        )
        profile = flow_fir_profile if num_flows > 1 else None
        tasks: list[_SweepTask] = []
        for fir in firs:
            tasks.append(
                _SweepTask(
                    kind="unmitigated",
                    dataset_config=builder.config,
                    benchmark=benchmark,
                    fir=fir,
                    scenario=scenario,
                    attack_windows=attack_windows,
                    flow_fir_profile=profile,
                )
            )
            for policy in policies:
                tasks.append(
                    _SweepTask(
                        kind="episode",
                        dataset_config=builder.config,
                        benchmark=benchmark,
                        fir=fir,
                        scenario=scenario,
                        attack_windows=attack_windows,
                        flow_fir_profile=profile,
                        policy=policy,
                        fence=fence,
                        baseline=mesh_baseline,
                    )
                )
        # Per-episode caching: each task is memoised individually (like
        # scenario runs), so changing one FIR — or adding a policy — only
        # simulates the episodes that are actually new.
        fence_key = sweep_fence_key_payload(experiment, training_benchmarks)
        cache_keys = [_task_cache_payload(task, fence_key) for task in tasks]
        cached = [
            _fetch_task_result(engine, kind, payload) for kind, payload in cache_keys
        ]
        missing = [index for index, value in enumerate(cached) if value is None]
        fresh = engine.runner.map(
            _run_sweep_task, [tasks[index] for index in missing]
        )
        for index, value in zip(missing, fresh):
            cached[index] = value
            kind, payload = cache_keys[index]
            _store_task_result(engine, kind, payload, value)
        results = iter(cached)
        for fir in firs:
            unmitigated = next(results)
            flow_firs = scaled_flow_firs(profile, fir) if profile else ()
            for policy in policies:
                report = next(results)
                truth = set(report.true_attackers)
                points.append(
                    MitigationPoint(
                        fir=fir,
                        rows=rows,
                        policy=policy.name,
                        # detection of *the attack*: pre-attack false
                        # positives do not count (detection_latency bounds
                        # the first detection at attack_start)
                        detected=report.detection_latency is not None,
                        detection_latency=report.detection_latency,
                        time_to_mitigation=report.time_to_mitigation,
                        baseline_latency=mesh_baseline,
                        attack_latency=report.attack_latency(),
                        unmitigated_latency=unmitigated,
                        mitigated_latency=report.post_mitigation_latency(),
                        recovery_ratio=report.recovery_ratio(mesh_baseline),
                        engaged_nodes=tuple(sorted(report.engaged_nodes)),
                        collateral_nodes=tuple(sorted(report.collateral_nodes)),
                        collateral_node_windows=report.collateral_node_windows,
                        benchmark=benchmark,
                        num_attackers=len(truth),
                        attackers_fenced=len(truth & report.engaged_nodes),
                        time_to_full_containment=report.time_to_full_containment,
                        localization_rounds=report.localization_rounds,
                        reengagements=report.reengagements,
                        per_attacker_detection_latency=(
                            report.per_attacker_detection_latency()
                        ),
                        flow_firs=flow_firs,
                    )
                )
    return points
