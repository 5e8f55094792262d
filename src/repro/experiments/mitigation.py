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
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro.core.config import DL2FenceConfig
from repro.core.pipeline import DL2Fence
from repro.defense.policy import MitigationPolicy
from repro.defense.report import DefenseReport
from repro.experiments.config import ExperimentConfig
from repro.experiments.episodes import (
    EpisodeShape,
    EpisodeTask,
    report_fields,
    run_episodes,
    run_guarded_episode,
    unmitigated_latency,
)
from repro.monitor.dataset import DatasetBuilder
from repro.nn.dtype import default_dtype
from repro.noc.simulator import NoCSimulator
from repro.runtime.engine import ExperimentEngine, fence_cache_payload
from repro.traffic.scenario import AttackScenario, MultiAttackScenario

__all__ = [
    "ASYMMETRIC_FLOW_FIRS",
    "EpisodeShape",
    "MitigationPoint",
    "baseline_benign_latency",
    "default_multi_scenario",
    "defended_meshes",
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
    builder: DatasetBuilder,
    scenario: AttackScenario | MultiAttackScenario | None,
    fir: float,
    flow_fir_profile: tuple[float, ...] | None = None,
) -> AttackScenario | MultiAttackScenario:
    """The episode's attack at its final FIRs (the default flow when ``None``).

    Without a profile the override is uniform.  With a profile (multi-attack
    only) the profile is normalised so its loudest flow floods at ``fir`` and
    the others keep their relative quietness — e.g. profile ``(0.8, 0.2)`` at
    ``fir=0.8`` yields per-flow FIRs ``(0.8, 0.2)``.
    """
    if scenario is None:
        return _default_scenario(builder, fir)
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
    if baseline_latency is None:
        baseline_latency = baseline_benign_latency(
            builder,
            benchmark,
            pre_attack_windows,
            attack_windows,
            post_attack_windows,
            seed,
        )
    report = run_guarded_episode(
        fence,
        builder,
        policy,
        _scenario_with_fir(builder, scenario, fir, flow_fir_profile),
        benchmark,
        pre_attack_windows,
        attack_windows,
        post_attack_windows,
        seed,
    )
    return report, baseline_latency


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
    return unmitigated_latency(
        builder,
        _scenario_with_fir(builder, scenario, fir, flow_fir_profile),
        benchmark,
        pre_attack_windows,
        attack_windows,
        post_attack_windows,
        seed,
    )


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


def defended_meshes(
    experiments: Iterable[tuple[int, ExperimentConfig]],
    training_benchmarks: tuple[str, ...],
    benchmark: str,
    attack_windows: int,
    engine: ExperimentEngine,
) -> Iterator[tuple[int, DL2Fence, DatasetBuilder, float, dict]]:
    """``(rows, fence, builder, baseline latency, fence key)`` per mesh.

    Each mesh's pipeline is trained (or loaded from the engine's artifact
    cache) when its turn comes; the baseline is the mesh's no-attack benign
    latency, the fence key what :func:`run_episodes` keys its episodes by.
    """
    for rows, experiment in experiments:
        fence, builder = train_defense_pipeline(
            experiment, benchmarks=training_benchmarks, engine=engine
        )
        baseline = baseline_benign_latency(
            builder, benchmark=benchmark, attack_windows=attack_windows
        )
        yield rows, fence, builder, baseline, sweep_fence_key_payload(
            experiment, training_benchmarks
        )


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

    Episodes are cached one by one (see :func:`run_episodes`) and the
    finished sweep is memoised as a whole.
    """
    base_config = config or ExperimentConfig()
    engine = engine or ExperimentEngine.from_environment()
    profile = tuple(flow_fir_profile) if flow_fir_profile else None
    payload = {
        "experiment": base_config,
        "firs": tuple(firs),
        "rows_values": tuple(rows_values),
        "policies": tuple(policies),
        "benchmark": benchmark,
        "num_flows": num_flows,
        "attack_windows": attack_windows,
        "training_benchmarks": tuple(training_benchmarks),
        "flow_fir_profile": profile,
        "dtype": default_dtype(),
    }
    # Only concurrent flows can be asymmetric.
    flow_profile = profile if num_flows > 1 else None

    def compute() -> list[dict]:
        records = []
        for rows, fence, builder, baseline, fence_key in defended_meshes(
            ((rows, base_config.scaled(rows=rows)) for rows in rows_values),
            training_benchmarks,
            benchmark,
            attack_windows,
            engine,
        ):
            scenario = (
                default_multi_scenario(builder, num_flows=num_flows)
                if num_flows > 1
                else None
            )
            tasks = []
            for fir in firs:
                comparator = EpisodeTask(
                    kind="unmitigated-latency",
                    key={
                        "fir": fir,
                        "scenario": scenario,
                        "flow_fir_profile": flow_profile,
                    },
                    config=builder.config,
                    benchmark=benchmark,
                    attack=_scenario_with_fir(builder, scenario, fir, flow_profile),
                    attack_windows=attack_windows,
                )
                tasks.append(comparator)
                tasks += [
                    replace(
                        comparator, kind="mitigation-episode", policy=policy, fence=fence
                    )
                    for policy in policies
                ]
            results = iter(run_episodes(tasks, engine, fence_key))
            for fir in firs:
                unmitigated = next(results)
                for policy in policies:
                    report = next(results)
                    point = MitigationPoint(
                        fir=fir,
                        rows=rows,
                        policy=policy.name,
                        unmitigated_latency=unmitigated,
                        engaged_nodes=tuple(sorted(report.engaged_nodes)),
                        benchmark=benchmark,
                        per_attacker_detection_latency=(
                            report.per_attacker_detection_latency()
                        ),
                        flow_firs=(
                            scaled_flow_firs(flow_profile, fir) if flow_profile else ()
                        ),
                        **report_fields(report, baseline),
                    )
                    records.append(point.to_payload())
        return records

    records = engine.cached_records("mitigation-sweep", payload, compute)
    return [MitigationPoint.from_payload(record) for record in records]
