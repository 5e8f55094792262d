"""The closed-loop episode scaffold shared by every defense matrix.

A closed-loop result is a *guarded episode* — one attack run against a live
:class:`~repro.defense.DL2FenceGuard` — scored against its *unmitigated
comparator*, the same episode with no defense at all.  The mitigation sweep
(:mod:`repro.experiments.mitigation`) and the robustness and chaos matrices
(:mod:`repro.experiments.robustness`) all describe their episodes as
:class:`EpisodeTask` lists and hand them to :func:`run_episodes`, which
serves each one from the per-episode cache or simulates it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from repro.attacks import AttackModel
from repro.core.pipeline import DL2Fence
from repro.defense.evidence import EvidenceConfig
from repro.defense.guard import DL2FenceGuard
from repro.defense.policy import MitigationPolicy
from repro.defense.report import DefenseReport
from repro.faults.base import FaultScenario
from repro.monitor.dataset import DatasetBuilder, DatasetConfig
from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
from repro.nn.dtype import default_dtype
from repro.noc.simulator import NoCSimulator
from repro.runtime.engine import ExperimentEngine
from repro.traffic.scenario import AttackScenario, MultiAttackScenario

__all__ = [
    "Attack",
    "EpisodeShape",
    "EpisodeTask",
    "attacked_simulator",
    "report_fields",
    "run_episodes",
    "run_guarded_episode",
    "unmitigated_latency",
]

#: What an episode can be attacked by: a constant-rate flood, concurrent
#: floods on disjoint victims, or a refined-DoS variant of
#: :mod:`repro.attacks`.  Its FIRs are final when an episode is built.
Attack = AttackScenario | MultiAttackScenario | AttackModel


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


def attacked_simulator(
    builder: DatasetBuilder,
    benchmark: str,
    attack: Attack,
    shape: EpisodeShape,
    seed: int,
) -> NoCSimulator:
    """The episode's system under attack (same for guarded and unmitigated)."""
    config = builder.config
    simulator = NoCSimulator(config.simulation_config())
    simulator.add_source(builder.make_workload(benchmark, seed=seed))
    wiring = dict(
        seed=seed + 1,
        packet_size_flits=config.packet_size_flits,
        start_cycle=shape.attack_start,
        end_cycle=shape.attack_end,
    )
    if isinstance(attack, MultiAttackScenario):
        sources = attack.attacker_sources(builder.topology, **wiring)
    elif isinstance(attack, AttackScenario):
        sources = [attack.attacker_source(builder.topology, **wiring)]
    else:
        sources = [attack.build_source(builder.topology, **wiring)]
    for source in sources:
        simulator.add_source(source)
    return simulator


def run_guarded_episode(
    fence: DL2Fence,
    builder: DatasetBuilder,
    policy: MitigationPolicy,
    attack: Attack,
    benchmark: str = "uniform_random",
    pre_attack_windows: int = 4,
    attack_windows: int = 10,
    post_attack_windows: int = 4,
    seed: int = 42,
    evidence: EvidenceConfig | None = EvidenceConfig(),
    faults: FaultScenario | None = None,
) -> DefenseReport:
    """One episode of ``attack`` over a benign workload under a guard.

    ``true_attackers`` of the report are the nodes that must be fenced at
    once to call the attack contained: a refined-DoS variant's
    ``containment_nodes`` (every position of a migrating attacker, every
    colluding source), a flood's attackers.

    ``faults`` installs a fault scenario on the episode.  Monitor-plane
    faults sit between the sampler and the guard: the simulated hardware is
    untouched, but the guard sees the scenario's degraded window stream
    (dropped/delayed windows, silent or stuck monitors, corrupted cells).
    Data-plane faults break the mesh itself — links or routers die at
    their scheduled cycle and traffic detours around them.  The fault plane
    is seeded with the episode ``seed``, so a faulted episode is exactly as
    reproducible as a clean one.
    """
    shape = EpisodeShape.from_windows(
        builder, pre_attack_windows, attack_windows, post_attack_windows
    )
    simulator = attacked_simulator(builder, benchmark, attack, shape, seed)
    guard = DL2FenceGuard(
        fence,
        policy,
        attack_start=shape.attack_start,
        attack_end=shape.attack_end,
        true_attackers=(
            attack.containment_nodes
            if isinstance(attack, AttackModel)
            else attack.attackers
        ),
        evidence=evidence,
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


def unmitigated_latency(
    builder: DatasetBuilder,
    attack: Attack,
    benchmark: str = "uniform_random",
    pre_attack_windows: int = 4,
    attack_windows: int = 10,
    post_attack_windows: int = 4,
    seed: int = 42,
) -> float:
    """Benign latency of the same episode with no defense (the comparator).

    Measured over benign packets delivered while the attack runs, skipping
    the first window so the congestion has built up; NaN if none arrived.
    """
    shape = EpisodeShape.from_windows(
        builder, pre_attack_windows, attack_windows, post_attack_windows
    )
    simulator = attacked_simulator(builder, benchmark, attack, shape, seed)
    simulator.run(shape.total_cycles)
    view = simulator.stats.delivered_view()
    span = view.select(
        ~view.malicious
        & (view.ejected >= shape.attack_start + builder.config.sample_period)
        & (view.ejected <= shape.attack_end)
    )
    if not len(span):
        return float("nan")
    return span.latency().packet_latency


def report_fields(report: DefenseReport, baseline_latency: float) -> dict:
    """The row fields every matrix reads off a guarded episode's report."""
    truth = set(report.true_attackers)
    return dict(
        # Detection of *the attack*: pre-attack false positives do not
        # count (detection_latency bounds the first detection at attack_start).
        detected=report.detection_latency is not None,
        detection_latency=report.detection_latency,
        time_to_mitigation=report.time_to_mitigation,
        time_to_full_containment=report.time_to_full_containment,
        num_attackers=len(truth),
        attackers_fenced=len(truth & report.engaged_nodes),
        collateral_nodes=tuple(sorted(report.collateral_nodes)),
        collateral_node_windows=report.collateral_node_windows,
        localization_rounds=report.localization_rounds,
        reengagements=report.reengagements,
        baseline_latency=baseline_latency,
        attack_latency=report.attack_latency(),
        mitigated_latency=report.post_mitigation_latency(),
        recovery_ratio=report.recovery_ratio(baseline_latency),
    )


@dataclass(frozen=True)
class EpisodeTask:
    """One independently cached simulation of a matrix.

    With a ``policy`` the task is a guarded episode of ``attack``; without
    one it is the attack's unmitigated comparator.  ``kind`` and ``key``
    name its cache entry: ``key`` holds the fields by which the matrix that
    built it identifies the attack and any guard options beyond the policy.
    """

    kind: str
    key: dict
    config: DatasetConfig
    benchmark: str
    attack: Attack
    attack_windows: int
    policy: MitigationPolicy | None = None
    fence: DL2Fence | None = None
    evidence: EvidenceConfig | None = EvidenceConfig()
    faults: FaultScenario | None = None


def _cache_entry(fence_key: dict, task: EpisodeTask) -> tuple[str, dict]:
    """(kind, payload) of a task's entry.  The fence object cannot enter a
    key; its training configuration ``fence_key`` stands in for it."""
    payload = {
        "config": task.config,
        "benchmark": task.benchmark,
        "attack_windows": task.attack_windows,
        "dtype": default_dtype(),
        **task.key,
    }
    if task.policy is not None:
        payload.update(policy=task.policy, fence=fence_key)
    return task.kind, payload


def _save_result(result: DefenseReport | float, directory: Path) -> None:
    """A guarded episode's report as ``report.json``, a comparator's
    latency as ``value.json``."""
    if isinstance(result, DefenseReport):
        (directory / "report.json").write_text(json.dumps(result.to_payload()))
    else:
        (directory / "value.json").write_text(json.dumps({"value": float(result)}))


def _load_result(directory: Path) -> DefenseReport | float:
    """Inverse of :func:`_save_result`."""
    report = directory / "report.json"
    if report.exists():
        return DefenseReport.from_payload(json.loads(report.read_text()))
    return float(json.loads((directory / "value.json").read_text())["value"])


def _simulate(episode: Callable[..., DefenseReport], task: EpisodeTask):
    """Run one task (module-level so worker processes can unpickle it)."""
    builder = DatasetBuilder(task.config)
    if task.policy is None:
        return unmitigated_latency(
            builder, task.attack, task.benchmark, attack_windows=task.attack_windows
        )
    return episode(
        task.fence,
        builder,
        task.policy,
        task.attack,
        benchmark=task.benchmark,
        attack_windows=task.attack_windows,
        evidence=task.evidence,
        faults=task.faults,
    )


def run_episodes(
    tasks: list[EpisodeTask],
    engine: ExperimentEngine,
    fence_key: dict,
    episode: Callable[..., DefenseReport] = run_guarded_episode,
) -> list[DefenseReport | float]:
    """Every task's report or comparator latency, in task order.

    Each task is served from its own cache entry or simulated and stored;
    the misses fan out across the engine's worker processes, bit-identical
    to a serial run since every task carries its own seed.  ``episode``
    runs the guarded tasks with :func:`run_guarded_episode`'s signature, so
    a matrix can route them through its own public episode function.
    """
    return engine.cached_map(
        tasks,
        partial(_cache_entry, fence_key),
        lambda pending: engine.runner.map(partial(_simulate, episode), pending),
        _load_result,
        _save_result,
    )
