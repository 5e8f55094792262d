"""The shared experiment engine: cached datasets, cached models, parallel fan-out.

Every experiment driver (tables, figures, sweeps, benches) routes its two
expensive stages through this module:

* **Scenario runs** — the simulated monitor output a dataset is assembled
  from.  :meth:`ExperimentEngine.build_runs` reproduces
  :meth:`repro.monitor.dataset.DatasetBuilder.build_runs` bit for bit (both
  simulate the tasks of ``DatasetBuilder.plan_runs``, which makes the
  order-dependent scenario draws up-front) but executes the independent
  simulations through the :class:`~repro.runtime.parallel.ParallelRunner`
  and memoises the result on disk.
* **Trained pipelines** — :meth:`ExperimentEngine.trained_fence` /
  :meth:`ExperimentEngine.trained_detector` return models loaded from the
  cache when the full training configuration (dataset + architecture +
  epochs + NN dtype) has been seen before; a figure re-run or a second sweep
  at the same mesh scale never retrains.
* **Sweep records** — :meth:`ExperimentEngine.cached_records` memoises a
  list-of-dicts sweep result (latency points, mitigation points, table rows)
  as JSON.

Cached artifacts round-trip by value: a loaded scenario run compares equal,
frame for frame, with a freshly simulated one, and a loaded model produces
bit-identical decisions — property-tested in ``tests/runtime``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

from repro.core.config import DL2FenceConfig
from repro.core.detector import DoSDetector
from repro.core.localizer import DoSProfileLocalizer
from repro.core.pipeline import DL2Fence
from repro.monitor.dataset import DatasetBuilder, DatasetConfig, RunTask, ScenarioRun
from repro.monitor.features import FeatureKind
from repro.monitor.frames import DirectionalFrame, FrameSample, FrameSet
from repro.noc.topology import Direction
from repro.nn.dtype import default_dtype
from repro.runtime.cache import ArtifactCache
from repro.runtime.parallel import ArrayBundle, ParallelRunner
from repro.traffic.scenario import AttackScenario, benchmark_names

__all__ = ["ExperimentEngine", "RunTask", "fence_cache_payload"]

T = TypeVar("T")
R = TypeVar("R")


def _simulate_run(task: RunTask) -> ScenarioRun:
    """Execute one scenario run (module-level so worker processes can pickle it)."""
    builder = DatasetBuilder(task.config)
    return builder.run_benchmark(task.benchmark, scenario=task.scenario, seed=task.seed)


def _run_to_bundle(run: ScenarioRun) -> ArrayBundle:
    """Split a scenario run into small metadata + stacked frame tensors.

    The shape the shared-memory transport ships: the frame tensors (the
    bulk of a 16x16+ run) travel through one shared-memory segment instead
    of the worker pool's pickle pipe.
    """
    arrays: dict[str, np.ndarray] = {}
    for kind in FeatureKind:
        for direction, dname in _DIRECTION_NAMES.items():
            frames = [
                sample.feature(kind).frames[direction].values
                for sample in run.samples
            ]
            if frames:
                arrays[f"{kind.value}_{dname}"] = np.stack(frames, axis=0)
    meta = {
        "benchmark": run.benchmark,
        "scenario": _scenario_to_json(run.scenario),
        "rows": run.topology.rows,
        "cycles": [sample.cycle for sample in run.samples],
        "attack_active": [bool(sample.attack_active) for sample in run.samples],
    }
    return ArrayBundle(meta=meta, arrays=arrays)


def _run_from_bundle(bundle: ArrayBundle) -> ScenarioRun:
    """Inverse of :func:`_run_to_bundle` (parent-side reconstruction)."""
    from repro.noc.topology import MeshTopology

    meta = bundle.meta
    topology = MeshTopology(rows=int(meta["rows"]))
    samples = []
    for index, cycle in enumerate(meta["cycles"]):
        frame_sets = {}
        for kind in FeatureKind:
            frames = {}
            for direction, dname in _DIRECTION_NAMES.items():
                stacked = bundle.arrays[f"{kind.value}_{dname}"]
                frames[direction] = DirectionalFrame(
                    direction=direction,
                    kind=kind,
                    values=stacked[index],
                    cycle=int(cycle),
                )
            frame_sets[kind] = FrameSet(kind=kind, frames=frames, cycle=int(cycle))
        samples.append(
            FrameSample(
                cycle=int(cycle),
                vco=frame_sets[FeatureKind.VCO],
                boc=frame_sets[FeatureKind.BOC],
                attack_active=bool(meta["attack_active"][index]),
            )
        )
    return ScenarioRun(
        benchmark=str(meta["benchmark"]),
        scenario=_scenario_from_json(meta["scenario"]),
        samples=samples,
        topology=topology,
    )


def _simulate_run_bundle(task: RunTask) -> ArrayBundle:
    """Worker entry point: simulate, then hand frames over as tensors."""
    return _run_to_bundle(_simulate_run(task))


def _simulate_batched_runs(tasks: tuple[RunTask, ...]) -> list[ScenarioRun]:
    """Simulate independent run tasks as one episode-batched simulation.

    Replays :meth:`DatasetBuilder.run_benchmark` for every task — same
    workload/attacker seeds, same monitor wiring, same cycle count — but on
    the lanes of one :class:`~repro.noc.batch_sim.BatchedNoCSimulator`, so
    every kernel dispatch advances all of them at once.  Per-episode results
    are fingerprint-identical to solo runs (the batched-equivalence pin).
    """
    from repro.monitor.sampler import GlobalPerformanceMonitor, MonitorConfig
    from repro.noc.batch_sim import BatchedNoCSimulator

    config = tasks[0].config
    builder = DatasetBuilder(config)
    batched = BatchedNoCSimulator(config.simulation_config(), episodes=len(tasks))
    monitors = []
    for index, task in enumerate(tasks):
        lane = batched.lane(index)
        lane.add_source(builder.make_workload(task.benchmark, seed=task.seed))
        if task.scenario is not None:
            lane.add_source(
                task.scenario.attacker_source(
                    builder.topology,
                    seed=task.seed + 1,
                    packet_size_flits=config.packet_size_flits,
                )
            )
        monitors.append(
            GlobalPerformanceMonitor(
                MonitorConfig(sample_period=config.sample_period)
            ).attach(lane)
        )
    batched.run(config.run_cycles)
    return [
        ScenarioRun(
            benchmark=task.benchmark,
            scenario=task.scenario,
            samples=monitor.samples[: config.samples_per_run],
            topology=builder.topology,
        )
        for task, monitor in zip(tasks, monitors)
    ]


def _simulate_batch_bundle(tasks: tuple[RunTask, ...]) -> ArrayBundle:
    """Worker entry point for one episode-batched chunk of run tasks."""
    metas = []
    arrays: dict[str, np.ndarray] = {}
    for r_index, run in enumerate(_simulate_batched_runs(tasks)):
        bundle = _run_to_bundle(run)
        metas.append(bundle.meta)
        for key, values in bundle.arrays.items():
            arrays[f"r{r_index}_{key}"] = values
    return ArrayBundle(meta=metas, arrays=arrays)


def _runs_from_batch_bundle(bundle: ArrayBundle) -> list[ScenarioRun]:
    """Inverse of :func:`_simulate_batch_bundle` (parent-side)."""
    runs = []
    for r_index, meta in enumerate(bundle.meta):
        prefix = f"r{r_index}_"
        arrays = {
            key[len(prefix) :]: values
            for key, values in bundle.arrays.items()
            if key.startswith(prefix)
        }
        runs.append(_run_from_bundle(ArrayBundle(meta=meta, arrays=arrays)))
    return runs


# -- scenario-run (de)serialization -----------------------------------------

_DIRECTION_NAMES = {d: d.value for d in Direction.cardinal()}


def _scenario_to_json(scenario: AttackScenario | None) -> dict | None:
    if scenario is None:
        return None
    return {
        "attackers": list(scenario.attackers),
        "victim": scenario.victim,
        "fir": scenario.fir,
        "benchmark": scenario.benchmark,
    }


def _scenario_from_json(data: dict | None) -> AttackScenario | None:
    if data is None:
        return None
    return AttackScenario(
        attackers=tuple(int(a) for a in data["attackers"]),
        victim=int(data["victim"]),
        fir=float(data["fir"]),
        benchmark=str(data["benchmark"]),
    )


def _save_run(run: ScenarioRun, directory: Path) -> None:
    """Persist a single scenario run (one per-task cache entry)."""
    _save_runs([run], directory)


def _load_run(directory: Path) -> ScenarioRun:
    (run,) = _load_runs(directory)
    return run


def _save_runs(runs: list[ScenarioRun], directory: Path) -> None:
    """Persist runs on disk in the shared ArrayBundle shape (npz + json)."""
    meta = []
    arrays: dict[str, np.ndarray] = {}
    for r_index, run in enumerate(runs):
        bundle = _run_to_bundle(run)
        meta.append(bundle.meta)
        for key, values in bundle.arrays.items():
            arrays[f"r{r_index}_{key}"] = values
    (directory / "runs.json").write_text(json.dumps(meta))
    np.savez(directory / "runs.npz", **arrays)


def _load_runs(directory: Path) -> list[ScenarioRun]:
    meta = json.loads((directory / "runs.json").read_text())
    runs: list[ScenarioRun] = []
    with np.load(directory / "runs.npz") as archive:
        for r_index, entry in enumerate(meta):
            prefix = f"r{r_index}_"
            arrays = {
                name[len(prefix) :]: archive[name]
                for name in archive.files
                if name.startswith(prefix)
            }
            runs.append(_run_from_bundle(ArrayBundle(meta=entry, arrays=arrays)))
    return runs


def fence_cache_payload(
    config: DatasetConfig,
    fence_config: DL2FenceConfig,
    benchmarks: list[str],
    scenarios_per_benchmark: int,
    attacker_counts: tuple[int, ...],
    seed: int,
    detector_epochs: int,
    localizer_epochs: int,
) -> dict:
    """The full training configuration identifying a trained fence.

    Shared between :meth:`ExperimentEngine.trained_fence` (its cache key)
    and dependent per-episode caches (e.g. the mitigation sweep's), so an
    episode entry is reused exactly when the pipeline that defended it is
    the same — by construction, not by keeping two literals in sync.
    """
    return {
        "config": config,
        "fence": fence_config,
        "benchmarks": list(benchmarks),
        "scenarios_per_benchmark": scenarios_per_benchmark,
        "attacker_counts": tuple(attacker_counts),
        "seed": seed,
        "detector_epochs": detector_epochs,
        "localizer_epochs": localizer_epochs,
        "dtype": default_dtype(),
    }


# -- the engine ---------------------------------------------------------------


@dataclass
class ExperimentEngine:
    """Cache + parallel executor shared by every experiment entry point."""

    cache: ArtifactCache = field(default_factory=ArtifactCache.from_environment)
    runner: ParallelRunner = field(default_factory=ParallelRunner.from_environment)

    @classmethod
    def from_environment(cls) -> "ExperimentEngine":
        """Engine honouring REPRO_CACHE[_DIR] and REPRO_WORKERS."""
        return cls()

    @classmethod
    def disabled(cls) -> "ExperimentEngine":
        """No caching, serial execution — the legacy behaviour."""
        return cls(cache=ArtifactCache.disabled(), runner=ParallelRunner(workers=1))

    # -- datasets -----------------------------------------------------------
    def build_runs(
        self,
        config: DatasetConfig,
        benchmarks: list[str] | None = None,
        scenarios_per_benchmark: int = 1,
        attacker_counts: tuple[int, ...] = (1, 2),
        include_benign: bool = True,
        seed: int | None = None,
    ) -> list[ScenarioRun]:
        """Cached, parallel equivalent of ``DatasetBuilder.build_runs``.

        Every scenario run is cached *individually*, keyed by its
        :class:`RunTask` (config + benchmark + scenario + seed).  Overlapping
        run lists therefore share entries: Tables 1-3 and the Table-4
        comparison draw identical scenarios for their common benchmarks, so
        only the first caller simulates them.  Only the missing tasks are
        fanned out across the worker processes.
        """
        tasks = DatasetBuilder(config).plan_runs(
            benchmarks, scenarios_per_benchmark, attacker_counts, include_benign, seed
        )
        return self.cached_map(
            tasks,
            lambda task: ("scenario-run", task),
            self._simulate_missing,
            _load_run,
            _save_run,
        )

    def cached_map(
        self,
        tasks: list[T],
        entry: Callable[[T], tuple[str, Any]],
        compute: Callable[[list[T]], list[R]],
        load: Callable[[Path], R],
        save: Callable[[R, Path], None],
    ) -> list[R]:
        """``compute`` over ``tasks``, with every result cached on its own.

        ``entry`` names a task's (kind, payload) cache entry.  All entries
        are fetched first; ``compute`` then runs once, on the missing tasks
        only, and each fresh result is stored.  Results are in task order.
        """
        entries = [entry(task) for task in tasks]
        results = [self.cache.fetch(kind, payload, load) for kind, payload in entries]
        missing = [index for index, result in enumerate(results) if result is None]
        for index, result in zip(missing, compute([tasks[i] for i in missing])):
            results[index] = result
            kind, payload = entries[index]
            self.cache.store(kind, payload, lambda d, result=result: save(result, d))
        return results

    def _simulate_missing(self, pending: list[RunTask]) -> list[ScenarioRun]:
        """Simulate the uncached run tasks, episode-batched when possible.

        With the ``soa`` backend, pending tasks are grouped into
        episode-batched chunks of :func:`repro.noc.backend.episode_batch_size`
        lanes each — one kernel dispatch per cycle advances a whole chunk —
        and the chunks fan out across the worker processes (process
        parallelism multiplying on top of the batch axis).  The ``object``
        backend (or ``REPRO_EPISODE_BATCH<=1``) keeps the one-task-per-call
        path.
        """
        from repro.noc.backend import episode_batch_size, resolve_backend

        batch = episode_batch_size()
        if len(pending) > 1 and batch > 1 and resolve_backend() == "soa":
            chunks = [
                tuple(pending[start : start + batch])
                for start in range(0, len(pending), batch)
            ]
            if self.runner.is_serial or len(chunks) == 1:
                fresh: list[ScenarioRun] = []
                for chunk in chunks:
                    fresh.extend(_simulate_batched_runs(chunk))
                return fresh
            fresh = []
            for bundle in self.runner.map_arrays(_simulate_batch_bundle, chunks):
                fresh.extend(_runs_from_batch_bundle(bundle))
            return fresh
        if self.runner.is_serial or len(pending) <= 1:
            return self.runner.map(_simulate_run, pending)
        # Parallel path: workers return frame tensors through shared
        # memory instead of pickling whole ScenarioRun objects back.
        return [
            _run_from_bundle(bundle)
            for bundle in self.runner.map_arrays(_simulate_run_bundle, pending)
        ]

    # -- trained models -----------------------------------------------------
    def trained_fence(
        self,
        config: DatasetConfig,
        fence_config: DL2FenceConfig,
        benchmarks: list[str] | None = None,
        scenarios_per_benchmark: int = 1,
        seed: int | None = None,
        detector_epochs: int = 60,
        localizer_epochs: int = 80,
        attacker_counts: tuple[int, ...] = (1, 2),
    ) -> tuple[DL2Fence, DatasetBuilder]:
        """A trained DL2Fence pipeline, loaded from cache when available."""
        seed = config.seed if seed is None else seed
        if benchmarks is None:
            benchmarks = benchmark_names()
        builder = DatasetBuilder(config)
        payload = fence_cache_payload(
            config,
            fence_config,
            list(benchmarks),
            scenarios_per_benchmark,
            tuple(attacker_counts),
            seed,
            detector_epochs,
            localizer_epochs,
        )

        def build() -> DL2Fence:
            runs = self.build_runs(
                config,
                benchmarks=list(benchmarks),
                scenarios_per_benchmark=scenarios_per_benchmark,
                attacker_counts=tuple(attacker_counts),
                seed=seed,
            )
            fence = DL2Fence(builder.topology, fence_config)
            fence.fit_from_runs(
                builder,
                runs,
                detector_epochs=detector_epochs,
                localizer_epochs=localizer_epochs,
            )
            return fence

        def save(fence: DL2Fence, directory: Path) -> None:
            fence.detector.save(directory / "detector.npz")
            fence.localizer.save(directory / "localizer.npz")

        def load(directory: Path) -> DL2Fence:
            detector = DoSDetector.load(directory / "detector.npz", config=fence_config)
            localizer = DoSProfileLocalizer.load(
                directory / "localizer.npz", config=fence_config
            )
            return DL2Fence(
                builder.topology, fence_config, detector=detector, localizer=localizer
            )

        fence = self.cache.get_or_build("trained-fence", payload, build, save, load)
        return fence, builder

    def trained_detector(
        self,
        config: DatasetConfig,
        fence_config: DL2FenceConfig,
        benchmarks: list[str],
        scenarios_per_benchmark: int,
        seed: int,
        feature: FeatureKind,
        epochs: int,
        runs: list[ScenarioRun] | None = None,
    ) -> DoSDetector:
        """A standalone trained detector (Table-4 comparison), cached.

        ``runs`` may carry already-built scenario runs for the *same*
        configuration so the no-cache path does not re-simulate them; they
        are only consulted on a cache miss and do not enter the key.
        """
        payload = {
            "config": config,
            "fence": fence_config,
            "benchmarks": list(benchmarks),
            "scenarios_per_benchmark": scenarios_per_benchmark,
            "seed": seed,
            "feature": feature,
            "epochs": epochs,
            "dtype": default_dtype(),
        }

        def build() -> DoSDetector:
            builder = DatasetBuilder(config)
            train_runs = runs if runs is not None else self.build_runs(
                config,
                benchmarks=list(benchmarks),
                scenarios_per_benchmark=scenarios_per_benchmark,
                seed=seed,
            )
            train_set = builder.detection_dataset(train_runs, feature=feature)
            detector = DoSDetector(train_set.inputs.shape[1:], config=fence_config)
            detector.fit(train_set, epochs=epochs)
            return detector

        def save(detector: DoSDetector, directory: Path) -> None:
            detector.save(directory / "detector.npz")

        def load(directory: Path) -> DoSDetector:
            return DoSDetector.load(directory / "detector.npz", config=fence_config)

        return self.cache.get_or_build(
            "trained-detector", payload, build, save, load
        )

    # -- generic sweep records ----------------------------------------------
    def cached_records(
        self,
        kind: str,
        payload: Any,
        build: Callable[[], list[dict]],
    ) -> list[dict]:
        """Memoise a list-of-dicts sweep result as a JSON artifact."""

        def save(records: list[dict], directory: Path) -> None:
            (directory / "records.json").write_text(json.dumps(records))

        def load(directory: Path) -> list[dict]:
            return json.loads((directory / "records.json").read_text())

        return self.cache.get_or_build(kind, payload, build, save, load)
