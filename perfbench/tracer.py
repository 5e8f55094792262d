"""In-memory span tracer that wraps the public functions of each repro layer.

The program under test is not modified: :func:`install` replaces selected
functions and methods of the ``repro`` modules with thin wrappers that push a
span on entry and pop it on exit, and :meth:`Tracer.uninstall` puts the
originals back.  Everything runs in one thread (the benchmark pins
``REPRO_WORKERS=1``), so spans nest strictly and a stack gives each span its
parent.

Each span records its name, start and end (``perf_counter_ns``), the index
of its parent span and an episode id.  A span of a simulator ``run`` opens a
new episode; every span below it carries that id.  Self time — a span's
duration minus the durations of its direct children — is accumulated per
span name while tracing, so :meth:`Tracer.self_ms` is exact and cheap.

The full span list is exported by :meth:`Tracer.write_chrome_trace` as
Chrome trace-event JSON ("X" complete events), which Perfetto and
``chrome://tracing`` open directly.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

__all__ = ["SPAN_TARGETS", "Tracer", "install", "percentile"]

#: (module, attribute path, span name, hook).  The attribute path is
#: ``"Class.method"`` or ``"function"``.  Span names are ``<layer>.<what>``;
#: the layer is the ``repro`` package the wrapped code lives in, except the
#: ``bench.*`` roots opened by the benchmark itself.  A hook receives the
#: call's positional arguments and result and returns a number added to the
#: span name's counter (node-cycles for kernels, hits for cache fetches).
SPAN_TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    # noc: kernels (both backends), steppers, packet ingress
    ("repro.noc.soa_step", "inject", "noc.inject", "node_cycles"),
    ("repro.noc.soa_step", "switch", "noc.switch", None),
    ("repro.noc.simulator", "NoCSimulator.run", "noc.solo_run", "episode"),
    ("repro.noc.simulator", "NoCSimulator.step", "noc.solo_step", None),
    ("repro.noc.batch_sim", "BatchedNoCSimulator.run", "noc.batch_run", "episode"),
    ("repro.noc.batch_sim", "BatchedNoCSimulator.step", "noc.batch_step", None),
    ("repro.noc.soa", "SoAMeshNetwork.enqueue_packet", "noc.enqueue", None),
    ("repro.noc.soa", "SoAMeshNetwork.enqueue_batch", "noc.enqueue", None),
    ("repro.noc.soa_batch", "SoAMeshLane.enqueue_packet", "noc.enqueue", None),
    ("repro.noc.soa_batch", "SoAMeshLane.enqueue_batch", "noc.enqueue", None),
    ("repro.noc.soa_batch", "BatchedSoAMeshNetwork.enqueue_group", "noc.enqueue", None),
    # traffic and attacks: per-cycle packet emission
    ("repro.traffic.synthetic", "SyntheticTraffic.packets_for_cycle", "traffic.emit", None),
    ("repro.traffic.synthetic", "SyntheticTraffic.packet_batch_for_cycle", "traffic.emit", None),
    ("repro.traffic.parsec", "ParsecWorkload.packets_for_cycle", "traffic.emit", None),
    ("repro.traffic.flooding", "FloodingAttacker.packets_for_cycle", "traffic.emit", None),
    ("repro.traffic.flooding", "FloodingAttacker.packet_batch_for_cycle", "traffic.emit", None),
    ("repro.attacks.base", "AttackSource.packets_for_cycle", "attacks.emit", None),
    ("repro.attacks.base", "AttackSource.packet_batch_for_cycle", "attacks.emit", None),
    # monitor and faults
    ("repro.monitor.sampler", "GlobalPerformanceMonitor.sample", "monitor.sample", None),
    ("repro.faults.base", "FaultPlane.process", "faults.plane", None),
    ("repro.faults.base", "FaultScenario.build_plane", "faults.plane", None),
    ("repro.faults.base", "FaultScenario.schedule_data_faults", "faults.plane", None),
    # defense
    ("repro.defense.guard", "DL2FenceGuard.on_sample", "defense.guard", None),
    ("repro.defense.degraded", "WindowSanitizer.sanitize", "defense.sanitize", None),
    ("repro.defense.evidence", "EvidenceAccumulator.observe", "defense.evidence", None),
    ("repro.defense.evidence", "EvidenceAccumulator.window_weight", "defense.evidence", None),
    ("repro.defense.evidence", "EvidenceAccumulator.decay_gap", "defense.evidence", None),
    ("repro.defense.evidence", "EvidenceAccumulator.reset_node", "defense.evidence", None),
    ("repro.defense.evidence", "EvidenceAccumulator.convicted_nodes", "defense.evidence", None),
    ("repro.defense.evidence", "EvidenceAccumulator.suspicion_of", "defense.evidence", None),
    # core: online pipeline stages and training glue
    ("repro.core.pipeline", "DL2Fence.process_sample", "core.pipeline", None),
    ("repro.core.pipeline", "DL2Fence.fit_from_runs", "core.fit", None),
    ("repro.core.detector", "DoSDetector.detect", "core.detect", None),
    ("repro.core.localizer", "DoSProfileLocalizer.segment_frames", "core.segment", None),
    ("repro.core.localizer", "DoSProfileLocalizer.segment_frame", "core.segment", None),
    ("repro.core.tlm", "TableLikeMethod.localize", "core.tlm", None),
    ("repro.core.tlm", "TableLikeMethod.localize_with_frontier", "core.tlm", None),
    ("repro.core.tlm", "TableLikeMethod.localize_attackers", "core.tlm", None),
    # nn
    ("repro.nn.model", "Sequential.forward", "nn.forward", None),
    ("repro.nn.model", "Sequential.backward", "nn.backward", None),
    ("repro.nn.training", "Trainer.fit", "nn.fit", None),
    # runtime: engine, runner, cache
    ("repro.runtime.engine", "ExperimentEngine.build_runs", "runtime.build_runs", None),
    ("repro.runtime.engine", "ExperimentEngine.trained_fence", "runtime.engine", None),
    ("repro.runtime.engine", "ExperimentEngine.cached_records", "runtime.engine", None),
    ("repro.runtime.parallel", "ParallelRunner.map", "runtime.runner_map", None),
    ("repro.runtime.parallel", "ParallelRunner.map_arrays", "runtime.runner_map", None),
    ("repro.runtime.cache", "ArtifactCache.fetch", "runtime.cache_fetch", "hit"),
    ("repro.runtime.cache", "ArtifactCache.store", "runtime.cache_store", None),
    # experiments: the matrix functions and their per-episode entry points
    ("repro.experiments.robustness", "run_robustness_matrix", "experiments.matrix", None),
    ("repro.experiments.robustness", "run_chaos_matrix", "experiments.matrix", None),
    ("repro.experiments.robustness", "run_attack_episode", "experiments.episode", None),
    (
        "repro.experiments.robustness",
        "unmitigated_attack_episode_latency",
        "experiments.episode",
        None,
    ),
    ("repro.experiments.robustness", "baseline_benign_latency", "experiments.episode", None),
    ("repro.experiments.robustness", "train_defense_pipeline", "experiments.train", None),
    ("repro.experiments.mitigation", "train_defense_pipeline", "experiments.train", None),
)


def _node_cycles(args: tuple, result) -> int:
    """Node-cycles one kernel dispatch advances (lanes x nodes for a batch)."""
    net = args[0]
    return net.topology.num_nodes * getattr(net, "episodes", 1)


def _fetch_hit(args: tuple, result) -> int:
    return 0 if result is None else 1


_HOOKS: dict[str, Callable[[tuple, object], int]] = {
    "node_cycles": _node_cycles,
    "hit": _fetch_hit,
}


class Tracer:
    """Span recorder with exact per-name self time and call counts."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_episode = array("i")
        # Open spans: [span index, summed duration of direct children,
        # episode id to restore on exit].
        self._stack: list[list[int]] = []
        self._episode = 0
        self._episodes = 0
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
            self.self_ns[name] = 0
            self.calls[name] = 0
        return self._name_ids[name]

    def enter(self, name_id: int, new_episode: bool = False) -> None:
        index = len(self.span_name)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([index, 0, self._episode])
        if new_episode:
            self._episodes += 1
            self._episode = self._episodes
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_episode.append(self._episode)
        self.span_end.append(0)
        self.span_start.append(perf_counter_ns())

    def exit(self) -> None:
        end = perf_counter_ns()
        index, children, self._episode = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self._names[self.span_name[index]]
        self.self_ns[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, self.name_id(name))

    # -- patching ----------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str, hook: str | None) -> None:
        original = owner.__dict__[attr]
        name_id = self.name_id(name)
        new_episode = hook == "episode"
        count = _HOOKS.get(hook) if hook else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.enter(name_id, new_episode)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if count is not None:
                tracer.counters[name] = tracer.counters.get(name, 0) + count(
                    args, result
                )
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped function (in reverse patch order)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries -----------------------------------------------------------
    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns.get(name, 0) for name in names) / 1e6

    def durations_ms(self, name: str) -> list[float]:
        """Inclusive durations of every closed span called ``name``."""
        if name not in self._name_ids:
            return []
        wanted = self._name_ids[name]
        return [
            (end - start) / 1e6
            for name_id, start, end in zip(
                self.span_name, self.span_start, self.span_end
            )
            if name_id == wanted
        ]

    def total_self_ms(self) -> float:
        return sum(self.self_ns.values()) / 1e6

    def layer_self_ms(self) -> dict[str, float]:
        """Self time summed per layer (the span-name prefix)."""
        layers: dict[str, float] = {}
        for name, ns in self.self_ns.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + ns / 1e6
        return layers

    # -- export ------------------------------------------------------------
    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as a Chrome trace-event "X" event (times in us).

        The file is gzip-compressed (``.json.gz``); Perfetto and
        ``chrome://tracing`` open it as is.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.span_start) if self.span_start else 0
        names = [json.dumps(name) for name in self._names]
        layers = [json.dumps(name.split(".", 1)[0]) for name in self._names]
        with gzip.open(path, "wt", compresslevel=1) as stream:
            stream.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            chunk: list[str] = []
            separator = ""
            for index, name_id in enumerate(self.span_name):
                start = self.span_start[index]
                chunk.append(
                    f'{{"name":{names[name_id]},"cat":{layers[name_id]},"ph":"X",'
                    f'"pid":1,"tid":1,"ts":{(start - origin) / 1e3},'
                    f'"dur":{(self.span_end[index] - start) / 1e3},'
                    f'"args":{{"id":{index},"parent":{self.span_parent[index]},'
                    f'"episode":{self.span_episode[index]}}}}}'
                )
                if len(chunk) == 4096:
                    stream.write(separator + ",\n".join(chunk))
                    chunk, separator = [], ",\n"
            if chunk:
                stream.write(separator + ",\n".join(chunk))
            stream.write("\n]}\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id

    def __enter__(self) -> None:
        self._tracer.enter(self._name_id)

    def __exit__(self, *exc) -> None:
        self._tracer.exit()


def install(tracer: Tracer) -> Tracer:
    """Wrap every :data:`SPAN_TARGETS` entry; returns ``tracer``."""
    for module_name, path, name, hook in SPAN_TARGETS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, name, hook)
    return tracer


def percentile(values: list[float], q: int) -> float:
    """``q``-th percentile (0-100) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
