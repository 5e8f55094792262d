"""Per-layer metrics derived from one traced run (set-up plus a timed matrix)."""

from __future__ import annotations

import statistics

from tracer import Tracer, percentile

__all__ = ["layer_metrics"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall_ms: float, overhead: float) -> dict[str, float]:
    """Self times (ms), counts and ratios named as in BENCHMARK.json."""
    ms = tracer.self_ms
    calls = tracer.calls
    kernel_ns = tracer.self_ns.get("noc.inject", 0) + tracer.self_ns.get("noc.switch", 0)
    windows = tracer.durations_ms("defense.guard")
    episodes = tracer.durations_ms("experiments.episode")
    fetches = calls.get("runtime.cache_fetch", 0)
    return {
        "noc.inject_ms": ms("noc.inject"),
        "noc.switch_ms": ms("noc.switch"),
        "noc.kernel_calls": calls.get("noc.inject", 0) + calls.get("noc.switch", 0),
        "noc.ns_per_node_cycle": _ratio(
            kernel_ns, tracer.counters.get("noc.inject", 0)
        ),
        "noc.solo_step_self_ms": ms("noc.solo_step", "noc.solo_run"),
        "noc.batch_step_self_ms": ms("noc.batch_step", "noc.batch_run"),
        "noc.enqueue_ms": ms("noc.enqueue"),
        "traffic.emit_ms": ms("traffic.emit"),
        "attacks.emit_ms": ms("attacks.emit"),
        "nn.forward_ms": ms("nn.forward"),
        "nn.backward_ms": ms("nn.backward"),
        "nn.fit_self_ms": ms("nn.fit"),
        "nn.forward_calls": calls.get("nn.forward", 0),
        "monitor.sample_ms": ms("monitor.sample"),
        "monitor.windows": calls.get("monitor.sample", 0),
        "faults.plane_ms": ms("faults.plane"),
        "defense.guard_self_ms": ms("defense.guard"),
        "defense.sanitize_ms": ms("defense.sanitize"),
        "defense.evidence_ms": ms("defense.evidence"),
        "defense.window_ms_p50": percentile(windows, 50),
        "defense.window_ms_p90": percentile(windows, 90),
        "core.pipeline_self_ms": ms("core.pipeline"),
        "core.detect_ms": ms("core.detect"),
        "core.segment_ms": ms("core.segment"),
        "core.tlm_ms": ms("core.tlm"),
        "core.fit_self_ms": ms("core.fit"),
        "core.localize_ratio": _ratio(
            calls.get("core.segment", 0), calls.get("core.detect", 0)
        ),
        "runtime.build_runs_self_ms": ms("runtime.build_runs"),
        "runtime.runner_map_self_ms": ms("runtime.runner_map"),
        "runtime.engine_self_ms": ms("runtime.engine"),
        "runtime.cache_fetch_ms": ms("runtime.cache_fetch"),
        "runtime.cache_store_ms": ms("runtime.cache_store"),
        "runtime.cache_hit_ratio": _ratio(
            tracer.counters.get("runtime.cache_fetch", 0), fetches
        ),
        "experiments.self_ms": ms("experiments.matrix", "experiments.episode", "experiments.train"),
        "experiments.episode_s_p50": statistics.median(episodes) / 1e3 if episodes else 0.0,
        "trace.wall_ms": wall_ms,
        "trace.unattributed_ms": ms("bench.setup", "bench.timed"),
        "trace.overhead_frac": overhead,
    }
