"""Benchmark entry point: one workload, one seed, end-to-end or traced metrics.

Usage (from anywhere; the repository root is located from this file)::

    python3 perfbench/run.py --workload robustness-16x16 --seed 1 --seconds 30 --trace 0

The run pins what is measured before ``repro`` or NumPy is imported: every
``REPRO_*`` variable of the caller's shell is dropped, the simulator backend
is fixed to ``soa`` with one worker process, BLAS/OpenMP threads are set to
one, and the program's own tracing and metrics stay off.  The resolved
values are printed as ``#`` header lines.

``--trace 0`` reports the end-to-end metrics: set-up time (import plus the
median of the workload's set-up repetitions), the median wall time of the
timed matrix calls, the median guarded-episode time and peak RSS; the
simulated outcomes are printed as ``# outcome`` lines.  ``--trace 1`` sets
up once under the span tracer, times one traced matrix call, reports
per-layer self times and writes the spans as a Chrome trace-event file under
``.perfbench/``.

Outputs are checked: every matrix row and guarded-episode report must pass
its invariants, repeated matrix calls of one seed must produce the same
outcome digest, and the digest must match the one stored by an earlier run
of the same seed on the same sources.  The last line of standard output is
the JSON result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

#: Environment of the measured program (applied after dropping REPRO_*).
PINNED_ENV = {
    "REPRO_SIM_BACKEND": "soa",
    "REPRO_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Relative tolerance between the summed self times of all spans and the
#: traced wall time measured around the traced phases.
RECONCILE_TOLERANCE = 0.01

#: Seed reserved for checking a performance claim after the change is
#: written; tune on other seeds.
HELD_OUT_SEED = 9001


def pin_environment() -> None:
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_ENV)
    # Engines get explicit cache roots; this keeps any default one inside
    # the checkout as well.
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "default-cache")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_hash() -> str:
    """Hash of the program and benchmark sources (keys stored digests)."""
    sha = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def header(line: str) -> None:
    print(f"# {line}", flush=True)


def print_environment() -> None:
    import numpy as np

    from repro.nn.dtype import default_dtype
    from repro.noc.backend import episode_batch_size, resolve_backend
    from repro.obs.bus import BUS
    from repro.obs.metrics import METRICS
    from repro.runtime.parallel import configured_workers

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    header(
        f"backend={resolve_backend()} episode_batch={episode_batch_size()} "
        f"workers={configured_workers()} nn_dtype={np.dtype(default_dtype()).name} "
        f"trace_bus={BUS.active} metrics={METRICS.active}"
    )
    header(
        "threads: "
        + " ".join(f"{key}={os.environ[key]}" for key in sorted(PINNED_ENV) if "THREADS" in key)
        + f" nproc={len(os.sched_getaffinity(0))}"
    )
    header(
        f"python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')} {blas.get('version')}"
    )
    header(f"held_out_seed={HELD_OUT_SEED} (episode traffic seed is fixed at 42)")


class RunDirs:
    """Scratch cache directories of one run, removed when it ends."""

    def __init__(self) -> None:
        self.root = WORK / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.root.mkdir(parents=True)
        self._count = 0

    def fresh(self, template: Path | None = None) -> Path:
        self._count += 1
        path = self.root / f"cache-{self._count}"
        if template is None:
            path.mkdir()
        else:
            shutil.copytree(template, path)
        return path

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def engine_at(cache_root: Path):
    from repro.runtime.cache import ArtifactCache
    from repro.runtime.engine import ExperimentEngine
    from repro.runtime.parallel import ParallelRunner

    return ExperimentEngine(
        cache=ArtifactCache(root=cache_root), runner=ParallelRunner(workers=1)
    )


@contextlib.contextmanager
def capture_episodes(reports: list, seconds: list):
    """Collect the report and wall time of every guarded episode run meanwhile."""
    from repro.experiments import robustness

    original = robustness.run_attack_episode

    def capturing(*args, **kwargs):
        start = time.perf_counter()
        report = original(*args, **kwargs)
        seconds.append(time.perf_counter() - start)
        reports.append(report)
        return report

    robustness.run_attack_episode = capturing
    try:
        yield
    finally:
        robustness.run_attack_episode = original


class Outcome:
    """Accumulated correctness state of one benchmark run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.points: list = []
        self.episode_seconds: list[float] = []

    def matrix(self, config, cache_root: Path) -> float:
        """Run one timed matrix call against ``cache_root``; returns seconds."""
        from workloads import check_point, check_report, digest

        engine = engine_at(cache_root)
        reports: list = []
        self.attempted += self.workload.expected_rows
        with capture_episodes(reports, self.episode_seconds):
            start = time.perf_counter()
            try:
                points = self.workload.matrix(config, engine)
            except Exception as error:  # counted, reported, never hidden
                elapsed = time.perf_counter() - start
                traceback.print_exc()
                self.failed += self.workload.expected_rows
                self.problems.append(f"matrix raised {type(error).__name__}: {error}")
                return elapsed
            elapsed = time.perf_counter() - start
        if len(points) != self.workload.expected_rows:
            self.problems.append(
                f"matrix returned {len(points)} rows, expected {self.workload.expected_rows}"
            )
            self.failed += self.workload.expected_rows
            return elapsed
        if len(reports) != self.workload.expected_rows:
            self.problems.append(f"captured {len(reports)} guarded-episode reports")
        for point in points:
            broken = check_point(point)
            if broken:
                self.failed += 1
                self.problems.append(f"{point.attack}: {', '.join(broken)}")
        for report in reports:
            broken = check_report(report)
            if broken:
                self.problems.append(f"report: {', '.join(broken)}")
        self.digests.append(digest(points, reports))
        self.points = points
        return elapsed

    def check_digests(self, seed: int) -> None:
        """Same seed, same sources -> same digest (within and across runs)."""
        if not self.digests:
            return
        if len(set(self.digests)) != 1:
            self.problems.append(f"repeated matrix calls disagree: {self.digests}")
        key = f"{source_hash()}:{self.workload.name}:{seed}"
        store = WORK / "digests.json"
        known = json.loads(store.read_text()) if store.exists() else {}
        previous = known.get(key)
        if previous is None:
            known[key] = self.digests[0]
            staging = store.with_suffix(f".{os.getpid()}.tmp")
            staging.write_text(json.dumps(known, indent=1, sort_keys=True))
            os.replace(staging, store)
        elif previous != self.digests[0]:
            self.problems.append(
                f"digest {self.digests[0][:16]} differs from earlier run {previous[:16]}"
            )
        header(f"digest={self.digests[0]} (earlier run: {previous or 'none'})")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def end_to_end(workload, config, seconds: float, import_s: float, dirs: RunDirs):
    from workloads import OUTCOME_UNITS, outcome_metrics

    outcome = Outcome(workload)
    setup_samples = []
    template = None
    for _ in range(workload.setup_repeats):
        cache_root = dirs.fresh()
        start = time.perf_counter()
        workload.setup(config, engine_at(cache_root))
        setup_samples.append(time.perf_counter() - start)
        if template is not None:
            shutil.rmtree(template, ignore_errors=True)
        template = cache_root
    header(f"setup repetitions (s): {setup_samples}")

    # Whole matrix calls only: as many as fit in ``seconds``, at least one.
    walls = []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started + walls[-1] <= seconds:
        walls.append(outcome.matrix(config, dirs.fresh(template)))
        if outcome.failed:
            break
    header(f"timed matrix calls (s): {walls}")

    metrics = {
        "setup_s": import_s + statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if outcome.episode_seconds:
        metrics["episode_s"] = statistics.median(outcome.episode_seconds)
    if outcome.points:
        for name, value in outcome_metrics(outcome.points).items():
            header(f"outcome {name} = {value} {OUTCOME_UNITS[name]}")
    return outcome, metrics


def tracing_overhead(config, pairs: int = 20, cycles: int = 100) -> float:
    """Traced over untraced wall of benign simulation, median of chunk pairs.

    One simulator advances in ``cycles``-cycle chunks, alternately with and
    without the tracer installed, so neighbouring chunks share the host's
    momentary speed; a separate tracer keeps these spans out of the export.
    """
    from repro.monitor.dataset import DatasetBuilder
    from repro.noc.simulator import NoCSimulator
    from tracer import Tracer, install

    builder = DatasetBuilder(config.dataset_config())
    simulator = NoCSimulator(builder.config.simulation_config())
    simulator.add_source(builder.make_workload("uniform_random", seed=42))
    simulator.run(builder.config.warmup_cycles)
    ratios = []
    for _ in range(pairs):
        start = time.perf_counter()
        simulator.run(cycles)
        plain = time.perf_counter() - start
        probe = install(Tracer())
        start = time.perf_counter()
        simulator.run(cycles)
        ratios.append((time.perf_counter() - start) / plain)
        probe.uninstall()
    return statistics.median(ratios)


def traced(workload, config, seed: int, dirs: RunDirs):
    from layers import layer_metrics
    from tracer import Tracer, install

    outcome = Outcome(workload)
    tracer = install(Tracer())
    try:
        cache_root = dirs.fresh()
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            workload.setup(config, engine_at(cache_root))
        setup_wall = time.perf_counter() - start
        matrix_root = dirs.fresh(cache_root)
        start = time.perf_counter()
        with tracer.span("bench.timed"):
            outcome.matrix(config, matrix_root)
        timed_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()

    overhead = tracing_overhead(config)

    wall_ms = (setup_wall + timed_wall) * 1e3
    error = abs(tracer.total_self_ms() - wall_ms) / wall_ms
    header(
        f"traced wall {wall_ms:.1f} ms, summed self time {tracer.total_self_ms():.1f} ms, "
        f"relative error {error:.2e} (tolerance {RECONCILE_TOLERANCE})"
    )
    if error > RECONCILE_TOLERANCE:
        outcome.problems.append("layer self times do not reconcile with traced wall")
    for layer, ms in sorted(tracer.layer_self_ms().items(), key=lambda kv: -kv[1]):
        header(f"layer {layer:<12s} self {ms:12.1f} ms  {ms / wall_ms:6.1%}")

    trace_path = WORK / f"trace-{workload.name}-seed{seed}.json.gz"
    tracer.write_chrome_trace(trace_path)
    header(f"chrome trace: {trace_path.relative_to(ROOT)} ({len(tracer.span_name)} spans)")
    return outcome, layer_metrics(tracer, wall_ms, overhead)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    pin_environment()
    begin = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports repro: part of set-up time

    import_s = time.perf_counter() - begin
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    header(f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print_environment()

    dirs = RunDirs()
    try:
        if args.trace:
            outcome, values = traced(workload, config, args.seed, dirs)
        else:
            outcome, values = end_to_end(
                workload, config, args.seconds, import_s, dirs
            )
    finally:
        dirs.remove()
    outcome.check_digests(args.seed)

    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            # Only reachable when the matrix failed: nothing was measured.
            outcome.problems.append(f"metric {name} not measured")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": entry["unit"]}
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        raise AssertionError(f"metrics missing from BENCHMARK.json: {unknown}")

    header(f"attempted={outcome.attempted} failed={outcome.failed}")
    header(f"outcome failed_frac = {outcome.failed / max(1, outcome.attempted)} fraction")
    for problem in outcome.problems:
        header(f"PROBLEM: {problem}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
