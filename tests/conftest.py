"""Shared fixtures for the test suite.

Heavy objects (simulated runs, trained models) are session-scoped so the many
tests that need "a small trained pipeline" or "a few monitor samples" share
one instance instead of re-simulating.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

# Tier-1 tests are hermetic: no artifact-cache reads/writes outside explicit
# cache fixtures (a stale on-disk model must never mask a code change), and
# serial execution unless a test opts in with an explicit ParallelRunner.
# Hard assignment, not setdefault — an inherited REPRO_CACHE=1 must not leak
# a shared on-disk cache into the suite.
os.environ["REPRO_CACHE"] = "0"
os.environ["REPRO_WORKERS"] = "1"

from repro.core.config import DL2FenceConfig
from repro.core.pipeline import DL2Fence
from repro.monitor.dataset import DatasetBuilder, DatasetConfig
from repro.noc import soa_kernel, soa_step
from repro.noc.topology import MeshTopology
from repro.traffic.scenario import AttackScenario


SMALL_ROWS = 6


@pytest.fixture(scope="session", autouse=True)
def _session_cache_root(tmp_path_factory):
    """Keep the cache root — where the compiled SoA kernel is built on first
    use — inside the session's temp directory instead of the user's cache."""
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache-root"))


@pytest.fixture(params=soa_step.KERNELS)
def soa_kernel_name(request):
    """Run the test once per SoA per-cycle kernel (``compiled``, ``numpy``).

    The compiled leg is skipped only when no C compiler exists; with one, a
    failed build fails the test instead of silently running NumPy twice.
    """
    name = request.param
    if name == "compiled" and soa_kernel.find_compiler() is None:
        pytest.skip("no C compiler for the compiled SoA kernel")
    previous = soa_step.use_kernel(name)
    try:
        assert soa_step.active_kernel() == name
        yield name
    finally:
        soa_step.use_kernel(previous)


@pytest.fixture(scope="session")
def small_topology() -> MeshTopology:
    """A 6x6 mesh: small enough for fast simulation, large enough for frames."""
    return MeshTopology(rows=SMALL_ROWS)


@pytest.fixture(scope="session")
def small_dataset_config() -> DatasetConfig:
    """Dataset configuration matching the small topology."""
    return DatasetConfig(
        rows=SMALL_ROWS,
        sample_period=96,
        samples_per_run=4,
        warmup_cycles=32,
        benign_injection_rate=0.02,
        fir=0.8,
        seed=11,
    )


@pytest.fixture(scope="session")
def small_builder(small_dataset_config) -> DatasetBuilder:
    return DatasetBuilder(small_dataset_config)


@pytest.fixture(scope="session")
def small_runs(small_builder):
    """Benign + attacked runs over two benchmarks (session-cached)."""
    return small_builder.build_runs(
        benchmarks=["uniform_random", "blackscholes"],
        scenarios_per_benchmark=2,
        seed=11,
    )


@pytest.fixture(scope="session")
def small_detection_dataset(small_builder, small_runs):
    return small_builder.detection_dataset(small_runs)


@pytest.fixture(scope="session")
def small_localization_dataset(small_builder, small_runs):
    return small_builder.localization_dataset(small_runs)


@pytest.fixture(scope="session")
def trained_pipeline(small_builder, small_runs):
    """A DL2Fence pipeline trained on the session's small runs."""
    fence = DL2Fence(small_builder.topology, DL2FenceConfig(seed=3))
    fence.fit_from_runs(small_builder, small_runs, detector_epochs=40, localizer_epochs=60)
    return fence


@pytest.fixture(scope="session")
def example_scenario(small_topology) -> AttackScenario:
    """A deterministic single-attacker scenario on the small mesh."""
    # Attacker in the north-east quadrant, victim near the south-west corner.
    attacker = small_topology.node_id(4, 4)
    victim = small_topology.node_id(1, 1)
    return AttackScenario(attackers=(attacker,), victim=victim, fir=0.8)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
