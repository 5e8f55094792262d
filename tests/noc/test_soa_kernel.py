"""Build, cache and fallback behaviour of the compiled SoA kernel.

The kernel equivalence itself is pinned by running every equivalence suite
under both kernels (the ``soa_kernel_name`` fixture); these tests cover the
build path: a missing compiler falls back to the NumPy kernel with one
warning and identical results, a corrupt or stale library is rebuilt and
never loaded, the build key follows the linked NumPy random library, and
builds live in a hidden directory of the cache root that size-cap eviction
leaves alone.
"""

import ctypes
import hashlib
import warnings

import pytest

from repro.noc import soa, soa_kernel, soa_step
from repro.noc.simulator import NoCSimulator, SimulationConfig
from repro.runtime.cache import ArtifactCache
from repro.traffic.flooding import FloodingAttacker, FloodingConfig
from repro.traffic.synthetic import UniformRandomTraffic

from .test_soa_equivalence import assert_same_stats

needs_compiler = pytest.mark.skipif(
    soa_kernel.find_compiler() is None, reason="no C compiler"
)


def _flooded(rows=5, cycles=300):
    simulator = NoCSimulator(
        SimulationConfig(rows=rows, warmup_cycles=16, seed=0, backend="soa")
    )
    simulator.add_source(
        UniformRandomTraffic(simulator.topology, injection_rate=0.08, seed=1)
    )
    simulator.add_source(
        FloodingAttacker(
            FloodingConfig(attackers=(rows * rows - 1,), victim=1, fir=0.7),
            simulator.topology,
            seed=2,
        )
    )
    simulator.run(cycles)
    return simulator


@pytest.fixture
def restore_kernel():
    previous = soa_step.use_kernel("compiled")
    yield
    soa_step.use_kernel(previous)


class TestSelection:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            soa_step.use_kernel("fortran")

    def test_numpy_selection_binds_no_library(self, restore_kernel):
        soa_step.use_kernel("numpy")
        assert soa_step.active_kernel() == "numpy"
        assert _flooded(cycles=20).network._kernel[1] is None

    @needs_compiler
    def test_compiled_selection_binds_library(self, restore_kernel):
        assert soa_step.active_kernel() == "compiled"
        assert _flooded(cycles=20).network._kernel[1] is not None


@needs_compiler
class TestRegistryGeneration:
    def test_registry_growth_mid_episode_keeps_fingerprint(
        self, monkeypatch, restore_kernel
    ):
        """A registry that starts tiny reallocates many times mid-episode;
        the compiled binding follows its one growth generation."""
        reference = _flooded()
        monkeypatch.setattr(soa, "REGISTRY_CAPACITY", 2)
        grown = _flooded()
        registry = grown.network._registry
        assert registry.generation >= 5
        assert registry.rows > 2
        assert grown.network._kernel[1].registry_generation == registry.generation
        assert_same_stats(grown, reference)

    def test_stale_binding_is_repointed_before_each_call(self, restore_kernel):
        simulator = _flooded(cycles=50)
        network = simulator.network
        kernel = network._kernel[1]
        old_table = network._registry.table
        network._registry.reserve(network._registry.capacity)
        assert network._registry.table is not old_table
        assert kernel.registry_generation != network._registry.generation
        soa_step.inject(network, simulator.cycle)
        assert kernel.registry_ref is network._registry.table
        assert kernel.registry_generation == network._registry.generation


class TestBuildFailure:
    def test_missing_compiler_warns_once_and_matches(
        self, monkeypatch, restore_kernel
    ):
        soa_step.use_kernel("numpy")
        reference = _flooded()
        monkeypatch.setattr(soa_kernel, "find_compiler", lambda: None)
        monkeypatch.setattr(soa_step, "_library", None)
        soa_step.use_kernel("compiled")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fallback = _flooded()
            second = _flooded(cycles=20)
        messages = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(messages) == 1
        assert "NumPy kernel" in str(messages[0].message)
        assert soa_step.active_kernel() == "numpy"
        assert fallback.network._kernel[1] is None
        assert second.network._kernel[1] is None
        assert_same_stats(fallback, reference)

    @needs_compiler
    def test_compile_error_raises_build_error(self, monkeypatch, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(soa_kernel, "SOURCE", broken)
        with pytest.raises(soa_kernel.KernelBuildError, match="failed"):
            soa_kernel.load_library(tmp_path / "kernels")


@needs_compiler
class TestLibraryCache:
    @pytest.mark.parametrize("damage", ["truncated", "stale-checksum"])
    def test_damaged_library_is_rebuilt_never_loaded(
        self, monkeypatch, tmp_path, damage
    ):
        # Built but not loaded: a library mapped by this process must never
        # be rewritten in place.
        compiler = soa_kernel.find_compiler()
        library = tmp_path / soa_kernel._build_key(compiler) / soa_kernel.LIBRARY_NAME
        soa_kernel._build(compiler, library)
        good = library.read_bytes()
        if damage == "truncated":
            library.write_bytes(good[:200])
        else:
            checksum = library.with_name(library.name + ".sha256")
            checksum.write_text(hashlib.sha256(b"older build").hexdigest() + "\n")
        damaged = library.read_bytes()

        loaded = []
        real_cdll = ctypes.CDLL

        def spy(path, *args, **kwargs):
            loaded.append(open(path, "rb").read())
            return real_cdll(path, *args, **kwargs)

        monkeypatch.setattr(soa_kernel.ctypes, "CDLL", spy)
        soa_kernel.load_library(tmp_path)
        assert soa_kernel._verified(library)
        assert len(loaded) == 1
        if damage == "truncated":
            assert loaded[0] != damaged
        assert hashlib.sha256(loaded[0]).hexdigest() == hashlib.sha256(
            library.read_bytes()
        ).hexdigest()

    def test_build_key_tracks_flags(self, monkeypatch):
        compiler = soa_kernel.find_compiler()
        key = soa_kernel._build_key(compiler)
        monkeypatch.setattr(soa_kernel, "CFLAGS", (*soa_kernel.CFLAGS, "-g"))
        assert soa_kernel._build_key(compiler) != key

    def test_build_key_tracks_linked_numpy(self, monkeypatch, tmp_path):
        compiler = soa_kernel.find_compiler()
        key = soa_kernel._build_key(compiler)
        archive = tmp_path / "libnpyrandom.a"
        archive.write_bytes(soa_kernel.NUMPY_RANDOM_ARCHIVE.read_bytes() + b"\0")
        monkeypatch.setattr(soa_kernel, "NUMPY_RANDOM_ARCHIVE", archive)
        assert soa_kernel._build_key(compiler) != key
        monkeypatch.undo()
        monkeypatch.setattr(soa_kernel.np, "__version__", "0.0.0")
        assert soa_kernel._build_key(compiler) != key

    @pytest.mark.parametrize("missing", ["NUMPY_RANDOM_ARCHIVE", "NUMPY_BITGEN_HEADER"])
    def test_missing_numpy_random_library_is_a_build_error(
        self, monkeypatch, tmp_path, missing
    ):
        monkeypatch.setattr(soa_kernel, missing, tmp_path / "absent")
        with pytest.raises(soa_kernel.KernelBuildError, match="NumPy random"):
            soa_kernel.load_library(tmp_path / "kernels")

    def test_no_fast_math(self):
        assert "-ffp-contract=off" in soa_kernel.CFLAGS
        assert not any(
            flag in ("-ffast-math", "-Ofast") or flag.startswith("-march")
            for flag in soa_kernel.CFLAGS
        )


class TestKernelDirectory:
    def test_builds_live_in_hidden_cache_subdirectory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        root = soa_kernel.kernel_root()
        assert root.parent == tmp_path
        assert root.name.startswith(".")

    def test_size_cap_eviction_leaves_kernels(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        build = soa_kernel.kernel_root() / "0" / soa_kernel.LIBRARY_NAME
        build.parent.mkdir(parents=True)
        build.write_bytes(b"\0" * 4096)
        cache = ArtifactCache(root=tmp_path, enabled=True)
        for key in range(3):
            cache.store("blob", {"key": key}, lambda d: (d / "b").write_bytes(b"x"))
        assert cache.enforce_size_cap(0) == 2
        assert build.read_bytes() == b"\0" * 4096
