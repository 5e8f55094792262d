"""Build, cache and bind the compiled SoA kernels of ``soa_kernel.c``.

The C file is compiled lazily — on the first kernel call of a process, not
at import — with a plain ``gcc -O2 -shared -fPIC -ffp-contract=off`` and
loaded through :mod:`ctypes` (no new dependency).  ``-ffp-contract=off``
keeps the throttle-credit update a separate float64 multiply and add, so it
rounds exactly like NumPy's two ufunc calls; ``-ffast-math`` and
``-march=native`` are never used for the same reason.

The window driver's emitters draw through NumPy's own distribution code:
the build links the running NumPy's ``numpy/random/lib/libnpyrandom.a``
and includes only its ``bitgen.h``, so a draw in C is the very function
``Generator.random`` / ``Generator.integers`` call.  A missing archive or
header is a :class:`KernelBuildError` (the NumPy kernel runs instead).

Builds live under the hidden ``.kernels/`` directory of the artifact-cache
root (:func:`repro.runtime.cache.default_cache_root`), one subdirectory per
SHA-256 of source, flags, compiler version, NumPy version and the linked
NumPy archive and header, so a changed source, compiler or NumPy can never
load a stale library.  The library is compiled to a
temporary name and moved into place with ``os.replace``; a checksum file
written next to it is verified before every load, so a truncated or
modified ``.so`` is rebuilt instead of loaded.  Hidden directories are not
cache entries, so size-cap eviction never deletes a build.

:class:`CompiledKernel` binds one network: a ``SoaState`` struct of array
pointers built once.  Only the packet registry moves afterwards (it grows
by reallocation, counted by one generation number); data-plane faults drop
the binding so the next call rebinds with the fault-aware route tables.

:class:`WindowDriver` holds the C emitters of one simulator's traffic
sources (see :class:`repro.noc.simulator.EmissionPlan`); one
``CompiledKernel.run`` call advances the network through a whole window of
cycles with them.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import uuid
from functools import partial
from pathlib import Path

import numpy as np

__all__ = [
    "CFLAGS",
    "CompiledKernel",
    "KernelBuildError",
    "WindowDriver",
    "find_compiler",
    "kernel_root",
    "load_library",
]

SOURCE = Path(__file__).with_name("soa_kernel.c")
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
LIBRARY_NAME = "soa_kernel.so"
_BIG_KEY = 1 << 30
#: Bytes per switch candidate (``Candidate`` in soa_kernel.c).
_CANDIDATE_BYTES = 24

#: NumPy's random C API: the include root, the one header the C file
#: includes, and the static archive of the distribution functions it calls.
NUMPY_INCLUDE = Path(np.get_include())
NUMPY_BITGEN_HEADER = NUMPY_INCLUDE / "numpy" / "random" / "bitgen.h"
NUMPY_RANDOM_ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"

#: ``SoaState`` of soa_kernel.c, field for field (every field 8 bytes wide).
_INT_FIELDS = (
    "num_nodes", "episode_nodes", "episodes", "episode_q", "num_vcs", "depth",
    "capacity", "bandwidth", "dynamic", "reg_capacity", "in_capacity", "occ_exact",
)  # fmt: skip
_POINTER_FIELDS = (
    "vc_slots", "vc_head", "vc_count", "vc_alloc", "vc_down", "port_first_free",
    "node_vc", "buf_writes", "buf_reads", "occupied", "occ_sum_int", "occ_sum",
    "sq_flat", "sq_head", "sq_count", "limits", "allowance",
    "reg", "reg_len", "counts", "flits_ejected", "packets_ejected", "routable",
    "key_table", "down_port", "route_slot", "q_node_base", "q_slot_off",
    "route3", "q_state_base", "opposite",
    "best", "cand", "pass_nodes", "in_lane", "in_src", "in_dst",
)  # fmt: skip

#: Packet-registry columns: rows of the ``(REG_COLUMNS, capacity)`` int64
#: table of :class:`~repro.noc.soa.PacketRegistry`, the ``COL_*`` enum of
#: soa_kernel.c.  ``COL_LOG`` is the delivered log (packet ids in delivery order).
(
    COL_SOURCE, COL_DEST, COL_SIZE, COL_CREATED, COL_INJECTED, COL_EJECTED,
    COL_MALICIOUS, COL_EPISODE, COL_LOG,
) = range(9)  # fmt: skip
REG_COLUMNS = 9
#: Per-episode counters: columns of the ``(episodes, NUM_COUNTS)`` int64
#: table of :class:`~repro.noc.soa.SoAMeshNetwork`, the ``CNT_*`` enum.
(
    CNT_CREATED, CNT_INJECTED, CNT_DELIVERED, CNT_FLITS_DELIVERED,
    CNT_MAL_CREATED, CNT_MAL_DELIVERED, CNT_DROPPED, CNT_UNROUTABLE,
) = range(8)  # fmt: skip
NUM_COUNTS = 8


#: Element type the C side reads through each pointer field.
_DTYPES = {
    "vc_head": np.int16, "vc_count": np.int16, "port_first_free": np.int16,
    "vc_alloc": np.int32, "vc_down": np.int32, "key_table": np.int32,
    "route_slot": np.int32, "q_slot_off": np.int32, "best": np.int32,
    "route3": np.int8, "routable": np.bool_, "cand": np.uint8,
    "limits": np.float64, "allowance": np.float64, "occ_sum": np.float64,
    "uniform": np.float64, "rates": np.float64, "silent": np.uint8,
    "bounded": np.uint64,
}  # fmt: skip


class _SoaState(ctypes.Structure):
    _fields_ = [(name, ctypes.c_int64) for name in _INT_FIELDS] + [
        (name, ctypes.c_void_p) for name in _POINTER_FIELDS
    ]


#: ``Emitter`` and ``Driver`` of soa_kernel.c (one double among 8-byte fields).
_EMITTER_INT_FIELDS = (
    "count", "size", "malicious", "first", "last", "span", "rate_base",
    "rate_rows", "generated", "pending",
)  # fmt: skip
_EMITTER_POINTER_FIELDS = (
    "bitgen", "sources", "targets", "rates", "silent", "uniform", "bounded",
    "out_src", "out_dst",
)  # fmt: skip
#: ``last`` of an emitter that never stops.
_OPEN_END = (1 << 63) - 1


class _Emitter(ctypes.Structure):
    _fields_ = (
        [(name, ctypes.c_int64) for name in _EMITTER_INT_FIELDS]
        + [("rate", ctypes.c_double)]
        + [(name, ctypes.c_void_p) for name in _EMITTER_POINTER_FIELDS]
    )


class _Driver(ctypes.Structure):
    _fields_ = [
        ("count", ctypes.c_int64),
        ("pending", ctypes.c_int64),
        ("need", ctypes.c_int64),
        ("emitters", ctypes.c_void_p),
    ]


class KernelBuildError(RuntimeError):
    """The compiled kernel could not be built or loaded."""


def find_compiler() -> str | None:
    """Path of the C compiler used for the kernel build (None if absent)."""
    return shutil.which("gcc") or shutil.which("cc")


def kernel_root() -> Path:
    """Hidden build directory under the artifact-cache root."""
    # Imported here: importing repro.runtime imports the simulator.
    from repro.runtime.cache import default_cache_root

    return default_cache_root() / ".kernels"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _build_key(compiler: str) -> str:
    try:
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, timeout=30
        ).stdout
    except OSError as error:
        raise KernelBuildError(f"cannot run {compiler}: {error}") from error
    sha = hashlib.sha256(SOURCE.read_bytes())
    sha.update("\0".join(CFLAGS).encode())
    sha.update(version.encode())
    # The linked NumPy distribution code is part of the library.
    sha.update(np.__version__.encode())
    for path in (NUMPY_BITGEN_HEADER, NUMPY_RANDOM_ARCHIVE):
        try:
            sha.update(_sha256(path).encode())
        except OSError as error:
            raise KernelBuildError(f"NumPy random C library missing: {error}") from error
    return sha.hexdigest()


def _verified(library: Path) -> bool:
    """Whether ``library`` exists and matches the checksum written with it."""
    checksum = library.with_name(library.name + ".sha256")
    try:
        return checksum.read_text().strip() == _sha256(library)
    except OSError:
        return False


def _build(compiler: str, library: Path) -> None:
    library.parent.mkdir(parents=True, exist_ok=True)
    tag = f".tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    staged = library.with_name(library.name + tag)
    checksum = library.with_name(library.name + ".sha256")
    staged_checksum = checksum.with_name(checksum.name + tag)
    try:
        result = subprocess.run(
            [
                compiler, *CFLAGS, "-I", str(NUMPY_INCLUDE), "-o", str(staged),
                str(SOURCE), str(NUMPY_RANDOM_ARCHIVE), "-lm",
            ],  # fmt: skip
            capture_output=True,
            text=True,
            timeout=120,
        )
        if result.returncode != 0:
            raise KernelBuildError(f"{compiler} failed: {result.stderr.strip()}")
        staged_checksum.write_text(_sha256(staged) + "\n")
        os.replace(staged, library)
        os.replace(staged_checksum, checksum)
    except OSError as error:
        raise KernelBuildError(f"cannot build {library}: {error}") from error
    finally:
        staged.unlink(missing_ok=True)
        staged_checksum.unlink(missing_ok=True)


def load_library(root: Path | None = None) -> ctypes.CDLL:
    """Build (when missing, stale or corrupt) and load the kernel library.

    Raises :class:`KernelBuildError` when no compiler exists, the build
    fails, or the loaded library's struct layout disagrees with ours.
    """
    compiler = find_compiler()
    if compiler is None:
        raise KernelBuildError("no C compiler (gcc/cc) on PATH")
    directory = (kernel_root() if root is None else root) / _build_key(compiler)
    library = directory / LIBRARY_NAME
    if not _verified(library):
        _build(compiler, library)
    try:
        lib = ctypes.CDLL(str(library))
    except OSError as error:
        raise KernelBuildError(f"cannot load {library}: {error}") from error
    layout = {
        "soa_state_size": ctypes.sizeof(_SoaState),
        "soa_candidate_size": _CANDIDATE_BYTES,
        "soa_registry_layout": REG_COLUMNS * 256 + NUM_COUNTS,
        "soa_emitter_size": ctypes.sizeof(_Emitter),
        "soa_driver_size": ctypes.sizeof(_Driver),
    }
    for name, expected in layout.items():
        function = getattr(lib, name)
        function.restype = ctypes.c_int64
        function.argtypes = []
        if function() != expected:
            raise KernelBuildError("struct layout mismatch between C and ctypes")
    lib.soa_inject.restype = None
    lib.soa_inject.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    lib.soa_switch.restype = ctypes.c_int64
    lib.soa_switch.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    lib.soa_ingress.restype = ctypes.c_int64
    lib.soa_ingress.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 5
    lib.soa_run.restype = ctypes.c_int64
    lib.soa_run.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 2
    return lib


def _pointer(
    name: str, array: np.ndarray | None, size: int | None = None
) -> int | None:
    """Address of ``array`` after checking it matches the C field's type and,
    when given, its element count."""
    if array is None:
        return None
    expected = np.dtype(_DTYPES.get(name, np.int64))
    if array.dtype != expected or not array.flags.c_contiguous:
        raise TypeError(f"kernel array {name} must be C-contiguous {expected}")
    if size is not None and array.size != size:
        raise ValueError(f"kernel array {name}: {array.size} elements, expected {size}")
    return array.ctypes.data


class CompiledKernel:
    """One network's binding to the compiled kernels.

    Holds a reference to every array whose address sits in the struct, so
    the C side can never write through a dangling pointer.  Routing state
    is bound once (a data-plane fault drops the binding, see
    ``SoAMeshNetwork.apply_data_faults``); the packet registry is re-pointed
    whenever its growth ``generation`` moved, which the callers in
    :mod:`repro.noc.soa_step` check before every C call.
    """

    def __init__(self, lib: ctypes.CDLL, net) -> None:
        from repro.noc.soa_step import KEY_PERIOD  # soa_step imports this module

        nodes = net._array_nodes
        num_ports = nodes * 5
        num_q = num_ports * net.num_vcs
        episode_nodes = net.topology.num_nodes
        self.best = np.full(num_ports, _BIG_KEY, dtype=np.int32)
        self.cand = np.empty(num_q * _CANDIDATE_BYTES, dtype=np.uint8)
        self.pass_nodes = np.empty(nodes, dtype=np.int64)
        # (array, element count the C side indexes up to).
        self._arrays = {
            "vc_slots": (net._vc_slots, num_q * net.vc_depth),
            "vc_head": (net._vc_head, num_q),
            "vc_count": (net._vc_count, num_q),
            "vc_alloc": (net._vc_alloc, num_q),
            "vc_down": (net._vc_down, num_q),
            "port_first_free": (net._port_first_free, num_ports),
            "node_vc": (net._node_vc, nodes),
            "buf_writes": (net._buf_writes, num_ports),
            "buf_reads": (net._buf_reads, num_ports),
            "occupied": (net._occupied, num_ports),
            "occ_sum_int": (net._occ_sum_int, num_ports),
            "occ_sum": (net._occ_sum, num_ports),
            "sq_flat": (net._sq_flat, nodes * net.source_queue_capacity),
            "sq_head": (net._sq_head, nodes),
            "sq_count": (net._sq_count, nodes),
            "limits": (net._limits, nodes),
            "allowance": (net._allowance, nodes),
            "reg_len": (net._registry.lengths, 2),
            "counts": (net._counts, net.episodes * NUM_COUNTS),
            "flits_ejected": (net._flits_ejected, nodes),
            "packets_ejected": (net._packets_ejected, nodes),
            "routable": (net._routable_start, episode_nodes * episode_nodes),
            "key_table": (net._key_table, KEY_PERIOD * num_q),
            "down_port": (net._down_port, num_ports),
            "route_slot": (net._route_slot, episode_nodes * episode_nodes),
            "q_node_base": (net._q_node_base, num_q),
            "q_slot_off": (net._q_slot_off, num_q),
            "route3": (net._route3, episode_nodes * 5 * episode_nodes),
            "q_state_base": (net._q_state_base, num_q),
            "opposite": (net._tables.opposite, 5),
            "best": (self.best, num_ports),
            "cand": (self.cand, num_q * _CANDIDATE_BYTES),
            "pass_nodes": (self.pass_nodes, nodes),
        }
        self.state = _SoaState(
            num_nodes=nodes,
            episode_nodes=episode_nodes,
            episodes=net.episodes,
            episode_q=episode_nodes * 5 * net.num_vcs,
            num_vcs=net.num_vcs,
            depth=net.vc_depth,
            capacity=net.source_queue_capacity,
            bandwidth=net.injection_bandwidth,
            dynamic=1 if net._dynamic_routes else 0,
            occ_exact=1 if net._occ_exact else 0,
            **{name: _pointer(name, *entry) for name, entry in self._arrays.items()},
        )
        # Without a route table (past the cut-over) routing is derived on the
        # fly, which only the NumPy kernel does.
        self.routes = bool(net._dynamic_routes) or net._route_slot is not None
        self.reserve_inputs(max(nodes, 64))
        self.refresh(net)
        # ``inject(cycle)`` / ``switch(cycle)`` / ``ingress(count, lane,
        # size, cycle, malicious)`` / ``run(driver, cycle, stop)``: straight
        # into C, no Python frame.  switch returns the flits ejected, or -1
        # when an unroutable head reached it; ingress the packets accepted,
        # or -1 (registry or input buffers too small) / -2 (node id out of
        # range) with no side effect; run as ``soa_run`` in soa_kernel.c.
        address = ctypes.addressof(self.state)
        self.inject = partial(lib.soa_inject, address)
        self.switch = partial(lib.soa_switch, address)
        self.ingress = partial(lib.soa_ingress, address)
        self.run = partial(lib.soa_run, address)

    def reserve_inputs(self, count: int) -> None:
        """(Re)allocate the ingress input buffers for ``count`` packets."""
        self.in_capacity = count
        self.in_lane = np.zeros(count, dtype=np.int64)
        self.in_src = np.zeros(count, dtype=np.int64)
        self.in_dst = np.zeros(count, dtype=np.int64)
        state = self.state
        state.in_capacity = count
        state.in_lane = _pointer("in_lane", self.in_lane)
        state.in_src = _pointer("in_src", self.in_src)
        state.in_dst = _pointer("in_dst", self.in_dst)

    def refresh(self, net) -> None:
        """Re-point the packet registry (after it grew)."""
        registry = net._registry
        self.registry_ref = registry.table
        self.registry_generation = registry.generation
        self.state.reg = _pointer(
            "reg", registry.table, REG_COLUMNS * registry.capacity
        )
        self.state.reg_capacity = registry.capacity


class WindowDriver:
    """The C emitters of one simulator's traffic sources, in emission order.

    Built from ``(source, plan)`` pairs, one
    :class:`~repro.noc.simulator.EmissionPlan` per source.  Each emitter
    draws through its source's own bit generator, so the source's ``rng``
    ends every window in the state the per-cycle NumPy emitters would have
    left it in.  Holds every array whose address an emitter holds.
    """

    def __init__(self, plans) -> None:
        self._emitters = (_Emitter * max(1, len(plans)))()
        self._arrays: list = []
        # (emitter, plan) of rate-table sources; (emitter, source) of sources
        # that count their packets.
        self._tables = []
        self._counted = []
        for emitter, (source, plan) in zip(self._emitters, plans):
            count = plan.count
            arrays = {
                "sources": plan.sources,
                "targets": plan.targets,
                "uniform": np.empty(count, dtype=np.float64),
                "bounded": np.empty(count, dtype=np.uint64),
                "out_src": np.empty(count, dtype=np.int64),
                "out_dst": np.empty(count, dtype=np.int64),
            }
            for name, array in arrays.items():
                if array is not None:
                    array = np.ascontiguousarray(array, dtype=_DTYPES.get(name, np.int64))
                    setattr(emitter, name, _pointer(name, array, count))
                    self._arrays.append(array)
            bit_generator = plan.rng.bit_generator
            self._arrays.append(bit_generator)
            emitter.bitgen = bit_generator.ctypes.bit_generator.value
            emitter.count = count
            emitter.size = plan.size_flits
            emitter.malicious = 1 if plan.malicious else 0
            emitter.first = plan.first
            emitter.last = _OPEN_END if plan.last is None else plan.last
            # Uniform-random destinations: any node but the source.
            emitter.span = count - 1 if plan.targets is None else 0
            emitter.rate = plan.rate
            if plan.rate_table is not None:
                self._tables.append((emitter, plan))
            if hasattr(source, "packets_generated"):
                self._counted.append((emitter, source))
        self.state = _Driver(count=len(plans), emitters=ctypes.addressof(self._emitters))
        self._address = ctypes.addressof(self.state)

    def advance(self, net, kernel: CompiledKernel, cycle: int, stop: int) -> None:
        """Run cycles ``[cycle, stop)`` of ``net`` through ``kernel``.

        Rate tables are built for the window first; the C call returns
        early only when the packet registry must grow, which happens here
        before the call resumes with the stopped cycle's draws.
        """
        tables = []  # keeps this window's rate tables alive through the calls
        for emitter, plan in self._tables:
            lo = max(cycle, plan.first)
            hi = stop if plan.last is None else min(stop, plan.last)
            if hi <= lo:
                continue
            rates, silent = plan.rate_table(lo, hi)
            rates = np.ascontiguousarray(rates, dtype=np.float64)
            silent = np.ascontiguousarray(silent, dtype=np.uint8)
            emitter.rates = _pointer("rates", rates, (hi - lo) * plan.count)
            emitter.silent = _pointer("silent", silent, hi - lo)
            emitter.rate_base = lo
            emitter.rate_rows = hi - lo
            tables.append((rates, silent))
        registry = net._registry
        try:
            while True:
                if registry.generation != kernel.registry_generation:
                    kernel.refresh(net)
                reached = kernel.run(self._address, cycle, stop)
                if reached == stop:
                    break
                if reached < 0:  # pragma: no cover - excision / table invariants
                    raise RuntimeError(
                        "unroutable head reached the switch kernel"
                        if reached == -1
                        else "attack rate table does not cover the window"
                    )
                registry.reserve(self.state.need)
                cycle = reached
        finally:
            for emitter, _ in self._tables:
                emitter.rates = emitter.silent = None
                emitter.rate_rows = 0
        for emitter, source in self._counted:
            source.packets_generated += emitter.generated
            emitter.generated = 0
