"""Kernel-level workload descriptions.

A :class:`KernelSpec` is the unit of compute the simulator schedules:
it carries the FLOP count, the HBM traffic, the datapath it runs on and
an achievable-fraction-of-peak efficiency. The roofline rate model in
:mod:`repro.sim.rates` derives execution time from these plus the
machine state (available SMs, bandwidth, clock).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.hw.datapath import ComputePath, Datapath, Precision


class KernelKind(enum.Enum):
    """Coarse kernel category, used for efficiency defaults and reports."""

    GEMM = "gemm"
    ATTENTION = "attention"
    ELEMENTWISE = "elementwise"
    NORM = "norm"
    EMBEDDING = "embedding"
    OPTIMIZER = "optimizer"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class KernelSpec:
    """One compute kernel: work, traffic, and datapath.

    Attributes:
        name: human-readable identifier (shows up in traces).
        kind: coarse category.
        flops: floating-point operations performed.
        bytes_moved: HBM traffic (reads + writes) in bytes.
        path: numeric precision + datapath executing the math.
        efficiency: fraction of the datapath's peak FLOPS this kernel can
            reach when it has the whole machine (GEMM shape effects,
            launch overheads).

    ``physics`` (set on construction, not a field) is every field but
    the name, as a tuple of plain values.
    """

    name: str
    kind: KernelKind
    flops: float
    bytes_moved: float
    path: ComputePath
    efficiency: float = 0.65

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_moved < 0:
            raise ConfigurationError(
                f"kernel {self.name}: flops and bytes must be >= 0"
            )
        if self.flops == 0 and self.bytes_moved == 0:
            raise ConfigurationError(
                f"kernel {self.name}: must do some work"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError(
                f"kernel {self.name}: efficiency must be in (0, 1]"
            )
        # Kernel specs key the engine's hottest memo tables (roofline
        # peaks, isolated durations, free-running utilisation). The
        # generated dataclass hash re-hashes every field per lookup;
        # computing it once here keeps equality semantics identical
        # while making each lookup a cached-int hash.
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    self.name,
                    self.kind,
                    self.flops,
                    self.bytes_moved,
                    self.path,
                    self.efficiency,
                )
            ),
        )
        # Every field but the name, as values that hash in C: the key
        # of the roofline memos, which never read the name, so kernels
        # that differ only in name (``L0.qkv`` and ``L1.qkv``) share
        # one entry.
        object.__setattr__(
            self,
            "physics",
            (
                self.kind.value,
                self.flops,
                self.bytes_moved,
                self.path.precision.value,
                self.path.datapath.value,
                self.efficiency,
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per HBM byte; infinite for traffic-free kernels."""
        if self.bytes_moved == 0:
            return float("inf")
        return self.flops / self.bytes_moved

    def scaled(self, flop_scale: float, name_suffix: str = "") -> "KernelSpec":
        """A copy with FLOPs and bytes scaled by ``flop_scale``."""
        if flop_scale <= 0:
            raise ConfigurationError("flop_scale must be positive")
        return intern_kernel(
            replace(
                self,
                name=self.name + name_suffix,
                flops=self.flops * flop_scale,
                bytes_moved=self.bytes_moved * flop_scale,
            )
        )


# ---------------------------------------------------------------------------
# Hash-consing intern table.
#
# Kernel specs key the engine's free-running utilisation memo and the
# plan builders' kernel tables (the roofline tables key on ``physics``).
# Grid sweeps rebuild structurally-equal specs for every cell;
# interning collapses them to one canonical object so those memo dicts
# hit across cells (identity short-circuits ``dict`` key comparison
# before ``__eq__`` runs) and plans share their kernel objects.
# ``dict.setdefault`` is atomic under the GIL, so no lock is needed on
# the hot path.

_KERNEL_INTERN: dict = {}
_KERNEL_INTERN_MAX = 65536
_INTERN_STATS = {"hits": 0, "misses": 0}


def intern_kernel(spec: KernelSpec) -> KernelSpec:
    """Return the canonical instance for ``spec``.

    Equal specs (by value) map to one shared object; the first spec
    with a given value becomes the canonical one. The table is bounded:
    on overflow it is cleared wholesale, which only costs future
    sharing — existing holders keep working because every consumer
    keys by value (hash/eq), never by identity alone.
    """
    canonical = _KERNEL_INTERN.get(spec)
    if canonical is not None:
        _INTERN_STATS["hits"] += 1
        return canonical
    if len(_KERNEL_INTERN) >= _KERNEL_INTERN_MAX:
        _KERNEL_INTERN.clear()
    _INTERN_STATS["misses"] += 1
    return _KERNEL_INTERN.setdefault(spec, spec)


def kernel_intern_stats() -> dict:
    """Intern-table hit/miss counters plus current size (for benches)."""
    return {
        "hits": _INTERN_STATS["hits"],
        "misses": _INTERN_STATS["misses"],
        "size": len(_KERNEL_INTERN),
    }


def reset_kernel_intern() -> None:
    """Drop the intern table and zero the counters (test isolation)."""
    _KERNEL_INTERN.clear()
    _INTERN_STATS["hits"] = 0
    _INTERN_STATS["misses"] = 0


def _gemm_efficiency(m: int, n: int, k: int) -> float:
    """Achievable fraction of peak for an (m, n, k) GEMM.

    Large square-ish GEMMs approach ~75% of peak on tensor cores; small
    or skinny ones are launch- and wave-quantisation-limited. The ramp
    uses the smallest dimension as the limiter.
    """
    smallest = min(m, n, k)
    # 50% of asymptotic efficiency at smallest dim ~256. The asymptote
    # reflects end-to-end training MFU (wave quantisation, epilogues,
    # non-ideal layouts), not cuBLAS peak: large-model training sustains
    # ~40-50% of dense peak on these parts.
    ramp = smallest / (smallest + 256.0)
    return max(0.15, 0.55 * ramp)


def gemm_kernel(
    name: str,
    m: int,
    n: int,
    k: int,
    path: ComputePath,
    store_precision: Precision = None,  # type: ignore[assignment]
) -> KernelSpec:
    """Build a GEMM kernel spec from its dimensions.

    ``bytes_moved`` counts each operand once (tiling gives near-perfect
    reuse within a pass); ``store_precision`` controls element size in
    memory (defaults to the compute path's precision; TF32 stores FP32).
    """
    if m <= 0 or n <= 0 or k <= 0:
        raise ConfigurationError(f"GEMM {name}: dimensions must be positive")
    if store_precision is None:
        store_precision = path.precision
    elt = store_precision.bytes_per_element
    flops = 2.0 * m * n * k
    bytes_moved = float(elt) * (m * k + k * n + m * n)
    return intern_kernel(
        KernelSpec(
            name=name,
            kind=KernelKind.GEMM,
            flops=flops,
            bytes_moved=bytes_moved,
            path=path,
            efficiency=_gemm_efficiency(m, n, k),
        )
    )


def elementwise_kernel(
    name: str,
    num_elements: float,
    path: ComputePath,
    flops_per_element: float = 2.0,
    bytes_per_element: float = None,  # type: ignore[assignment]
    kind: KernelKind = KernelKind.ELEMENTWISE,
) -> KernelSpec:
    """Build a bandwidth-bound elementwise/normalization kernel."""
    if num_elements <= 0:
        raise ConfigurationError(f"kernel {name}: num_elements must be positive")
    if bytes_per_element is None:
        # Read + write at the path's storage width.
        bytes_per_element = 2.0 * path.precision.bytes_per_element
    # TF32 is a tensor-core GEMM compute format only; the surrounding
    # elementwise/normalization kernels of a TF32 run execute plain FP32
    # on the vector pipes (tensors are FP32-sized in HBM either way).
    precision = path.precision
    if precision is Precision.TF32:
        precision = Precision.FP32
    return intern_kernel(
        KernelSpec(
            name=name,
            kind=kind,
            flops=num_elements * flops_per_element,
            bytes_moved=num_elements * bytes_per_element,
            path=ComputePath(precision, Datapath.VECTOR),
            efficiency=0.9,
        )
    )
