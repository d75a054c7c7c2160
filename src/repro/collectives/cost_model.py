"""Alpha-beta cost model for collectives, with contention footprints.

For each :class:`~repro.collectives.primitives.CollectiveOp` the model
produces a :class:`CollectiveCost`: the nominal duration on an otherwise
idle machine plus the three contention footprints the simulator needs —
HBM bandwidth demand, SM/CU occupancy, and link utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.algorithms import select_algorithm
from repro.collectives.library import CollectiveLibrary
from repro.collectives.primitives import CollectiveKind, CollectiveOp
from repro.errors import ConfigurationError
from repro.hw.calibration import ContentionCalibration
from repro.hw.interconnect import LinkSpec

#: HBM bytes moved per wire byte, by collective. Ring algorithms read
#: each chunk before sending and write each received chunk; reductions
#: additionally read the local accumulator.
_HBM_PER_WIRE = {
    CollectiveKind.ALL_REDUCE: 2.5,
    CollectiveKind.REDUCE_SCATTER: 2.5,
    CollectiveKind.ALL_GATHER: 2.0,
    CollectiveKind.SEND_RECV: 1.0,
}

#: Fraction of the per-direction link bandwidth each pattern sustains.
#: Ring collectives keep every link busy; a lone point-to-point
#: send/recv runs a single channel pair and reaches a fraction of the
#: fabric's aggregate rate (measured NCCL p2p vs ring behaviour).
_LINK_EFF_PER_KIND = {
    CollectiveKind.SEND_RECV: 0.35,
}


@dataclass(frozen=True)
class CollectiveCost:
    """Simulation-facing cost of one collective on one rank.

    Attributes:
        duration_s: time on an idle machine at full clock.
        wire_bytes: bytes this rank sends over the fabric.
        hbm_bytes_per_s: HBM bandwidth the collective consumes while
            running (at nominal progress rate).
        sm_fraction: fraction of the GPU's SMs/CUs pinned by channels.
        link_fraction: fraction of the per-direction link bandwidth in
            use (for the power model).
        clock_sensitivity: fraction of the progress rate that scales
            with SM clock under DVFS throttling.
    """

    duration_s: float
    wire_bytes: float
    hbm_bytes_per_s: float
    sm_fraction: float
    link_fraction: float
    clock_sensitivity: float
    algorithm: str = "ring"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("collective duration must be positive")
        if self.wire_bytes < 0 or self.hbm_bytes_per_s < 0:
            raise ConfigurationError("collective traffic must be >= 0")
        if not 0.0 <= self.sm_fraction < 1.0:
            raise ConfigurationError("sm_fraction must be in [0, 1)")
        if not 0.0 <= self.link_fraction <= 1.0:
            raise ConfigurationError("link_fraction must be in [0, 1]")


class CollectiveCostModel:
    """Derives :class:`CollectiveCost` from link, library and calibration.

    ``cost`` is memoized per op: the model is pure and shared across
    every simulation of a node (see :mod:`repro.exec.planning`), and a
    training iteration re-issues the same small set of collectives over
    and over. The memo dict is only mutated under the GIL with
    deterministic values, so concurrent fleet worker threads at worst
    compute a key twice — never observe a wrong cost.
    """

    #: Bound on the per-op memo: one model is shared by every prepared
    #: simulation of a node, and a long calibration sweep mints many
    #: distinct payload sizes; clear-on-overflow keeps it finite (the
    #: same discipline as the other process-shared memos).
    _MAX_COST_ENTRIES = 65536

    def __init__(
        self,
        link: LinkSpec,
        library: CollectiveLibrary,
        calibration: ContentionCalibration,
        hbm_effective_bandwidth: float,
    ):
        if hbm_effective_bandwidth <= 0:
            raise ConfigurationError("HBM bandwidth must be positive")
        self.link = link
        self.library = library
        self.calibration = calibration
        self.hbm_effective_bandwidth = hbm_effective_bandwidth
        self._cost_cache: "dict[tuple, CollectiveCost]" = {}

    def message_bytes(self, op: CollectiveOp) -> float:
        """Per-transfer message size driving the bandwidth ramp.

        Ring algorithms pipeline the payload in rank-count chunks, but
        NCCL's effective bandwidth tracks the *total* payload size (its
        internal chunking keeps links saturated once the payload is
        large); we use payload/world for p2p-dominated patterns.
        """
        if op.kind is CollectiveKind.SEND_RECV:
            return op.payload_bytes
        return op.payload_bytes / op.world_size * max(op.world_size - 1, 1)

    def cost(self, op: CollectiveOp) -> CollectiveCost:
        """Full cost bundle for one rank of ``op``, memoized.

        The algorithm (ring vs tree) is auto-selected per message like
        NCCL's default mode: latency-optimal trees win for small
        payloads on deep rings, bandwidth-optimal rings for large ones.
        The memo is keyed on what the cost reads — kind, payload and
        participants — not on the op's key, which only names it: every
        layer's all-gather of a plan, and of its sibling plans, shares
        one entry.
        """
        key = (op.kind, op.payload_bytes, op.participants)
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        if len(self._cost_cache) >= self._MAX_COST_ENTRIES:
            self._cost_cache.clear()
        cost = self._cost_uncached(op)
        self._cost_cache[key] = cost
        return cost

    def _cost_uncached(self, op: CollectiveOp) -> CollectiveCost:
        # message_bytes is pure in op; evaluate it once for both the
        # bandwidth ramp and the channel-utilisation curve.
        msg_bytes = self.message_bytes(op)
        bandwidth = self.link.ramp_bandwidth(
            msg_bytes, self.calibration.msg_half_bytes
        ) * _LINK_EFF_PER_KIND.get(op.kind, 1.0)
        selected = select_algorithm(
            op, self.link, bandwidth, self.library.launch_overhead_s
        )
        wire = selected.wire_bytes
        duration = selected.duration_s
        wire_rate = wire / duration
        hbm_per_wire = (
            _HBM_PER_WIRE[op.kind] * self.calibration.hbm_wire_scale
        )
        # Both sent and received bytes hit HBM; wire counts sends only,
        # and receives are symmetric for ring algorithms, so the factor
        # table above is expressed per *sent* byte including receives.
        hbm_rate = wire_rate * hbm_per_wire
        hbm_rate = min(hbm_rate, self.hbm_effective_bandwidth)
        channel_util = self.library.channel_utilization(msg_bytes)
        sm_fraction = self.calibration.comm_sm_fraction * channel_util
        link_fraction = min(
            1.0, wire_rate / self.link.unidir_bytes_per_s
        )
        return CollectiveCost(
            duration_s=duration,
            wire_bytes=wire,
            hbm_bytes_per_s=hbm_rate,
            sm_fraction=sm_fraction,
            link_fraction=link_fraction,
            clock_sensitivity=self.calibration.comm_clock_sensitivity,
            algorithm=selected.algorithm.value,
        )
