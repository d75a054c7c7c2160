"""The experiment runner: N-run averaged mode comparisons.

One :class:`ExperimentConfig` describes a cell of the paper's sweeps
(GPU x model x batch x strategy x precision x power limit). Running it
simulates the overlapped, sequential and ideal scenarios ``runs`` times
with different jitter seeds (the paper averages over 25 runs) and
reports averaged metrics plus vendor-sampled power statistics.

Every run goes through the bit-exact incremental engine, or through
the reference oracle under ``$REPRO_SIM_ENGINE=reference``; the two
produce identical numbers, so a cell's job cache key fixes its
results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.feasibility import FeasibilityReport, check_feasibility
from repro.core.metrics import OverlapMetrics, compute_metrics
from repro.core.modes import ExecutionMode
from repro.errors import InfeasibleConfigError
from repro.hw.calibration import ContentionCalibration
from repro.hw.datapath import Precision, resolve_path
from repro.hw.system import NodeSpec, make_node
from repro.power.sampling import sampler_for
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.perturb import PerturbationSpec, normalize_perturbations
from repro.sim.result import SimulationResult
from repro.sim.task import TaskCategory
from repro.workloads.registry import get_model
from repro.workloads.spec import ModelSpec
from repro.workloads.transformer import TrainingShape

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.planning import Planner

#: Environment variable selecting the simulation engine
#: (``reference`` = full-recompute baseline; anything else =
#: incremental). Both engines produce bit-identical results.
SIM_ENGINE_ENV = "REPRO_SIM_ENGINE"


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the evaluation grid."""

    gpu: str
    model: str
    batch_size: int
    strategy: str = "fsdp"
    num_gpus: int = 4
    seq_len: int = 1024
    precision: Precision = Precision.FP16
    use_tensor_cores: bool = True
    activation_checkpointing: bool = False
    microbatch_size: Optional[int] = None
    pipeline_schedule: str = "gpipe"
    runs: int = 3
    base_seed: int = 0
    jitter_sigma: float = 0.02
    power_limit_w: Optional[float] = None
    max_clock_frac: float = 1.0
    check_memory: bool = True
    calibration: Optional[ContentionCalibration] = None
    #: Degradation windows (stragglers, slow HBM, flaky links, thermal
    #: throttling — see :mod:`repro.sim.perturb`) injected into every
    #: run of this cell. Accepted as specs or plain mappings and
    #: normalized to a validated tuple of :class:`PerturbationSpec`,
    #: so configs stay hashable and the windows hash into job cache
    #: keys. Empty (the default) is the fault-free world and is
    #: omitted from cache keys, keeping them stable for existing
    #: caches.
    perturbations: Tuple[PerturbationSpec, ...] = ()

    def __post_init__(self) -> None:
        from repro.errors import ConfigurationError

        object.__setattr__(
            self, "perturbations", normalize_perturbations(self.perturbations)
        )
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.num_gpus < 1:
            raise ConfigurationError("num_gpus must be >= 1")
        if self.seq_len < 1:
            raise ConfigurationError("seq_len must be >= 1")
        if self.runs < 1:
            raise ConfigurationError("runs must be >= 1")
        if self.jitter_sigma < 0:
            raise ConfigurationError("jitter_sigma must be >= 0")
        if self.power_limit_w is not None and self.power_limit_w <= 0:
            raise ConfigurationError("power_limit_w must be positive")
        if not 0.0 < self.max_clock_frac <= 1.0:
            raise ConfigurationError("max_clock_frac must be in (0, 1]")
        if self.microbatch_size is not None and self.microbatch_size < 1:
            raise ConfigurationError("microbatch_size must be >= 1")

    def node(self) -> NodeSpec:
        """The target system (with any calibration override applied)."""
        return make_node(self.gpu, self.num_gpus, calibration=self.calibration)

    def model_spec(self) -> ModelSpec:
        """The workload's architecture."""
        return get_model(self.model)

    def shape(self) -> TrainingShape:
        """Per-iteration training shape (global batch)."""
        return TrainingShape(
            batch_size=self.batch_size,
            seq_len=self.seq_len,
            path=resolve_path(self.precision, self.use_tensor_cores),
            activation_checkpointing=self.activation_checkpointing,
        )

    def sim_config(self, seed: int, ideal: bool = False) -> SimConfig:
        """Simulator configuration for one run.

        ``$REPRO_SIM_ENGINE=reference`` routes every simulation through
        the full-recompute reference engine (the correctness oracle and
        perf baseline); it is bit-exact, which is why it is safe to
        leave out of the job cache key.
        """
        reference = (
            os.environ.get(SIM_ENGINE_ENV, "").strip().lower() == "reference"
        )
        return SimConfig(  # repro: allow[C205] governor period, power tracing, and the sim-time wall are methodology constants; changing them is a CACHE_SCHEMA_VERSION bump, not a per-cell knob
            contention_enabled=not ideal,
            power_limit_w=self.power_limit_w,
            max_clock_frac=self.max_clock_frac,
            jitter_sigma=self.jitter_sigma,
            seed=seed,
            reference_engine=reference,
            perturbations=self.perturbations,
        )

    def with_updates(self, **kwargs) -> "ExperimentConfig":
        """Functional update helper for sweeps."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Short label for tables and logs."""
        tc = "tc" if self.use_tensor_cores else "noTC"
        cap = f" cap={self.power_limit_w:.0f}W" if self.power_limit_w else ""
        perturbed = (
            f" +{len(self.perturbations)}pert" if self.perturbations else ""
        )
        return (
            f"{self.gpu}x{self.num_gpus} {self.model} b{self.batch_size} "
            f"{self.strategy} {self.precision.value}/{tc}{cap}{perturbed}"
        )


@dataclass
class ModeStats:
    """Averaged per-mode measurements."""

    mode: ExecutionMode
    e2e_s: float
    compute_s: float
    comm_s: float
    avg_power_w: float
    peak_power_w: float
    energy_j: float
    min_clock_frac: float
    e2e_samples: List[float] = field(default_factory=list)

    @property
    def e2e_std_s(self) -> float:
        """Run-to-run standard deviation of iteration latency."""
        n = len(self.e2e_samples)
        if n < 2:
            return 0.0
        mean = sum(self.e2e_samples) / n
        var = sum((x - mean) ** 2 for x in self.e2e_samples) / (n - 1)
        return var ** 0.5


@dataclass
class ExperimentResult:
    """Everything measured for one configuration."""

    config: ExperimentConfig
    modes: Dict[ExecutionMode, ModeStats]
    metrics: OverlapMetrics
    feasibility: FeasibilityReport

    @property
    def tdp_w(self) -> float:
        return self.config.node().gpu.tdp_w

    def power_vs_tdp(self, mode: ExecutionMode) -> Tuple[float, float]:
        """(avg, peak) sampled power as fractions of TDP."""
        stats = self.modes[mode]
        tdp = self.tdp_w
        return stats.avg_power_w / tdp, stats.peak_power_w / tdp


def _sampled_power(result: SimulationResult, node: NodeSpec) -> Tuple[float, float]:
    """Vendor-sampled (avg, peak) power averaged over GPUs."""
    sampler = sampler_for(node.gpu.vendor)
    avgs: List[float] = []
    peaks: List[float] = []
    for gpu in range(node.num_gpus):
        segments = result.power_segments.get(gpu, [])
        trace = sampler.sample(segments)
        if trace.samples:
            avgs.append(trace.average_w)
            peaks.append(trace.peak_w)
        elif segments:
            # Iteration shorter than one sampling interval: the counter
            # reports one end-of-run averaged value.
            total_e = sum(s.energy_j for s in segments)
            duration = max(s.end_s for s in segments)
            if duration > 0:
                avgs.append(total_e / duration)
                peaks.append(total_e / duration)
    if not avgs:
        return 0.0, 0.0
    return sum(avgs) / len(avgs), max(peaks)


def run_experiment(
    config: ExperimentConfig,
    modes: Tuple[ExecutionMode, ...] = (
        ExecutionMode.OVERLAPPED,
        ExecutionMode.SEQUENTIAL,
        ExecutionMode.IDEAL,
    ),
    planner: Optional["Planner"] = None,
) -> ExperimentResult:
    """Run one grid cell: all requested modes, ``config.runs`` times.

    Plans, nodes and collective cost models come from ``planner``
    (default: the process-wide shared one), so cells that agree on
    (node, model, shape, strategy) never rebuild them.

    Raises :class:`InfeasibleConfigError` when the workload does not fit
    in device memory (mirroring the OOM the paper's sweeps hit on the
    A100 beyond GPT-3 2.7B).
    """
    if planner is None:
        # Function-level import: repro.exec sits above the core layer.
        from repro.exec.planning import default_planner

        planner = default_planner()
    node = planner.node_for(config)
    model = config.model_spec()
    shape = config.shape()
    feasibility = check_feasibility(
        node, model, shape, config.strategy, config.microbatch_size
    )
    if config.check_memory and not feasibility.fits:
        raise InfeasibleConfigError(feasibility.reason)

    plans = {}
    for mode in modes:
        overlap = mode is not ExecutionMode.SEQUENTIAL
        if overlap not in plans:
            plans[overlap] = planner.plan_for(config, overlap=overlap)
    cost_model = planner.cost_model_for(config)

    per_mode_runs: Dict[ExecutionMode, List[SimulationResult]] = {
        mode: [] for mode in modes
    }
    for run_index in range(config.runs):
        seed = config.base_seed + run_index
        for mode in modes:
            overlap = mode is not ExecutionMode.SEQUENTIAL
            sim_config = config.sim_config(
                seed, ideal=mode is ExecutionMode.IDEAL
            )
            # The prepared sim is invariant to the mode's ideal flag
            # (keyed on seed/sigma/clock cap only), so all modes of a
            # run share the planner-cached build.
            prep = planner.prepared_for(config, overlap, seed)
            result = simulate(
                node,
                plans[overlap],
                sim_config,
                cost_model=cost_model,
                prepared=prep,
            )
            per_mode_runs[mode].append(result)

    stats: Dict[ExecutionMode, ModeStats] = {}
    for mode, results in per_mode_runs.items():
        powers = [_sampled_power(r, node) for r in results]
        stats[mode] = ModeStats(
            mode=mode,
            e2e_s=_mean([r.end_time_s for r in results]),
            compute_s=_mean(
                [r.total_time(TaskCategory.COMPUTE) for r in results]
            ),
            comm_s=_mean([r.total_time(TaskCategory.COMM) for r in results]),
            avg_power_w=_mean([p[0] for p in powers]),
            peak_power_w=max(p[1] for p in powers),
            energy_j=_mean([r.energy_j() for r in results]),
            min_clock_frac=min(r.min_clock_frac_seen for r in results),
            e2e_samples=[r.end_time_s for r in results],
        )

    metrics = _averaged_metrics(per_mode_runs, modes)
    return ExperimentResult(
        config=config, modes=stats, metrics=metrics, feasibility=feasibility
    )


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _averaged_metrics(
    per_mode_runs: Dict[ExecutionMode, List[SimulationResult]],
    modes: Tuple[ExecutionMode, ...],
) -> OverlapMetrics:
    """Per-run Eq. 1-5 metrics, averaged field-wise over runs."""
    overlapped = per_mode_runs.get(ExecutionMode.OVERLAPPED, [])
    sequential = per_mode_runs.get(ExecutionMode.SEQUENTIAL, [])
    ideal = per_mode_runs.get(ExecutionMode.IDEAL, [])
    if not overlapped or not sequential:
        raise InfeasibleConfigError(
            "metrics need both overlapped and sequential modes"
        )
    per_run: List[OverlapMetrics] = []
    for i in range(min(len(overlapped), len(sequential))):
        per_run.append(
            compute_metrics(
                overlapped[i],
                sequential[i],
                ideal[i] if i < len(ideal) else None,
            )
        )
    n = len(per_run)
    ideal_values = [
        m.e2e_ideal_simulated_s
        for m in per_run
        if m.e2e_ideal_simulated_s is not None
    ]
    return OverlapMetrics(
        compute_overlapping_s=sum(m.compute_overlapping_s for m in per_run) / n,
        compute_sequential_s=sum(m.compute_sequential_s for m in per_run) / n,
        comm_total_s=sum(m.comm_total_s for m in per_run) / n,
        overlapped_comm_s=sum(m.overlapped_comm_s for m in per_run) / n,
        overlap_ratio=sum(m.overlap_ratio for m in per_run) / n,
        e2e_overlapping_s=sum(m.e2e_overlapping_s for m in per_run) / n,
        e2e_sequential_measured_s=sum(
            m.e2e_sequential_measured_s for m in per_run
        )
        / n,
        e2e_ideal_simulated_s=(
            sum(ideal_values) / len(ideal_values) if ideal_values else None
        ),
    )
