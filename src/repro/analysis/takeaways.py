"""Programmatic validation of the paper's seven takeaways.

Each check runs the minimal set of fresh simulations needed to test one
takeaway's claim and reports whether it holds in this reproduction,
with the supporting numbers. ``validate_takeaways()`` runs all seven;
the bench suite asserts they all hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.experiment import ExperimentConfig
from repro.core.modes import ExecutionMode
from repro.exec.service import default_service
from repro.hw.datapath import Precision
from repro.scenario.registry import register_scenario
from repro.scenario.spec import SweepSpec


@dataclass(frozen=True)
class TakeawayCheck:
    """Outcome of validating one takeaway."""

    number: int
    statement: str
    holds: bool
    evidence: Dict[str, float]

    def render(self) -> str:
        verdict = "HOLDS" if self.holds else "VIOLATED"
        numbers = ", ".join(f"{k}={v:.4g}" for k, v in self.evidence.items())
        return f"Takeaway {self.number} [{verdict}]: {self.statement}\n    {numbers}"


def _run(config: ExperimentConfig):
    """Submit one cell through the (cached) execution service.

    Several takeaways probe the same baseline configs; the service's
    result cache collapses those into one simulation per distinct cell.
    """
    return default_service().run_config(
        config, modes=(ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)
    )


def check_takeaway_1(gpu: str = "A100", runs: int = 1) -> TakeawayCheck:
    """Complex collectives (FSDP) overlap more and slow down more than
    point-to-point strategies (pipeline)."""
    fsdp = _run(
        ExperimentConfig(
            gpu=gpu, model="gpt3-2.7b", batch_size=16, strategy="fsdp", runs=runs
        )
    )
    pipe = _run(
        ExperimentConfig(
            gpu=gpu,
            model="gpt3-2.7b",
            batch_size=16,
            strategy="pipeline",
            runs=runs,
        )
    )
    holds = (
        fsdp.metrics.compute_slowdown >= pipe.metrics.compute_slowdown
        and fsdp.metrics.overlap_ratio >= pipe.metrics.overlap_ratio
    )
    return TakeawayCheck(
        number=1,
        statement=(
            "strategies with complex collectives need more overlap and "
            "exhibit higher slowdowns"
        ),
        holds=holds,
        evidence={
            "fsdp_slowdown": fsdp.metrics.compute_slowdown,
            "pipeline_slowdown": pipe.metrics.compute_slowdown,
            "fsdp_overlap": fsdp.metrics.overlap_ratio,
            "pipeline_overlap": pipe.metrics.overlap_ratio,
        },
    )


def check_takeaway_2(gpu: str = "MI250", runs: int = 1) -> TakeawayCheck:
    """Larger models compound contention: slowdown grows with model size."""
    small = _run(
        ExperimentConfig(
            gpu=gpu, model="gpt3-xl", batch_size=8, strategy="fsdp", runs=runs
        )
    )
    large = _run(
        ExperimentConfig(
            gpu=gpu, model="gpt3-13b", batch_size=8, strategy="fsdp", runs=runs
        )
    )
    holds = large.metrics.compute_slowdown > small.metrics.compute_slowdown
    return TakeawayCheck(
        number=2,
        statement=(
            "larger memory footprint and model complexity compound "
            "contention and slowdown"
        ),
        holds=holds,
        evidence={
            "slowdown_1.3b": small.metrics.compute_slowdown,
            "slowdown_13b": large.metrics.compute_slowdown,
        },
    )


def check_takeaway_3(gpu: str = "H100", runs: int = 1) -> TakeawayCheck:
    """Overlap hides communication (beats sequential) but stays short
    of ideal."""
    result = default_service().run_config(
        ExperimentConfig(
            gpu=gpu, model="gpt3-6.7b", batch_size=16, strategy="fsdp", runs=runs
        )
    )
    m = result.metrics
    holds = (
        m.e2e_overlapping_s < m.e2e_sequential_measured_s
        and m.e2e_ideal_simulated_s is not None
        and m.e2e_overlapping_s > m.e2e_ideal_simulated_s
    )
    return TakeawayCheck(
        number=3,
        statement=(
            "overlap hides communication and beats sequential, but kernel "
            "slowdowns keep it short of ideal"
        ),
        holds=holds,
        evidence={
            "e2e_overlapped_ms": m.e2e_overlapping_s * 1e3,
            "e2e_sequential_ms": m.e2e_sequential_measured_s * 1e3,
            "e2e_ideal_ms": (m.e2e_ideal_simulated_s or 0.0) * 1e3,
        },
    )


def check_takeaway_4(gpu: str = "H100", runs: int = 1) -> TakeawayCheck:
    """Overlapping raises peak power versus sequential execution."""
    result = _run(
        ExperimentConfig(
            gpu=gpu, model="gpt3-6.7b", batch_size=16, strategy="fsdp", runs=runs
        )
    )
    _, peak_overlap = result.power_vs_tdp(ExecutionMode.OVERLAPPED)
    _, peak_seq = result.power_vs_tdp(ExecutionMode.SEQUENTIAL)
    holds = peak_overlap > peak_seq
    return TakeawayCheck(
        number=4,
        statement="overlapping increases peak power consumption",
        holds=holds,
        evidence={
            "peak_overlap_tdp": peak_overlap,
            "peak_sequential_tdp": peak_seq,
        },
    )


def check_takeaway_5(gpu: str = "A100", runs: int = 1) -> TakeawayCheck:
    """Power caps amplify the contention slowdown."""
    uncapped = _run(
        ExperimentConfig(
            gpu=gpu, model="gpt3-2.7b", batch_size=16, strategy="fsdp", runs=runs
        )
    )
    capped = _run(
        ExperimentConfig(
            gpu=gpu,
            model="gpt3-2.7b",
            batch_size=16,
            strategy="fsdp",
            power_limit_w=150.0,
            runs=runs,
        )
    )
    holds = (
        capped.metrics.e2e_overlapping_s > uncapped.metrics.e2e_overlapping_s
    )
    return TakeawayCheck(
        number=5,
        statement="power constraints contribute to contention slowdowns",
        holds=holds,
        evidence={
            "e2e_uncapped_ms": uncapped.metrics.e2e_overlapping_s * 1e3,
            "e2e_150w_ms": capped.metrics.e2e_overlapping_s * 1e3,
        },
    )


def check_takeaway_6(gpu: str = "A100") -> TakeawayCheck:
    """The microbenchmark shows overlap raising power and slowing the GEMM."""
    from repro.core.microbench import run_microbench
    from repro.hw.system import make_node

    r = run_microbench(make_node(gpu, 4), 8192)
    holds = (
        r.slowdown > 0
        and r.peak_power_overlap_w > r.peak_power_isolated_w
        and r.avg_power_overlap_w > r.avg_power_isolated_w
    )
    return TakeawayCheck(
        number=6,
        statement=(
            "overlapping increases power and intensifies contention, "
            "especially near TDP"
        ),
        holds=holds,
        evidence={
            "gemm_slowdown": r.slowdown,
            "peak_power_increase": r.peak_power_increase,
        },
    )


def check_takeaway_7(gpu: str = "H100", runs: int = 1) -> TakeawayCheck:
    """Lower precision cuts peak power for small workloads but raises
    overlap ratios (and with them contention) when applied to the same
    workload — the paper's FP16-vs-FP32 comparison of Fig. 10."""

    def pair(model: str, batch: int):
        fp32 = _run(
            ExperimentConfig(
                gpu=gpu,
                model=model,
                batch_size=batch,
                strategy="fsdp",
                precision=Precision.FP32,
                use_tensor_cores=False,
                runs=runs,
            )
        )
        fp16 = _run(
            ExperimentConfig(
                gpu=gpu,
                model=model,
                batch_size=batch,
                strategy="fsdp",
                precision=Precision.FP16,
                runs=runs,
            )
        )
        return fp32, fp16

    fp32_small, fp16_small = pair("gpt3-xl", 8)
    fp32_large, fp16_large = pair("gpt3-6.7b", 16)
    _, peak_fp32_small = fp32_small.power_vs_tdp(ExecutionMode.OVERLAPPED)
    _, peak_fp16_small = fp16_small.power_vs_tdp(ExecutionMode.OVERLAPPED)
    holds = (
        # FP16 samples lower peak power on the small workload...
        peak_fp16_small < peak_fp32_small
        # ...but raises the overlap ratio on the large one, which is
        # the contention-intensifying mechanism...
        and fp16_large.metrics.overlap_ratio
        > fp32_large.metrics.overlap_ratio
        # ...and does not reduce the slowdown there.
        and fp16_large.metrics.compute_slowdown
        >= fp32_large.metrics.compute_slowdown - 0.005
    )
    return TakeawayCheck(
        number=7,
        statement=(
            "lower precision and specialized datapaths improve efficiency "
            "but intensify contention for larger workloads"
        ),
        holds=holds,
        evidence={
            "small_peak_fp32_tdp": peak_fp32_small,
            "small_peak_fp16_tdp": peak_fp16_small,
            "overlap_large_fp32": fp32_large.metrics.overlap_ratio,
            "overlap_large_fp16": fp16_large.metrics.overlap_ratio,
            "slowdown_large_fp32": fp32_large.metrics.compute_slowdown,
            "slowdown_large_fp16": fp16_large.metrics.compute_slowdown,
        },
    )


def scenario_spec(quick: bool = True, runs: int = 1) -> SweepSpec:
    """Every cell the seven takeaway checks probe, as explicit includes.

    The checks' logic is pairwise comparisons across heterogeneous
    cells, so the spec is include-only (no cross-product). Drift
    between this list and the checks only costs parallelism, never
    correctness — a missed cell simply simulates serially inside its
    check.
    """
    two = ["overlapped", "sequential"]
    three = two + ["ideal"]
    return SweepSpec(
        name="takeaways",
        description="cells probed by the seven takeaway checks",
        base={"runs": runs},
        include=[
            # Takeaways 1 and 5 (A100 FSDP/pipeline, power cap).
            {"gpu": "A100", "model": "gpt3-2.7b", "batch_size": 16,
             "strategy": "fsdp", "modes": two},
            {"gpu": "A100", "model": "gpt3-2.7b", "batch_size": 16,
             "strategy": "pipeline", "modes": two},
            {"gpu": "A100", "model": "gpt3-2.7b", "batch_size": 16,
             "strategy": "fsdp", "power_limit_w": 150.0, "modes": two},
            # Takeaway 2 (MI250 model scaling).
            {"gpu": "MI250", "model": "gpt3-xl", "batch_size": 8,
             "strategy": "fsdp", "modes": two},
            {"gpu": "MI250", "model": "gpt3-13b", "batch_size": 8,
             "strategy": "fsdp", "modes": two},
            # Takeaways 3 and 4 (H100 6.7B; 3 checks all three modes).
            {"gpu": "H100", "model": "gpt3-6.7b", "batch_size": 16,
             "strategy": "fsdp", "modes": three},
            {"gpu": "H100", "model": "gpt3-6.7b", "batch_size": 16,
             "strategy": "fsdp", "modes": two},
            # Takeaway 7 (precision pairs; the FP16 large cell is above).
            {"gpu": "H100", "model": "gpt3-xl", "batch_size": 8,
             "strategy": "fsdp", "precision": "fp32",
             "use_tensor_cores": False, "modes": two},
            {"gpu": "H100", "model": "gpt3-xl", "batch_size": 8,
             "strategy": "fsdp", "precision": "fp16", "modes": two},
            {"gpu": "H100", "model": "gpt3-6.7b", "batch_size": 16,
             "strategy": "fsdp", "precision": "fp32",
             "use_tensor_cores": False, "modes": two},
        ],
        modes=two,
    )


def prefetch_takeaway_cells(runs: int = 1) -> None:
    """Warm the result cache for every takeaway check in one batch.

    The individual checks submit cells one at a time (their logic is
    pairwise comparisons), which a parallel executor cannot fan out.
    Prefetching the scenario spec's compiled jobs lets ``--jobs N``
    simulate all distinct cells concurrently; the checks then resolve
    from cache.
    """
    default_service().prefetch(scenario_spec(runs=runs).compile())


def validate_takeaways(runs: int = 1) -> List[TakeawayCheck]:
    """Run all seven takeaway checks."""
    prefetch_takeaway_cells(runs=runs)
    return [
        check_takeaway_1(runs=runs),
        check_takeaway_2(runs=runs),
        check_takeaway_3(runs=runs),
        check_takeaway_4(runs=runs),
        check_takeaway_5(runs=runs),
        check_takeaway_6(),
        check_takeaway_7(runs=runs),
    ]


def render_takeaways(checks: List[TakeawayCheck]) -> str:
    """Multi-line report of all takeaway verdicts."""
    return "\n".join(c.render() for c in checks)


def scenario_generate(quick: bool = True) -> List[Dict[str, object]]:
    """JSON-able rows, one per takeaway verdict."""
    return [
        {
            "number": check.number,
            "statement": check.statement,
            "holds": check.holds,
            "evidence": dict(check.evidence),
        }
        for check in validate_takeaways(runs=1)
    ]


def scenario_render(rows: List[Dict[str, object]]) -> str:
    """The same report ``render_takeaways`` prints, from plain rows."""
    return render_takeaways(
        [
            TakeawayCheck(
                number=row["number"],
                statement=row["statement"],
                holds=row["holds"],
                evidence=dict(row["evidence"]),
            )
            for row in rows
        ]
    )


register_scenario(
    "takeaways",
    description="validate the paper's seven takeaways",
    spec=scenario_spec,
    generate=scenario_generate,
    render=scenario_render,
)
