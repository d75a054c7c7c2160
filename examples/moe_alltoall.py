"""Extension: all-to-all overlap in expert-parallel MoE training.

The paper's related work (Tutel, Lina, Lancet) overlaps the dispatch/
combine all-to-alls of Mixture-of-Experts layers with expert
computation by chunking the token buffers. This example builds an
expert-parallel GPT-3 XL MoE (8 experts, top-2) and compares:

* sequential all-to-alls (no chunking),
* chunked overlap with 2 and 4 chunks,

reporting iteration latency, how much all-to-all time gets hidden, and
what the hiding costs in expert-kernel slowdown — the same
contention-vs-hiding tradeoff the paper characterizes for FSDP and
pipeline collectives.

Run:
    python examples/moe_alltoall.py [--gpu H100] [--experts 8]
"""

import argparse

from repro.hw.system import make_node
from repro.parallel.expert import build_expert_parallel_plan
from repro.profiler.summary import summarize
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.task import TaskCategory
from repro.workloads.moe import MoESpec
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gpu", default="H100")
    parser.add_argument("--experts", type=int, default=8)
    parser.add_argument("--batch", type=int, default=32)
    args = parser.parse_args()

    node = make_node(args.gpu, 4)
    spec = MoESpec(base=get_model("gpt3-xl"), num_experts=args.experts, top_k=2)
    shape = TrainingShape(batch_size=args.batch)
    print(
        f"{spec.name} on {node.describe()}: "
        f"{spec.num_moe_layers} MoE layers, "
        f"{spec.num_params / 1e9:.1f}B total params"
    )

    header = (
        f"{'variant':<22} {'e2e_ms':>8} {'a2a_ms':>8} "
        f"{'a2a_hidden':>10} {'compute_ms':>10}"
    )
    print(header)
    print("-" * len(header))

    baseline_e2e = None
    for label, overlap, chunks in (
        ("sequential", False, 1),
        ("overlap, 2 chunks", True, 2),
        ("overlap, 4 chunks", True, 4),
    ):
        plan = build_expert_parallel_plan(
            node, spec, shape, overlap=overlap, num_chunks=chunks
        )
        result = simulate(node, plan, SimConfig())
        summary = summarize(result)
        comm = summary.comm(0)
        if baseline_e2e is None:
            baseline_e2e = result.end_time_s
        print(
            f"{label:<22} {result.end_time_s * 1e3:>8.1f} "
            f"{comm.busy_time_s * 1e3:>8.1f} "
            f"{comm.overlapped_fraction * 100:>9.1f}% "
            f"{result.total_time(TaskCategory.COMPUTE) * 1e3:>10.1f}"
        )

    print(
        "\nchunking hides all-to-all latency behind expert GEMMs, at the "
        "price of contention-slowed compute — the paper's core tradeoff, "
        "applied to MoE."
    )


if __name__ == "__main__":
    main()
