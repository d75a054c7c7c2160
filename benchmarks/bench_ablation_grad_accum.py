"""Gradient-accumulation ablation (paper Section II-B's mitigation).

Compares processing a fixed number of samples as (a) K independent
small-batch FSDP iterations vs (b) one iteration with K accumulation
micro-steps whose reduce-scatters are deferred to the last step. The
deferral trades K-1 rounds of gradient communication for repeated
parameter gathers — a net win whenever reduce-scatter traffic dominates.
"""

from conftest import run_once

from repro.hw.system import make_node
from repro.parallel.fsdp import build_fsdp_plan
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.task import TaskCategory
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape

NODE = make_node("MI210", 4)
MODEL = get_model("gpt3-2.7b")
TOTAL_BATCH = 32
CONFIG = SimConfig(trace_power=False, jitter_sigma=0.0)


def _sweep():
    rows = []
    for accum in (1, 2, 4):
        # Same total samples either way: accum micro-steps of batch
        # TOTAL_BATCH, or `accum` separate iterations of TOTAL/accum.
        plan = build_fsdp_plan(
            NODE,
            MODEL,
            TrainingShape(batch_size=TOTAL_BATCH),
            grad_accum_steps=accum,
        )
        result = simulate(NODE, plan, CONFIG)
        separate = build_fsdp_plan(
            NODE,
            MODEL,
            TrainingShape(batch_size=TOTAL_BATCH // accum),
            grad_accum_steps=1,
        )
        t_separate = simulate(NODE, separate, CONFIG).end_time_s * accum
        rows.append(
            {
                "accum": accum,
                "e2e_ms": result.end_time_s * 1e3,
                "equivalent_small_iters_ms": t_separate * 1e3,
                "comm_ms": result.total_time(TaskCategory.COMM) * 1e3,
            }
        )
    return rows


def test_grad_accumulation_mitigation(benchmark):
    rows = run_once(benchmark, _sweep)
    print()
    print(
        f"{'accum':>5} {'e2e_ms':>9} {'K_small_iters_ms':>17} {'comm_ms':>8}"
    )
    for r in rows:
        print(
            f"{r['accum']:>5} {r['e2e_ms']:>9.1f} "
            f"{r['equivalent_small_iters_ms']:>17.1f} {r['comm_ms']:>8.1f}"
        )

    # Accumulation always beats running the micro-steps as separate
    # iterations (the deferred reduce-scatter saves K-1 gradient syncs).
    for r in rows:
        if r["accum"] > 1:
            assert r["e2e_ms"] < r["equivalent_small_iters_ms"], r
