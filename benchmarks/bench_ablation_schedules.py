"""Pipeline schedule ablation: GPipe vs 1F1B memory/latency tradeoff.

The paper's background (Section II-B) contrasts GPipe's flush schedule
with PipeDream-style interleaving; this ablation quantifies the
tradeoff in this reproduction: equal arithmetic and similar wall-clock,
but 1F1B bounds live activations by the stage depth instead of the
microbatch count — which decides whether big batches fit at all.
"""

from conftest import run_once

from repro.core.feasibility import check_feasibility
from repro.hw.system import make_node
from repro.parallel.pipeline import build_pipeline_plan
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.units import GIB
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape

NODE = make_node("A100", 4)
MODEL = get_model("gpt3-2.7b")


def _sweep():
    rows = []
    for batch in (16, 64):
        shape = TrainingShape(batch_size=batch)
        for schedule in ("gpipe", "1f1b"):
            plan = build_pipeline_plan(NODE, MODEL, shape, schedule=schedule)
            result = simulate(
                NODE, plan, SimConfig(trace_power=False, jitter_sigma=0.0)
            )
            feas = check_feasibility(
                NODE, MODEL, shape, "pipeline", pipeline_schedule=schedule
            )
            rows.append(
                {
                    "batch": batch,
                    "schedule": schedule,
                    "e2e_ms": result.end_time_s * 1e3,
                    "activation_gib": feas.footprint.activation_bytes / GIB,
                    "fits": feas.fits,
                }
            )
    return rows


def test_schedule_tradeoff(benchmark):
    rows = run_once(benchmark, _sweep)
    print()
    print(f"{'batch':>5} {'schedule':>9} {'e2e_ms':>9} {'act_GiB':>8} {'fits':>5}")
    for r in rows:
        print(
            f"{r['batch']:>5} {r['schedule']:>9} {r['e2e_ms']:>9.1f} "
            f"{r['activation_gib']:>8.2f} {str(r['fits']):>5}"
        )

    by = {(r["batch"], r["schedule"]): r for r in rows}
    for batch in (16, 64):
        gpipe, f1b1 = by[(batch, "gpipe")], by[(batch, "1f1b")]
        # Similar wall-clock (same flush bubble)...
        assert f1b1["e2e_ms"] == gpipe["e2e_ms"] * (1 + 0.05) or (
            abs(f1b1["e2e_ms"] - gpipe["e2e_ms"]) / gpipe["e2e_ms"] < 0.05
        )
        # ...but 1F1B needs no more activation memory.
        assert f1b1["activation_gib"] <= gpipe["activation_gib"] + 1e-9

    # The memory gap widens with batch size: GPipe keeps all
    # microbatches live, 1F1B keeps only the stage depth.
    gap16 = (
        by[(16, "gpipe")]["activation_gib"]
        - by[(16, "1f1b")]["activation_gib"]
    )
    gap64 = (
        by[(64, "gpipe")]["activation_gib"]
        - by[(64, "1f1b")]["activation_gib"]
    )
    assert gap64 > gap16
