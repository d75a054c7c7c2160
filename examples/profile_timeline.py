"""Profiling a simulated iteration: kernel records, traces, power.

Runs one overlapped FSDP iteration on 4x MI250 (the paper's Fig. 7
system, whose AMD-SMI counter samples at 1 ms granularity), then:

* summarizes per-GPU compute/communication kernel time and the
  overlapped fractions, like the paper's PyTorch-profiler methodology;
* exports a Chrome trace (chrome://tracing / Perfetto) of the run;
* samples the power trace with the vendor counter emulation and prints
  an ASCII power timeline with overlap windows marked.

Run:
    python examples/profile_timeline.py [--out trace.json]
"""

import argparse

from repro.core.experiment import ExperimentConfig
from repro.power.sampling import amd_smi_fast_sampler
from repro.profiler.chrome_trace import write_chrome_trace
from repro.profiler.summary import summarize
from repro.sim.engine import simulate
from repro.sim.task import TaskCategory


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="trace.json", help="Chrome trace path")
    args = parser.parse_args()

    config = ExperimentConfig(
        gpu="MI250", model="llama2-13b", batch_size=8, strategy="fsdp"
    )
    node = config.node()
    from repro.parallel.strategy import build_plan

    plan = build_plan(
        node, config.model_spec(), config.shape(), config.strategy, overlap=True
    )
    result = simulate(node, plan, config.sim_config(seed=0))

    print(f"simulated {plan.name}: {len(result.records)} kernel records, "
          f"iteration {result.end_time_s * 1e3:.1f} ms")

    summary = summarize(result)
    for gpu in range(node.num_gpus):
        comp = summary.compute(gpu)
        comm = summary.comm(gpu)
        print(
            f"  gpu{gpu}: compute {comp.busy_time_s * 1e3:7.1f} ms "
            f"({comp.overlapped_fraction * 100:4.1f}% overlapped), "
            f"comm {comm.busy_time_s * 1e3:7.1f} ms "
            f"({comm.overlapped_fraction * 100:4.1f}% overlapped)"
        )

    write_chrome_trace(result, args.out)
    print(f"chrome trace written to {args.out}")

    # Vendor power-counter emulation: AMD-SMI's fine-grained 1 ms mode.
    sampler = amd_smi_fast_sampler()
    trace = sampler.sample(result.power_segments[0])
    tdp = node.gpu.tdp_w
    print(
        f"\ngpu0 power: avg {trace.average_w / tdp:.2f}x TDP, "
        f"peak {trace.peak_w / tdp:.2f}x TDP ({len(trace.samples)} samples)"
    )

    # Crude ASCII sparkline of the sampled trace.
    comm_windows = result.intervals(0, TaskCategory.COMM)
    blocks = " .:-=+*#%@"
    line = []
    marks = []
    for sample in trace.samples:
        level = min(0.999, sample.power_w / (1.3 * tdp))
        line.append(blocks[int(level * len(blocks))])
        in_comm = any(s <= sample.time_s <= e for s, e in comm_windows)
        marks.append("~" if in_comm else " ")
    width = 100
    step = max(1, len(line) // width)
    print("power:", "".join(line[::step]))
    print("comm: ", "".join(marks[::step]), "(~ = collective in flight)")


if __name__ == "__main__":
    main()
