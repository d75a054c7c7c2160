"""Figure generators, one module per paper figure.

| Module | Paper artifact |
|--------|----------------|
| fig1   | Overlap amount vs model/batch (FSDP on H100, PP on A100) |
| fig4   | Compute slowdowns across GPUs/models/batches/strategies |
| fig5   | E2E latency: ideal vs overlapped vs sequential |
| fig6   | Average/peak power vs TDP across the grid |
| fig7   | MI250 power time-trace during LLaMA2-13B training |
| fig8   | Matmul + 1 GB all-reduce microbenchmark |
| fig9   | Power capping on A100 x 4 |
| fig10  | FP32 vs FP16 slowdown and power |
| fig11  | Tensor-core (TF32) vs FP32 slowdown and power |

Each module exposes ``generate`` returning plain data rows and
``render(rows)`` producing the text report ``figure N`` prints;
:mod:`repro.harness.claims` reads the same rows. A module with a sweep
spec (Figs. 4-6 share :mod:`~repro.harness.figures.grid`'s; Figs. 9-11
and :mod:`~repro.harness.figures.degradation` have their own) exposes
``generate(cells)``, a pure function of the spec's cells as the
scenario runner resolved them. Figs. 1, 7 and 8 simulate directly and
expose ``generate(quick=...)``.
"""
