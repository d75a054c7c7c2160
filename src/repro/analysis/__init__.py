"""Analysis tools over experiment results.

* :mod:`repro.analysis.roofline` — per-kernel roofline reports: which
  kernels are compute- vs bandwidth-bound on which GPU, and how
  contention moves them.
* :mod:`repro.analysis.sensitivity` — one-factor sweeps over the
  contention-calibration coefficients, quantifying how much each
  mechanism contributes to the simulated slowdown.
* :mod:`repro.analysis.crossover` — locating the operating points where
  overlapped execution stops paying off (power-cap crossovers, batch
  trends).

The paper's takeaways are checked with its other claims in
:mod:`repro.harness.claims`.
"""

from repro.analysis.crossover import (
    batch_trend,
    find_cap_crossover,
    overlap_benefit,
)
from repro.analysis.roofline import RooflinePoint, roofline_report
from repro.analysis.sensitivity import (
    SensitivityPoint,
    sweep_parameter,
    tornado,
)

__all__ = [
    "RooflinePoint",
    "SensitivityPoint",
    "batch_trend",
    "find_cap_crossover",
    "overlap_benefit",
    "roofline_report",
    "sweep_parameter",
    "tornado",
]
