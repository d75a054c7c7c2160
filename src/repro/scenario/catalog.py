"""Imports every module that registers a paper-artifact scenario.

Registration happens at import time (each artifact module calls
:func:`~repro.scenario.registry.register_scenario` at its bottom);
importing this module therefore populates the registry with the full
catalog: figures 1 and 4-11, the paper's claims checked against them,
the sensitivity tornado, and the crossover search. Loaded lazily via
:func:`repro.scenario.registry.load_catalog` because the harness and
analysis layers sit *above* the scenario package.
"""

from __future__ import annotations

# Figure artifacts (Figs. 1, 4-11).
import repro.harness.figures.fig1  # noqa: F401
import repro.harness.figures.fig4  # noqa: F401
import repro.harness.figures.fig5  # noqa: F401
import repro.harness.figures.fig6  # noqa: F401
import repro.harness.figures.fig7  # noqa: F401
import repro.harness.figures.fig8  # noqa: F401
import repro.harness.figures.fig9  # noqa: F401
import repro.harness.figures.fig10  # noqa: F401
import repro.harness.figures.fig11  # noqa: F401

# Degradation artifacts (fault/perturbation injection grids).
import repro.harness.figures.degradation  # noqa: F401

# The paper's claims, read off the figure scenarios (EXPERIMENTS.md).
import repro.harness.claims  # noqa: F401

# Analysis artifacts.
import repro.analysis.crossover  # noqa: F401
import repro.analysis.sensitivity  # noqa: F401
