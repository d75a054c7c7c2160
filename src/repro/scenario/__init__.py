"""The declarative scenario API.

This package is how experiments are *specified* in this repo:

* :mod:`repro.scenario.spec` — :class:`SweepSpec`, a serializable
  description of a sweep (cross-product + zipped axes, fixed base
  overrides, declarative constraints, execution modes) that compiles
  deterministically to :class:`~repro.exec.job.SimJob` lists, and
  :func:`load_spec_file`, which reads one from a JSON spec file such
  as ``examples/scenarios/*.json``;
* :mod:`repro.scenario.registry` — the registry under which every
  paper artifact (figures, claims, sensitivity, crossover) is a named,
  runnable scenario: a spec plus a function of its resolved cells, or
  a spec-less generator;
* :mod:`repro.scenario.manifest` — :class:`ScenarioResult` manifests
  persisted next to the result cache, making scenario re-runs
  incremental;
* :mod:`repro.scenario.runner` — :func:`run_spec` /
  :func:`run_scenario`, the execution paths behind
  ``python -m repro scenario run`` (``--shard i/N`` included), where a
  scenario's cells are resolved once per run.
"""

from repro.scenario.manifest import (
    ManifestDiff,
    ScenarioResult,
    diff_manifests,
    load_manifest,
    load_manifest_file,
    manifest_path,
    save_manifest,
)
from repro.scenario.registry import (
    Scenario,
    get_scenario,
    list_scenarios,
    load_catalog,
    register_scenario,
)
from repro.scenario.runner import (
    ScenarioRunReport,
    ScenarioStatusReport,
    ShardStatus,
    generic_rows,
    render_generic,
    run_scenario,
    run_spec,
    scenario_status,
)
from repro.scenario.spec import (
    CONFIG_FIELDS,
    CONSTRAINT_OPS,
    Constraint,
    SweepSpec,
    config_from_overrides,
    load_spec_file,
)

__all__ = [
    "CONFIG_FIELDS",
    "CONSTRAINT_OPS",
    "Constraint",
    "ManifestDiff",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunReport",
    "ScenarioStatusReport",
    "ShardStatus",
    "SweepSpec",
    "config_from_overrides",
    "diff_manifests",
    "generic_rows",
    "get_scenario",
    "list_scenarios",
    "load_catalog",
    "load_manifest",
    "load_manifest_file",
    "load_spec_file",
    "manifest_path",
    "register_scenario",
    "render_generic",
    "run_scenario",
    "run_spec",
    "save_manifest",
    "scenario_status",
]
