"""Registry completeness, scenario runs and manifests.

The acceptance criteria of the scenario API redesign:

* ``scenario list`` names every paper figure/analysis artifact;
* ``scenario run fig4`` reproduces byte-identical rows to ``figure 4``;
* a run resolves each compiled cell once, in one executor batch;
* re-running a scenario against a warm on-disk cache + manifest
  performs zero new simulations.
"""

import json

import pytest

from repro.errors import UnknownSpecError
from repro.exec.executors import SerialExecutor
from repro.exec.service import configure, default_service, reset_default_service
from repro.scenario import (
    get_scenario,
    list_scenarios,
    load_manifest,
    run_scenario,
    run_spec,
)
from repro.scenario.spec import SweepSpec

EXPECTED_SCENARIOS = {
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "claims",
    "sensitivity",
    "crossover",
}


def test_every_paper_artifact_is_registered():
    names = {scenario.name for scenario in list_scenarios()}
    assert EXPECTED_SCENARIOS <= names


def test_unknown_scenario_lists_known_names():
    with pytest.raises(UnknownSpecError, match="fig4"):
        get_scenario("fig99")


def test_spec_backed_scenarios_compile():
    for scenario in list_scenarios():
        spec = scenario.spec(quick=True)
        if spec is None:
            assert scenario.name in {"fig1", "fig7", "fig8", "claims"}
            continue
        jobs = spec.compile()
        assert jobs, scenario.name
        # Specs must survive a serialization round-trip unchanged.
        clone = SweepSpec.from_dict(spec.to_dict())
        assert [j.cache_key() for j in clone.compile()] == [
            j.cache_key() for j in jobs
        ]


def test_scenario_run_fig4_matches_figure_generate():
    from repro.harness.figures import fig4

    # Resolve first: it warms the default service's cache, so the
    # scenario run's batch of the same 48 jobs resolves without
    # re-simulating (cheap even when this file runs standalone).
    direct = fig4.generate(run_spec(fig4.grid_spec(quick=True)))
    report = run_scenario("fig4")
    assert json.dumps(report.rows, sort_keys=True) == json.dumps(
        direct, sort_keys=True
    )
    assert report.text == fig4.render(direct)


SPEC_BACKED = (
    "crossover",
    "degrade_linkfail",
    "degrade_straggler",
    "fig4",
    "fig5",
    "fig6",
    "fig9",
    "fig10",
    "fig11",
    "sensitivity",
)


def test_scenario_run_resolves_each_cell_once():
    """The runner's batch is a run's only resolution of its cells: a
    scenario's generator only shapes them."""
    service = default_service()
    for name in SPEC_BACKED:
        before = service.stats.submitted
        report = run_scenario(name)
        assert report.cells > 0, name
        assert service.stats.submitted - before == report.cells, name


class _BatchCounter(SerialExecutor):
    """Serial execution that records the size of every batch."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def _run_batch(self, jobs):
        self.batches.append(len(jobs))
        return super()._run_batch(jobs)


@pytest.mark.parametrize("name", ["crossover", "sensitivity"])
def test_uncached_scenario_hands_the_executor_one_batch(name):
    try:
        service = configure(cache=False, cache_dir=None, executor=None)
        service.executor = counter = _BatchCounter()
        report = run_scenario(name)
        assert counter.batches == [report.cells]
    finally:
        reset_default_service()


def test_scenario_rerun_with_manifest_simulates_nothing(tmp_path):
    try:
        configure(cache=True, cache_dir=str(tmp_path))
        first = run_scenario("fig9")
        assert first.cells == 3
        assert first.simulated == 3
        assert first.previously_completed == 0
        assert first.manifest_file is not None
        manifest = load_manifest(tmp_path, "fig9")
        assert manifest is not None
        assert manifest.spec_hash == first.spec.spec_hash()
        assert manifest.job_keys == [
            job.cache_key() for job in first.spec.compile()
        ]

        # A fresh service (empty memory tier) against the same disk
        # cache: the manifest knows every cell and nothing simulates.
        configure(cache=True, cache_dir=str(tmp_path))
        second = run_scenario("fig9")
        assert second.simulated == 0
        assert second.previously_completed == second.cells == 3
    finally:
        reset_default_service()


def test_file_spec_runs_and_only_new_cells_simulate(tmp_path):
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(
        json.dumps(
            {
                "name": "sweep",
                "base": {"gpu": "A100", "model": "gpt3-xl", "runs": 1},
                "axes": [{"batch_size": [8]}],
                "modes": ["overlapped", "sequential"],
            }
        )
    )
    cache_dir = tmp_path / "cache"
    try:
        configure(cache=True, cache_dir=str(cache_dir))
        first = run_scenario(str(spec_file))
        assert first.name == "sweep"
        assert first.simulated == 1
        assert first.rows[0]["compute_slowdown"] is not None

        # Growing the spec re-simulates only the new cell.
        spec_file.write_text(
            spec_file.read_text().replace("[8]", "[8, 16]")
        )
        configure(cache=True, cache_dir=str(cache_dir))
        second = run_scenario(str(spec_file))
        assert second.cells == 2
        assert second.simulated == 1
        assert second.previously_completed == 1
    finally:
        reset_default_service()


def test_infeasible_cells_come_back_skipped():
    spec = SweepSpec(
        base={"gpu": "A100", "runs": 1},
        axes=[{"model": ["gpt3-xl", "gpt3-13b"]}, {"batch_size": [8]}],
        modes=("overlapped", "sequential"),
    )
    rows = run_spec(spec)
    assert rows[0].ran
    assert not rows[1].ran
    assert "memory" in rows[1].skipped_reason


def test_specless_scenarios_report_no_manifest():
    scenario = get_scenario("fig8")
    assert scenario.spec(quick=True) is None
    report = run_scenario("fig8")
    assert report.cells == 0
    assert report.manifest is None
    assert "Fig. 8" in report.text


def test_file_spec_compiling_to_zero_jobs_reports_cleanly(tmp_path):
    spec_file = tmp_path / "empty.json"
    spec_file.write_text(
        json.dumps(
            {
                "base": {"gpu": "A100"},
                "axes": [{"batch_size": [8]}],
                "constraints": [
                    {"field": "batch_size", "op": "ge", "value": 16}
                ],
            }
        )
    )
    report = run_scenario(str(spec_file))
    assert report.cells == 0
    assert report.simulated == 0
    assert report.rows == []


def test_duplicate_registration_is_rejected():
    from repro.errors import ConfigurationError
    from repro.scenario.registry import load_catalog, register_scenario

    load_catalog()  # fig9's real registration must exist first
    with pytest.raises(ConfigurationError, match="already registered"):
        register_scenario("fig9", generate=lambda quick=True: [])


def test_missing_spec_file_path_reports_file_not_found():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="spec file not found"):
        run_scenario("no/such/dir/sweep.json")
    with pytest.raises(ConfigurationError, match="spec file not found"):
        run_scenario("missing.json")


# ----------------------------------------------------------------------
# scenario --set plumbing
# ----------------------------------------------------------------------


def test_parse_set_overrides_types():
    from repro.errors import ConfigurationError
    from repro.scenario.runner import parse_set_overrides

    overrides = parse_set_overrides(
        ["gpu=H100", "batch_size=16", "jitter_sigma=0.5",
         "runs=1", "power_limit_w=null"]
    )
    assert overrides == {
        "gpu": "H100",
        "batch_size": 16,
        "jitter_sigma": 0.5,
        "runs": 1,
        "power_limit_w": None,
    }
    with pytest.raises(ConfigurationError):
        parse_set_overrides(["no-equals-sign"])


def test_with_base_overrides_applies_to_every_cell():
    from repro.errors import ConfigurationError

    spec = SweepSpec(
        name="t",
        base={"gpu": "A100"},
        axes={"batch_size": [8, 16]},
    )
    overridden = spec.with_base_overrides({"runs": 1})
    jobs = overridden.compile()
    assert len(jobs) == 2
    assert all(job.config.runs == 1 for job in jobs)
    assert spec.spec_hash() != overridden.spec_hash()
    # Unknown fields and axis-swept fields are rejected loudly.
    with pytest.raises(ConfigurationError):
        spec.with_base_overrides({"warp_factor": 9})
    with pytest.raises(ConfigurationError):
        spec.with_base_overrides({"batch_size": 4})


def test_scenario_run_with_overrides_uses_qualified_manifest(tmp_path):
    configure(cache=True, cache_dir=str(tmp_path), executor=None)
    try:
        report = run_scenario("fig9", overrides={"runs": 2})
        assert report.name.startswith("fig9@")
        assert report.cells > 0
        assert report.manifest is not None
        assert report.manifest.spec_hash == report.spec.spec_hash()
        assert all(job.config.runs == 2 for job in report.spec.compile())
        # Canonical fig9 manifest untouched; the overridden run's
        # manifest lands under its hash-qualified (sanitized) name.
        assert not (tmp_path / "manifests" / "fig9.json").exists()
        assert report.manifest_file is not None
        assert report.manifest_file.exists()
        assert report.manifest_file.name != "fig9.json"
    finally:
        configure(cache=True, cache_dir=None, executor=None)


def test_cli_scenario_show_set(capsys):
    from repro.cli import main

    assert main(["scenario", "show", "fig9", "--set", "runs=2"]) == 0
    out = capsys.readouterr().out
    assert '"runs": 2' in out


def test_cli_scenario_show_set_on_specless_artifact_errors(capsys):
    """show must mirror run: no silent preview without the override."""
    from repro.cli import main

    assert main(["scenario", "show", "fig8", "--set", "runs=2"]) == 1
    err = capsys.readouterr().err
    assert "no sweep spec" in err and "--set" in err
