"""SweepSpec semantics: compilation, round-trip, constraints, validation."""

import pytest

from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError
from repro.hw.calibration import NVIDIA_CALIBRATION
from repro.hw.datapath import Precision
from repro.scenario.spec import Constraint, SweepSpec, config_from_overrides


def demo_spec() -> SweepSpec:
    """A spec exercising every feature at once."""
    return SweepSpec(
        name="demo",
        description="cross + zip + constraints + include",
        base={"runs": 1, "jitter_sigma": 0.0},
        axes=[
            {"gpu": ["A100", "H100"]},
            {"model": ["gpt3-xl", "gpt3-2.7b"], "batch_size": [8, 16]},
        ],
        constraints=[
            {
                "field": "batch_size",
                "op": "le",
                "value": 8,
                "when": {"gpu": "A100"},
            }
        ],
        include=[
            {
                "gpu": "MI250",
                "model": "gpt3-xl",
                "batch_size": 8,
                "calibration": NVIDIA_CALIBRATION,
                "modes": ["overlapped", "sequential"],
            }
        ],
        modes=["overlapped", "sequential", "ideal"],
    )


def test_cross_product_order_is_deterministic():
    spec = SweepSpec(
        axes=[
            {"gpu": ["A100", "H100"]},
            {"batch_size": [8, 16]},
        ],
        base={"model": "gpt3-xl"},
    )
    cells = [(job.config.gpu, job.config.batch_size) for job in spec.compile()]
    assert cells == [("A100", 8), ("A100", 16), ("H100", 8), ("H100", 16)]


def test_zipped_axes_advance_together():
    spec = SweepSpec(
        axes=[{"model": ["gpt3-xl", "gpt3-2.7b"], "batch_size": [8, 32]}]
    )
    cells = [(j.config.model, j.config.batch_size) for j in spec.compile()]
    assert cells == [("gpt3-xl", 8), ("gpt3-2.7b", 32)]


def test_constraint_filters_scoped_cells():
    jobs = demo_spec().compile()
    a100 = [j for j in jobs if j.config.gpu == "A100"]
    h100 = [j for j in jobs if j.config.gpu == "H100"]
    # batch 16 dropped on A100 only.
    assert [j.config.batch_size for j in a100] == [8]
    assert [j.config.batch_size for j in h100] == [8, 16]


def test_include_cells_carry_their_own_modes():
    jobs = demo_spec().compile()
    assert jobs[-1].config.gpu == "MI250"
    assert jobs[-1].modes == (
        ExecutionMode.OVERLAPPED,
        ExecutionMode.SEQUENTIAL,
    )
    # Grid cells use the spec-level modes.
    assert len(jobs[0].modes) == 3


def test_include_cells_bypass_constraints():
    spec = SweepSpec(
        axes=[{"batch_size": [8, 64]}],
        base={"gpu": "A100"},
        constraints=[{"field": "batch_size", "op": "le", "value": 8}],
        include=[{"gpu": "A100", "batch_size": 64}],
    )
    batches = [j.config.batch_size for j in spec.compile()]
    assert batches == [8, 64]


def test_round_trip_compiles_to_identical_job_keys():
    spec = demo_spec()
    clone = SweepSpec.from_dict(spec.to_dict())
    assert clone.spec_hash() == spec.spec_hash()
    assert [j.cache_key() for j in clone.compile()] == [
        j.cache_key() for j in spec.compile()
    ]


def test_spec_hash_changes_with_content():
    spec = demo_spec()
    other = SweepSpec.from_dict({**spec.to_dict(), "base": {"runs": 2}})
    assert other.spec_hash() != spec.spec_hash()


def test_live_values_serialize_to_plain_forms():
    spec = SweepSpec(
        base={"precision": Precision.FP32, "calibration": NVIDIA_CALIBRATION},
        axes=[{"batch_size": [8]}],
        modes=(ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL),
    )
    payload = spec.to_dict()
    assert payload["base"]["precision"] == "fp32"
    assert isinstance(payload["base"]["calibration"], dict)
    config = spec.compile()[0].config
    assert config.precision is Precision.FP32
    assert config.calibration == NVIDIA_CALIBRATION


def test_unknown_axis_field_rejected():
    with pytest.raises(ConfigurationError, match="unknown experiment field"):
        SweepSpec(axes=[{"warp_size": [32]}])


def test_unknown_base_field_rejected():
    for field in ("gpus", "engine_tier"):
        with pytest.raises(
            ConfigurationError, match="unknown experiment field"
        ):
            SweepSpec(base={field: "A100"})


def test_unknown_include_field_rejected():
    with pytest.raises(ConfigurationError, match="unknown experiment field"):
        SweepSpec(include=[{"batchsize": 8}])


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown sweep spec keys"):
        SweepSpec.from_dict({"name": "x", "axis": {}})


def test_unknown_constraint_op_rejected():
    with pytest.raises(ConfigurationError, match="unknown constraint op"):
        Constraint(field="batch_size", op="like", value=8)


def test_unknown_mode_rejected():
    with pytest.raises(ConfigurationError, match="unknown mode"):
        SweepSpec(modes=["overlapped", "turbo"])


def test_zip_length_mismatch_rejected():
    with pytest.raises(ConfigurationError, match="mismatched"):
        SweepSpec(axes=[{"model": ["gpt3-xl"], "batch_size": [8, 16]}])


def test_empty_axis_rejected():
    with pytest.raises(ConfigurationError, match="no values"):
        SweepSpec(axes=[{"batch_size": []}])


def test_scalar_axis_values_rejected():
    with pytest.raises(ConfigurationError, match="list of values"):
        SweepSpec(axes=[{"gpu": "A100"}])


def test_constraint_ordering_ops():
    keep = Constraint(field="batch_size", op="gt", value=8)
    assert keep.allows({"batch_size": 16})
    assert not keep.allows({"batch_size": 8})
    # Unset values never satisfy ordering constraints.
    cap = Constraint(field="power_limit_w", op="ge", value=100.0)
    assert not cap.allows({"power_limit_w": None})
    member = Constraint(field="gpu", op="in", value=["A100", "H100"])
    assert member.allows({"gpu": "A100"})
    assert not member.allows({"gpu": "MI250"})


def test_config_from_overrides_defaults_and_coercion():
    config = config_from_overrides({"precision": "fp32"})
    assert config.gpu == "H100"  # anchor-cell default
    assert config.precision is Precision.FP32
    with pytest.raises(ConfigurationError, match="unknown precision"):
        config_from_overrides({"precision": "fp12"})


def test_membership_constraint_requires_a_list():
    with pytest.raises(ConfigurationError, match="needs a list"):
        Constraint(field="gpu", op="in", value="A100")
    with pytest.raises(ConfigurationError, match="needs a list"):
        Constraint(field="batch_size", op="not_in", value=8)


def test_integer_valued_float_fields_share_cache_keys():
    as_int = SweepSpec(
        base={"gpu": "A100"}, axes=[{"power_limit_w": [400]}]
    )
    as_float = SweepSpec(
        base={"gpu": "A100"}, axes=[{"power_limit_w": [400.0]}]
    )
    assert (
        as_int.compile()[0].cache_key() == as_float.compile()[0].cache_key()
    )


def test_non_string_name_rejected():
    with pytest.raises(ConfigurationError, match="must be a string"):
        SweepSpec.from_dict({"name": 42})
    with pytest.raises(ConfigurationError, match="must be a string"):
        SweepSpec.from_dict({"description": ["x"]})


def test_bare_yaml_keys_mean_empty_sections():
    spec = SweepSpec.from_dict(
        {"base": None, "axes": None, "include": None,
         "constraints": None, "modes": None, "name": None}
    )
    assert spec.base == {}
    assert len(spec.modes) == 3  # defaults restored
    assert len(spec.compile()) == 1  # the base-only cell


def test_duplicate_axis_field_rejected():
    with pytest.raises(ConfigurationError, match="more than one"):
        SweepSpec(axes=[{"batch_size": [8, 16]}, {"batch_size": [32]}])


def test_modes_must_include_the_metric_pair():
    with pytest.raises(ConfigurationError, match="only 'ideal' is optional"):
        SweepSpec(modes=["overlapped"])
    with pytest.raises(ConfigurationError, match="only 'ideal' is optional"):
        SweepSpec(include=[{"batch_size": 8, "modes": ["ideal"]}])


def test_constraint_type_mismatch_is_a_configuration_error():
    bad = Constraint(field="batch_size", op="le", value="32")
    with pytest.raises(ConfigurationError, match="mismatched types"):
        bad.allows({"batch_size": 8})


def test_explicit_empty_modes_rejected():
    with pytest.raises(ConfigurationError, match="at least one mode|must include both"):
        SweepSpec.from_dict({"modes": []})


def test_repeated_modes_are_deduplicated():
    spec = SweepSpec(modes=["overlapped", "sequential", "sequential"])
    assert spec.modes == ("overlapped", "sequential")


def test_mode_order_is_canonicalized():
    flipped = SweepSpec(
        base={"gpu": "A100"}, axes=[{"batch_size": [8]}],
        modes=["sequential", "overlapped"],
    )
    canonical = SweepSpec(
        base={"gpu": "A100"}, axes=[{"batch_size": [8]}],
        modes=["overlapped", "sequential"],
    )
    assert flipped.modes == ("overlapped", "sequential")
    assert (
        flipped.compile()[0].cache_key() == canonical.compile()[0].cache_key()
    )
