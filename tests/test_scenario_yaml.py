"""The restricted YAML subset loader and the example spec files."""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.scenario import yaml_lite
from repro.scenario.yaml_lite import load_spec_file

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


def test_parse_scalars_and_flow_lists():
    data = yaml_lite.parse(
        """
# full-line comment
name: demo  # trailing comment
count: 3
ratio: 0.5
enabled: true
disabled: false
nothing: null
quoted: "a: b"
caps: [400, 200.5, low, 'x']
"""
    )
    assert data == {
        "name": "demo",
        "count": 3,
        "ratio": 0.5,
        "enabled": True,
        "disabled": False,
        "nothing": None,
        "quoted": "a: b",
        "caps": [400, 200.5, "low", "x"],
    }


def test_parse_nested_blocks_and_sequences():
    data = yaml_lite.parse(
        """
base:
  gpu: A100
  runs: 1
axes:
  - model: [gpt3-xl]
    batch_size: [8]
  - power_limit_w: [400, 200]
constraints:
  - field: batch_size
    op: le
    value: 32
    when:
      gpu: A100
plain:
  - one
  - 2
"""
    )
    assert data["base"] == {"gpu": "A100", "runs": 1}
    assert data["axes"] == [
        {"model": ["gpt3-xl"], "batch_size": [8]},
        {"power_limit_w": [400, 200]},
    ]
    assert data["constraints"][0]["when"] == {"gpu": "A100"}
    assert data["plain"] == ["one", 2]


def test_tabs_are_rejected():
    with pytest.raises(ConfigurationError, match="tabs"):
        yaml_lite.parse("key:\n\tvalue: 1")


def test_flow_mappings_are_rejected():
    with pytest.raises(ConfigurationError, match="flow mappings"):
        yaml_lite.parse("base: {gpu: A100}")


def test_example_power_cap_sweep_loads_and_compiles():
    spec = load_spec_file(EXAMPLES / "power_cap_sweep.yaml")
    assert spec.name == "power_cap_sweep"
    jobs = spec.compile()
    # Batch 8 keeps all six caps; the constraint drops 100 W at batch 16.
    assert len(jobs) == 11
    b8 = [j.config.power_limit_w for j in jobs if j.config.batch_size == 8]
    b16 = [j.config.power_limit_w for j in jobs if j.config.batch_size == 16]
    assert b8 == [400, 300, 250, 200, 150, 100]
    assert b16 == [400, 300, 250, 200, 150]
    assert all(j.config.gpu == "A100" for j in jobs)


def test_example_quick_grid_loads_and_compiles():
    spec = load_spec_file(EXAMPLES / "quick_grid.yaml")
    jobs = spec.compile()
    assert [j.config.batch_size for j in jobs] == [8, 16]
    assert all(len(j.modes) == 2 for j in jobs)


def test_json_spec_files_load_too(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        '{"name": "j", "base": {"gpu": "A100"}, '
        '"axes": [{"batch_size": [8]}], '
        '"modes": ["overlapped", "sequential"]}'
    )
    spec = load_spec_file(path)
    assert spec.name == "j"
    assert len(spec.compile()) == 1


def test_unknown_field_in_file_is_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    for field in ("gpus: A100", "engine_tier: fast"):
        path.write_text(f"name: bad\nbase:\n  {field}\n")
        with pytest.raises(
            ConfigurationError, match="unknown experiment field"
        ):
            load_spec_file(path)


def test_unnamed_file_spec_takes_its_stem(tmp_path):
    path = tmp_path / "my_sweep.yaml"
    path.write_text("base:\n  gpu: A100\naxes:\n  - batch_size: [8]\n")
    assert load_spec_file(path).name == "my_sweep"


def test_apostrophes_do_not_open_quotes():
    data = yaml_lite.parse(
        "description: the paper's cap sweep  # quick variant\n"
        "names: [o'brien, d'arcy]\n"
        "literal: a#b\n"
    )
    assert data["description"] == "the paper's cap sweep"
    assert data["names"] == ["o'brien", "d'arcy"]
    # '#' without preceding whitespace is content, per YAML.
    assert data["literal"] == "a#b"


def test_block_sequence_at_parent_key_indent():
    data = yaml_lite.parse(
        "axes:\n"
        "- batch_size: [8, 16]\n"
        "- power_limit_w: [400]\n"
        "modes: [overlapped, sequential]\n"
    )
    assert data["axes"] == [
        {"batch_size": [8, 16]},
        {"power_limit_w": [400]},
    ]
    assert data["modes"] == ["overlapped", "sequential"]


def test_trailing_comma_in_flow_list():
    assert yaml_lite.parse("caps: [8, 16,]\n") == {"caps": [8, 16]}
    assert yaml_lite.parse("caps: []\n") == {"caps": []}


def test_flow_mapping_sequence_items_are_rejected():
    with pytest.raises(ConfigurationError, match="flow mappings"):
        yaml_lite.parse("include:\n  - {gpu: A100}\n")


def test_duplicate_mapping_keys_rejected():
    with pytest.raises(ConfigurationError, match="duplicate key"):
        yaml_lite.parse("base:\n  gpu: A100\nbase:\n  model: gpt3-13b\n")
    with pytest.raises(ConfigurationError, match="duplicate key"):
        yaml_lite.parse("base:\n  gpu: A100\n  gpu: MI250\n")


def test_unterminated_flow_list_rejected():
    with pytest.raises(ConfigurationError, match="unterminated flow list"):
        yaml_lite.parse("modes: [overlapped, sequential\n")


def test_inline_nested_sequences_rejected():
    with pytest.raises(ConfigurationError, match="inline nested"):
        yaml_lite.parse("a:\n  - - 8\n")
