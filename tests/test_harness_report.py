"""Tests for report rendering, IO helpers and ASCII plotting."""

import json

import pytest

from repro.harness.ascii_plot import line_plot
from repro.harness.io import write_json
from repro.harness.report import render_table
from repro.harness.tables import (
    render_table1,
    render_table2,
    table1_gpus,
    table2_workloads,
)


def test_render_table_has_header_rule_and_rows():
    text = render_table(["name", "value"], [["a", 1], ["long-name", 22]])
    lines = text.splitlines()
    assert len(lines) == 4  # header, separator, two rows
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    assert lines[3].startswith("long-name")


def test_render_table_formats_large_floats_with_commas():
    text = render_table(["x"], [[1234567.0]])
    assert "1,234,567" in text


def test_render_table_rejects_ragged_rows():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        render_table(["a", "b"], [["only-one"]])


def test_table1_matches_paper_values():
    table = table1_gpus()
    assert len(table) == 4
    rows = {r["gpu"]: r for r in table}
    assert rows["A100"]["year"] == 2020
    assert rows["H100"]["memory_gb"] == 80
    assert rows["MI210"]["peak_fp32_tflops"] == 22.6
    assert rows["MI250"]["memory_gb"] == 128


def test_table2_matches_paper_architectures():
    table = table2_workloads()
    assert len(table) == 5
    rows = {r["model"]: r for r in table}
    assert rows["gpt3-xl"]["layers"] == 24
    assert rows["gpt3-13b"]["attention_heads"] == 40
    assert rows["llama2-13b"]["hidden_dim"] == 5120


def test_rendered_tables_contain_all_rows():
    assert render_table1().count("\n") >= 5
    assert render_table2().count("\n") >= 6


def test_write_json_round_trips(tmp_path):
    path = tmp_path / "data.json"
    write_json(path, {"rows": [1, 2, 3]})
    with open(path) as fh:
        assert json.load(fh) == {"rows": [1, 2, 3]}


def test_line_plot_has_axes():
    plot = line_plot([(0, 0.0), (1, 0.5), (2, 1.0), (3, 0.5)], height=5)
    assert "*" in plot
    assert plot.splitlines()[-1].startswith("x:")


def test_empty_plots_are_graceful():
    assert line_plot([]) == "(no data)"
