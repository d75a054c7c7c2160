"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_subcommands():
    parser = build_parser()
    for command in (
        ["list-gpus"],
        ["list-models"],
        ["run"],
        ["figure", "4"],
        ["scenario", "list"],
        ["scenario", "show", "fig9"],
        ["scenario", "run", "fig9"],
        ["microbench"],
        ["roofline"],
        ["trace"],
    ):
        args = parser.parse_args(command)
        assert callable(args.func)


def test_scenario_run_accepts_shard_and_executor_flags():
    args = build_parser().parse_args(
        [
            "scenario",
            "run",
            "fig9",
            "--shard",
            "1/4",
            "--executor",
            "process",
            "--jobs",
            "2",
        ]
    )
    assert args.shard == "1/4"
    assert args.executor == "process"
    for argv in (
        ["scenario", "run", "fig9", "--executor", "threads"],
        ["scenario", "run", "fig9", "--executor", "async"],
        # A worker leases one task per request.
        ["worker", "127.0.0.1:8765", "--batch", "2"],
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


def test_run_defaults():
    args = build_parser().parse_args(["run"])
    assert args.gpu == "H100"
    assert args.strategy == "fsdp"
    assert args.precision == "fp16"
    assert args.runs == 3


def test_list_gpus_prints_table1(capsys):
    assert main(["list-gpus"]) == 0
    out = capsys.readouterr().out
    for gpu in ("A100", "H100", "MI210", "MI250"):
        assert gpu in out
    assert "19.5" in out  # A100 FP32 TFLOPS


def test_list_models_prints_table2(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "gpt3-13b" in out
    assert "llama2-13b" in out


def test_figure_rejects_unknown(capsys):
    assert main(["figure", "3"]) == 2  # Fig. 3 is a diagram, not data


def test_figure_is_an_alias_of_scenario_run(tmp_path, capsys):
    from repro.exec.service import reset_default_service

    figure_dir, scenario_dir = tmp_path / "figure", tmp_path / "scenario"
    try:
        assert main(["figure", "9", "--cache-dir", str(figure_dir)]) == 0
        figure_out = capsys.readouterr().out
        assert main(
            ["scenario", "run", "fig9", "--cache-dir", str(scenario_dir)]
        ) == 0
        assert capsys.readouterr().out == figure_out
        assert (figure_dir / "manifests" / "fig9.json").exists()
    finally:
        reset_default_service()


def test_unknown_gpu_is_reported_as_error(capsys):
    code = main(
        ["run", "--gpu", "B200", "--model", "gpt3-xl", "--runs", "1"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_run_quick_cell(capsys):
    code = main(
        [
            "run",
            "--gpu",
            "A100",
            "--model",
            "gpt3-xl",
            "--batch",
            "8",
            "--runs",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "compute slowdown" in out
    assert "overlapped" in out


def test_roofline_command(capsys):
    code = main(
        ["roofline", "--gpu", "A100", "--model", "gpt3-xl", "--top", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ridge" in out
    assert "compute-bound" in out


def test_trace_writes_file(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    code = main(
        [
            "trace",
            "--gpu",
            "A100",
            "--model",
            "gpt3-xl",
            "--batch",
            "8",
            "--runs",
            "1",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert out_path.exists()


def test_infeasible_run_returns_error(capsys):
    code = main(
        [
            "run",
            "--gpu",
            "A100",
            "--model",
            "gpt3-13b",
            "--batch",
            "8",
            "--runs",
            "1",
        ]
    )
    assert code == 1
    assert "memory" in capsys.readouterr().err


def test_execution_flags_parse():
    parser = build_parser()
    for prefix in (["run"], ["figure", "4"], ["scenario", "run", "claims"]):
        args = parser.parse_args(prefix + ["--jobs", "4", "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir is None


def test_run_with_jobs_and_cache_dir(tmp_path, capsys):
    from repro.exec.service import reset_default_service

    try:
        code = main(
            [
                "run",
                "--gpu",
                "A100",
                "--model",
                "gpt3-xl",
                "--batch",
                "8",
                "--runs",
                "1",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "compute slowdown" in capsys.readouterr().out
        assert list(tmp_path.glob("*.json"))  # result persisted on disk
    finally:
        reset_default_service()


def test_scenario_subcommands_parse():
    parser = build_parser()
    assert callable(parser.parse_args(["scenario", "list"]).func)
    assert callable(parser.parse_args(["scenario", "show", "fig9"]).func)
    args = parser.parse_args(
        ["scenario", "run", "fig9", "--jobs", "2", "--cache-dir", "d"]
    )
    assert callable(args.func)
    assert args.jobs == 2
    assert args.cache_dir == "d"


def test_scenario_list_names_every_artifact(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "claims", "sensitivity", "crossover",
    ):
        assert name in out


def test_scenario_show_prints_spec(capsys):
    assert main(["scenario", "show", "fig9"]) == 0
    out = capsys.readouterr().out
    assert '"power_limit_w"' in out
    assert "spec hash:" in out
    assert "compiles to 3 job(s)" in out


def test_scenario_show_specless_artifact(capsys):
    assert main(["scenario", "show", "fig8"]) == 0
    assert "no sweep spec" in capsys.readouterr().out


def test_scenario_unknown_name_is_an_error(capsys):
    assert main(["scenario", "run", "fig99"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_scenario_run_spec_file(tmp_path, capsys):
    from repro.exec.service import reset_default_service

    spec_file = tmp_path / "cell.json"
    spec_file.write_text(
        json.dumps(
            {
                "base": {
                    "gpu": "A100",
                    "model": "gpt3-xl",
                    "batch_size": 8,
                    "runs": 1,
                },
                "modes": ["overlapped", "sequential"],
                "include": [{"batch_size": 8}],
            }
        )
    )
    try:
        code = main(
            ["scenario", "run", str(spec_file), "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "A100x4 gpt3-xl b8" in captured.out
        assert "manifest ->" in captured.err
        assert (tmp_path / "manifests" / "cell.json").exists()
    finally:
        reset_default_service()


def test_run_modes_flag_skips_ideal(capsys):
    code = main(
        [
            "run",
            "--gpu", "A100",
            "--model", "gpt3-xl",
            "--batch", "8",
            "--runs", "1",
            "--modes", "overlapped,sequential",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "overlapped" in out
    assert "sequential" in out
    assert "ideal" not in out


def test_run_modes_flag_requires_core_pair(capsys):
    code = main(
        [
            "run",
            "--gpu", "A100",
            "--model", "gpt3-xl",
            "--runs", "1",
            "--modes", "overlapped",
        ]
    )
    assert code == 1
    assert "must include both" in capsys.readouterr().err


def test_run_modes_flag_rejects_unknown_mode(capsys):
    code = main(["run", "--runs", "1", "--modes", "warp"])
    assert code == 1
    assert "unknown mode" in capsys.readouterr().err
