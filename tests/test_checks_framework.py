"""Framework behavior: pragmas, report payloads, CLI, meta-check."""

import json
from pathlib import Path

from repro.checks import CODES, run_checks
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "checks"
REAL_TREE = Path(__file__).parents[1] / "src" / "repro"


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


# ---------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------


def test_pragma_suppresses_named_code(tmp_path):
    write_tree(tmp_path, {
        "sim/mod.py": (
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()  # repro: allow[D101] wall clock is fine here\n"
            "\n"
            "def stamp2():\n"
            "    return time.time()\n"
        ),
    })
    report = run_checks(tmp_path, select="D")
    assert [(f.code, f.line) for f in report.findings] == [("D101", 7)]
    assert [(f.code, f.line) for f in report.suppressed] == [("D101", 4)]


def test_pragma_wildcard_and_wrong_code(tmp_path):
    write_tree(tmp_path, {
        "sim/mod.py": (
            "import time\n"
            "a = time.time()  # repro: allow[*] anything goes\n"
            "b = time.time()  # repro: allow[D105] wrong code, still fires\n"
        ),
    })
    report = run_checks(tmp_path, select="D")
    assert [(f.code, f.line) for f in report.findings] == [("D101", 3)]
    assert [(f.code, f.line) for f in report.suppressed] == [("D101", 2)]


def test_pragma_multiple_codes_one_line(tmp_path):
    write_tree(tmp_path, {
        "sim/mod.py": (
            "import time\n"
            "a = time.time()  # repro: allow[D102, D101] covers both\n"
        ),
    })
    report = run_checks(tmp_path, select="D")
    assert report.findings == []
    assert len(report.suppressed) == 1


# ---------------------------------------------------------------------
# Report payload
# ---------------------------------------------------------------------


def test_report_payload_shape():
    report = run_checks(FIXTURES / "l_tree", select="L")
    payload = report.to_payload()
    assert payload["ok"] is False
    assert payload["series"] == ["L"]
    assert [f["code"] for f in payload["findings"]] == ["L401", "L402"]
    for entry in payload["findings"]:
        assert {"code", "message", "file", "line", "col"} <= set(entry)
    # Round-trips through json.
    assert json.loads(json.dumps(payload)) == payload


def test_all_codes_have_descriptions():
    assert len(CODES) >= 18
    for code, description in CODES.items():
        assert code[0] in "DCTLW"
        assert description.strip()


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------


def test_cli_exit_one_on_findings(capsys):
    rc = main(["check", "--root", str(FIXTURES / "d_tree"), "--select", "D"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "D101" in out
    assert "sim/clockmod.py:10" in out


def test_cli_exit_zero_on_clean_selection(capsys):
    rc = main(["check", "--root", str(FIXTURES / "d_tree"), "--select", "W"])
    assert rc == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_json_format(capsys):
    rc = main([
        "check", "--root", str(FIXTURES / "w_tree"),
        "--select", "W", "--format", "json",
    ])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert sorted({f["code"] for f in payload["findings"]}) == [
        "W501", "W502", "W503", "W504", "W505",
    ]


def test_cli_list_codes(capsys):
    rc = main(["check", "--list-codes"])
    out = capsys.readouterr().out
    assert rc == 0
    for code in CODES:
        assert code in out


# ---------------------------------------------------------------------
# Meta-check: the shipped tree itself is clean
# ---------------------------------------------------------------------


def test_real_tree_has_no_unsuppressed_findings():
    report = run_checks(REAL_TREE)
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"unsuppressed findings:\n{rendered}"
    # Every suppression in the shipped tree must carry a justification
    # beyond the bare pragma (enforced socially; count tracked here so a
    # new suppression shows up as a diff in review).
    assert len(report.suppressed) <= 15
