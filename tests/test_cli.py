import json
import os
import pathlib
import subprocess
import sys

import pytest

from rlsheaf import cli

RUN = [sys.executable, "-m", "rlsheaf"]


def run_cli(*args, workspace=None, env_extra=None):
    cmd = list(RUN)
    if workspace:
        cmd += ["--workspace", str(workspace)]
    cmd += list(args)
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_filters_command_prints_table4():
    r = run_cli("filters", "A4")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "F1 = {1}",
        "F2 = {1,a}",
        "F3 = {1,b}",
        "F4 = {0,1,a,b}",
    ]


def test_spectrum_command_matches_table6_row1():
    r = run_cli("spectrum", "A4", "--set", "spec", "--flavor", "hull")
    assert r.returncode == 0
    assert "open: {F2}" in r.stdout and "open: {F2,F3}" in r.stdout
    assert "expectation A4:spec:hull: match" in r.stdout


def test_spectrum_min_p_a8_reports_deviation():
    r = run_cli("spectrum", "A8", "--set", "min", "--flavor", "patch")
    assert r.returncode == 0
    assert "documented deviation" in r.stdout


def test_sheafify_report_line():
    r = run_cli("sheafify", "indiscrete_a2_over_point")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "etale: yes; germs: 2; counit injective/open/continuous: yes"


def test_validate_and_law_suite_exit_zero_on_shipped_corpus():
    assert run_cli("validate").returncode == 0
    assert run_cli("law-suite").returncode == 0


def test_unknown_command_exits_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_unknown_object_exits_2():
    r = run_cli("filters", "A999")
    assert r.returncode == 2
    assert "A999" in r.stderr


def test_quotient_rejects_non_filter_with_exit_1():
    r = run_cli("quotient", "A4", "a,b")
    assert r.returncode == 1


def test_workspace_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("validate", workspace=bad).returncode == 2
    dangling = tmp_path / "dangling.json"
    dangling.write_text(
        json.dumps(
            {
                "spaces": {"t": {"points": ["a"], "opens": [[], ["a"]]}},
                "bundles": {"b": {"total": "t", "base": "nope", "proj": {"a": "a"}}},
            }
        ),
        encoding="utf-8",
    )
    assert run_cli("validate", workspace=dangling).returncode == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps({"spaces": {"s": {"points": ["x", "y"], "opens": [[], ["x"], ["y"]]}}}),
        encoding="utf-8",
    )
    assert run_cli("validate", workspace=invalid).returncode == 1
    r = run_cli("--lenient", "validate", workspace=invalid)
    assert r.returncode == 1
    assert "diagnostic" in r.stdout


def test_machine_readable_format():
    r = run_cli("--format", "machine-readable", "filters", "A6")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["command"] == "filters"
    assert payload["ok"] is True
    assert {f["name"] for f in payload["filters"]} == {"F1", "F2", "F3", "F4", "F5"}


def test_sections_command_with_open():
    r = run_cli("sections", "etspecha4", "--open", "F2")
    assert r.returncode == 0
    assert "sections over {F2}: 2" in r.stdout


def test_check_commands():
    assert run_cli("check-etale", "etspecha4").returncode == 0
    assert run_cli("check-etale", "indiscrete_a2_over_point").returncode == 1
    assert run_cli("check-rl-bundle", "etminpa8").returncode == 0
    assert run_cli("counit-check", "indiscrete_a2_over_point").returncode == 0


def test_pullback_command():
    r = run_cli("pullback", "incl_f2", "etspecha4")
    assert r.returncode == 0
    assert "(F2|0_1)" in r.stdout and "etale: yes" in r.stdout


def test_compose_rle_and_gamma():
    assert run_cli("compose-rle", "rle_m1", "rle_m2").returncode == 0
    r = run_cli("gamma", "R_speca4")
    assert r.returncode == 0
    assert "4 sections" in r.stdout


def test_export_dot():
    r = run_cli("export-dot", "A4")
    assert r.returncode == 0
    assert r.stdout.startswith('digraph "A4"')
    assert '"0" -> "a"' in r.stdout
    assert run_cli("export-dot", "spec_h_a4").returncode == 0
    assert run_cli("export-dot", "etspecha4").returncode == 0
    assert run_cli("export-dot", "nothing").returncode == 2


def test_seed_env_variable_accepted():
    r = run_cli("law-suite", env_extra={"RLSHEAF_SEED": "12345"})
    assert r.returncode == 0


def test_run_function_directly():
    assert cli.run(["filters", "A4"]) == 0
    assert cli.run(["check-etale", "indiscrete_a2_over_point"]) == 1


def test_library_value_error_exits_2_with_one_error_line():
    # incl_f2 lands in spec_h_a4, not in the one-point base of a2_over_point
    r = run_cli("pullback", "incl_f2", "a2_over_point")
    assert r.returncode == 2
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"


@pytest.mark.parametrize(
    "entry",
    json.loads(GOLDEN.read_text("utf-8")),
    ids=lambda e: " ".join(e["argv"]) + "".join(f" [{k}={v}]" for k, v in e["env"].items()),
)
def test_machine_readable_output_matches_golden_capture(entry, monkeypatch, capsys):
    """Byte equality with scripts/capture_cli_golden.py's record of the corpus commands."""
    for key, value in entry["env"].items():
        monkeypatch.setenv(key, value)
    rc = cli.run(["--format", "machine-readable", *entry["argv"]])
    assert (rc, capsys.readouterr().out) == (entry["exit"], entry["stdout"])
