import importlib.util
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_untested_statements_exits_1_when_it_lists_a_statement():
    """Four tests leave most of src/ unrun, so the list is not empty."""
    target = "tests/test_cli.py::test_the_entry_points_exit_with_the_status_of_the_run"
    run = subprocess.run([sys.executable, "scripts/untested_statements.py", target], cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 1
    assert "\nsrc/rlsheaf/workspace.py:" in run.stdout and run.stderr.rstrip().endswith(" statements no test executes")


def test_untested_statements_reports_against_the_source_read_when_the_run_starts(tmp_path, monkeypatch, capsys):
    """A file edited while the tests run keeps its reported line numbers and source: the statement
    lines are read before the run, not after it."""
    spec = importlib.util.spec_from_file_location("untested_statements", ROOT / "scripts" / "untested_statements.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    module = package / "mod.py"
    module.write_text("def used():\n    return 1\n\n\ndef unused():\n    return 2\n\n\nused()\n", "utf-8")

    def run_then_edit(args):
        runpy.run_path(str(module))
        module.write_text('"""A docstring\nthat moves\nevery line."""\n' + module.read_text("utf-8"), "utf-8")
        return 0

    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script, "SRC", tmp_path / "src")
    monkeypatch.setattr(script, "PACKAGE", package)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    monkeypatch.setattr(pytest, "main", run_then_edit)
    outer = sys.gettrace()  # the script's own tracer, when this test runs under it
    try:
        assert script.main([]) == 1
    finally:
        sys.settrace(outer)
    out = capsys.readouterr()
    assert out.out == "src/pkg/mod.py:6: return 2\n" and out.err == "1 statements no test executes\n"


def test_the_adjunction_split_charges_each_check_once_and_restores_the_suite(monkeypatch):
    """One split run gives the seven checks, each timed above 0, and the rest, and leaves every wrapped
    function as it found it."""
    spec = importlib.util.spec_from_file_location("ab_inprocess", ROOT / "scripts" / "ab_inprocess.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "clear_caches", lambda modules: None)  # keep this session's fixture caches
    from rlsheaf import adjunction, bundle, suites
    modules = {"adjunction": adjunction, "bundle": bundle, "suites": suites}
    before = {(mod, name): getattr(modules[mod], name) for calls in script.ADJUNCTION_CHECKS.values() for mod, name in calls}
    split = script.adjunction_split(modules)
    assert list(split) == [f"adj {check}" for check in script.ADJUNCTION_CHECKS] + ["adj rest"]
    assert all(t >= 0 for t in split.values()) and all(split[f"adj {c}"] > 0 for c in script.ADJUNCTION_CHECKS)
    assert all(getattr(modules[mod], name) is f for (mod, name), f in before.items())
