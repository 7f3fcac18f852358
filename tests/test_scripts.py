import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_untested_statements_exits_1_when_it_lists_a_statement():
    """Four tests leave most of src/ unrun, so the list is not empty."""
    target = "tests/test_cli.py::test_the_entry_points_exit_with_the_status_of_the_run"
    run = subprocess.run([sys.executable, "scripts/untested_statements.py", target], cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 1
    assert "\nsrc/rlsheaf/workspace.py:" in run.stdout and run.stderr.rstrip().endswith(" statements no test executes")
