"""List the statements of src/rlsheaf that no tier-1 test executes.

Run from the repository root:  python3 scripts/untested_statements.py [PYTEST_ARGS...]

The tier-1 suite (or the pytest arguments given) runs in this process under
`sys.settrace`, which records each line executed in a frame whose code lives
in src/rlsheaf.  Every statement that is never executed is printed as
`file:line: source`, in file and line order.  Docstrings and `def`/`class`
lines are left out, and so is any line the compiler emits no code for.
Commands the tests run in a subprocess are not traced.  Each file's statement
lines and their source are read when the run starts, before any test imports
the package, and the list is reported against that snapshot, so a file edited
while the tests run does not shift its line numbers.

The run is deterministic, so two runs on the same code print the same list:
pytest gets `--hypothesis-seed=0`, which draws every Hypothesis example from
that one seed and, with a seed forced, makes Hypothesis neither read nor write
its example database in `.hypothesis/`.

The exit status is 0 when every statement ran and every test passed, 1 when a
statement is listed or a test failed, and 2 when pytest stopped for another
reason (a usage or collection error, an interrupt).

Only the standard library, pytest and the Hypothesis plugin the tests load are
used; the traced run takes two to three times as long as the plain one.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "rlsheaf"


def code_lines(code) -> set[int]:
    """The lines that `code` and the code objects nested in it emit instructions for."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= code_lines(const)
    return out


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statement_lines(tree: ast.Module) -> set[int]:
    """The first line of each statement, without docstrings and `def`/`class` lines."""
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *DEFS)) and ast.get_docstring(node, clean=False) is not None
    }
    return {
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, DEFS) and id(node) not in docstrings
    }


def statements(path: pathlib.Path) -> dict[int, str]:
    """Each statement line of one source file with its stripped source, in line order."""
    text = path.read_text("utf-8")
    lines = text.splitlines()
    wanted = statement_lines(ast.parse(text)) & code_lines(compile(text, str(path), "exec"))
    return {line: lines[line - 1].strip() for line in sorted(wanted)}


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    prefix = str(PACKAGE) + os.sep
    executed: dict[str, set[int]] = {}
    snapshot = {path: statements(path) for path in sorted(PACKAGE.glob("*.py"))}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    if status not in (0, 1):
        print(f"pytest stopped with status {status}", file=sys.stderr)
        return 2

    count = 0
    for path, stmts in snapshot.items():
        ran = executed.get(str(path), set())
        for line, source in stmts.items():
            if line not in ran:
                print(f"{path.relative_to(ROOT)}:{line}: {source}")
                count += 1
    print(f"{count} statements no test executes", file=sys.stderr)
    return 1 if count or status == 1 else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
