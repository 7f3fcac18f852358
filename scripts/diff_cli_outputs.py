"""Compare the CLI output of this checkout with that of another checkout, command by command.

Run from the repository root:  python3 scripts/diff_cli_outputs.py OTHER_CHECKOUT

Every argv recorded in tests/data/cli_golden.json (with the environment it
records) is run twice on each side: as text and with `--format
machine-readable`.  Each side runs all of its commands in one subprocess of its
own, importing rlsheaf from that checkout's `src/`, under the same
PYTHONHASHSEED (0 unless the caller sets one).  Every (argv, format) whose exit
code, stdout or stderr differs is printed; the exit code is 1 if any does and
0 if the two checkouts answer every command identically.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
FORMATS = {"text": [], "machine-readable": ["--format", "machine-readable"]}

# Reads [argv, env] pairs from stdin, runs each through cli.run in this process,
# and writes one [exit code, stdout, stderr] triple per command to stdout.
REPLAY = r"""
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from rlsheaf import cli

results = []
for argv, env in json.load(sys.stdin):
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as e:
        rc = f"raised {type(e).__name__}: {e}"
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    results.append([rc, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def replay(checkout: pathlib.Path, runs: list[tuple[list[str], dict[str, str]]]) -> list[list]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("PYTHONHASHSEED", "0")
    r = subprocess.run(
        [sys.executable, "-c", REPLAY, str(checkout / "src")],
        input=json.dumps(runs), capture_output=True, text=True, env=env, cwd=checkout,
    )
    if r.returncode != 0:
        raise SystemExit(f"replay in {checkout} failed:\n{r.stderr}")
    return json.loads(r.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (pathlib.Path(argv[0]) / "src" / "rlsheaf").is_dir():
        print("usage: python3 scripts/diff_cli_outputs.py OTHER_CHECKOUT (a directory holding src/rlsheaf)", file=sys.stderr)
        return 2
    other = pathlib.Path(argv[0]).resolve()
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    labels, runs = [], []
    for e in entries:
        for fmt, flags in FORMATS.items():
            labels.append((e["argv"], fmt))
            runs.append(([*flags, *e["argv"]], e["env"]))
    here, there = replay(ROOT, runs), replay(other, runs)
    differ = 0
    for (args, fmt), mine, theirs in zip(labels, here, there):
        fields = [name for name, a, b in zip(("rc", "stdout", "stderr"), mine, theirs) if a != b]
        if fields:
            differ += 1
            print(f"{' '.join(args)} [{fmt}]: {', '.join(fields)} differ")
    print(f"{differ} of {len(runs)} runs differ between {ROOT} and {other}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
