"""Record the machine-readable CLI output on the bundled corpus into tests/data/cli_golden.json.

Run from the repository root:  python3 scripts/capture_cli_golden.py

The file holds, for each command, its argv, the environment it needs, its
exit code and its exact stdout.  `tests/test_cli.py` replays every entry and
asserts byte equality, so a refactor that must not change behaviour can be
checked against a capture taken before it.  Re-capture only when an output
change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rlsheaf import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

# Every command of the README, then every flavour/set/bundle the corpus admits.
README = [
    ["validate"],
    ["filters", "A4"],
    ["classify", "A8"],
    ["quotient", "A6", "d,1"],
    ["spectrum", "A4", "--set", "spec", "--flavor", "hull"],
    ["sections", "etspecha4", "--open", "F2"],
    ["check-etale", "etspecha4"],
    ["check-rl-bundle", "etminpa8"],
    ["sheafify", "indiscrete_a2_over_point"],
    ["counit-check", "indiscrete_a2_over_point"],
    ["pullback", "incl_f2", "etspecha4"],
    ["compose-rle", "rle_m1", "rle_m2"],
    ["gamma", "R_speca4"],
    ["law-suite"],
    ["adjunction-suite"],
    ["export-dot", "A4"],
]
LATTICES = ["A2", "A3", "A4", "A6", "A8"]
RL_BUNDLES = [
    "a2_over_point", "etmaxda6", "etminpa8", "etspecha4",
    "indiscrete_a2_over_point", "stalk_f2", "trivial_a2_over_spec_h_a4",
]
SPACES = ["sierpinski", "spec_h_a4", "total_etspecha4", "total_indiscrete_a2_over_point"]
SEEDS = ["1", "271828"]


def commands() -> list[tuple[list[str], dict[str, str]]]:
    out = [(argv, {"RLSHEAF_SEED": SEEDS[0]} if argv == ["law-suite"] else {}) for argv in README]
    out += [(["law-suite"], {"RLSHEAF_SEED": s}) for s in SEEDS[1:]]
    for name in LATTICES:
        out += [(["filters", name], {}), (["classify", name], {})]
        for kind in ("spec", "max", "min"):
            for flavor in ("hull", "dual", "patch"):
                out.append((["spectrum", name, "--set", kind, "--flavor", flavor], {}))
    for name in RL_BUNDLES:
        for cmd in ("sections", "check-etale", "check-rl-bundle", "sheafify", "counit-check", "export-dot"):
            out.append(([cmd, name], {}))
    for name in ("R_point_a2", "R_speca4", "R_stalk_f2", "R_trivial"):
        out.append((["gamma", name], {}))
    for name in SPACES:
        out.append((["export-dot", name], {}))
    unique = []
    for cmd in out:
        if cmd not in unique:
            unique.append(cmd)
    return unique


def replay(argv: list[str], env: dict[str, str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process machine-readable invocation."""
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(["--format", "machine-readable", *argv])
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return rc, out.getvalue()


def main() -> None:
    entries = []
    for argv, env in commands():
        rc, stdout = replay(argv, env)
        entries.append({"argv": argv, "env": env, "exit": rc, "stdout": stdout})
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} commands to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
