"""Time this checkout against another one in one process, alternating rounds between them.

Run from the repository root:  python3 scripts/ab_inprocess.py PARENT_CHECKOUT [--rounds N]

A machine's speed can drift between runs minutes apart; measuring both
checkouts in one process, round by round, cancels that drift.  Each
checkout's `src/rlsheaf` is copied into a temporary directory under a
package name of its own (`rlsheaf_parent`, `rlsheaf_change`) and imported
there, so both live side by side.  The one absolute reference to the package,
its bundled corpus `rlsheaf.data`, is renamed in the copy as well.

Each round times six measures on each side, the side that goes first
alternating from round to round:

- parse: the minimum of 60 cold-cache parses of the bundled corpus;
- law-suite: `suites.law_suite` on 10 fresh seeds;
- law-suite cli: `cli.run` of `law-suite` with `RLSHEAF_SEED` fixed at 1, so
  whatever the command does around the suite is timed too;
- corpus: the 21 corpus argvs of `perfbench/known_answers.json`, run through
  `cli.run` as the benchmark runs them;
- adjunction-suite: `cli.run` of `adjunction-suite`;
- adjunction split: one `suites.adjunction_suite()` with the calls behind each
  of its seven checks timed apart (`adj exponential` ... `adj triangle`), and
  `adj rest` for the fixtures and spaces the suite builds between them.  A call
  made inside another timed call is charged to the outer one.

Before each timed call every module-level `functools` cache of that side is
emptied, as the benchmark does.  The script prints each side's median per
measure, the median per-round ratio (change / parent) and the number of
rounds the change took.  It reads `perfbench/` and writes nothing there; it
is a measuring aid, not a gate.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
from time import perf_counter
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SIDES = ("parent", "change")
PARSES = 60
LAW_SEEDS = 10
CLI_LAW_SEED = "1"
# Each check of the adjunction suite, by the (module, function) calls the suite makes for it.
ADJUNCTION_CHECKS = {
    "exponential": [("adjunction", "check_exponential_adjunction")],
    "section": [("adjunction", "check_section_adjunction")],
    "projection": [("adjunction", "check_projection_adjunction")],
    "C(B,A) lift": [("adjunction", "lift_compact_open_rl")],
    "Gamma lift": [("adjunction", "gamma_topological_rl")],
    "pi_B lift": [("adjunction", "product_rl_bundle"), ("bundle", "verify_rl_bundle")],
    "triangle": [("adjunction", "check_triangle_identities")],
}


def load_side(tmp: pathlib.Path, checkout: pathlib.Path, side: str) -> dict:
    """The side's copy of rlsheaf, imported as `rlsheaf_<side>`, its modules by short name."""
    name = f"rlsheaf_{side}"
    dst = tmp / name
    shutil.copytree(checkout / "src" / "rlsheaf", dst, ignore=shutil.ignore_patterns("__pycache__"))
    cli = dst / "cli.py"
    cli.write_text(cli.read_text("utf-8").replace('"rlsheaf.data"', f'"{name}.data"'), "utf-8")
    importlib.import_module(f"{name}.cli")
    return {n.partition(".")[2]: mod for n, mod in sys.modules.items() if n.startswith(f"{name}.")}


def clear_caches(modules: dict):
    for mod in modules.values():
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


def quiet_run(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


def corpus_argvs() -> list[list[str]]:
    specs = json.loads((PERFBENCH / "known_answers.json").read_text("utf-8"))["corpus"]
    return [["--format", "machine-readable", *(str(PERFBENCH / a) if a.startswith("probes/") else a for a in s["argv"])]
            for s in specs]


def adjunction_split(modules: dict) -> dict[str, float]:
    """Seconds of one cold-cache `adjunction_suite()`, charged to its checks by the calls each makes."""
    spent = dict.fromkeys(ADJUNCTION_CHECKS, 0.0)
    depth = [0]

    def timed(check: str, f):
        def call(*args, **kwargs):
            if depth[0]:
                return f(*args, **kwargs)
            depth[0] += 1
            start = perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                spent[check] += perf_counter() - start
                depth[0] -= 1
        return call

    with contextlib.ExitStack() as stack:
        for check, calls in ADJUNCTION_CHECKS.items():
            for mod, name in calls:
                stack.enter_context(mock.patch.object(modules[mod], name, timed(check, getattr(modules[mod], name))))
        clear_caches(modules)
        start = perf_counter()
        modules["suites"].adjunction_suite()
        total = perf_counter() - start
    out = {f"adj {check}": t for check, t in spent.items()}
    out["adj rest"] = total - sum(spent.values())
    return out


def measures(modules: dict, text: str, argvs: list[list[str]], seeds: list[int]) -> dict[str, float]:
    """One round's seconds on one side, each measure with cold caches."""
    ws, suites, cli = modules["workspace"], modules["suites"], modules["cli"]

    def timed(call) -> float:
        clear_caches(modules)
        start = perf_counter()
        call()
        return perf_counter() - start

    out = {"parse": min(timed(lambda: ws.parse_workspace(text)) for _ in range(PARSES))}
    out["law-suite"] = sum(timed(lambda s=s: suites.law_suite(s)) for s in seeds)
    with mock.patch.dict(os.environ, RLSHEAF_SEED=CLI_LAW_SEED):
        out["law-suite cli"] = timed(lambda: quiet_run(cli, ["--format", "machine-readable", "law-suite"]))
    out["corpus"] = sum(timed(lambda a=a: quiet_run(cli, a)) for a in argvs)
    out["adjunction-suite"] = timed(lambda: quiet_run(cli, ["--format", "machine-readable", "adjunction-suite"]))
    out.update(adjunction_split(modules))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path, help="the checkout to compare against")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    text = (ROOT / "src" / "rlsheaf" / "data" / "paper_fixtures.json").read_text("utf-8")
    argvs = corpus_argvs()
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {side: load_side(pathlib.Path(tmp), path.resolve(), side)
                 for side, path in zip(SIDES, (args.parent, ROOT))}
        rows: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
        for r in range(args.rounds):
            seeds = [r * LAW_SEEDS + k + 1 for k in range(LAW_SEEDS)]
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                rows[side].append(measures(sides[side], text, argvs, seeds))
    print(f"{args.rounds} rounds, seconds (median); ratio is the median of change / parent per round")
    for name in rows["parent"][0]:
        old, new = ([row[name] for row in rows[side]] for side in SIDES)
        ratio = statistics.median(n / o for o, n in zip(old, new))
        won = sum(n < o for o, n in zip(old, new))
        print(f"{name:17} parent {statistics.median(old):.5f}  change {statistics.median(new):.5f}  "
              f"ratio {ratio:.3f}  change lower in {won} of {args.rounds}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
