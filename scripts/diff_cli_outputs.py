"""Compare the CLI output of this checkout with that of another checkout, command by command.

Run from the repository root:  python3 scripts/diff_cli_outputs.py OTHER_CHECKOUT

Every argv recorded in tests/data/cli_golden.json (with the environment it
records) is run twice on each side: as text and with `--format
machine-readable`.  So is `quotient L F` for each filter F that a recorded
`filters L` output lists (`quotient_argvs`), so the congruence of every corpus
filter is compared, and `sections B --open U` for each open U, the empty one
included, that the bundled corpus declares on the base of each `rl_bundles`
entry B (`sections_argvs`).  So are `validate` and `--lenient validate` on each of
`EDITS` copies of the bundled corpus with one seeded edit each (an entry
dropped, a value replaced, a key respelled or a value copied from a
neighbour), written to a temporary directory, so malformed input is compared
too, and on each of `WITNESS_EDITS` copies with one value of an `rl_bundles`
stalk table, or of an `rle_inv` morphism's `alpha`, replaced by another element
of the same stalk, so the proper-map continuity and RL-morphism witnesses are
compared on input that parses; and on each of `LATTICE_EDITS` copies with one
`lattices` `mul` entry (and its mirror) replaced by another carrier element, or
one `leq` pair dropped or added, so the walks that name why an order is no
lattice, a residual is not adjoint or an axiom fails are compared; and on each
of the `dependency_edits` copies, one for each entry that another entry names,
with that entry made to fail its own validator (a lattice whose top squares to
its bottom, a space without its empty open, an RL-bundle whose `zero` has an
extra key, an RLE-space whose `base` names another space), so the lenient
`depends on ...` diagnostics of every entry that names it are compared.  So
are the argv-level cases of `argv_cases`, once each as given: help,
usage errors and the bare commands, which the recorded argvs never reach.
Each side runs all of its commands in one subprocess of its own,
importing rlsheaf from that checkout's `src/`, under the same PYTHONHASHSEED
(0 unless the caller sets one).  Every (argv, format) whose exit code, stdout
or stderr differs is printed; the exit code is 1 if any does and 0 if the two
checkouts answer every command identically.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
CORPUS = ROOT / "src" / "rlsheaf" / "data" / "paper_fixtures.json"
FORMATS = {"text": [], "machine-readable": ["--format", "machine-readable"]}
EDITS = 60
WITNESS_EDITS = 40
LATTICE_EDITS = 40
ODD_VALUES = [None, 1, True, "zz", " a", "a,b", [], ["zz"], {}]
# The keys under which an entry of each section, or a morphism of each kind, names another entry, each with
# the sections that name may be declared in.
REFERENCES = {
    "maps": {"dom": ("spaces",), "cod": ("spaces",)},
    "bundles": {"total": ("spaces",), "base": ("spaces",)},
    "rl_bundles": {"total": ("spaces",), "base": ("spaces",)},
    "rle_spaces": {"base": ("spaces",), "etale": ("rl_bundles",)},
    "rl": {"dom": ("lattices",), "cod": ("lattices",)},
    "bundle": {"src": ("bundles", "rl_bundles"), "dst": ("bundles", "rl_bundles")},
    "rle_inv": {"src": ("rle_spaces",), "dst": ("rle_spaces",)},
}

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


def argv_cases(entries: list[dict]) -> list[list[str]]:
    """Top-level `-h`, no arguments and an unknown command; then, for each command, `-h`, the bare command
    and the command's first recorded argv with one argument too many."""
    first: dict[str, list[str]] = {}
    for e in entries:
        first.setdefault(e["argv"][0], e["argv"])
    cases = [["-h"], [], ["no-such-command"]]
    for name, argv in first.items():
        cases += [[name, "-h"], [name], [*argv, "extra"]]
    return cases


def quotient_argvs(entries: list[dict]) -> list[list[str]]:
    """`quotient L F` for each filter F, its elements joined by ',', that a recorded `filters L` output lists."""
    out = []
    for e in entries:
        if e["argv"][0] == "filters":
            out += [["quotient", e["argv"][1], ",".join(f["elements"])] for f in json.loads(e["stdout"])["filters"]]
    return out


def sections_argvs() -> list[list[str]]:
    """`sections B --open U` for each open U, its points joined by ',', that the bundled corpus declares on
    the base of each `rl_bundles` entry B, in name order."""
    doc = json.loads(CORPUS.read_text(encoding="utf-8"))
    return [["sections", name, "--open", ",".join(u)]
            for name, rb in sorted(doc["rl_bundles"].items()) for u in doc["spaces"][rb["base"]]["opens"]]


def edited_corpora(n: int = EDITS, seed: int = 0) -> list[str]:
    """`n` copies of the bundled corpus as JSON text, each with one edit at a place drawn by `seed` from
    every object entry and list element: dropped, replaced by a value of `ODD_VALUES`, given the value
    of a neighbour, or (an object entry) respelled with edge whitespace or a third ',' part."""
    rng = random.Random(seed)
    text = CORPUS.read_text(encoding="utf-8")
    base = json.loads(text)
    places: list[list] = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            places.append([*path, key])
            walk(child, [*path, key])

    walk(base, [])
    out = []
    for _ in range(n):
        doc = json.loads(text)
        *path, key = rng.choice(places)
        parent = doc
        for step in path:
            parent = parent[step]
        keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
        edit = rng.choice(["drop", "replace", "neighbour", "respell"])
        if edit == "drop":
            del parent[key]
        elif edit == "replace":
            parent[key] = rng.choice(ODD_VALUES)
        elif edit == "neighbour":
            parent[key] = parent[rng.choice(keys)]
        elif isinstance(parent, dict):
            spelling = rng.choice([f" {key}", f"{key} ", f"{key},{key}"])
            items = [(spelling if k == key else k, v) for k, v in parent.items()]
            parent.clear()
            parent.update(items)
        else:
            parent.insert(key, parent[key])
        out.append(json.dumps(doc))
    return out


def witness_edits(n: int = WITNESS_EDITS, seed: int = 0) -> list[str]:
    """`n` copies of the bundled corpus as JSON text, each with one edit drawn by `seed` that keeps every
    value in its stalk.  Either one entry of an `rl_bundles.*.stalk_ops` table (and its mirror, in a
    table that is not `imp`) or of an `rle_inv` morphism's `alpha` (whose values lie in the etale of
    the morphism's `src`) is replaced by another point of its stalk, or one stalk of an RL-bundle's
    total is ordered as a chain, in a drawn order, and the total's opens are rewritten as the
    down-sets of that order closed with its own: the projection stays continuous and the stalk
    algebras stay valid, so only the continuity of the proper maps and constants can change."""
    rng = random.Random(seed)
    text = CORPUS.read_text(encoding="utf-8")
    base = json.loads(text)

    def fibres(proj: dict) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for t, p in sorted(proj.items()):
            out.setdefault(p, []).append(t)
        return out

    entries, alphas, stalks = [], [], []  # (path to a table, key, the points its value may take)
    for name, rb in sorted(base["rl_bundles"].items()):
        over = fibres(rb["proj"])
        stalks += [(name, pts) for _, pts in sorted(over.items()) if len(pts) > 1]
        for p, ops in sorted(rb["stalk_ops"].items()):
            for op, tab in sorted(ops.items()):
                entries += [(["rl_bundles", name, "stalk_ops", p, op], key, over[p]) for key in sorted(tab)]
    for name, m in sorted(base["morphisms"].items()):
        if m["kind"] == "rle_inv":
            proj = base["rl_bundles"][base["rle_spaces"][m["src"]]["etale"]]["proj"]
            alphas += [(["morphisms", name, "alpha"], key, fibres(proj)[proj[v]]) for key, v in sorted(m["alpha"].items())]
    out = []
    for _ in range(n):
        doc = json.loads(text)
        kind = rng.choice(["entry", "alpha", "chain"])
        if kind == "chain":
            name, pts = rng.choice(stalks)
            chain = rng.sample(pts, len(pts))
            space = doc["spaces"][doc["rl_bundles"][name]["total"]]
            points = space["points"]
            # U_t is the intersection of the opens holding t; the chain puts its earlier points in it.
            below = {t: set.intersection(*(set(o) for o in space["opens"] if t in o)) for t in points}
            for i, t in enumerate(chain):
                below[t] |= set(chain[:i])
            for _ in points:  # transitive closure
                below = {t: set().union(u, *(below[c] for c in u)) for t, u in below.items()}
            subsets = (set(c) for r in range(len(points) + 1) for c in itertools.combinations(sorted(points), r))
            space["opens"] = [sorted(s) for s in subsets if all(below[t] <= s for t in s)]
        else:
            path, key, pts = rng.choice(entries if kind == "entry" else alphas)
            table = doc
            for step in path:
                table = table[step]
            value = rng.choice([t for t in pts if t != table[key]])
            mirror = ",".join(reversed(key.split(","))) if kind == "entry" and path[-1] != "imp" else key
            for k in {key, mirror} & set(table):
                table[k] = value
        out.append(json.dumps(doc))
    return out


def lattice_edits(n: int = LATTICE_EDITS, seed: int = 3) -> list[str]:
    """`n` copies of the bundled corpus as JSON text, each with one edit drawn by `seed` to a lattice given
    by `leq`: one `mul` entry (and its mirror) set to another carrier element, or one pair x <= y with
    x != y dropped from `leq` or added to it.  Under seed 3, 22 copies are refused as no lattice, 17 for a
    residual that is not adjoint and one by `verify_rl`'s walk (`unit-fails`); seed 0 reaches no such walk."""
    rng = random.Random(seed)
    text = CORPUS.read_text(encoding="utf-8")
    names = sorted(name for name, lat in json.loads(text)["lattices"].items() if "leq" in lat)
    out = []
    for _ in range(n):
        doc = json.loads(text)
        lat = doc["lattices"][rng.choice(names)]
        carrier, mul, leq = lat["carrier"], lat["mul"], lat["leq"]
        kind = rng.choice(["mul", "drop", "add"])
        if kind == "mul":
            key = rng.choice(sorted(mul))
            value = rng.choice([x for x in carrier if x != mul[key]])
            for k in {key, ",".join(reversed(key.split(",")))} & set(mul):
                mul[k] = value
        elif kind == "drop":
            leq.remove(rng.choice([p for p in leq if p[0] != p[1]]))
        else:
            leq.append(rng.choice([[x, y] for x in carrier for y in carrier if x != y and [x, y] not in leq]))
        out.append(json.dumps(doc))
    return out


def dependency_edits() -> list[str]:
    """One copy of the bundled corpus as JSON text for each entry that another entry names, in section and
    name order, with that entry still parsing but failing its own validator: a lattice gets top * top =
    bot, a space loses its empty open, an RL-bundle's `zero` gets an extra key `zz`, and an RLE-space's
    `base` names the first space, in name order, whose points differ from those of its own base.  The
    corpus names no entry of `bundles`, and `maps` entries are named by no entry."""
    text = CORPUS.read_text(encoding="utf-8")
    base = json.loads(text)
    named = set()
    for section in ("maps", "bundles", "rl_bundles", "rle_spaces", "morphisms"):
        for entry in base.get(section, {}).values():
            for key, targets in REFERENCES[entry["kind"] if section == "morphisms" else section].items():
                named.add(next((t, entry[key]) for t in targets if entry[key] in base.get(t, {})))
    out = []
    for section, name in sorted(named):
        doc = json.loads(text)
        entry = doc[section][name]
        if section == "lattices":
            entry["mul"][f"{entry['top']},{entry['top']}"] = entry["bot"]
        elif section == "spaces":
            entry["opens"].remove([])
        elif section == "rl_bundles":
            entry["zero"]["zz"] = next(iter(entry["zero"].values()))
        else:
            points = set(doc["spaces"][entry["base"]]["points"])
            entry["base"] = next(s for s, space in sorted(doc["spaces"].items()) if set(space["points"]) != points)
        out.append(json.dumps(doc))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (pathlib.Path(argv[0]) / "src" / "rlsheaf").is_dir():
        print("usage: python3 scripts/diff_cli_outputs.py OTHER_CHECKOUT (a directory holding src/rlsheaf)", file=sys.stderr)
        return 2
    other = pathlib.Path(argv[0]).resolve()
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    labels, runs = [], []
    recorded = [(e["argv"], e["env"]) for e in entries] + [(argv, {}) for argv in quotient_argvs(entries) + sections_argvs()]
    for argv, env in recorded:
        for fmt, flags in FORMATS.items():
            labels.append((argv, fmt))
            runs.append(([*flags, *argv], env))
    for argv in argv_cases(entries):
        labels.append((argv, "as given"))
        runs.append((argv, {}))
    with tempfile.TemporaryDirectory() as tmp:
        for i, text in enumerate(edited_corpora() + witness_edits() + lattice_edits() + dependency_edits()):
            path = pathlib.Path(tmp) / f"edit{i:02d}.json"
            path.write_text(text, encoding="utf-8")
            for lenient in ([], ["--lenient"]):
                for fmt, flags in FORMATS.items():
                    args = ["--workspace", str(path), *lenient, "validate"]
                    labels.append((args, fmt))
                    runs.append(([*flags, *args], {}))
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
