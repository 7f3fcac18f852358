"""The three workloads: their inputs, made from the seed, and their operations.

`build(name, seed)` imports rlsheaf afresh and returns the workload's
operations.  Each operation is one `cli.run` invocation (`corpus`,
`adjunction`) or one kernel call (`scaling`); each carries a check of its
outcome against `known_answers.json`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ANSWERS = json.loads((HERE / "known_answers.json").read_text("utf-8"))

WORKLOADS = ("corpus", "adjunction", "scaling")


@dataclass
class Op:
    label: str
    call: Callable[[dict], Any]
    check: Callable[[Any], str | None]  # None when the outcome is the known answer
    known_defect: str | None = None
    defect_outcome: str | None = None  # how the known defect misses at present: the start of its miss
    store: str | None = None  # later operations of the pass read the outcome under this key

    def excuse(self, why: str) -> str | None:
        """The known defect when `why` is the defect's recorded miss; None for any other miss."""
        if self.defect_outcome is not None and why.startswith(self.defect_outcome):
            return self.known_defect
        return None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    modules: dict[str, Any]
    rng: random.Random
    env: dict = field(default_factory=dict)
    per_pass: Callable[["Workload"], None] | None = None


def import_rlsheaf() -> dict[str, Any]:
    """Import rlsheaf from this checkout's src/, dropping any copy already loaded.

    Returns every loaded `rlsheaf.*` module by its short name.
    """
    for name in [n for n in sys.modules if n == "rlsheaf" or n.startswith("rlsheaf.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("rlsheaf")
    if Path(pkg.__file__).resolve().parent != SRC / "rlsheaf":
        raise ImportError(f"rlsheaf was imported from {pkg.__file__}, not from {SRC}")
    importlib.import_module("rlsheaf.cli")
    return {n.partition(".")[2]: mod for n, mod in sys.modules.items() if n.startswith("rlsheaf.")}


def clear_program_caches(modules: dict[str, Any]):
    """Empty every module-level functools cache, so each operation starts as a fresh process would."""
    for mod in modules.values():
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


# ---------------------------------------------------------------------------
# corpus and adjunction: in-process CLI invocations


@dataclass
class CliResult:
    rc: int | None
    out: str
    err: str
    raised: str | None


def run_cli(cli, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except Exception as exc:  # the CLI's contract is an exit code; an escape is the verdict
            return CliResult(None, out.getvalue(), err.getvalue(), f"{type(exc).__name__}: {exc}")
    return CliResult(rc, out.getvalue(), err.getvalue(), None)


def _canon(x):
    """Order-insensitive form of a JSON value."""
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, list):
        return sorted((_canon(v) for v in x), key=lambda v: json.dumps(v, sort_keys=True))
    return x


def check_cli(spec: dict, res: CliResult) -> str | None:
    if res.raised is not None:
        return f"raised {res.raised}"
    if res.rc != spec["exit"]:
        return f"exit {res.rc}, expected {spec['exit']}"
    if spec["exit"] != 0:
        lines = res.err.splitlines()
        if spec.get("error_line") and not (len(lines) == 1 and lines[0].startswith("error: ")):
            return f"stderr is not one 'error:' line: {res.err[:200]!r}"
        return None
    lines = res.out.splitlines()
    if len(lines) != 1:
        return f"machine-readable output has {len(lines)} lines"
    payload = json.loads(lines[0])
    if payload.get("ok") is not True:
        return "ok is not true"
    for key, want in spec.get("equal", {}).items():
        if _canon(payload.get(key)) != _canon(want):
            return f"{key} differs from the known answer"
    for key, want in spec.get("count", {}).items():
        if len(payload.get(key, ())) != want:
            return f"{len(payload.get(key, ()))} {key}, expected {want}"
    for key, want in spec.get("prefix", {}).items():
        if not str(payload.get(key, "")).startswith(want):
            return f"{key} does not start with {want!r}"
    if spec.get("all_checks_ok") and not all(c["ok"] for c in payload.get("checks", [])):
        return "a suite check failed"
    return None


def cli_ops(cli, specs: list[dict]) -> list[Op]:
    ops = []
    for spec in specs:
        argv = [str(HERE / a) if a.startswith("probes/") else a for a in spec["argv"]]
        argv = ["--format", "machine-readable", *argv]
        ops.append(Op(
            label=" ".join(spec["argv"]),
            call=lambda env, argv=argv: run_cli(cli, argv),
            check=lambda res, spec=spec: check_cli(spec, res),
            known_defect=spec.get("known_defect"),
            defect_outcome=spec.get("defect_outcome"),
        ))
    return ops


def _law_seed(wl: Workload):
    # law-suite draws its random spaces from RLSHEAF_SEED; a fresh one per pass.
    os.environ["RLSHEAF_SEED"] = str(wl.rng.randrange(1 << 31))


# ---------------------------------------------------------------------------
# scaling: generated families, kernels called directly


def _names(rng: random.Random, n: int, prefix: str) -> list[str]:
    """n distinct labels whose sorted order is a seed-drawn permutation."""
    return [f"{prefix}{k:03d}" for k in rng.sample(range(max(1000, 4 * n)), n)]


# Small algebras as (size, covers, mul) over indices; 0 is bottom, size-1 is top.
A4 = (4, [(0, 1), (0, 2), (1, 3), (2, 3)],
      [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]])
# A6: 0 < a < b < d < 1 and 0 < c < d, indices 0,a,b,c,d,1 = 0..5.
A6 = (6, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4), (4, 5)],
      [[0, 0, 0, 0, 0, 0],
       [0, 1, 1, 0, 1, 1],
       [0, 1, 1, 0, 1, 2],
       [0, 0, 0, 3, 3, 3],
       [0, 1, 1, 3, 4, 4],
       [0, 1, 2, 3, 4, 5]])
A2 = (2, [(0, 1)], [[0, 0], [0, 1]])


def lukasiewicz(n: int):
    return (n, [(i, i + 1) for i in range(n - 1)],
            [[max(0, i + j - (n - 1)) for j in range(n)] for i in range(n)])


def product_algebra(*factors):
    tuples = list(itertools.product(*(range(f[0]) for f in factors)))
    index = {t: i for i, t in enumerate(tuples)}
    covers = []
    for t in tuples:
        for k, (_, fcovers, _) in enumerate(factors):
            for x, y in fcovers:
                if t[k] == x:
                    covers.append((index[t], index[t[:k] + (y,) + t[k + 1:]]))
    mul = [[index[tuple(f[2][a][b] for f, a, b in zip(factors, s, t))] for t in tuples] for s in tuples]
    return (len(tuples), covers, mul)


def lattice_args(alg, names: list[str]):
    """make_lattice arguments for an indexed algebra under the given labels."""
    n, covers, mul = alg
    return (
        list(names),
        [(names[a], names[b]) for a, b in covers],
        {(names[a], names[b]): names[mul[a][b]] for a in range(n) for b in range(n)},
        names[0],
        names[n - 1],
    )


def sierpinski_power_basis(names: dict[tuple, str]) -> list[list[str]]:
    """Minimal neighbourhoods of S^k (1 is the open point): U_t is the up-set of t."""
    return [[names[u] for u in names if all(a <= b for a, b in zip(t, u))] for t in names]


def random_subbasis(rng: random.Random, prefix: str) -> tuple[list[str], list[list[str]]]:
    """A suites.random_space-style space: up to four points, a random subbasis.

    Four points keep continuous_maps between two of them (at most 4^4 maps)
    below the median verdict time, so the seed cannot shift verdict_p50_ms
    across the gap above it.
    """
    n = rng.randint(2, 4)
    pts = _names(rng, n, prefix)
    return pts, [[p for p in pts if rng.random() < 0.5] for _ in range(rng.randint(0, n + 2))]


def min_nbhds(pts: list[str], subbasis: list[list[str]]) -> dict[str, frozenset]:
    full = frozenset(pts)
    return {p: full.intersection(*[s for s in subbasis if p in s]) for p in pts}


def count_opens(mins: dict[str, frozenset]) -> int:
    """A subset is open iff it holds the minimal neighbourhood of each of its points."""
    pts = sorted(mins)
    return sum(
        all(mins[p] <= set(o) for p in o)
        for r in range(len(pts) + 1) for o in itertools.combinations(pts, r)
    )


def count_monotone_maps(dom: dict[str, frozenset], cod: dict[str, frozenset]) -> int:
    """Continuous maps of finite spaces are the maps f with f(U_p) inside U_f(p)."""
    pts = sorted(dom)
    return sum(
        all(vals[pts.index(q)] in cod[v] for p, v in zip(pts, vals) for q in dom[p])
        for vals in itertools.product(sorted(cod), repeat=len(pts))
    )


def _expect(cond: bool, why: str) -> str | None:
    return None if cond else why


def scaling_ops(m: dict[str, Any], rng: random.Random) -> list[Op]:
    fintop, rlcore, spectra = m["fintop"], m["rlcore"], m["spectra"]
    bundle, sheafify, adjunction, fixtures = m["bundle"], m["sheafify"], m["adjunction"], m["fixtures"]
    ans = ANSWERS["scaling"]
    ops: list[Op] = []

    def lattice_ladder(tag: str, alg, filters: int | None):
        args = lattice_args(alg, _names(rng, alg[0], "e"))
        ops.append(Op(f"make_lattice {tag}", lambda env: rlcore.make_lattice(*args),
                      lambda lat: _expect(len(lat.carrier) == alg[0], "wrong carrier size"), store=tag))
        ops.append(Op(f"verify_rl {tag}", lambda env: rlcore.verify_rl(env[tag]),
                      lambda rep: _expect(rep.ok, f"verify_rl rejects {tag}")))
        if filters is not None:
            ops.append(Op(f"all_filters {tag}", lambda env: rlcore.all_filters(env[tag]),
                          lambda fl: _expect(len(fl.filters) == filters, f"{len(fl.filters)} filters, expected {filters}"),
                          store=f"filters {tag}"))

    for n in (16, 32, 48):
        lattice_ladder(f"L_{n}", lukasiewicz(n), ans["lukasiewicz_filters"])
    lattice_ladder("A4^2", product_algebra(A4, A4), ans["product_filters"]["A4^2"])
    lattice_ladder("A4xA6", product_algebra(A4, A6), ans["product_filters"]["A4xA6"])
    # all_filters on A4^3 is left out: at this commit it does not finish in 250 s.
    lattice_ladder("A4^3", product_algebra(A4, A4, A4), None)

    spec = ans["spectrum_A4xA6"]
    for flavor in ("hull", "dual", "patch"):
        def spectrum(env, flavor=flavor):
            primes = env["filters A4xA6"].select("spec")
            return spectra.spectral_space(spectra.SpectrumConfig(env["A4xA6"], primes, flavor))
        ops.append(Op(f"spectral_space {flavor} A4xA6", spectrum,
                      lambda sp, want=(spec["points"], spec[flavor]):
                          _expect((len(sp.points), len(sp.opens)) == want, f"{len(sp.points)} points, {len(sp.opens)} opens")))

    # discrete(11) (2,048 opens, 2.2 s) and discrete(12) (4,096 opens, 8.5 s)
    # are left out to keep a pass near 12 s; n = 10 and n = 13 still sit on
    # either side of the 4,096-open cliff.
    for n, opens in ans["discrete_opens"].items():
        pts = _names(rng, int(n), "p")
        ops.append(Op(f"discrete {n}", lambda env, pts=pts: fintop.discrete(pts),
                      lambda sp, opens=opens: _expect(len(sp.opens) == opens, f"{len(sp.opens)} opens, expected {opens}")))

    s_open, s_closed = _names(rng, 2, "s")
    for k, dedekind in ans["dedekind"].items():
        names = dict(zip(itertools.product((0, 1), repeat=int(k)), _names(rng, 2 ** int(k), "q")))
        basis = sierpinski_power_basis(names)
        ops.append(Op(f"topology_from_basis S^{k}", lambda env, pts=list(names.values()), basis=basis:
                          fintop.topology_from_basis(pts, basis),
                      lambda sp, d=dedekind: _expect(len(sp.opens) == d, f"{len(sp.opens)} opens, expected {d}"),
                      store=f"S^{k}"))
        ops.append(Op(f"continuous_maps S^{k} -> S",
                      lambda env, k=k: fintop.continuous_maps(env[f"S^{k}"], fintop.sierpinski(s_open, s_closed)),
                      lambda maps, d=dedekind: _expect(len(maps) == d, f"{len(maps)} maps, expected {d}")))

    spaces = [random_subbasis(rng, f"r{i}_") for i in range(3)]
    for i, (pts, sub) in enumerate(spaces):
        ops.append(Op(f"topology_from_subbasis R{i}", lambda env, pts=pts, sub=sub: fintop.topology_from_subbasis(pts, sub),
                      lambda sp, want=functools.cache(lambda pts=pts, sub=sub: count_opens(min_nbhds(pts, sub))):
                          _expect(len(sp.opens) == want(), f"{len(sp.opens)} opens, expected {want()}"),
                      store=f"R{i}"))
    for i in range(3):
        j = (i + 1) % 3
        want = functools.cache(lambda i=i, j=j: count_monotone_maps(min_nbhds(*spaces[i]), min_nbhds(*spaces[j])))
        ops.append(Op(f"continuous_maps R{i} -> R{j}", lambda env, i=i, j=j: fintop.continuous_maps(env[f"R{i}"], env[f"R{j}"]),
                      lambda maps, want=want: _expect(len(maps) == want(), f"{len(maps)} maps, expected {want()}")))

    a2_args = lattice_args(A2, _names(rng, 2, "v"))
    ops.append(Op("make_lattice A2", lambda env: rlcore.make_lattice(*a2_args),
                  lambda lat: _expect(len(lat.carrier) == 2, "wrong carrier size"), store="A2"))
    for n, want in ans["constant_a2_bundle"].items():
        pts, tag = _names(rng, int(n), "b"), f"D_{n}"
        ops.append(Op(f"constant_rl_bundle {tag}", lambda env, pts=pts: fixtures.constant_rl_bundle(fintop.discrete(pts), env["A2"]),
                      lambda rb, n=int(n): _expect(len(rb.bundle.total.points) == 2 * n, "wrong total space"), store=tag))
        ops.append(Op(f"sections {tag}", lambda env, tag=tag: bundle.sections(env[tag].bundle, env[tag].base.points),
                      lambda secs, w=want["sections"]: _expect(len(secs) == w, f"{len(secs)} sections, expected {w}")))
        # etale_of on D_5 (1.9 s) is left out to keep a pass near 12 s; D_2..D_4 show its growth.
        if int(n) < 5:
            ops.append(Op(f"etale_of {tag}", lambda env, tag=tag: sheafify.etale_of(env[tag].bundle),
                          lambda gs, w=want["germs"]: _expect(len(gs.germs) == w, f"{len(gs.germs)} germs, expected {w}")))
        ops.append(Op(f"gamma_space {tag}", lambda env, tag=tag: adjunction.gamma_space(env[tag].bundle),
                      lambda g, w=want["sections"]: _expect(len(g[0].points) == w, f"{len(g[0].points)} points, expected {w}"),
                      **ans["known_defects"].get(f"gamma_space {tag}", {})))
        ops.append(Op(f"verify_rl_bundle {tag}", lambda env, tag=tag: bundle.verify_rl_bundle(env[tag]),
                      lambda rep: _expect(rep.ok, "verify_rl_bundle rejects a constant bundle")))
    return ops


def build(name: str, seed: int) -> Workload:
    """Import rlsheaf and make the workload's inputs: the set-up that setup_s times."""
    modules = import_rlsheaf()
    rng = random.Random(seed)
    if name == "corpus":
        return Workload(name, cli_ops(modules["cli"], ANSWERS["corpus"]), modules, rng, per_pass=_law_seed)
    if name == "adjunction":
        return Workload(name, cli_ops(modules["cli"], ANSWERS["adjunction"]), modules, rng)
    if name == "scaling":
        return Workload(name, scaling_ops(modules, rng), modules, rng)
    raise ValueError(f"unknown workload {name!r}")
