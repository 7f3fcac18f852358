"""Seed-fixed law suites: randomized generators plus the checks the CLI and tests share.

The seed comes from the RLSHEAF_SEED environment variable when set.  Each draw takes the points
in sorted order, so one seed gives the same objects in every process, whatever the hash seed.
"""

from __future__ import annotations

import itertools
import operator
import os
import random
from dataclasses import dataclass, field

from . import adjunction, basechange, bundle as bnd, fintop, fixtures, sheafify

DEFAULT_SEED = 271828
RANDOM_MAPS = 120  # drawn by the law suite's local-homeomorphism check


def suite_seed() -> int:
    text = os.environ.get("RLSHEAF_SEED", DEFAULT_SEED)
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"RLSHEAF_SEED must be an integer, got {text!r}") from None


@dataclass
class SuiteReport:
    """The named checks of one suite run, each with its verdict and a detail."""

    name: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str = ""):
        self.checks.append((label, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        out = [f"{self.name}: {'PASS' if self.ok else 'FAIL'}"]
        for label, ok, detail in self.checks:
            suffix = f" ({detail})" if detail else ""
            out.append(f"  [{'ok' if ok else 'FAIL'}] {label}{suffix}")
        return out

    def as_dict(self) -> dict:
        return {
            "suite": self.name,
            "ok": self.ok,
            "checks": [{"label": l, "ok": o, "detail": d} for l, o, d in self.checks],
        }


# ---------------------------------------------------------------------------
# random generators


def random_space(rng: random.Random, max_points: int = 5, prefix: str = "p") -> fintop.FiniteSpace:
    n = rng.randint(1, max_points)
    pts = [f"{prefix}{i}" for i in range(n)]
    subbasis = []
    for _ in range(rng.randint(0, n + 2)):
        subbasis.append([p for p in pts if rng.random() < 0.5])
    return fintop.topology_from_subbasis(pts, subbasis)


def random_map(rng: random.Random, dom: fintop.FiniteSpace, cod: fintop.FiniteSpace) -> fintop.SpaceMap:
    cod_pts = sorted(cod.points)
    return fintop.space_map(dom, cod, {p: rng.choice(cod_pts) for p in dom.sorted_points})


def random_nonetale_bundles(rng: random.Random, count: int) -> list[bnd.Bundle]:
    """Non-etale bundles on at most 6 total points over discrete bases, like every bundled fixture's base."""
    out = []
    attempts = 0
    while len(out) < count and attempts < 10000:
        attempts += 1
        base = fintop.discrete([f"b{i}" for i in range(rng.randint(1, 2))])
        total = random_space(rng, max_points=6, prefix="t")
        table = {t: rng.choice(base.sorted_points) for t in total.sorted_points}
        for b in base.sorted_points:
            if b not in table.values():
                table[total.sorted_points[0]] = b
        if set(table.values()) != set(base.points):
            continue
        proj = fintop.space_map(total, base, table)
        if not fintop.is_continuous(proj):
            continue
        b = bnd.Bundle(total, base, proj)
        if not bnd.is_etale(b):
            out.append(b)
    if len(out) < count:
        raise AssertionError("generator failed to produce enough non-etale bundles")
    return out


def equalizers_are_open(b: bnd.Bundle) -> bool:
    """Whether each equalizer of two sections over a U_p is open, and clopen in U_p when the total
    is discrete.  An equalizer over an open U is the union of those over the U_p inside U."""
    discrete_total = b.total.is_discrete()
    for _, u in b.base.min_nbhds:
        for s1, s2 in itertools.product(bnd.sections(b, u), repeat=2):
            facts = bnd.equalizer(s1, s2)[1]
            if not facts["open_in_base"] or discrete_total and not facts["clopen_in_common"]:
                return False
    return True


def minimal_sections_final_topology(b: bnd.Bundle) -> fintop.FiniteSpace:
    """The final topology on the total points of the sections over the U_p; over an etale
    these reach every point and give each point its U_t."""
    family = [(fintop.subspace(b.base, u), s.table) for _, u in b.base.min_nbhds for s in bnd.sections(b, u)]
    return fintop.final_topology(b.total.points, family)


# ---------------------------------------------------------------------------
# the structural law suite (local homeomorphisms, sections, sheafification, base change)


def law_suite(seed: int | None = None) -> SuiteReport:
    rng = random.Random(suite_seed() if seed is None else seed)
    rep = SuiteReport("law-suite")

    # local homeomorphism characterization on fixtures and random maps
    fixture_maps = [rb.proj for rb in fixtures.rl_bundle_fixtures().values()]
    fixture_maps += [fintop.identity_map(fixtures.space_sierpinski())]
    agree = 0
    for m in fixture_maps:
        if fintop.is_local_homeomorphism(m) == fintop.is_local_homeomorphism_direct(m):
            agree += 1
    ok = agree == len(fixture_maps)
    seen_true = seen_false = 0
    for _ in range(RANDOM_MAPS):
        dom = random_space(rng, 5, "d")
        cod = random_space(rng, 5, "c")
        m = random_map(rng, dom, cod)
        a = fintop.is_local_homeomorphism(m)
        if a != fintop.is_local_homeomorphism_direct(m):
            ok = False
        seen_true += a
        seen_false += not a
    rep.add(
        "local-homeo iff continuous+open+locally-injective",
        ok and seen_true > 0 and seen_false > 0,
        f"{len(fixture_maps)} fixture maps, {RANDOM_MAPS} random maps",
    )

    etales = {n: rb for n, rb in fixtures.etale_fixtures().items()}
    eq_ok = all(equalizers_are_open(rb.bundle) for rb in etales.values())
    rep.add("equalizers of sections over opens are open (clopen for discrete totals)", eq_ok)

    final_ok = all(minimal_sections_final_topology(rb.bundle) == rb.bundle.total for rb in etales.values())
    basis_ok = True
    stalk_ok = True
    for name, rb in etales.items():
        b = rb.bundle
        try:
            bnd.section_image_basis(b)
        except AssertionError:
            basis_ok = False
        for p in b.base.points:
            if not bnd.stalk(b, p).is_discrete():
                stalk_ok = False
    rep.add("section images form a basis of each etale total", basis_ok)
    rep.add("etale topology equals the final topology of its sections", final_ok)
    rep.add("etale stalks are discrete", stalk_ok)

    # sheafification behaviour on the named non-etale fixture and random bundles
    sheaf_ok = True
    details = []
    targets = [("indiscrete_a2_over_point", fixtures.indiscrete_a2_over_point().bundle)]
    try:
        targets += [(f"random{i}", b) for i, b in enumerate(random_nonetale_bundles(rng, 5))]
    except AssertionError as e:  # a generator that cannot draw its bundles fails this check by name
        sheaf_ok = False
        details.append(f"generator: {e}")
    for name, b in targets:
        gs = sheafify.etale_of(b)
        crep = sheafify.counit_report(b, gs)
        if not (bnd.is_etale(gs.as_bundle) and crep["injective"] and crep["continuous"] and crep["open_relative"]):
            sheaf_ok = False
            details.append(name)
        t = gs.as_bundle
        choices = {p: b.stalk_points(t.proj(p)) for p in t.total.points}
        tables = fintop.monotone_tables(t.total, b.total, choices)
        checked = 0
        for table in itertools.islice(tables, 8):
            h = bnd.BundleMorphism(t, b, fintop.space_map(t.total, b.total, table))
            m = sheafify.couniversal_factorization(h, gs)
            wits = sheafify.factorizations_by_search(h, gs)
            if len(wits) != 1 or wits[0].table != m.table:
                sheaf_ok = False
                details.append(f"{name}:factorization")
            checked += 1
        if checked == 0:
            sheaf_ok = False
            details.append(f"{name}:no-morphisms")
    rep.add("sheafification: etale output, counit properties, unique factorization", sheaf_ok, ",".join(details))

    iso_ok = all(sheafify.counit_is_iso(rb.bundle) for rb in etales.values())
    rep.add("counit at etale fixtures is an isomorphism", iso_ok)

    # base change stability on fixtures
    pb_ok = True
    spec_base = fixtures.et_spec_h_a4().base
    pt = fixtures.space_point()
    base_maps = [
        fintop.identity_map(spec_base),
        fintop.space_map(spec_base, pt, {p: "pt" for p in spec_base.points}),
        fintop.space_map(pt, spec_base, {"pt": "F2"}),
    ]
    for f in base_maps:
        for name, rb in etales.items():
            if rb.base != f.cod:
                continue
            pulled, _ = basechange.pullback_rl_etale(f, rb)
            if not (bnd.is_etale(pulled.bundle) and bnd.verify_rl_bundle(pulled).ok):
                pb_ok = False
    rep.add("pullbacks of etale fixtures along fixture base maps stay etale and valid", pb_ok)

    return rep


# ---------------------------------------------------------------------------
# the adjunction suite


def adjunction_suite() -> SuiteReport:
    """One row per check: its label, its call, the verdict read off each result, and its cases.  Every case
    runs even after one fails.  A lift raises unless its algebra verifies, so its row holds if it returns."""
    rep = SuiteReport("adjunction-suite")
    pt = fixtures.space_point()
    d2 = fintop.discrete(["m", "n"])
    d3 = fintop.discrete(["u", "v", "w"])
    sk = fixtures.space_sierpinski()
    t2 = fintop.discrete(["s", "t"])
    chain3 = fintop.topology_from_subbasis(["x", "y", "z"], [["x"], ["x", "y"]])
    four = fintop.discrete(["q0", "q1", "q2", "q3"])
    rb4 = fixtures.et_spec_h_a4()
    a2t = adjunction.TopologicalRL(fixtures.rl_a2(), fintop.discrete(fixtures.rl_a2().carrier))
    a3t = adjunction.TopologicalRL(fixtures.rl_a3(), fintop.discrete(fixtures.rl_a3().carrier))
    a3i = adjunction.TopologicalRL(fixtures.rl_a3(), fintop.indiscrete(fixtures.rl_a3().carrier))
    bijective = operator.itemgetter("bijective")
    rows = [
        ("exponential adjunction hom-set bijections and curry/uncurry inverses",
         adjunction.check_exponential_adjunction, bijective,
         [(pt, four, t2), (d2, sk, t2), (d2, chain3, t2), (d3, d2, t2), (d2, four, sk)]),
        ("section-functor adjunction hom-set bijections", adjunction.check_section_adjunction, bijective,
         [(rb4.bundle, pt), (rb4.bundle, d2), (rb4.bundle, sk), (fixtures.a2_over_point().bundle, d2),
          (fixtures.et_min_p_a8().bundle, d2)]),
        ("projection/forgetful adjunction hom-set bijections", adjunction.check_projection_adjunction, bijective,
         [(rb4.bundle, pt), (rb4.bundle, t2), (fixtures.identity_bundle(d2), t2),
          (fixtures.indiscrete_a2_over_point().bundle, sk)]),
        ("C(B,A) lifts to a topological residuated lattice", adjunction.lift_compact_open_rl, lambda _: True,
         [(pt, a2t), (d2, a2t), (d2, a3i), (pt, a3t)]),
        ("Gamma(B,b) lifts to a topological residuated lattice", adjunction.gamma_topological_rl, lambda _: True,
         [(rb4,), (fixtures.a2_over_point(),), (fixtures.et_max_d_a6(),), (fixtures.indiscrete_a2_over_point(),)]),
        ("pi_B lifts: B x A is a valid RL-bundle",
         lambda b, a: bnd.verify_rl_bundle(adjunction.product_rl_bundle(b, a)), lambda r: r.ok,
         [(pt, a2t), (d2, a2t), (d2, a3i)]),
        ("triangle identities relating C(B,-), Gamma(B,-), pi_B, U_B", adjunction.check_triangle_identities,
         lambda r: r["upper_triangle_iso"] and r["lower_triangle_strict"],
         [(pt, four), (d2, sk), (d2, d2), (d3, t2), (d2, fintop.discrete([]))]),
    ]
    for label, check, holds, cases in rows:
        rep.add(label, all([holds(check(*case)) for case in cases]))
    return rep
