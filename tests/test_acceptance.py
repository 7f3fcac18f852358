"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria with a time budget assert it; the whole module is sized to finish
well under a minute.
"""

import itertools
import random
import time

import pytest

from conftest import coker, lambda_uniqueness_witnesses, morphism_a6_to_a4, rl_isomorphic, rl_product
from rlsheaf import (
    adjunction,
    basechange,
    bundle,
    fintop,
    fixtures,
    rlcore,
    sheafify,
    spectra,
    suites,
)

A4 = fixtures.rl_a4()
A6 = fixtures.rl_a6()
A8 = fixtures.rl_a8()
ET4 = fixtures.et_spec_h_a4()
INDIS = fixtures.indiscrete_a2_over_point()


def report(num: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


TABLE4 = {
    "A4": {
        "F1": {"1"}, "F2": {"a", "1"}, "F3": {"b", "1"}, "F4": {"0", "a", "b", "1"},
    },
    "A6": {
        "F1": {"1"}, "F2": {"a", "b", "d", "1"}, "F3": {"c", "d", "1"},
        "F4": {"d", "1"}, "F5": {"0", "a", "b", "c", "d", "1"},
    },
    "A8": {
        "F1": {"1"}, "F2": {"a", "c", "d", "e", "f", "1"}, "F3": {"c", "e", "1"},
        "F4": {"f", "1"}, "F5": set("0abcdef1"),
    },
}


def test_criterion_01_filter_enumeration_table4():
    t0 = time.perf_counter()
    ok = True
    for name, lat in [("A4", A4), ("A6", A6), ("A8", A8)]:
        fl = rlcore.all_filters(lat)
        expected = {frozenset(v) for v in TABLE4[name].values()}
        ok &= set(fl.filters) == expected
        ok &= len(fl.filters) == len(TABLE4[name])
    elapsed = time.perf_counter() - t0
    report(1, f"filter enumeration reproduces Table 4 exactly ({elapsed:.3f}s)", ok and elapsed < 1.0)


def test_criterion_02_classification_table5():
    expected = {
        "A4": ({"F2", "F3"}, {"F2", "F3"}),
        "A6": ({"F2", "F3"}, {"F1"}),
        "A8": ({"F2"}, {"F3", "F4"}),
    }
    ok = True
    for name, lat in [("A4", A4), ("A6", A6), ("A8", A8)]:
        fl = rlcore.all_filters(lat)
        names = {frozenset(v): k for k, v in TABLE4[name].items()}
        maxs = {names[f] for f in fl.filters if fl.classification[f].maximal}
        mins = {names[f] for f in fl.filters if fl.classification[f].minimal_prime}
        ok &= (maxs, mins) == expected[name]
    report(2, "classification reproduces Table 5 exactly", ok)


def test_criterion_03_spectral_topologies_table6():
    discrete2 = lambda a, b: {frozenset(), frozenset({a}), frozenset({b}), frozenset({a, b})}
    row1 = fixtures.spectrum_space("A4", "spec", "hull")
    row2 = fixtures.spectrum_space("A6", "max", "dual")
    ok = row1.opens == discrete2("F2", "F3")
    ok &= row2.opens == discrete2("F2", "F3")
    row3 = fixtures.spectrum_space("A8", "min", "patch")
    ok &= row3.points == {"F3", "F4"}
    ok &= fintop.verify_topology(row3.points, row3.opens).ok
    # the deviation record shipped with the corpus: the historical family is
    # not a family of subsets of the minimal spectrum, the computed one is
    from rlsheaf import cli

    ws = cli.load_workspace(None)
    dev = ws.expectations["deviations"]["A8:min:patch"]
    ok &= bool(dev["note"])
    ok &= not all(set(o) <= row3.points for o in dev["listed"])
    ok &= {frozenset(o) for o in dev["computed"]} == row3.opens
    report(3, "spectral topologies match Table 6 rows 1-2; row 3 computed with documented deviation", ok)


def test_criterion_04_example_morphism_and_injectivity_law():
    m = morphism_a6_to_a4()
    ok = rlcore.is_rl_morphism(m.table, A6, A4)
    ok &= coker(m.table, A4.top) == frozenset({"d", "1"})
    morphisms = [(m.table, A6, A4), ({x: x for x in A4.carrier}, A4, A4)]
    for lat in [A4, A6, A8]:
        for f in rlcore.all_filters(lat).filters:
            q, proj = rlcore.quotient(lat, f)
            morphisms.append((proj.table, lat, q))
    for table, dom, cod in morphisms:
        injective = len(set(table.values())) == len(table)
        ok &= injective == (coker(table, cod.top) == frozenset({dom.top}))
    report(4, "example morphism verified; coker={d,1}; injectivity iff coker={1}", ok)


def test_criterion_05_etspecha4_structure():
    ok = bundle.is_etale(ET4.bundle)
    ok &= bundle.verify_rl_bundle(ET4).ok
    secs = bundle.sections(ET4.bundle, ET4.base.points)
    ok &= len(secs) == 4
    ga = bundle.pointwise_rl_on_sections(ET4, ET4.base.points)
    ok &= rl_isomorphic(ga.algebra, rl_product(fixtures.rl_a2(), fixtures.rl_a2()))
    report(5, "etale over Spec_h(A4): valid, 4 global sections, Gamma iso to A2 x A2", ok)


def test_criterion_06_residual_derivation():
    t0 = time.perf_counter()
    ok = True
    for lat in [A4, A6, A8]:
        derived = rlcore.derive_residual(lat.carrier, lat.leq, lat.mul)
        for x, y, z in itertools.product(lat.carrier, repeat=3):
            if (lat.le(lat.mul[x, z], y)) != (lat.le(z, derived[x, y])):
                ok = False
        rebuilt = rlcore.ResiduatedLattice(
            lat.carrier, lat.leq, dict(lat.join), dict(lat.meet), dict(lat.mul), derived, lat.bot, lat.top
        )
        ok &= rlcore.verify_rl(rebuilt).ok
    elapsed = time.perf_counter() - t0
    report(6, f"residual derivation satisfies adjointness and verify_rl ({elapsed:.3f}s)", ok and elapsed < 1.0)


def test_criterion_07_sheafification_suite():
    rng = random.Random(suites.suite_seed())
    ok = True
    targets = [INDIS.bundle] + suites.random_nonetale_bundles(rng, 5)
    assert len(targets) >= 6
    for b in targets:
        gs = sheafify.etale_of(b)
        ok &= bundle.is_etale(gs.as_bundle)
        crep = sheafify.counit_report(b, gs)
        ok &= crep["injective"] and crep["continuous"] and crep["open_relative"]
        t = gs.as_bundle
        choices = {p: b.stalk_points(t.proj(p)) for p in t.total.points}
        tables = fintop.monotone_tables(t.total, b.total, choices)
        checked = 0
        for table in itertools.islice(tables, 12):
            h = bundle.BundleMorphism(t, b, fintop.space_map(t.total, b.total, table))
            hbar = sheafify.couniversal_factorization(h)
            wits = sheafify.factorizations_by_search(h)
            ok &= len(wits) == 1 and wits[0].table == hbar.table
            checked += 1
        ok &= checked > 0
    for name, rb in fixtures.etale_fixtures().items():
        ok &= sheafify.counit_is_iso(rb.bundle)
    report(7, "sheafification: etale germ spaces, counit properties, unique factorization, iso at etales", ok)


def test_criterion_08_coreflection_bijection():
    et6 = fixtures.et_max_d_a6()
    pairs = [
        (ET4.bundle, fixtures.trivial_a2_over_spec_h_a4().bundle),
        (ET4.bundle, ET4.bundle),
        (sheafify.etale_of(INDIS.bundle).as_bundle, INDIS.bundle),
        (fixtures.a2_over_point().bundle, INDIS.bundle),
        (fixtures.a2_over_point().bundle, fixtures.a2_over_point().bundle),
        (et6.bundle, et6.bundle),
    ]
    ok = True
    for t, x in pairs:
        assert len(t.total.points) <= 6 and len(x.total.points) <= 6
        nb, ne, bij = sheafify.coreflection_hom_counts(t, x)
        ok &= nb == ne and bij
    report(8, "coreflection: |Hom_bundle(T,X)| = |Hom_etale(T,Germ(X))| with verified bijection", ok)


def test_criterion_09_base_change_suite():
    ok = True
    spec_base = ET4.base
    pt = fixtures.space_point()
    base_maps = [
        fintop.identity_map(spec_base),
        fintop.space_map(spec_base, pt, {p: "pt" for p in spec_base.points}),
        fintop.space_map(pt, spec_base, {"pt": "F2"}),
        fintop.space_map(pt, pt, {"pt": "pt"}),
        fintop.space_map(spec_base, spec_base, {"F2": "F3", "F3": "F2"}),
    ]
    for f in base_maps:
        for name, rb in fixtures.etale_fixtures().items():
            if rb.base != f.cod:
                continue
            pulled, fprime = basechange.pullback_rl_etale(f, rb)
            ok &= bundle.is_etale(pulled.bundle)
            ok &= bundle.verify_rl_bundle(pulled).ok

    # strict functor laws
    f = fintop.space_map(pt, spec_base, {"pt": "F2"})
    trivial = fixtures.trivial_a2_over_spec_h_a4()
    ident = bundle.BundleMorphism(ET4.bundle, ET4.bundle, fintop.identity_map(ET4.total))
    lifted = basechange.pullback_morphism(f, ident)
    ok &= all(lifted(k) == k for k in lifted.src.total.points)
    collapse_table = {
        t: fintop.pair_id(ET4.proj(t), "0" if t.startswith("0") else "1") for t in ET4.total.points
    }
    collapse = bundle.BundleMorphism(
        ET4.bundle, trivial.bundle, fintop.space_map(ET4.total, trivial.total, collapse_table)
    )
    swap_table = {
        k: fintop.pair_id(trivial.proj(k), "1" if k.endswith("|0)") else "0")
        for k in trivial.total.points
    }
    swap = bundle.BundleMorphism(
        trivial.bundle, trivial.bundle, fintop.space_map(trivial.total, trivial.total, swap_table)
    )
    comp = bundle.BundleMorphism(ET4.bundle, trivial.bundle, fintop.compose(swap.map, collapse.map))
    lhs = basechange.pullback_morphism(f, comp).map.table
    rhs = fintop.compose(
        basechange.pullback_morphism(f, swap).map, basechange.pullback_morphism(f, collapse).map
    ).table
    ok &= lhs == rhs

    # lambda isomorphism, verified and unique
    g = fintop.identity_map(spec_base)
    lam = basechange.lambda_iso(f, g, ET4.bundle)
    wits = lambda_uniqueness_witnesses(f, g, ET4.bundle)
    ok &= len(wits) == 1 and wits[0].table == lam.table

    # RLE_inv category laws on a 3-chain
    r1 = basechange.RLESpace(spec_base, ET4)
    r2 = basechange.RLESpace(pt, fixtures.a2_over_point())
    r3 = basechange.RLESpace(spec_base, trivial)
    fold = fintop.space_map(spec_base, pt, {p: "pt" for p in spec_base.points})
    a1_pe, _ = basechange.pullback_rl_etale(fold, fixtures.a2_over_point())
    alpha1 = fintop.space_map(
        a1_pe.total,
        ET4.total,
        {
            k: ("0_1" if k == "(F2|(pt|0))" else "1_1" if k == "(F2|(pt|1))" else "0_2" if k == "(F3|(pt|0))" else "1_2")
            for k in a1_pe.total.points
        },
    )
    m1 = basechange.RLEInvMorphism(r1, r2, fold, alpha1)
    pick = fintop.space_map(pt, spec_base, {"pt": "F2"})
    a2_pe, _ = basechange.pullback_rl_etale(pick, trivial)
    alpha2 = fintop.space_map(
        a2_pe.total,
        fixtures.a2_over_point().total,
        {k: fintop.pair_id("pt", k.split("|")[2].rstrip("))")) for k in a2_pe.total.points},
    )
    m2 = basechange.RLEInvMorphism(r2, r3, pick, alpha2)
    a3_pe, _ = basechange.pullback_rl_etale(fold, fixtures.a2_over_point())
    alpha3 = fintop.space_map(
        a3_pe.total,
        trivial.total,
        {
            k: fintop.pair_id(k.split("|")[0].lstrip("("), k.split("|")[2].rstrip("))"))
            for k in a3_pe.total.points
        },
    )
    m3 = basechange.RLEInvMorphism(r3, r2, fold, alpha3)
    for m in [m1, m2, m3]:
        left = basechange.compose_rle_inv(basechange.identity_rle_morphism(m.src), m)
        right = basechange.compose_rle_inv(m, basechange.identity_rle_morphism(m.dst))
        ok &= left.f.table == m.f.table == right.f.table
        ok &= left.alpha.table == m.alpha.table == right.alpha.table
    assoc_l = basechange.compose_rle_inv(basechange.compose_rle_inv(m1, m2), m3)
    assoc_r = basechange.compose_rle_inv(m1, basechange.compose_rle_inv(m2, m3))
    ok &= assoc_l.f.table == assoc_r.f.table and assoc_l.alpha.table == assoc_r.alpha.table

    # section functor: S(id)=id and contravariance
    s_id = basechange.section_functor_morphism(basechange.identity_rle_morphism(r1))
    ok &= all(s_id(x) == x for x in s_id.dom.carrier)
    s12 = basechange.compose_rle_inv(m1, m2)
    s_comp = basechange.section_functor_morphism(s12)
    s_m1 = basechange.section_functor_morphism(m1)
    s_m2 = basechange.section_functor_morphism(m2)
    ok &= all(s_comp(sec) == s_m1(s_m2(sec)) for sec in s_comp.dom.carrier)
    report(9, "base change: pullback stability, strict functor laws, lambda, RLE_inv laws, section functor", ok)


def test_criterion_10_structural_law_suite():
    rep = suites.law_suite()
    for label, ok, detail in rep.checks:
        assert ok, f"law suite check failed: {label} {detail}"
    report(10, "structural law suite (fixtures plus 120 seed-fixed random maps)", rep.ok)


def test_criterion_11_adjunction_suite():
    t0 = time.perf_counter()
    rep = suites.adjunction_suite()
    elapsed = time.perf_counter() - t0
    for label, ok, detail in rep.checks:
        assert ok, f"adjunction suite check failed: {label} {detail}"
    report(11, f"adjunction suite ({elapsed:.1f}s)", rep.ok and elapsed < 30.0)
