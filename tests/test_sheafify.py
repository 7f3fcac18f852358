import collections
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coreflect_morphism_literal,
    counit_report_literal,
    couniversal_factorization_literal,
    equalizers_are_open_literal,
    etale_of_literal,
    rl_isomorphic,
    section_image_basis_literal,
    sections_final_topology_literal,
    small_bundles,
)
from rlsheaf import basechange, bundle, cli, fintop, fixtures, rlcore, sheafify, suites

ET4 = fixtures.et_spec_h_a4()
INDIS = fixtures.indiscrete_a2_over_point()


def sierpinski_counterexample_bundle():
    base = fintop.sierpinski("x", "y")
    total = fintop.space_from_opens(["p1", "p2", "q"], [[], ["p1", "p2"], ["p1", "p2", "q"]])
    proj = fintop.space_map(total, base, {"p1": "x", "p2": "x", "q": "y"})
    return bundle.Bundle(total, base, proj)


def test_germ_at_discrete_base_is_the_value():
    sec = bundle.sections(ET4.bundle, ET4.base.points)[0]
    g = sheafify.germ_at(ET4.bundle, sec, "F2")
    assert g.rep.domain == frozenset({"F2"})
    assert g.value() == sec("F2")


def test_germ_at_sierpinski_base_keeps_both_values():
    b = sierpinski_counterexample_bundle()
    secs = bundle.sections(b, b.base.points)
    g = sheafify.germ_at(b, secs[0], "y")
    assert g.rep.domain == frozenset({"x", "y"})
    assert set(g.rep.table) == {"x", "y"}


def test_sections_agreeing_at_point_with_discrete_base_share_germ():
    secs = {s.id_str: s for s in bundle.sections(ET4.bundle, ET4.base.points)}
    s1 = secs["{F2:0_1,F3:0_2}"]
    s2 = secs["{F2:0_1,F3:1_2}"]
    assert sheafify.germ_at(ET4.bundle, s1, "F2").id_str == sheafify.germ_at(ET4.bundle, s2, "F2").id_str
    assert sheafify.germ_at(ET4.bundle, s1, "F3").id_str != sheafify.germ_at(ET4.bundle, s2, "F3").id_str


def test_germ_at_rejects_bad_arguments():
    sec = bundle.sections(ET4.bundle, ET4.base.points)[0]
    with pytest.raises(ValueError):
        sheafify.germ_at(ET4.bundle, sec, "zzz")
    sub = sec.restrict(frozenset({"F2"}))
    # restriction to a non-open subset would be needed to trigger the open check
    # on this discrete base every subset is open, so use the Sierpinski bundle
    b = sierpinski_counterexample_bundle()
    s = bundle.sections(b, {"y"})[0]
    with pytest.raises(ValueError):
        sheafify.germ_at(b, s, "y")


def test_germ_equality_matches_exists_w_definition():
    for b in [ET4.bundle, sierpinski_counterexample_bundle(), INDIS.bundle]:
        for u in b.base.sorted_opens():
            for v in b.base.sorted_opens():
                for s in bundle.sections(b, u):
                    for t in bundle.sections(b, v):
                        for p in u & v:
                            canonical = (
                                sheafify.germ_at(b, s, p).id_str
                                == sheafify.germ_at(b, t, p).id_str
                            )
                            assert canonical == sheafify.germs_equivalent_exists_w(b, s, t, p)


def test_etale_of_indiscrete_bundle():
    gs = sheafify.etale_of(INDIS.bundle)
    assert len(gs.germs) == 2
    assert gs.space.is_discrete()
    assert bundle.is_etale(gs.as_bundle)


def test_etale_of_etale_input_gives_isomorphic_copy():
    gs = sheafify.etale_of(ET4.bundle)
    assert len(gs.germs) == 4
    assert sheafify.counit_is_iso(ET4.bundle, gs)


def test_etale_of_empty_total_over_nonempty_base():
    base = fintop.discrete(["b1", "b2"])
    total = fintop.space_from_opens([], [[]])
    b = bundle.Bundle(total, base, fintop.space_map(total, base, {}))
    gs = sheafify.etale_of(b)
    assert gs.germs == {}
    assert bundle.is_etale(gs.as_bundle)
    eps = sheafify.counit(b, gs)
    assert eps.table == ()
    rep = sheafify.counit_report(b, gs)
    assert all(rep.values())


def test_counit_report_on_indiscrete_fixture():
    rep = sheafify.counit_report(INDIS.bundle)
    assert rep["injective"] and rep["continuous"] and rep["open_relative"]
    # plain openness fails here: the landing topology is indiscrete
    assert not rep["open_in_total"]


def test_counit_injectivity_fails_over_sierpinski_base():
    # documents that injectivity is special to the fixtures' discrete bases
    b = sierpinski_counterexample_bundle()
    rep = sheafify.counit_report(b)
    assert not rep["injective"]
    assert rep["continuous"] and rep["open_relative"]


def test_counit_iso_on_all_etale_fixtures():
    for name, rb in fixtures.etale_fixtures().items():
        assert sheafify.counit_is_iso(rb.bundle)
        rep = sheafify.counit_report(rb.bundle)
        assert all(rep.values())


def test_germ_topology_is_final_topology_of_su_maps():
    for b in [INDIS.bundle, ET4.bundle, sierpinski_counterexample_bundle()]:
        gs = sheafify.etale_of(b)
        fam = []
        for u in b.base.sorted_opens():
            sub = fintop.subspace(b.base, u)
            for s in bundle.sections(b, u):
                table = {p: sheafify.germ_at(b, s, p).id_str for p in u}
                fam.append((sub, table))
        fin = fintop.final_topology(gs.space.points, fam)
        assert fin.opens == gs.space.opens


def test_coreflect_morphism_identity_and_composite():
    trivial = fixtures.trivial_a2_over_spec_h_a4()
    ident = bundle.BundleMorphism(ET4.bundle, ET4.bundle, fintop.identity_map(ET4.total))
    lifted = sheafify.coreflect_morphism(ident)
    assert all(lifted(k) == k for k in lifted.dom.points)

    collapse_table = {t: fintop.pair_id(ET4.proj(t), "0" if t.startswith("0") else "1") for t in ET4.total.points}
    collapse = bundle.BundleMorphism(
        ET4.bundle, trivial.bundle, fintop.space_map(ET4.total, trivial.total, collapse_table)
    )
    ident_triv = bundle.BundleMorphism(trivial.bundle, trivial.bundle, fintop.identity_map(trivial.total))
    lhs = sheafify.coreflect_morphism(
        bundle.BundleMorphism(ET4.bundle, trivial.bundle, fintop.compose(ident_triv.map, collapse.map))
    )
    step1 = sheafify.coreflect_morphism(collapse)
    step2 = sheafify.coreflect_morphism(ident_triv)
    assert lhs.table == fintop.compose(step2, step1).table


def fixture_morphisms_over_one_base():
    """Every bundle morphism between two of the RL-bundle fixtures (one may be both) over one base."""
    rbs = list(fixtures.rl_bundle_fixtures().values())
    for src, dst in itertools.product(rbs, repeat=2):
        if src.base == dst.base:
            yield from bundle.bundle_morphisms(src.bundle, dst.bundle)


def test_coreflect_morphism_matches_pushing_each_germ(monkeypatch):
    """Both build the germ spaces through `sheafify.etale_of`, memoized here per bundle object: the
    7,234 morphisms share the germ spaces of 14 pairs of fixtures."""
    built, etale_of = {}, sheafify.etale_of

    def memo(b):
        if id(b) not in built:
            built[id(b)] = etale_of(b)
        return built[id(b)]

    monkeypatch.setattr(sheafify, "etale_of", memo)
    count = 0
    for h in fixture_morphisms_over_one_base():
        assert sheafify.coreflect_morphism(h).table == coreflect_morphism_literal(h).table
        count += 1
    assert count == 7234


def test_couniversal_factorization_identity_inverts_counit():
    gs = sheafify.etale_of(ET4.bundle)
    eps = sheafify.counit(ET4.bundle, gs)
    h = bundle.BundleMorphism(ET4.bundle, ET4.bundle, fintop.identity_map(ET4.total))
    hbar = sheafify.couniversal_factorization(h)
    for t in ET4.total.points:
        assert eps(hbar(t)) == t
    for k in gs.space.points:
        assert hbar(eps(k)) == k


def test_couniversal_factorization_unique_by_search():
    for b in [INDIS.bundle, ET4.bundle]:
        gs = sheafify.etale_of(b)
        t_bundle = gs.as_bundle
        for h in bundle.bundle_morphisms(t_bundle, b):
            hbar = sheafify.couniversal_factorization(h)
            wits = sheafify.factorizations_by_search(h)
            assert len(wits) == 1
            assert wits[0].table == hbar.table


def test_couniversal_factorization_requires_etale_source():
    h = bundle.BundleMorphism(INDIS.bundle, INDIS.bundle, fintop.identity_map(INDIS.total))
    with pytest.raises(ValueError):
        sheafify.couniversal_factorization(h)


def test_coreflection_bijection_on_fixture_pairs():
    trivial = fixtures.trivial_a2_over_spec_h_a4()
    pairs = [
        (ET4.bundle, trivial.bundle),
        (ET4.bundle, ET4.bundle),
        (sheafify.etale_of(INDIS.bundle).as_bundle, INDIS.bundle),
        (fixtures.a2_over_point().bundle, INDIS.bundle),
    ]
    for t, x in pairs:
        nb, ne, bij = sheafify.coreflection_hom_counts(t, x)
        assert nb == ne and bij


def test_rl_germ_ops_indiscrete_gives_discrete_a2():
    grb, gs = sheafify.rl_germ_ops(INDIS)
    assert bundle.verify_rl_bundle(grb).ok
    assert bundle.is_etale(grb.bundle)
    ga = bundle.pointwise_rl_on_sections(grb, grb.base.points)
    assert rl_isomorphic(ga.algebra, fixtures.rl_a2())


def test_rl_germ_ops_counit_is_stalkwise_rl_morphism():
    for rb in [ET4, fixtures.et_max_d_a6(), INDIS]:
        grb, gs = sheafify.rl_germ_ops(rb)
        assert bundle.verify_rl_bundle(grb).ok
        eps = sheafify.counit(rb.bundle, gs)
        for p in rb.base.points:
            table = {k: eps(k) for k in grb.bundle.stalk_points(p)}
            assert rlcore.is_rl_morphism(table, bundle.stalk_rl(grb, p), bundle.stalk_rl(rb, p))


def test_rl_germ_constant_sections_continuous():
    for rb in [ET4, INDIS]:
        grb, _ = sheafify.rl_germ_ops(rb)
        for tab in [grb.ops.zero, grb.ops.one]:
            sec = fintop.space_map(grb.base, grb.total, dict(tab))
            assert fintop.is_continuous(sec)


def test_gamma_of_germ_space_isomorphic_to_gamma_of_source():
    for rb in [ET4, INDIS, fixtures.et_max_d_a6()]:
        grb, _ = sheafify.rl_germ_ops(rb)
        for u in rb.base.sorted_opens():
            g_src = bundle.pointwise_rl_on_sections(rb, u)
            g_germ = bundle.pointwise_rl_on_sections(grb, u)
            assert rl_isomorphic(g_src.algebra, g_germ.algebra)


@pytest.mark.parametrize("name", ["indiscrete_a2_over_point", "etspecha4"])
def test_counit_check_builds_the_germ_space_once(monkeypatch, name):
    calls = []
    real = sheafify.etale_of
    monkeypatch.setattr(sheafify, "etale_of", lambda b: calls.append(b) or real(b))
    assert cli.run(["--format", "machine-readable", "counit-check", name]) == 0
    assert len(calls) == 1


def test_coreflection_hom_counts_builds_the_germ_space_once(monkeypatch):
    calls = []
    real = sheafify.etale_of
    monkeypatch.setattr(sheafify, "etale_of", lambda b: calls.append(b) or real(b))
    nb, ne, bij = sheafify.coreflection_hom_counts(fixtures.a2_over_point().bundle, INDIS.bundle)
    assert nb == ne > 0 and bij
    assert len(calls) == 1


def test_factorizations_read_the_counit_off_the_germs(monkeypatch):
    """`couniversal_factorization` and `factorizations_by_search` read a germ's value, not the counit map:
    the coreflection counts build no counit, and the law suite builds one per `counit_report` and
    per `counit_is_iso` (6 + 5)."""
    calls = []
    real = sheafify.counit
    monkeypatch.setattr(sheafify, "counit", lambda b, gs=None: calls.append(b) or real(b, gs))
    assert sheafify.coreflection_hom_counts(ET4.bundle, fixtures.trivial_a2_over_spec_h_a4().bundle) == (16, 16, True)
    assert calls == []
    assert suites.law_suite().ok
    assert len(calls) <= 11


# ---------------------------------------------------------------------------
# the checks ranged over the minimal opens U_p against their all-opens oracles


def fixture_etales_and_pullbacks() -> dict[str, bundle.Bundle]:
    """The etale fixtures and their pullbacks along every continuous map from the Sierpinski space."""
    out = {}
    for name, rb in fixtures.etale_fixtures().items():
        out[name] = rb.bundle
        for f in fintop.continuous_maps(fixtures.space_sierpinski(), rb.base):
            out[f"{name}<-{f.id_str}"] = basechange.pullback_etale(f, rb.bundle).result
    return out


def random_bundle(rng: random.Random) -> bundle.Bundle:
    """A bundle over a base from `suites.random_space` (at most 3 points), total at most 5 points."""
    while True:
        base, total = suites.random_space(rng, 3, "b"), suites.random_space(rng, 5, "t")
        proj = suites.random_map(rng, total, base)
        if fintop.is_continuous(proj):
            return bundle.Bundle(total, base, proj)


def assert_etale_checks_match_their_oracles(e: bundle.Bundle):
    assert bundle.is_etale(e)
    gs = sheafify.etale_of(e)
    assert sheafify.counit_report(e, gs) == counit_report_literal(e, gs)
    assert bundle.section_image_basis(e) == section_image_basis_literal(e)
    assert suites.equalizers_are_open(e) == equalizers_are_open_literal(e)
    assert suites.minimal_sections_final_topology(e) == sections_final_topology_literal(e) == e.total


@pytest.mark.parametrize("name", sorted(fixture_etales_and_pullbacks()))
def test_minimal_open_checks_match_the_all_opens_oracles_on_fixture_etales(name):
    assert_etale_checks_match_their_oracles(fixture_etales_and_pullbacks()[name])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_minimal_open_checks_match_the_all_opens_oracles_on_random_germ_etales(seed):
    """The germ etale of a random bundle sits over a base that need not be discrete."""
    b = random_bundle(random.Random(seed))
    gs = sheafify.etale_of(b)
    assert sheafify.counit_report(b, gs) == counit_report_literal(b, gs)
    assert suites.equalizers_are_open(b) == equalizers_are_open_literal(b)
    assert_etale_checks_match_their_oracles(gs.as_bundle)


@given(seed=st.integers(0, 2**32 - 1), keep=st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_section_image_basis_fails_where_the_cover_oracle_does(seed, keep):
    """With some sections withheld the images may miss a U_t; both checks must then refuse alike."""
    e = sheafify.etale_of(random_bundle(random.Random(seed))).as_bundle
    every = bundle.sections
    withheld = lambda b, x: [s for i, s in enumerate(every(b, x)) if (i + len(x) + seed) % 8 < keep]

    def outcome(check):
        try:
            return check(e)
        except AssertionError:
            return "not a basis"

    with mock.patch.object(bundle, "sections", withheld):
        assert outcome(bundle.section_image_basis) == outcome(section_image_basis_literal)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_etale_of_matches_the_germ_at_oracle(seed):
    """On a random bundle over a base from `suites.random_space`, often not discrete, and on its germ
    etale: the same space, projection, germs and counit report, and a local homeomorphism."""
    b = random_bundle(random.Random(seed))
    for src in (b, sheafify.etale_of(b).as_bundle):
        gs, lit = sheafify.etale_of(src), etale_of_literal(src)
        assert (gs.space, gs.proj) == (lit.space, lit.proj)
        assert [(k, g.rep.table) for k, g in gs.germs.items()] == [(k, g.rep.table) for k, g in lit.germs.items()]
        assert sheafify.counit_report(src, gs) == sheafify.counit_report(src, lit) == counit_report_literal(src, lit)
        assert fintop.is_local_homeomorphism(gs.proj) and fintop.is_local_homeomorphism_direct(gs.proj)


def test_rl_germ_ops_builds_each_stalk_from_the_germ_sections():
    """The stalk algebras come from the sections the germ etale already holds: one enumeration per U_p,
    and the same RL-bundle as when each stalk's sections are listed again."""
    rb = fixtures.constant_rl_bundle(fintop.sierpinski("x", "y"), fixtures.rl_a4())
    with mock.patch.object(bundle, "sections", wraps=bundle.sections) as counted:
        grb, gs = sheafify.rl_germ_ops(rb)
    assert counted.call_count == 2
    stalks = {}
    for p in rb.base.points:
        sa = bundle.pointwise_rl_on_sections(rb, fintop.minimal_neighborhood(rb.base, p))
        stalks[p] = (sa.algebra, lambda sid, p=p, secs=sa.sections: sheafify.germ_id(p, secs[sid].table))
    assert grb == bundle.RLBundle(gs.as_bundle, bundle.relabelled_ops(stalks))


def test_couniversal_factorization_matches_the_section_through_point_body(monkeypatch):
    """On every morphism the law suite factors and every one between the coreflection fixture pairs,
    hbar reads the germs off U_y with the table of the body that built the section through each y,
    and it is the one factorization the search finds.  Each germ space is a bundle once."""
    calls = []
    real = sheafify.couniversal_factorization
    monkeypatch.setattr(sheafify, "couniversal_factorization", lambda h, gs=None: calls.append((h, gs)) or real(h, gs))
    assert suites.law_suite().ok
    trivial = fixtures.trivial_a2_over_spec_h_a4()
    for t, x in [(ET4.bundle, trivial.bundle), (ET4.bundle, ET4.bundle), (fixtures.a2_over_point().bundle, INDIS.bundle)]:
        assert sheafify.coreflection_hom_counts(t, x)[2]
    monkeypatch.undo()
    assert len(calls) > 40
    for h, gs in calls:
        hbar = sheafify.couniversal_factorization(h, gs)
        assert hbar.table == couniversal_factorization_literal(h, gs).table
        assert [m.table for m in sheafify.factorizations_by_search(h, gs)] == [hbar.table]
        assert gs.as_bundle is gs.as_bundle
    h = bundle.BundleMorphism(INDIS.bundle, INDIS.bundle, fintop.identity_map(INDIS.total))
    for factor in (sheafify.couniversal_factorization, couniversal_factorization_literal):
        with pytest.raises(ValueError, match="^source bundle is not an etale$"):
            factor(h)


# ---------------------------------------------------------------------------
# the coreflection, settled on every small bundle so that its constructions need not re-check it


def coreflection_census(total_points: int):
    """Over each bundle X of `small_bundles(total_points, 2)`: the counit of X builds as a bundle
    morphism, and each bundle morphism h into X from the germ etale of any bundle over X's base (each
    distinct germ etale once) is factored by `couniversal_factorization` as the one map that
    `factorizations_by_search` finds.  Returns (bundles, morphisms, failures by kind)."""
    bundles = morphisms = 0
    failures = collections.Counter()
    for xs in small_bundles(total_points, 2).values():
        germs = [sheafify.etale_of(x) for x in xs]
        sources = []
        for gs in germs:
            if gs.as_bundle not in sources:
                sources.append(gs.as_bundle)
        for x, gx in zip(xs, germs):
            bundles += 1
            try:
                bundle.BundleMorphism(gx.as_bundle, x, sheafify.counit(x, gx))
            except ValueError:
                failures["counit"] += 1
            for t in sources:
                for h in bundle.bundle_morphisms(t, x):
                    morphisms += 1
                    try:
                        hbar = [sheafify.couniversal_factorization(h, gx).table]
                    except ValueError:
                        hbar = "refused"
                    if hbar != [m.table for m in sheafify.factorizations_by_search(h, gx)]:
                        failures["factorization"] += 1
    return bundles, morphisms, failures


def test_the_coreflection_holds_on_every_small_bundle():
    """672 bundles with at most 3 total points over at most 2 base points, 53 of them etales."""
    assert coreflection_census(3) == (672, 15714, {})
    assert sum(bundle.is_etale(x) for xs in small_bundles(3, 2).values() for x in xs) == 53


def counit_at_the_least_point(b, gs=None):
    """A wrong `sheafify.counit`: a germ at p goes to its representative's value at the least point of
    U_p by name, not at p."""
    gs = gs or sheafify.etale_of(b)
    return fintop.space_map(gs.space, b.total, {k: g.rep(min(g.rep.domain)) for k, g in gs.germs.items()})


def factor_through_constant_germs(total, proj, value, gs):
    """A wrong `sheafify._factor_through_germs`: y goes to the germ that repeats value(y) over U_y."""
    mins = total.min_nbhd_map
    return fintop.space_map(total, gs.space, {y: sheafify.germ_id(proj[y], {proj[s]: value(y) for s in mins[y]}) for y in total.sorted_points})


@pytest.mark.parametrize("name, mutant, failures", [
    ("counit", counit_at_the_least_point, {"counit": 4}),
    ("_factor_through_germs", factor_through_constant_germs, {"factorization": 12}),
])
def test_the_coreflection_census_fails_under_each_mutant(monkeypatch, name, mutant, failures):
    """On the 69 bundles with at most 2 total points and the 265 morphisms into them, a part of the
    census that the unmutated code passes."""
    monkeypatch.setattr(sheafify, name, mutant)
    assert coreflection_census(2)[2] == failures


def coreflector_census():
    """On `small_bundles(2, 2)`: `coreflect_morphism` sends the identity of each bundle to the identity
    of its germ etale, and each composite of two bundle morphisms to the composite of their lifts.
    Returns (identities, composites, failures by kind)."""
    identities = composites = 0
    failures = collections.Counter()

    def lift(h):
        try:
            return sheafify.coreflect_morphism(h).mapping
        except ValueError:
            return None

    for xs in small_bundles(2, 2).values():
        homs = {(i, j): bundle.bundle_morphisms(a, b) for (i, a), (j, b) in itertools.product(enumerate(xs), repeat=2)}
        lifts = {ij: [lift(h) for h in hs] for ij, hs in homs.items()}
        for x in xs:
            identities += 1
            if lift(bundle.BundleMorphism(x, x, fintop.identity_map(x.total))) != fintop.identity_map(sheafify.etale_of(x).space).mapping:
                failures["identity"] += 1
        for (i, j), k in itertools.product(homs, range(len(xs))):
            for (h1, l1), (h2, l2) in itertools.product(zip(homs[i, j], lifts[i, j]), zip(homs[j, k], lifts[j, k])):
                composites += 1
                lifted = lift(bundle.BundleMorphism(xs[i], xs[k], fintop.compose(h2.map, h1.map)))
                if None in (l1, l2) or lifted != {y: l2[v] for y, v in l1.items()}:
                    failures["composite"] += 1
    return identities, composites, failures


def test_the_coreflector_keeps_identities_and_composites_on_every_small_bundle():
    assert coreflector_census() == (69, 11287, {})


def test_the_coreflector_census_lifts_through_one_germ_space_per_bundle(monkeypatch):
    """`coreflect_morphism` keeps each end's germ space on its bundle: over the census, whose
    `small_bundles` are built afresh, the lifts call `etale_of` at most once per bundle object."""
    built, lifting = [], []
    etale_of, coreflect_morphism = sheafify.etale_of, sheafify.coreflect_morphism

    def counted(b):
        if lifting:
            built.append(b)
        return etale_of(b)

    def lift(h):
        lifting.append(h)
        try:
            return coreflect_morphism(h)
        finally:
            lifting.pop()

    monkeypatch.setattr(sheafify, "etale_of", counted)
    monkeypatch.setattr(sheafify, "coreflect_morphism", lift)
    assert coreflector_census() == (69, 11287, {})
    assert len(built) == len(set(map(id, built))) > 0


def test_the_coreflector_census_fails_when_the_lift_repeats_each_value(monkeypatch):
    monkeypatch.setattr(sheafify, "_factor_through_germs", factor_through_constant_germs)
    assert coreflector_census()[2] == {"identity": 6, "composite": 196}
