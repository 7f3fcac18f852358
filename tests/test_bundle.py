import collections
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    kernel_pair,
    mixed_chain_bundle,
    pointwise_rl_literal,
    proper_map_from_stalk_ops,
    proper_square_commutes,
    quotient_etales,
    rl_isomorphic,
    rl_product,
    section_test_bundles,
    section_through_point,
    sections_literal,
    small_spaces,
    source_mentions,
    stalk_ops_from_proper_map,
    three_chain,
    verify_rl_bundle_literal,
)
from rlsheaf import bundle, fintop, fixtures, rlcore, sheafify, suites

ET4 = fixtures.et_spec_h_a4()
ET6 = fixtures.et_max_d_a6()
ET8 = fixtures.et_min_p_a8()
INDIS = fixtures.indiscrete_a2_over_point()


def test_bundle_constructor_rejects_discontinuous_projection():
    total = fintop.discrete(["t1", "t2"])
    base = fintop.sierpinski("x", "y")
    # preimage of {x} is {t1}, open, fine; use an indiscrete total to break it
    indis = fintop.indiscrete(["t1", "t2"])
    with pytest.raises(ValueError):
        bundle.Bundle(indis, base, fintop.space_map(indis, base, {"t1": "x", "t2": "y"}))


def test_kernel_pair_of_etspecha4_has_eight_points():
    kp = kernel_pair(ET4.bundle)
    assert len(kp.space.points) == 8
    assert fintop.is_continuous(kp.p1) and fintop.is_continuous(kp.p2)


def test_kernel_pair_of_identity_bundle_is_diagonal():
    s = fixtures.space_sierpinski()
    b = fixtures.identity_bundle(s)
    kp = kernel_pair(b)
    assert kp.space.points == {fintop.pair_id(p, p) for p in s.points}


def test_kernel_pair_over_point_base_is_full_square():
    b = fixtures.a2_over_point().bundle
    kp = kernel_pair(b)
    assert len(kp.space.points) == len(b.total.points) ** 2


def test_stalks():
    st = bundle.stalk(ET4.bundle, "F2")
    assert st.points == {"0_1", "1_1"}
    assert st.is_discrete()
    for rb in fixtures.etale_fixtures().values():
        for p in rb.base.points:
            assert bundle.stalk(rb.bundle, p).is_discrete()


def test_plain_bundle_may_have_empty_stalk():
    base = fintop.discrete(["b1", "b2"])
    total = fintop.discrete(["t"])
    b = bundle.Bundle(total, base, fintop.space_map(total, base, {"t": "b1"}))
    assert bundle.stalk(b, "b2").points == frozenset()


def test_stalk_ops_proper_map_round_trip():
    for rb in [ET4, ET6, INDIS]:
        for name in bundle.StalkOps.OPS:
            rho = proper_map_from_stalk_ops(rb.bundle, rb.ops, name)
            back = stalk_ops_from_proper_map(rb.bundle, rho)
            assert back == rb.ops.op(name)
            again = proper_map_from_stalk_ops(
                rb.bundle,
                bundle.StalkOps(join=back, meet=back, mul=back, imp=back, zero=rb.ops.zero, one=rb.ops.one),
                "join",
            )
            assert again == rho


def test_constant_sections_are_global_sections():
    for rb in [ET4, ET6, ET8]:
        for tab in [rb.ops.zero, rb.ops.one]:
            sec = bundle.Section(rb.bundle, rb.base.points, dict(tab))
            assert sec.domain == rb.base.points


@pytest.mark.parametrize("name,rb", sorted(fixtures.rl_bundle_fixtures().items()))
def test_fixture_rl_bundles_verify(name, rb):
    assert bundle.verify_rl_bundle(rb).ok


def test_verify_rl_bundle_catches_broken_stalk():
    ops = bundle.StalkOps(
        join={k: dict(v) for k, v in ET4.ops.join.items()},
        meet={k: dict(v) for k, v in ET4.ops.meet.items()},
        mul={k: dict(v) for k, v in ET4.ops.mul.items()},
        imp={k: dict(v) for k, v in ET4.ops.imp.items()},
        zero=dict(ET4.ops.zero),
        one=dict(ET4.ops.one),
    )
    ops.mul["F2"][("1_1", "1_1")] = "0_1"
    broken = bundle.RLBundle(ET4.bundle, ops)
    rep = bundle.verify_rl_bundle(broken)
    assert not rep.ok
    assert any("stalk-not-rl" in v.rule for v in rep.violations)


def test_identity_bundle_with_degenerate_stalks_is_valid_rl_bundle():
    # one-point stalks carry the unique (degenerate) algebra; 0=1 is admitted
    s = fixtures.space_sierpinski()
    b = fixtures.identity_bundle(s)
    ops = bundle.StalkOps(
        join={p: {(p, p): p} for p in s.points},
        meet={p: {(p, p): p} for p in s.points},
        mul={p: {(p, p): p} for p in s.points},
        imp={p: {(p, p): p} for p in s.points},
        zero={p: p for p in s.points},
        one={p: p for p in s.points},
    )
    rb = bundle.RLBundle(b, ops)
    assert bundle.verify_rl_bundle(rb).ok
    rho = proper_map_from_stalk_ops(b, ops, "mul")
    assert rho == {fintop.pair_id(p, p): p for p in s.points}
    assert stalk_ops_from_proper_map(b, rho) == ops.mul


def test_is_etale_examples():
    assert bundle.is_etale(ET4.bundle)
    assert not bundle.is_etale(INDIS.bundle)
    assert bundle.is_etale(fixtures.identity_bundle(fixtures.space_sierpinski()))


def test_sections_counts():
    assert len(bundle.sections(ET4.bundle, ET4.base.points)) == 4
    assert len(bundle.sections(ET4.bundle, set())) == 1
    assert len(bundle.sections(INDIS.bundle, INDIS.base.points)) == 2
    assert len(bundle.sections(ET6.bundle, ET6.base.points)) == 6
    assert len(bundle.sections(ET8.bundle, ET8.base.points)) == 12


def test_section_through_point():
    for t in sorted(ET4.total.points):
        u, sec = section_through_point(ET4.bundle, t)
        assert sec(ET4.proj(t)) == t
        assert u in ET4.base.opens
        assert sec.domain == u
    ident = fixtures.identity_bundle(fixtures.space_sierpinski())
    u, sec = section_through_point(ident, "x")
    assert sec.table == {p: p for p in u}
    with pytest.raises(ValueError):
        section_through_point(INDIS.bundle, "(pt|0)")


def test_equalizer_examples():
    secs = {s.id_str: s for s in bundle.sections(ET4.bundle, ET4.base.points)}
    s1 = secs["{F2:0_1,F3:0_2}"]
    s2 = secs["{F2:0_1,F3:1_2}"]
    eq, facts = bundle.equalizer(s1, s2)
    assert eq == frozenset({"F2"})
    assert facts["open_in_base"] and facts["clopen_in_common"]
    eq_self, _ = bundle.equalizer(s1, s1)
    assert eq_self == s1.domain
    s3 = secs["{F2:1_1,F3:1_2}"]
    eq_disjoint, _ = bundle.equalizer(s1, s3)
    assert eq_disjoint == frozenset()


def test_section_image_basis():
    fam = bundle.section_image_basis(ET4.bundle)
    for t in ET4.total.points:
        assert frozenset({t}) in fam
    ident = fixtures.identity_bundle(fixtures.space_sierpinski())
    fam_ident = set(bundle.section_image_basis(ident))
    assert fam_ident == set(ident.total.opens) - {frozenset()} or fam_ident == set(ident.total.opens)
    two = fixtures.a2_over_point().bundle
    fam_two = set(bundle.section_image_basis(two))
    assert frozenset({"(pt|0)"}) in fam_two and frozenset({"(pt|1)"}) in fam_two


def test_pointwise_rl_on_sections_etspecha4_is_a2_squared():
    ga = bundle.pointwise_rl_on_sections(ET4, ET4.base.points)
    assert len(ga.algebra.carrier) == 4
    assert rlcore.verify_rl(ga.algebra).ok
    assert rl_isomorphic(ga.algebra, rl_product(fixtures.rl_a2(), fixtures.rl_a2()))


def test_pointwise_rl_on_empty_domain_is_degenerate():
    ga = bundle.pointwise_rl_on_sections(ET4, set())
    assert len(ga.algebra.carrier) == 1


def test_pointwise_rl_indiscrete_bundle_is_a2():
    ga = bundle.pointwise_rl_on_sections(INDIS, INDIS.base.points)
    assert rl_isomorphic(ga.algebra, fixtures.rl_a2())


def test_a_section_left_out_of_the_listed_ones_is_named_as_escaped():
    """A2 over a point has the sections 0 and 1: listed without 0, the constant zero escapes the list;
    listed without 1, the residual 0->0, which is 1, does."""
    rb = fixtures.a2_over_point()
    x = rb.bundle.base.points
    first, second = bundle.sections(rb.bundle, x)
    with pytest.raises(bundle.SectionClosureError, match="^constant zero escaped the section set$"):
        bundle.pointwise_rl_on_sections(rb, x, [second])
    with pytest.raises(bundle.SectionClosureError, match="^imp escaped the enumerated section set$"):
        bundle.pointwise_rl_on_sections(rb, x, [first])


@pytest.mark.parametrize("name,rb", sorted(fixtures.rl_bundle_fixtures().items()))
def test_gamma_is_rl_for_every_subset(name, rb):
    pts = sorted(rb.base.points)
    for r in range(len(pts) + 1):
        for combo in itertools.combinations(pts, r):
            ga = bundle.pointwise_rl_on_sections(rb, combo)
            assert rlcore.verify_rl(ga.algebra).ok


def test_broken_etale_fails_both_gamma_and_bundle_check():
    # breaking one stalk operation must break some Gamma(U) too (contrapositive chain)
    ops = bundle.StalkOps(
        join={k: dict(v) for k, v in ET4.ops.join.items()},
        meet={k: dict(v) for k, v in ET4.ops.meet.items()},
        mul={k: dict(v) for k, v in ET4.ops.mul.items()},
        imp={k: dict(v) for k, v in ET4.ops.imp.items()},
        zero=dict(ET4.ops.zero),
        one=dict(ET4.ops.one),
    )
    ops.mul["F2"][("1_1", "1_1")] = "0_1"
    broken = bundle.RLBundle(ET4.bundle, ops)
    assert not bundle.verify_rl_bundle(broken).ok
    failures = 0
    for u in broken.base.sorted_opens():
        try:
            ga = bundle.pointwise_rl_on_sections(broken, u)
            if not rlcore.verify_rl(ga.algebra).ok:
                failures += 1
        except bundle.SectionClosureError:
            failures += 1
    assert failures > 0


def test_is_rl_bundle_morphism_identity_and_broken_swap():
    ident = fintop.identity_map(ET4.total)
    assert bundle.is_rl_bundle_morphism(ident, ET4, ET4)
    assert proper_square_commutes(ident, ET4, ET4)
    # 0/1-preserving stalk swap cannot break A2, so collapse a stalk instead:
    # send both points of the F2 stalk to the unit, breaking meet at (0_1,0_1)? it
    # preserves everything iff the stalk map is a morphism; constant-to-one fails bot.
    swap = fintop.space_map(
        ET4.total, ET4.total, {"0_1": "1_1", "1_1": "0_1", "0_2": "0_2", "1_2": "1_2"}
    )
    bad = bundle.rl_bundle_morphism_violations(swap, ET4, ET4)
    assert bad and any("stalk F2" in w for w in bad)
    assert not proper_square_commutes(swap, ET4, ET4)


def test_rl_bundle_morphism_square_equivalence():
    # the stalkwise and kernel-pair-square definitions agree on all stalk-respecting maps
    src, dst = ET4, fixtures.trivial_a2_over_spec_h_a4()
    for table in bundle.base_compatible_tables(src.bundle, dst.bundle):
        m = fintop.space_map(src.total, dst.total, table)
        stalkwise = bundle.is_rl_bundle_morphism(m, src, dst)
        square = proper_square_commutes(m, src, dst) and fintop.is_continuous(m)
        assert stalkwise == square


def test_etale_morphism_three_way_equivalence():
    # base-compatible maps between etales: continuous iff open iff local homeo
    pairs = [(ET4.bundle, fixtures.trivial_a2_over_spec_h_a4().bundle), (ET4.bundle, ET4.bundle)]
    for src, dst in pairs:
        seen_continuous = 0
        for table in bundle.base_compatible_tables(src, dst):
            m = fintop.space_map(src.total, dst.total, table)
            c = fintop.is_continuous(m)
            o = fintop.is_open_map(m)
            lh = fintop.is_local_homeomorphism(m)
            assert c == o == lh
            seen_continuous += c
        assert seen_continuous


def test_final_topology_coincides_with_etale_topology():
    for rb in fixtures.etale_fixtures().values():
        b = rb.bundle
        fam = []
        pts = sorted(b.base.points)
        for r in range(len(pts) + 1):
            for combo in itertools.combinations(pts, r):
                sub = fintop.subspace(b.base, combo)
                for s in bundle.sections(b, combo):
                    fam.append((sub, dict(s.table)))
        fin = fintop.final_topology(b.total.points, fam)
        assert fin.opens == b.total.opens


def test_bundle_morphism_enumeration_matches_unpruned_oracle():
    src, dst = ET4.bundle, fixtures.trivial_a2_over_spec_h_a4().bundle
    fast = {m.map.id_str for m in bundle.bundle_morphisms(src, dst)}
    slow = set()
    for table in bundle.base_compatible_tables(src, dst):
        m = fintop.space_map(src.total, dst.total, table)
        if fintop.is_continuous(m):
            slow.add(m.id_str)
    assert fast == slow


def test_mixed_chain_bundle_names_the_discontinuous_proper_maps():
    rep = bundle.verify_rl_bundle(mixed_chain_bundle())
    assert [str(v) for v in rep.violations] == [
        "proper-map-discontinuous[mul]: ((y|m)|(y|m)) -> ((x|m)|(x|m))",
        "proper-map-discontinuous[imp]: ((y|m)|(y|0)) -> ((x|m)|(x|0))",
    ]
    assert rep.violations == verify_rl_bundle_literal(mixed_chain_bundle())


def test_a_failing_kernel_pair_with_one_lone_point_is_walked():
    """A2 over a point on the down-set topology, U_(pt|1) = {(pt|0), (pt|1)}: imp fails first at
    ((pt|1)|(pt|0)), whose second point is lone and whose first is not; the pair of two lone
    points before it in id order cannot fail and is not walked."""
    a2, base = fixtures.rl_a2(), fixtures.space_point()
    ids = {x: fintop.pair_id("pt", x) for x in a2.carrier}
    total = fintop.FiniteSpace(frozenset(ids.values()), {ids[x]: frozenset(ids[y] for y in a2.carrier if a2.le(y, x)) for x in a2.carrier})
    rb = fixtures.constant_rl_bundle(base, a2, total=total)
    assert not bundle.stalk(rb.bundle, "pt").is_discrete()
    mins = rb.total.min_nbhd_map
    assert (len(mins["(pt|1)"]), len(mins["(pt|0)"])) == (2, 1)
    rep = bundle.verify_rl_bundle(rb)
    assert [str(v) for v in rep.violations] == ["proper-map-discontinuous[imp]: ((pt|1)|(pt|0)) -> ((pt|0)|(pt|0))"]
    assert rep.violations == verify_rl_bundle_literal(rb)


ALGEBRAS = [fixtures.rl_a2(), fixtures.rl_a3(), three_chain("0"), fixtures.rl_a4()]
BASES = [fintop.discrete(["b0", "b1"]), fintop.indiscrete(["b0", "b1"]), fintop.sierpinski("x", "y")]


def stalk_topologies(lat: rlcore.ResiduatedLattice) -> list[fintop.FiniteSpace]:
    """The discrete, indiscrete and down-set topologies on the carrier."""
    down = {x: frozenset(y for y in lat.carrier if lat.le(y, x)) for x in lat.carrier}
    return [fintop.discrete(lat.carrier), fintop.indiscrete(lat.carrier), fintop.FiniteSpace(frozenset(lat.carrier), down)]


@st.composite
def rl_bundle_candidates(draw):
    """A fixture RL-bundle, a constant one on a product total, or a germ etale over a random base."""
    kind = draw(st.sampled_from(["fixture", "constant", "germ"]))
    if kind == "fixture":
        return draw(st.sampled_from(sorted(fixtures.rl_bundle_fixtures().items())))[1]
    if kind == "constant":
        lat, base = draw(st.sampled_from(ALGEBRAS)), draw(st.sampled_from(BASES))
        total, _, _ = fintop.product(base, draw(st.sampled_from(stalk_topologies(lat))))
        return fixtures.constant_rl_bundle(base, lat, total=total)
    base = suites.random_space(random.Random(draw(st.integers(0, 1 << 16))), max_points=3)
    return sheafify.rl_germ_ops(fixtures.constant_rl_bundle(base, draw(st.sampled_from(ALGEBRAS[:3]))))[0]


@st.composite
def mutated_rl_bundles(draw):
    """A candidate with at most one stalk-op or constant entry changed, dropped or sent outside its
    stalk, or one stalk's tables replaced by another RL structure on the same carrier."""
    rb = draw(rl_bundle_candidates())
    ops = bundle.StalkOps(
        **{name: {p: dict(t) for p, t in rb.ops.op(name).items()} for name in bundle.StalkOps.OPS},
        zero=dict(rb.ops.zero), one=dict(rb.ops.one),
    )
    p = draw(st.sampled_from(sorted(rb.base.points)))
    pts = sorted(rb.bundle.stalk_points(p))
    elsewhere = sorted(rb.total.points - set(pts)) + ["zz"]
    what = draw(st.sampled_from(["none", "entry", "constant", "stalk"]))
    if what in ("entry", "constant"):
        if what == "entry":
            tab = ops.op(draw(st.sampled_from(bundle.StalkOps.OPS)))[p]
            key = draw(st.sampled_from(list(itertools.product(pts, pts))))
        else:
            tab, key = getattr(ops, draw(st.sampled_from(["zero", "one"]))), p
        how = draw(st.sampled_from(["change", "drop", "outside"]))
        if how == "drop":
            del tab[key]
        else:
            tab[key] = draw(st.sampled_from(pts if how == "change" else elsewhere))
    elif what == "stalk":
        alg = draw(st.sampled_from([bundle.stalk_rl(rb, p)] + [a for a in ALGEBRAS if len(a.carrier) == len(pts)]))
        rename = dict(zip(alg.carrier, draw(st.permutations(pts))))
        new = bundle.relabelled_ops({p: (alg, rename.__getitem__)})
        for name in bundle.StalkOps.OPS:
            ops.op(name)[p] = new.op(name)[p]
        ops.zero[p], ops.one[p] = new.zero[p], new.one[p]
    return bundle.RLBundle(rb.bundle, ops)


@given(mutated_rl_bundles())
@settings(max_examples=150, deadline=None)
def test_verify_rl_bundle_matches_the_kernel_pair_scan(rb):
    assert bundle.verify_rl_bundle(rb).violations == verify_rl_bundle_literal(rb)


@given(mutated_rl_bundles())
@settings(max_examples=150, deadline=None)
def test_stalk_memo_gives_the_report_of_a_check_without_it(rb):
    """With no memo every stalk gets a full `verify_rl`; with it, a stalk whose structure has
    passed before (here always, by the second call) gets none, and the reports are equal."""
    with mock.patch.object(bundle, "_stalk_rows_pass", lambda rows: False):
        unmemoized = bundle.verify_rl_bundle(rb)
    bundle.verify_rl_bundle(rb)
    assert bundle.verify_rl_bundle(rb) == unmemoized
    assert unmemoized.violations == verify_rl_bundle_literal(rb)


def test_verify_rl_bundle_refuses_two_kernel_pairs_with_one_id():
    """A valid 4-chain on a|b, c, a, b|c over a point: (a|b, c) and (a, b|c) would both be (a|b|c)."""
    pts = ["a", "a|b", "b|c", "c"]
    chain = rlcore.make_lattice(pts, list(zip(pts, pts[1:])), {(x, y): min(x, y) for x in pts for y in pts}, "a", "c")
    assert rlcore.verify_rl(chain).ok
    total, base = fintop.discrete(pts), fintop.discrete(["pt"])
    rb = bundle.RLBundle(bundle.Bundle(total, base, fintop.space_map(total, base, dict.fromkeys(pts, "pt"))),
                         bundle.relabelled_ops({"pt": (chain, str)}))
    for check in (bundle.verify_rl_bundle, verify_rl_bundle_literal):
        with pytest.raises(ValueError, match=r"^two pairs share the id \(a\|b\|c\)$"):
            check(rb)


# ---------------------------------------------------------------------------
# etales built from restriction maps, over every small base


def test_filter_quotient_etales_over_every_small_base_are_rl_etales():
    """A4/Phi(p) over each of the 35 labelled topologies on at most 3 points, for every continuous
    Phi into Filt(A4): each is an RL-bundle by both checks, etale by both definitions, and
    Gamma(U_p) is A4/Phi(p)."""
    bases = list(small_spaces(3))
    counts = dict.fromkeys(range(4), 0)
    for base in bases:
        for stalks, rb in quotient_etales(base, fixtures.rl_a4()):
            counts[len(base.points)] += 1
            rep = bundle.verify_rl_bundle(rb)
            assert rep.ok and rep.violations == verify_rl_bundle_literal(rb)
            assert bundle.is_etale(rb.bundle) and fintop.is_local_homeomorphism_direct(rb.proj)
            for p, u in base.min_nbhds:
                assert rl_isomorphic(bundle.pointwise_rl_on_sections(rb, u).algebra, stalks[p])
    assert len(bases) == 35 and sum(not b.is_discrete() for b in bases) == 31
    assert counts == {0: 1, 1: 4, 2: 38, 3: 632}


def constant_stalks(base, carrier):
    return dict.fromkeys(base.points, carrier)


CHAIN = fintop.FiniteSpace(frozenset("abc"), {"a": "a", "b": "ab", "c": "abc"})


@pytest.mark.parametrize("base,stalks,restrict,name,message", [
    # r_pp must be the identity
    (fintop.discrete(["pt"]), {"pt": "01"}, lambda p, q, x: "1", fintop.pair_id, "cannot be the minimal neighbourhood of"),
    # r_ba . r_cb = identity, but r_ca swaps 0 and 1
    (CHAIN, constant_stalks(CHAIN, "01"), lambda p, q, x: {"0": "1", "1": "0"}[x] if (p, q) == ("c", "a") else x,
     fintop.pair_id, "cannot be the minimal neighbourhood of"),
    # r_yx(1) = 1 is not in F(x)
    (fintop.sierpinski("x", "y"), {"x": "0", "y": "01"}, lambda p, q, x: x, fintop.pair_id, "cannot be the minimal neighbourhood of"),
    (fintop.discrete(["p", "q"]), {"p": "01", "q": "01"}, lambda p, q, x: x, lambda p, x: x, r"^two stalk elements share the id 0$"),
])
def test_etale_from_restrictions_refuses_what_is_not_a_presheaf(base, stalks, restrict, name, message):
    with pytest.raises(ValueError, match=message):
        bundle.etale_from_restrictions(base, stalks, restrict, name)


def test_restriction_to_top_is_an_etale_whose_zero_is_discontinuous():
    """Every r_yx sends A2 to its top: a presheaf of sets, so an etale, but not of residuated lattices."""
    base, a2 = fintop.sierpinski("x", "y"), fixtures.rl_a2()
    e = bundle.etale_from_restrictions(base, constant_stalks(base, a2.carrier), lambda p, q, x: x if p == q else a2.top, fintop.pair_id)
    rb = bundle.RLBundle(e, bundle.relabelled_ops({p: (a2, lambda x, p=p: fintop.pair_id(p, x)) for p in base.points}))
    assert bundle.is_etale(e)
    assert [v.rule for v in bundle.verify_rl_bundle(rb).violations] == ["zero-discontinuous"]
    assert bundle.verify_rl_bundle(rb).violations == verify_rl_bundle_literal(rb)


def test_morphism_tables_are_the_unpruned_oracle_in_order():
    """Between every two fixture bundles over one base, the listed tables are the continuous
    stalk-respecting tables in lexicographic order, and `bundle_morphisms` wraps exactly them."""
    bundles = [rb.bundle for rb in fixtures.rl_bundle_fixtures().values()]
    pairs = 0
    for src, dst in itertools.product(bundles, repeat=2):
        if src.base != dst.base:
            continue
        pairs += 1
        slow = []
        for table in bundle.base_compatible_tables(src, dst):
            m = fintop.space_map(src.total, dst.total, table)
            if fintop.is_continuous(m):
                slow.append(m.table)
        assert bundle.morphism_tables(src, dst) == slow
        assert [m.map.table for m in bundle.bundle_morphisms(src, dst)] == slow
    assert pairs > len(bundles)


def test_a_section_value_outside_the_total_is_not_a_right_inverse():
    """A value that is no point of the total space lies over no base point: the section is refused with
    the right-inverse message, not a KeyError from the projection."""
    with pytest.raises(ValueError, match=r"^not a right inverse at F2$"):
        bundle.Section(ET4.bundle, frozenset({"F2"}), {"F2": "zz"})


def test_listed_sections_read_as_their_checked_twins():
    """Over every subset of the base, each section `sections` lists without a check is a `Section` with the
    id, table and domain of the checked twin the literal body builds, in the same order, and equal to it."""
    bundles = list(section_test_bundles())
    assert len(bundles) == 39
    for b in bundles:
        pts = sorted(b.base.points)
        for sub in itertools.chain.from_iterable(itertools.combinations(pts, r) for r in range(len(pts) + 1)):
            got, want = bundle.sections(b, sub), sections_literal(b, sub)
            assert all(type(s) is bundle.Section for s in got)
            assert [(s.id_str, s.table, s.domain) for s in got] == [(s.id_str, s.table, s.domain) for s in want]
            assert got == want


def test_only_sections_builds_unchecked_sections():
    """`_settled_section` runs none of the Section checks, so only `sections`, whose search settles them
    for every table it lists, may reach it: the package mentions it only as the callee there."""
    assert source_mentions("_settled_section") == [("bundle.sections", True)]


def test_section_image_basis_refuses_a_section_image_that_is_not_open(monkeypatch):
    """With `is_etale` admitting every bundle, the indiscrete A2 over a point gets through, and each of
    its two sections has a one-point image, which is not open in the indiscrete total."""
    monkeypatch.setattr(bundle, "is_etale", lambda e: True)
    with pytest.raises(AssertionError, match=r"^section image \{\(pt\|[01]\)\} is not open$"):
        bundle.section_image_basis(INDIS.bundle)


class Escaped(Exception):
    """The exception `pointwise_outcome` hands `pointwise_rl` to raise, carrying its (name, operands)."""


def pointwise_outcome(fn, members, tables, zero, one):
    """The algebra `fn` builds, or the (name, operands) of the one `escaped` call it raised."""
    calls = []
    try:
        return fn(members, tables, zero, one, lambda *args: calls.append(args) or Escaped(*args))
    except Escaped as e:
        assert calls == [e.args]
        return e.args


def test_pointwise_rl_matches_its_literal_body_on_every_suite_algebra(monkeypatch):
    """Each of the adjunction suite's four C(B,A) lifts and four Gamma lifts builds the algebra the
    body that combined each pair point by point builds."""
    calls, real = [], bundle.pointwise_rl
    monkeypatch.setattr(bundle, "pointwise_rl", lambda *args: calls.append(args[:4]) or real(*args))
    assert suites.adjunction_suite().ok
    monkeypatch.undo()
    assert len(calls) == 8
    for args in calls:
        fast = pointwise_outcome(bundle.pointwise_rl, *args)
        assert isinstance(fast, rlcore.ResiduatedLattice) and fast == pointwise_outcome(pointwise_rl_literal, *args)


def test_pointwise_rl_matches_its_literal_body_on_seed_drawn_tables():
    """Seed-drawn members over 0 to 3 points and tables that may miss an entry or hold a value no
    member takes: the same algebra or the same first escaped (name, operands), both seen."""
    rng = random.Random(33)
    kinds = collections.Counter()
    for _ in range(600):
        n, alphabet = rng.randint(0, 3), "ab"[:rng.randint(1, 2)]
        tuples = list(itertools.product(alphabet, repeat=n))
        if rng.random() < 0.3:  # drop some value tuples, so a result can fall outside the members
            tuples = rng.sample(tuples, rng.randint(0, len(tuples)))
        members = {f"m{i}": v for i, v in enumerate(rng.sample(tuples, len(tuples)))}
        noise = rng.choice([0.0, 0.0, 0.02, 0.1])

        def table():
            out = {xy: rng.choice(alphabet) for xy in itertools.product(alphabet, repeat=2)}
            for xy in list(out):
                if rng.random() < noise:
                    if rng.random() < 0.5:
                        del out[xy]  # a missing entry
                    else:
                        out[xy] = "zz"  # a value outside the members
            return out

        tables = {name: [table() for _ in range(n)] for name in bundle.StalkOps.OPS}
        zero, one = (tuple(rng.choice(alphabet + "z") for _ in range(n)) for _ in "01")
        fast = pointwise_outcome(bundle.pointwise_rl, members, tables, zero, one)
        assert fast == pointwise_outcome(pointwise_rl_literal, members, tables, zero, one)
        kinds[fast[0] if isinstance(fast, tuple) else "algebra"] += 1
    assert set(kinds) == {"algebra", *bundle.StalkOps.OPS, "zero", "one"}
