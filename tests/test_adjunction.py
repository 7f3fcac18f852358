import collections
import itertools
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_checked_twin,
    check_exponential_adjunction_literal,
    check_projection_adjunction_literal,
    check_section_adjunction_literal,
    check_triangle_identities_literal,
    corestrict_to_sections_literal,
    curry_literal,
    is_continuous_literal,
    lift_compact_open_rl_literal,
    outputs_under_hash_seeds,
    pointwise_rl_on_sections_literal,
    pointwise_topology_literal,
    rl_isomorphic,
    rl_product,
    section_test_bundles,
    sections_literal,
    small_spaces,
    uncurry_literal,
)
from rlsheaf import adjunction, bundle, fintop, fixtures, rlcore, suites

PT = fixtures.space_point()
SK = fixtures.space_sierpinski()
D2 = fintop.discrete(["m", "n"])
T2 = fintop.discrete(["s", "t"])
ET4 = fixtures.et_spec_h_a4()


def test_compact_open_from_point_recovers_codomain():
    fs = adjunction.compact_open_space(PT, SK)
    assert len(fs.maps) == 2
    iso = {m.id_str: m("pt") for m in fs.maps}
    renamed = frozenset(frozenset(iso[i] for i in o) for o in fs.space.opens)
    assert renamed == SK.opens


def test_compact_open_discrete_to_discrete_is_discrete():
    fs = adjunction.compact_open_space(D2, T2)
    assert len(fs.maps) == 4
    assert fs.space.is_discrete()


def test_compact_open_sierpinski_self_maps_oracle():
    fs = adjunction.compact_open_space(SK, SK)
    assert len(fs.maps) == 3
    # oracle: rebuild the generated topology from the raw subbasis definition
    ids = [m.id_str for m in fs.maps]
    subbasis = []
    import itertools
    for r in range(3):
        for c in itertools.combinations(sorted(SK.points), r):
            for u in SK.opens:
                subbasis.append(frozenset(m.id_str for m in fs.maps if m.image(c) <= u))
    expected = set()
    import functools
    members = sorted(set(subbasis), key=lambda s: (len(s), sorted(s)))
    inters = set(members) | {frozenset(ids)}
    changed = True
    while changed:
        changed = False
        for a in list(inters):
            for b in list(inters):
                if a & b not in inters:
                    inters.add(a & b)
                    changed = True
    opens = {frozenset()} | set(inters)
    changed = True
    while changed:
        changed = False
        for a in list(opens):
            for b in list(opens):
                if a | b not in opens:
                    opens.add(a | b)
                    changed = True
    assert fs.space.opens == frozenset(opens)
    assert len(fs.space.opens) == 4
    # the same raw subbasis on seed-drawn pairs of spaces with at most 3
    # points; their function spaces have up to 27 points, so the generated
    # topology is compared through its least opens: every subbasic set is
    # open, and U_f is the intersection of the subbasic sets holding f
    rng = random.Random(2024)
    for _ in range(40):
        x, y = suites.random_space(rng, 3, "x"), suites.random_space(rng, 3, "y")
        fs = adjunction.compact_open_space(x, y)
        ids = frozenset(m.id_str for m in fs.maps)
        subbasis = [
            frozenset(m.id_str for m in fs.maps if m.image(c) <= u)
            for r in range(len(x.points) + 1)
            for c in itertools.combinations(sorted(x.points), r)
            for u in y.opens
        ]
        assert all(fs.space.is_open(s) for s in subbasis)
        for f in ids:
            assert fs.space.min_nbhd_map[f] == ids.intersection(*(s for s in subbasis if f in s))


def test_curry_uncurry_round_trip_on_all_maps():
    prod, p1, p2 = fintop.product(D2, SK)
    fs = adjunction.compact_open_space(D2, T2)
    for h in fintop.continuous_maps(prod, T2):
        k = adjunction.curry(h, p1, p2, fs)
        assert adjunction.uncurry(k, p1, p2, fs).table == h.table
    for k in fintop.continuous_maps(SK, fs.space):
        h = adjunction.uncurry(k, p1, p2, fs)
        assert adjunction.curry(h, p1, p2, fs).table == k.table


def test_curry_of_second_projection_is_constant_family():
    prod, p1, p2 = fintop.product(D2, SK)
    fs = adjunction.compact_open_space(D2, SK)
    k = adjunction.curry(p2, p1, p2, fs)
    lookup = fs.by_id()
    for x in SK.points:
        m = lookup[k(x)]
        assert all(m(b) == x for b in D2.points)


def test_exponential_adjunction_spec_example_counts():
    r = adjunction.check_exponential_adjunction(D2, SK, T2)
    assert r == {"lhs": 4, "rhs": 4, "bijective": True}


def test_exponential_adjunction_requires_discrete_base_unless_exploring():
    with pytest.raises(ValueError):
        adjunction.check_exponential_adjunction(SK, D2, T2)
    r = adjunction.check_exponential_adjunction(SK, D2, T2, explore_nondiscrete=True)
    assert set(r) == {"lhs", "rhs", "bijective"}


def test_corestrict_to_sections_picks_global_sections():
    prod, p1, p2 = fintop.product(ET4.base, PT)
    for h in fintop.continuous_maps(prod, ET4.total):
        if all(ET4.proj(h(k)) == p1(k) for k in prod.points):
            fam = adjunction.corestrict_to_sections(ET4.bundle, h, p1, p2)
            assert set(fam) == {"pt"}
            assert fam["pt"].id_str in {s.id_str for s in bundle.sections(ET4.bundle, ET4.base.points)}


def test_corestrict_rejects_non_triangle_maps():
    prod, p1, p2 = fintop.product(ET4.base, PT)
    table = {k: "0_1" for k in prod.points}
    h = fintop.space_map(prod, ET4.total, table)
    with pytest.raises(ValueError):
        adjunction.corestrict_to_sections(ET4.bundle, h, p1, p2)


def test_section_adjunction_counts():
    assert adjunction.check_section_adjunction(ET4.bundle, PT)["bijective"]
    assert adjunction.check_section_adjunction(ET4.bundle, D2)["bijective"]
    empty = fintop.space_from_opens([], [[]])
    r = adjunction.check_section_adjunction(ET4.bundle, empty)
    assert r["lhs"] == r["rhs"] == 1 and r["bijective"]


def test_projection_adjunction_counts():
    assert adjunction.check_projection_adjunction(ET4.bundle, PT)["bijective"]
    assert adjunction.check_projection_adjunction(ET4.bundle, T2)["bijective"]
    ident = fixtures.identity_bundle(D2)
    assert adjunction.check_projection_adjunction(ident, T2)["bijective"]


def test_lift_compact_open_point_base_recovers_algebra():
    a2 = adjunction.TopologicalRL(fixtures.rl_a2(), fintop.discrete(fixtures.rl_a2().carrier))
    lifted, _ = adjunction.lift_compact_open_rl(PT, a2)
    assert rl_isomorphic(lifted.algebra, fixtures.rl_a2())


def test_lift_compact_open_two_point_base_gives_square():
    a2 = adjunction.TopologicalRL(fixtures.rl_a2(), fintop.discrete(fixtures.rl_a2().carrier))
    lifted, fs = adjunction.lift_compact_open_rl(D2, a2)
    assert rl_isomorphic(lifted.algebra, rl_product(fixtures.rl_a2(), fixtures.rl_a2()))
    assert fs.space.is_discrete()


def test_lift_compact_open_indiscrete_algebra():
    a3i = adjunction.TopologicalRL(fixtures.rl_a3(), fintop.indiscrete(fixtures.rl_a3().carrier))
    lifted, _ = adjunction.lift_compact_open_rl(D2, a3i)
    assert adjunction.verify_topological_rl(lifted).ok


def test_gamma_topological_rl_on_fixtures():
    for rb in [ET4, fixtures.indiscrete_a2_over_point(), fixtures.et_min_p_a8()]:
        trl = adjunction.gamma_topological_rl(rb)
        assert adjunction.verify_topological_rl(trl).ok


def test_product_rl_bundle_valid_for_topological_algebras():
    a2 = adjunction.TopologicalRL(fixtures.rl_a2(), fintop.discrete(fixtures.rl_a2().carrier))
    for base in [PT, D2]:
        prb = adjunction.product_rl_bundle(base, a2)
        assert bundle.verify_rl_bundle(prb).ok
        assert bundle.is_etale(prb.bundle)


def test_triangle_identities():
    for b, x in [(PT, T2), (D2, fintop.discrete(["u", "v", "w"])), (D2, SK), (D2, fintop.space_from_opens([], [[]]))]:
        r = adjunction.check_triangle_identities(b, x)
        assert r["upper_triangle_iso"] and r["lower_triangle_strict"]


def test_gamma_space_matches_materialized_subspace():
    # the min-neighbourhood shortcut agrees with literal subspace-of-compact-open
    b = ET4.bundle
    fs = adjunction.compact_open_space(b.base, b.total)
    g_space, by_id = adjunction.gamma_space(b)
    section_ids = set(g_space.points)
    assert section_ids <= set(fs.space.points)
    literal = {o & frozenset(section_ids) for o in fs.space.opens}
    assert g_space.opens == frozenset(literal)


def test_binary_op_continuity_matches_materialized_product():
    a3i = adjunction.TopologicalRL(fixtures.rl_a3(), fintop.indiscrete(fixtures.rl_a3().carrier))
    a3d = adjunction.TopologicalRL(fixtures.rl_a3(), fintop.discrete(fixtures.rl_a3().carrier))
    sier3 = fintop.space_from_opens(["0", "a", "1"], [[], ["1"], ["a", "1"], ["0", "a", "1"]])
    for topo in [a3i.topology, a3d.topology, sier3]:
        prod, p1, p2 = fintop.product(topo, topo)
        for tab in [fixtures.rl_a3().mul, fixtures.rl_a3().imp]:
            fast = adjunction.binary_op_continuous(topo, topo, topo, tab)
            m = fintop.space_map(prod, topo, {k: tab[p1(k), p2(k)] for k in prod.points})
            assert fast == fintop.is_continuous(m)


OUTSIDE = "zz"
BASES = [PT, D2, fintop.indiscrete(["m", "n"]), SK]


def stalk_topologies(lat):
    """Discrete, indiscrete and down-set topologies on a lattice's carrier."""
    return [
        fintop.discrete(lat.carrier),
        fintop.indiscrete(lat.carrier),
        fintop.FiniteSpace(frozenset(lat.carrier), {x: frozenset(y for y in lat.carrier if lat.le(y, x)) for x in lat.carrier}),
    ]


LATTICES = [fixtures.rl_a2(), fixtures.rl_a3(), fixtures.rl_a4()]
RL_BUNDLES = list(fixtures.rl_bundle_fixtures().values()) + [
    fixtures.constant_rl_bundle(base, lat, total=fintop.product(base, topo)[0])
    for base in BASES[1:]
    for lat in LATTICES
    for topo in stalk_topologies(lat)
]
TOPOLOGICAL_RLS = [adjunction.TopologicalRL(lat, topo) for lat in LATTICES for topo in stalk_topologies(lat)]


def subsets(points):
    pts = sorted(points)
    return [frozenset(c) for r in range(len(pts) + 1) for c in itertools.combinations(pts, r)]


@st.composite
def corrupted_section_calls(draw):
    """Gamma(U) for every subset U of a fixture RL-bundle's base, with one stalk-op, zero or one entry
    changed, dropped or pointed outside its stalk or the total space (or left as it is)."""
    rb = draw(st.sampled_from(RL_BUNDLES))
    tabs = {name: {p: dict(t) for p, t in rb.ops.op(name).items()} for name in bundle.StalkOps.OPS}
    ops = bundle.StalkOps(**tabs, zero=dict(rb.ops.zero), one=dict(rb.ops.one))
    kind = draw(st.sampled_from(bundle.StalkOps.OPS + ("zero", "one", "none")))
    p = draw(st.sampled_from(sorted(rb.base.points)))
    value = draw(st.sampled_from(sorted(rb.total.points)) | st.just(OUTSIDE) | st.none())
    if kind in ("zero", "one"):
        getattr(ops, kind)[p] = value
    elif kind != "none":
        tab = ops.op(kind)[p]
        cell = draw(st.sampled_from(sorted(tab)))
        if value is None:
            del tab[cell]
        else:
            tab[cell] = value
    changed = bundle.RLBundle(rb.bundle, ops)
    return bundle.pointwise_rl_on_sections, pointwise_rl_on_sections_literal, [(changed, u) for u in subsets(rb.base.points)]


@st.composite
def corrupted_lift_calls(draw):
    """C(U, A) for every subspace U of a base, with one table entry or constant of a fixture topological RL A
    changed, dropped or pointed outside the carrier (or left as it is)."""
    trl = draw(st.sampled_from(TOPOLOGICAL_RLS))
    alg = trl.algebra
    tables = {name: dict(getattr(alg, name)) for name in bundle.StalkOps.OPS}
    consts = {"bot": alg.bot, "top": alg.top}
    kind = draw(st.sampled_from(sorted(tables) + sorted(consts) + ["none"]))
    value = draw(st.sampled_from(alg.carrier) | st.just(OUTSIDE))
    if kind in consts:
        consts[kind] = value
    elif kind != "none":
        cell = draw(st.sampled_from(sorted(tables[kind])))
        if draw(st.booleans()):
            del tables[kind][cell]
        else:
            tables[kind][cell] = value
    changed = adjunction.TopologicalRL(rlcore.ResiduatedLattice(alg.carrier, alg.leq, **tables, **consts), trl.topology)
    base = draw(st.sampled_from(BASES))
    return adjunction.lift_compact_open_rl, lift_compact_open_rl_literal, [
        (fintop.subspace(base, u), changed) for u in subsets(base.points)
    ]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, KeyError, AssertionError) as e:
        return type(e), str(e)


@given(st.one_of(corrupted_section_calls(), corrupted_lift_calls()))
@settings(max_examples=200, deadline=None)
def test_pointwise_kernel_agrees_with_the_per_pair_lifts(calls):
    """Gamma(U) and C(U, A) equal the algebras built with a Section or SpaceMap per pair, or fail with the same
    exception type and message, the first escape in the same order."""
    fast, literal, inputs = calls
    for args in inputs:
        assert outcome(fast, *args) == outcome(literal, *args)


SMALL3 = list(small_spaces(3))
SMALL2 = list(small_spaces(2))
# The same bases on the points z < z0 < z00, whose pair ids sort the other way: (z00|x) < (z0|x) < (z|x).
LONG_NAMES = {"b0": "z", "b1": "z0", "b2": "z00"}
BASES3 = [
    fintop.FiniteSpace(frozenset(LONG_NAMES[p] for p in s.points), {LONG_NAMES[p]: {LONG_NAMES[q] for q in u} for p, u in s.min_nbhds})
    for s in SMALL3
]


def table_or_error(fn, *args):
    """A map's table, a section family's tables by point, or the type of the exception raised."""
    try:
        out = fn(*args)
    except (ValueError, KeyError) as e:
        return type(e)
    return out.table if isinstance(out, fintop.SpaceMap) else {x: s.table for x, s in out.items()}


def test_curried_and_uncurried_maps_read_as_their_checked_twins():
    """On the adjunction suite's exponential cases, and one non-discrete base, every map curry and uncurry
    return equals the map the literal bodies build through `space_map`, in hash, table, mapping and id."""
    chain3 = fintop.topology_from_subbasis(["x", "y", "z"], [["x"], ["x", "y"]])
    d3, four = fintop.discrete(["u", "v", "w"]), fintop.discrete(["q0", "q1", "q2", "q3"])
    for b, x, t in [(PT, four, T2), (D2, SK, T2), (D2, chain3, T2), (d3, D2, T2), (D2, four, SK), (SK, D2, T2)]:
        prod, p1, p2 = fintop.product(b, x)
        fs = adjunction.compact_open_space(b, t)
        for h in fintop.continuous_maps(prod, t):
            assert_checked_twin(adjunction.curry(h, p1, p2, fs), curry_literal(h, p1, p2, fs))
        for k in fintop.continuous_maps(x, fs.space):
            assert_checked_twin(adjunction.uncurry(k, p1, p2, fs), uncurry_literal(k, p1, p2, fs))


def random_maps(rng, dom, cod, n):
    """n seed-drawn tables dom -> cod, continuous or not (none when no map exists)."""
    return [suites.random_map(rng, dom, cod) for _ in range(n)] if cod.points or not dom.points else []


@given(st.sampled_from(BASES3), st.sampled_from(SMALL3), st.sampled_from(SMALL2), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_curry_uncurry_and_corestriction_match_the_literal_bodies(b, x, t, rng):
    """Over every labelled base and factor with at most 3 points, discrete or not: every continuous h and k
    gives the literal tables, and seed-drawn tables give the same tables or the same exception type."""
    prod, p1, p2 = fintop.product(b, x)
    fs = adjunction.compact_open_space(b, t)
    for h in fintop.continuous_maps(prod, t):
        assert adjunction.curry(h, p1, p2, fs).table == curry_literal(h, p1, p2, fs).table
    for k in fintop.continuous_maps(x, fs.space):
        assert adjunction.uncurry(k, p1, p2, fs).table == uncurry_literal(k, p1, p2, fs).table
    for h in random_maps(rng, prod, t, 12):
        assert table_or_error(adjunction.curry, h, p1, p2, fs) == table_or_error(curry_literal, h, p1, p2, fs)
    for k in random_maps(rng, x, fs.space, 12):
        assert table_or_error(adjunction.uncurry, k, p1, p2, fs) == table_or_error(uncurry_literal, k, p1, p2, fs)
    total, q1, _ = fintop.product(b, t)
    target = bundle.Bundle(total, b, q1)
    for hm in bundle.bundle_morphisms(bundle.Bundle(prod, b, p1), target):
        fam = adjunction.corestrict_to_sections(target, hm.map, p1, p2)
        assert {xp: s.table for xp, s in fam.items()} == table_or_error(corestrict_to_sections_literal, target, hm.map, p1, p2)
    for h in random_maps(rng, prod, total, 12):
        args = (target, h, p1, p2)
        assert table_or_error(adjunction.corestrict_to_sections, *args) == table_or_error(corestrict_to_sections_literal, *args)


EMPTY = fintop.discrete([])


@pytest.mark.parametrize("b, x, t", [
    (fintop.discrete(["m", "mm"]), SK, T2),
    (fintop.sierpinski("mm", "m"), fintop.discrete(["x", "xx"]), SK),
    (fintop.indiscrete(["m", "mm"]), D2, T2),
    (EMPTY, D2, T2), (D2, EMPTY, T2), (EMPTY, EMPTY, SK), (SK, D2, EMPTY),
])
def test_curry_and_uncurry_regroup_a_product_whose_pair_ids_cross_the_base_order(b, x, t):
    """On the base points m < mm the pair ids sort the other way, (mm|x) < (m|x), so within a fibre
    the product's sorted points do not follow B; with B or X empty each slice, or the whole table, is
    empty.  Every continuous map, and seed-drawn tables, curry and uncurry as in the literal bodies, and
    the exponential and section checks, which read the same regrouping, give the literal dicts."""
    prod, p1, p2 = fintop.product(b, x)
    if "mm" in b.points:
        fibre = [k for k in prod.sorted_points if p2(k) == x.sorted_points[0]]
        assert [p1(k) for k in fibre] == ["mm", "m"]
    fs = adjunction.compact_open_space(b, t)
    hs, ks = fintop.continuous_maps(prod, t), fintop.continuous_maps(x, fs.space)
    assert hs and ks or not t.points
    for h in hs:
        assert_checked_twin(adjunction.curry(h, p1, p2, fs), curry_literal(h, p1, p2, fs))
    for k in ks:
        assert_checked_twin(adjunction.uncurry(k, p1, p2, fs), uncurry_literal(k, p1, p2, fs))
    rng = random.Random(len(prod.points))
    for h in random_maps(rng, prod, t, 20):
        assert table_or_error(adjunction.curry, h, p1, p2, fs) == table_or_error(curry_literal, h, p1, p2, fs)
    total, q1, _ = fintop.product(b, t)
    target = bundle.Bundle(total, b, q1)
    for check, args in [("check_section_adjunction", (target, x, True)), ("check_exponential_adjunction", (b, x, t, True))]:
        assert outcome(getattr(adjunction, check), *args) == outcome(LITERAL_CHECKS[check], *args)


def test_exponential_adjunction_holds_on_nondiscrete_bases_when_exploring():
    for b in [SK, fintop.indiscrete(["m", "n"])]:
        for x in [SK, D2]:
            r = adjunction.check_exponential_adjunction(b, x, SK, explore_nondiscrete=True)
            assert r["bijective"] and r["lhs"] == r["rhs"] > 0


CURRY_WITNESS = """
from rlsheaf import adjunction, fintop
b, t = fintop.sierpinski("x", "y"), fintop.discrete(["s", "t"])
prod, p1, p2 = fintop.product(b, fintop.discrete("abcd"))
h = fintop.space_map(prod, t, {k: "s" if p1(k) == "x" else "t" for k in prod.points})
try:
    adjunction.curry(h, p1, p2, adjunction.compact_open_space(b, t))
except ValueError as e:
    print(e)
"""


def test_curry_names_the_least_discontinuous_slice_under_every_hash_seed():
    """Every slice of h is non-constant, so none is continuous into a discrete T: the error names
    the least point of X, not the first one a frozenset happens to yield."""
    assert outputs_under_hash_seeds(CURRY_WITNESS, range(1, 5)) == ["curried slice at a is not continuous\n"] * 4


def test_binary_op_continuity_matches_materialized_product_on_random_tables():
    """One argument at a time agrees with continuity on the product, both verdicts seen, over seed-drawn
    tables (half of them continuous) between labelled spaces with at most 3 points."""
    rng = random.Random(13)
    cods = [s for s in SMALL3 if s.points]
    verdicts = []
    for _ in range(300):
        s1, s2, cod = rng.choice(SMALL3), rng.choice(SMALL3), rng.choice(cods)
        prod, p1, p2 = fintop.product(s1, s2)
        if rng.random() < 0.5:
            m = suites.random_map(rng, prod, cod)
        else:
            m = fintop.space_map(prod, cod, rng.choice(list(itertools.islice(fintop.monotone_tables(prod, cod), 64))))
        tab = {(p1(k), p2(k)): v for k, v in m.table}
        verdict = adjunction.binary_op_continuous(s1, s2, cod, tab)
        assert verdict == fintop.is_continuous(m) == is_continuous_literal(m)
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_is_continuous_matches_the_image_literal_on_random_maps():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(400):
        dom, cod = suites.random_space(rng, 5, "d"), suites.random_space(rng, 5, "c")
        m = suites.random_map(rng, dom, cod)
        verdicts.add(fintop.is_continuous(m))
        assert fintop.is_continuous(m) == is_continuous_literal(m)
    assert verdicts == {True, False}


LITERAL_CHECKS = {
    "check_exponential_adjunction": check_exponential_adjunction_literal,
    "check_section_adjunction": check_section_adjunction_literal,
    "check_projection_adjunction": check_projection_adjunction_literal,
    "check_triangle_identities": check_triangle_identities_literal,
}


def test_adjunction_checks_match_their_literal_bodies_on_every_suite_case(monkeypatch):
    """Every hom-set check the adjunction suite makes gives the dict of the body that rebuilt
    and rechecked each image."""
    calls = []
    for name in LITERAL_CHECKS:
        def spy(*args, name=name, check=getattr(adjunction, name), **kwargs):
            calls.append((name, args, kwargs))
            return check(*args, **kwargs)
        monkeypatch.setattr(adjunction, name, spy)
    assert suites.adjunction_suite().ok
    monkeypatch.undo()
    assert collections.Counter(name for name, _, _ in calls) == {
        "check_exponential_adjunction": 5, "check_section_adjunction": 5,
        "check_projection_adjunction": 4, "check_triangle_identities": 5,
    }
    for name, args, kwargs in calls:
        assert getattr(adjunction, name)(*args, **kwargs) == LITERAL_CHECKS[name](*args, **kwargs)


@given(st.sampled_from(BASES3), st.sampled_from(SMALL3), st.sampled_from(SMALL2))
@settings(max_examples=40, deadline=None)
def test_adjunction_checks_match_their_literal_bodies_on_small_spaces(b, x, t):
    """Over every labelled B and X with at most 3 points and T with at most 2, discrete or not: the
    exponential check on (B, X, T), the section check on pi_B(T) and X, the projection check on
    pi_B(X) and T, and the triangle check on (B, X) give the literal dicts or exceptions."""
    prod_t, q1, _ = fintop.product(b, t)
    prod_x, p1, _ = fintop.product(b, x)
    cases = [
        ("check_exponential_adjunction", (b, x, t, True)),  # explore_nondiscrete
        ("check_section_adjunction", (bundle.Bundle(prod_t, b, q1), x, True)),
        ("check_projection_adjunction", (bundle.Bundle(prod_x, b, p1), t)),
        ("check_triangle_identities", (b, x)),
    ]
    for name, args in cases:
        assert outcome(getattr(adjunction, name), *args) == outcome(LITERAL_CHECKS[name], *args)


def test_the_hom_set_bijections_hold_on_every_small_triple():
    """The census over all 1,260 labelled triples: B with at most 3 points and X, T with at most 2,
    discrete or not.  The exponential check on (B, X, T), the section check on pi_B(T) and X, and the
    projection check on pi_B(X) and T each report a bijection; the triangle identities hold on the 24
    pairs (B, X) whose B is discrete."""
    triples = list(itertools.product(SMALL3, SMALL2, SMALL2))
    assert len(triples) == 1260
    for b, x, t in triples:
        prod_t, q1, _ = fintop.product(b, t)
        prod_x, p1, _ = fintop.product(b, x)
        assert adjunction.check_exponential_adjunction(b, x, t, explore_nondiscrete=True)["bijective"]
        assert adjunction.check_section_adjunction(bundle.Bundle(prod_t, b, q1), x, explore_nondiscrete=True)["bijective"]
        assert adjunction.check_projection_adjunction(bundle.Bundle(prod_x, b, p1), t)["bijective"]
    pairs = [(b, x) for b, x in itertools.product(SMALL3, SMALL2) if b.is_discrete()]
    assert len(pairs) == 24
    for b, x in pairs:
        r = adjunction.check_triangle_identities(b, x)
        assert r["upper_triangle_iso"] and r["lower_triangle_strict"]


def test_the_hom_set_census_fails_under_a_b_major_regrouping(monkeypatch):
    """The census above can fail: with B x X regrouped b-major (keyed by (b, x) in place of (x, b)), the
    exponential check fails on 316 of the 1,260 triples and the section check on 660, by an exception or
    a report of no bijection.  The projection check reads no regrouping and fails on none."""
    def b_major(p1, p2):
        keys = list(zip(map(fintop._value, p1.table), map(fintop._value, p2.table)))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return adjunction._picker(order), adjunction._picker(sorted(range(len(order)), key=order.__getitem__))

    def fails(check, *args, **kwargs):
        try:
            return not check(*args, **kwargs)["bijective"]
        except (AssertionError, ValueError):
            return True

    monkeypatch.setattr(adjunction, "_regrouping", b_major)
    failures = [0, 0, 0]
    for b, x, t in itertools.product(SMALL3, SMALL2, SMALL2):
        prod_t, q1, _ = fintop.product(b, t)
        prod_x, p1, _ = fintop.product(b, x)
        failures[0] += fails(adjunction.check_exponential_adjunction, b, x, t, explore_nondiscrete=True)
        failures[1] += fails(adjunction.check_section_adjunction, bundle.Bundle(prod_t, b, q1), x, explore_nondiscrete=True)
        failures[2] += fails(adjunction.check_projection_adjunction, bundle.Bundle(prod_x, b, p1), t)
    assert failures == [316, 660, 0]


@pytest.mark.parametrize("continuous, message", [
    (True, "uncurry . curry is not the identity"), (False, "curry of a continuous map is not continuous"),
])
def test_a_curry_onto_one_table_fails_the_exponential_check_and_its_oracle(monkeypatch, continuous, message):
    """With curry sending every h to one fixed table of Top(X, C(B,T)), the membership test passes and
    the round trip fails, as in the oracle; with a fixed table outside it (two values on the Sierpinski
    space into a discrete one) the membership test fails where the oracle's continuity check does."""
    fs = adjunction.compact_open_space(D2, T2)
    if continuous:
        fixed = fintop.continuous_maps(SK, fs.space)[0]
    else:
        fixed = fintop.SpaceMap(SK, fs.space, tuple(zip(SK.sorted_points, fs.space.sorted_points)))
    monkeypatch.setattr(adjunction, "curry", lambda h, p1, p2, fs: fixed)
    for check in (adjunction.check_exponential_adjunction, check_exponential_adjunction_literal):
        assert outcome(check, D2, SK, T2) == (AssertionError, message)


def test_exponential_check_curries_each_map_once_and_checks_no_continuity(monkeypatch):
    """One pass over Top(BxX, T): each of its 4 maps is curried and uncurried once, and continuity
    is settled by table lookup, not by `is_continuous`."""
    counts = collections.Counter()
    for module, name in [(adjunction, "curry"), (adjunction, "uncurry"), (fintop, "is_continuous")]:
        def counted(*args, name=name, f=getattr(module, name)):
            counts[name] += 1
            return f(*args)
        monkeypatch.setattr(module, name, counted)
    assert adjunction.check_exponential_adjunction(D2, SK, T2) == {"lhs": 4, "rhs": 4, "bijective": True}
    assert [counts["curry"], counts["uncurry"], counts["is_continuous"]] == [4, 4, 0]


@pytest.mark.parametrize("value, bot, witness", [
    (None, "0", "algebra[mul-missing]: (0,0)"),
    (OUTSIDE, "0", "algebra[mul-escapes]: (0,0)->zz"),
    (None, OUTSIDE, "algebra[constants-escape]: bot=zz, top=1"),
])
def test_verify_topological_rl_reports_a_broken_table_without_raising(value, bot, witness):
    """An operation whose table is not total on the carrier is not checked for continuity: on each
    topology the report is verify_rl's violation, then the intact algebra's verdicts on the other
    operations (exactly the witness on the discrete one).  With bot outside the carrier verify_rl
    stops before the tables, and the incomplete mul is still skipped."""
    a2 = fixtures.rl_a2()
    mul = dict(a2.mul)
    if value is None:
        del mul["0", "0"]
    else:
        mul["0", "0"] = value
    alg = rlcore.ResiduatedLattice(a2.carrier, a2.leq, a2.join, a2.meet, mul, a2.imp, bot, a2.top)
    for topo in stalk_topologies(a2):
        intact = adjunction.verify_topological_rl(adjunction.TopologicalRL(a2, topo))
        rep = adjunction.verify_topological_rl(adjunction.TopologicalRL(alg, topo))
        assert [str(v) for v in rep.violations] == [witness] + [str(v) for v in intact.violations if v.witness != "mul"]
        if topo.is_discrete():
            assert len(rep.violations) == 1


def test_two_maps_or_sections_sharing_an_id_are_refused():
    """Ids join `k:v` with `,`, so names holding both can clash: C(D, T) would list 16 maps on 15
    points, and Gamma of a valid RL-etale 4 sections on 3."""
    pq = fintop.discrete(["p", "q"])
    with pytest.raises(ValueError, match=r"^two maps share the id \{p:u,q:v,q:w\}$"):
        adjunction.compact_open_space(pq, fintop.discrete(["u,q:v", "w", "u", "v,q:w"]))
    names = {"p": {"0": "x", "1": "x,q:y"}, "q": {"0": "z", "1": "y,q:z"}}
    e = bundle.etale_from_restrictions(pq, {p: list(r.values()) for p, r in names.items()}, lambda p, q, a: a, lambda p, a: a)
    rb = bundle.RLBundle(e, bundle.relabelled_ops({p: (fixtures.rl_a2(), r.get) for p, r in names.items()}))
    assert bundle.verify_rl_bundle(rb).ok and bundle.is_etale(e)
    shared = "^" + re.escape("two sections share the id {p:x,q:y,q:z}") + "$"
    with pytest.raises(ValueError, match=shared):
        adjunction.gamma_space(e)
    with pytest.raises(ValueError, match=shared):
        bundle.pointwise_rl_on_sections(rb, pq.points)


def test_adjunction_suite_wraps_no_listed_morphism_or_corestriction(monkeypatch):
    """The hom-set checks read the tables the monotone search lists: one suite builds no
    `BundleMorphism` and only the 60 `Section`s of the global-section listings."""
    counts = collections.Counter()
    for cls in (bundle.BundleMorphism, bundle.Section):
        def counted(self, cls=cls, check=cls.__post_init__):
            counts[cls.__name__] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    assert suites.adjunction_suite().ok
    assert counts["BundleMorphism"] == 0 and counts["Section"] <= 60


COUNT_CHECKED_MAPS = """
from rlsheaf import fintop, suites
count, check = [0], fintop.SpaceMap.__post_init__
def counted(self):
    count[0] += 1
    check(self)
fintop.SpaceMap.__post_init__ = counted
assert suites.adjunction_suite().ok
print(count[0])
"""


def test_adjunction_suite_checks_only_the_maps_no_search_or_index_settled():
    """The maps `continuous_maps`, `curry` and `uncurry` return are settled by the monotone search or the
    function-space index and built unchecked: one suite runs `SpaceMap.__post_init__` 112 times.  It runs
    in a fresh interpreter, since the fixtures it builds are cached across a test session."""
    run = subprocess.run([sys.executable, "-c", COUNT_CHECKED_MAPS], capture_output=True, text=True, check=True)
    assert run.stdout == "112\n"


def test_section_check_fails_when_a_slice_is_not_a_listed_global_section(monkeypatch):
    """A corestriction is continuous iff each of its slices is among the tables of Gamma(B,b): with
    the last global section left out of Gamma, the slice onto it is not found."""
    def short(b, gamma=adjunction.gamma_space):
        g_space, by_id = gamma(b)
        return g_space, {i: s for i, s in by_id.items() if i != max(by_id)}
    monkeypatch.setattr(adjunction, "gamma_space", short)
    with pytest.raises(AssertionError, match="^corestriction is not continuous$"):
        adjunction.check_section_adjunction(ET4.bundle, D2)


def test_the_pointwise_order_on_masks_is_the_pairwise_one():
    """`compact_open_space` on every ordered pair of spaces of at most 2 points, and `gamma_space` on the
    section test bundles, give the space the literal body builds by testing every pair of members."""
    spaces = list(small_spaces(2))
    for x, y in itertools.product(spaces, repeat=2):
        fs = adjunction.compact_open_space(x, y)
        assert fs.space == pointwise_topology_literal({m.id_str: tuple(v for _, v in m.table) for m in fs.maps}, y)
    for b in section_test_bundles():
        pts = b.base.sorted_points
        members = {s.id_str: tuple(s.table[p] for p in pts) for s in sections_literal(b, b.base.points)}
        assert adjunction.gamma_space(b)[0] == pointwise_topology_literal(members, b.total)


def test_each_gamma_lift_verifies_its_section_algebra_once(monkeypatch):
    """`pointwise_rl_on_sections` verifies the section algebra, and the Gamma lift then checks only the
    continuity of its operations: one `verify_rl` per lift on the suite's four RL-bundles, and 8 in one
    adjunction suite, one for each of its four C(B,A) and four Gamma lifts."""
    calls = [0]

    def counted(alg, verify=rlcore.verify_rl):
        calls[0] += 1
        return verify(alg)
    monkeypatch.setattr(rlcore, "verify_rl", counted)
    for rb in [ET4, fixtures.a2_over_point(), fixtures.et_max_d_a6(), fixtures.indiscrete_a2_over_point()]:
        calls[0] = 0
        adjunction.gamma_topological_rl(rb)
        assert calls[0] == 1
    calls[0] = 0
    assert suites.adjunction_suite().ok
    assert calls[0] == 8


def test_gamma_topological_rl_refuses_an_algebra_whose_operations_are_not_continuous():
    """The check guards an input: `gamma_topological_rl` takes an RL-bundle that nothing has verified.
    A2 over the point on a Sierpinski total: Gamma is that space, and x -> 0 is antitone there."""
    total = fintop.sierpinski("(pt|0)", "(pt|1)")
    rb = fixtures.constant_rl_bundle(PT, fixtures.rl_a2(), total=total)
    with pytest.raises(ValueError, match=r"^section algebra failed: operation-discontinuous: imp$"):
        adjunction.gamma_topological_rl(rb)


def test_the_triangle_check_refuses_graphs_named_the_wrong_way_round(monkeypatch):
    """With `adjunction.pair_id` naming each graph point (value|point), no map's graph is found among
    the sections of the product bundle."""
    monkeypatch.setattr(adjunction, "pair_id", lambda p, v: fintop.pair_id(v, p))
    with pytest.raises(AssertionError, match="^graph correspondence is not bijective$"):
        adjunction.check_triangle_identities(PT, SK)
