import dataclasses
import functools
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_partitions,
    brute_force_filters,
    classify_filters_literal,
    coker,
    congruence_of_filter_literal,
    derive_residual_literal,
    filter_join,
    filter_of_congruence,
    glb,
    is_congruence,
    is_prime_filter_literal,
    leq_from_hasse_literal,
    lub,
    morphism_a6_to_a4,
    outputs_under_hash_seeds,
    residual_by_formula,
    rl_isomorphic,
    rl_product,
    scan_glb,
    scan_lub,
    small_residuated_lattices,
    verify_rl_literal,
)
from rlsheaf import adjunction, bundle, fintop, fixtures, rlcore
from rlsheaf.report import Violation

A4 = fixtures.rl_a4()
A6 = fixtures.rl_a6()
A8 = fixtures.rl_a8()
FIXTURE_LATTICES = {"A2": fixtures.rl_a2(), "A3": fixtures.rl_a3(), "A4": A4, "A6": A6, "A8": A8}


@pytest.mark.parametrize("name", sorted(FIXTURE_LATTICES))
def test_fixture_lattices_verify(name):
    assert rlcore.verify_rl(FIXTURE_LATTICES[name]).ok


def test_a_relation_given_as_a_set_gets_the_report_of_its_frozenset_twin():
    """A mutable `leq` cannot key the order memo, so it is read afresh, to the same report, witnesses
    included, on every fixture lattice and on each with one comparison x <= y (x != y) dropped."""
    cases = list(FIXTURE_LATTICES.values())
    for lat in list(cases):
        cases += [dataclasses.replace(lat, leq=lat.leq - {xy}) for xy in sorted(lat.leq) if xy[0] != xy[1]]
    rlcore._order_of.cache_clear()
    for lat in cases:
        report = rlcore.verify_rl(lat)
        misses = rlcore._order_of.cache_info().misses
        assert rlcore.verify_rl(dataclasses.replace(lat, leq=set(lat.leq))) == report
        assert rlcore._order_of.cache_info().misses == misses
    assert sum(not rlcore.verify_rl(lat).ok for lat in cases) == len(cases) - len(FIXTURE_LATTICES)


def test_broken_mul_reports_witness():
    mul = dict(A4.mul)
    mul[("a", "b")] = "1"
    mul[("b", "a")] = "1"
    broken = rlcore.ResiduatedLattice(
        A4.carrier, A4.leq, dict(A4.join), dict(A4.meet), mul, dict(A4.imp), "0", "1"
    )
    rep = rlcore.verify_rl(broken)
    assert not rep.ok
    assert any(v.rule in ("adjointness-fails", "mul-not-associative", "unit-fails") for v in rep.violations)


@pytest.mark.parametrize("lat", [A4, A6, A8], ids=["A4", "A6", "A8"])
def test_derived_residual_matches_independent_formula(lat):
    derived = rlcore.derive_residual(lat.carrier, lat.leq, lat.mul)
    for x in lat.carrier:
        for y in lat.carrier:
            assert derived[x, y] == residual_by_formula(lat, x, y)


def test_specific_residual_values():
    assert A4.imp["a", "b"] == "b"
    assert A6.imp["c", "a"] == residual_by_formula(A6, "c", "a")
    for lat in FIXTURE_LATTICES.values():
        for x in lat.carrier:
            assert lat.imp[lat.top, x] == x


def test_derive_residual_raises_on_non_residuated_input():
    # meet on the non-distributive M3 is not residuated
    carrier = ("0", "a", "b", "c", "1")
    hasse = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]
    leq = rlcore._leq_from_hasse(carrier, hasse)
    meet = {
        (x, y): glb(carrier, leq, [x, y]) for x in carrier for y in carrier
    }
    with pytest.raises(rlcore.NotResiduated):
        rlcore.derive_residual(carrier, leq, meet)


def test_negation_and_power():
    assert A4.power("a", 2) == "a"
    assert A4.negation("a") == "b"
    for lat in FIXTURE_LATTICES.values():
        assert lat.negation(lat.top) == lat.bot
        for a in lat.carrier:
            assert lat.power(a, 0) == lat.top
            assert lat.power(a, 1) == a
    with pytest.raises(ValueError):
        A4.power("a", -1)


def test_is_filter_examples():
    assert rlcore.is_filter(A4, {"b", "1"})
    for lat in FIXTURE_LATTICES.values():
        assert rlcore.is_filter(lat, {lat.top})
    assert not rlcore.is_filter(A4, {"a", "b", "1"})
    assert not rlcore.is_filter(A4, set())


TABLE4 = {
    "A4": [{"1"}, {"a", "1"}, {"b", "1"}, {"0", "a", "b", "1"}],
    "A6": [{"1"}, {"a", "b", "d", "1"}, {"c", "d", "1"}, {"d", "1"}, {"0", "a", "b", "c", "d", "1"}],
    "A8": [{"1"}, {"a", "c", "d", "e", "f", "1"}, {"c", "e", "1"}, {"f", "1"}, set("0abcdef1")],
}


@pytest.mark.parametrize("name", ["A4", "A6", "A8"])
def test_all_filters_match_table_and_brute_force(name):
    lat = FIXTURE_LATTICES[name]
    fl = rlcore.all_filters(lat)
    assert set(fl.filters) == {frozenset(f) for f in TABLE4[name]}
    assert set(fl.filters) == brute_force_filters(lat)


def test_two_element_lattice_has_two_filters():
    fl = rlcore.all_filters(fixtures.rl_a2())
    assert set(fl.filters) == {frozenset({"1"}), frozenset({"0", "1"})}


def test_generated_filter_examples():
    assert rlcore.generated_filter(A4, {"a"}) == frozenset({"a", "1"})
    assert rlcore.generated_filter(A4, set()) == frozenset({"1"})
    # oracle: least brute-force filter containing d
    candidates = [f for f in brute_force_filters(A8) if "d" in f]
    least = min(candidates, key=len)
    assert all(least <= f for f in candidates)
    assert rlcore.generated_filter(A8, {"d"}) == least


@given(st.sets(st.sampled_from(sorted(A6.carrier)), max_size=6))
@settings(max_examples=60, deadline=None)
def test_generated_filter_is_least_filter_containing_seed(xs):
    gen = rlcore.generated_filter(A6, xs)
    assert rlcore.is_filter(A6, gen) and set(xs) <= gen
    for f in brute_force_filters(A6):
        if set(xs) <= f:
            assert gen <= f


def test_filter_join_examples():
    assert filter_join(A4, [{"a", "1"}, {"b", "1"}]) == frozenset(A4.carrier)
    f3 = frozenset({"c", "d", "1"})
    assert filter_join(A6, [f3, frozenset({"d", "1"})]) == f3
    for f in brute_force_filters(A6):
        assert filter_join(A6, [f, {"1"}]) == f


TABLE5 = {
    "A4": ({"a1": {"a", "1"}},),
}


def _named(lat_name):
    return {n: frozenset(e) for n, e in fixtures.FILTER_NAMES[lat_name]}


@pytest.mark.parametrize(
    "name,max_names,min_names",
    [("A4", {"F2", "F3"}, {"F2", "F3"}), ("A6", {"F2", "F3"}, {"F1"}), ("A8", {"F2"}, {"F3", "F4"})],
)
def test_classification_matches_table5(name, max_names, min_names):
    lat = FIXTURE_LATTICES[name]
    names = _named(name)
    fl = rlcore.all_filters(lat)
    assert {f for f in fl.filters if fl.classification[f].maximal} == {names[n] for n in max_names}
    assert {f for f in fl.filters if fl.classification[f].minimal_prime} == {names[n] for n in min_names}


@pytest.mark.parametrize("name", ["A4", "A6", "A8"])
def test_maximal_filters_are_prime(name):
    fl = rlcore.all_filters(FIXTURE_LATTICES[name])
    for f in fl.filters:
        flags = fl.classification[f]
        if flags.maximal:
            assert flags.prime
        if flags.minimal_prime:
            assert flags.prime


def test_congruence_of_trivial_filters():
    cong = rlcore.congruence_of_filter(A4, {"1"})
    assert all(len(b) == 1 for b in cong.blocks)
    cong = rlcore.congruence_of_filter(A4, frozenset(A4.carrier))
    assert len(cong.blocks) == 1


def test_congruence_of_principal_filter_matches_relation_oracle():
    f = frozenset({"a", "1"})
    cong = rlcore.congruence_of_filter(A4, f)
    related = lambda x, y: A4.imp[x, y] in f and A4.imp[y, x] in f
    for x in A4.carrier:
        for y in A4.carrier:
            assert cong.related(x, y) == related(x, y)
    assert set(cong.blocks) == {frozenset({"0", "b"}), frozenset({"a", "1"})}


def test_quotient_by_trivial_filter_is_isomorphic():
    q, proj = rlcore.quotient(A4, {"1"})
    assert rl_isomorphic(A4, q)
    assert coker(proj.table, q.top) == frozenset({"1"})


def test_quotient_by_whole_is_degenerate():
    q, proj = rlcore.quotient(A4, frozenset(A4.carrier))
    assert len(q.carrier) == 1
    assert q.bot == q.top


def test_quotient_a6_by_f4():
    q, proj = rlcore.quotient(A6, {"d", "1"})
    assert rlcore.verify_rl(q).ok
    assert 2 <= len(q.carrier) < len(A6.carrier)
    assert coker(proj.table, q.top) == frozenset({"d", "1"})


@pytest.mark.parametrize("name", ["A4", "A6", "A8"])
def test_quotient_projection_coker_equals_filter(name):
    lat = FIXTURE_LATTICES[name]
    for f in rlcore.all_filters(lat).filters:
        q, proj = rlcore.quotient(lat, f)
        assert coker(proj.table, q.top) == f
        cong = rlcore.congruence_of_filter(lat, f)
        assert filter_of_congruence(lat, cong) == f


NON_FILTER = r"""
import json
from rlsheaf import fixtures, rlcore
A6 = fixtures.rl_a6()
q, proj = rlcore.quotient(A6, {"c", "1"})
print(json.dumps([[sorted(b) for b in rlcore.congruence_of_filter(A6, {"c", "1"}).blocks], q.carrier, proj.table]))
"""


def test_a_set_that_is_no_filter_gets_the_congruence_of_the_filter_it_generates_in_every_process():
    """{c, 1} is no filter of A6: under every hash seed its congruence and quotient are those of {c, d, 1}."""
    f = rlcore.generated_filter(A6, {"c", "1"})
    assert f == frozenset({"c", "d", "1"})
    q, proj = rlcore.quotient(A6, f)
    blocks = [sorted(b) for b in rlcore.congruence_of_filter(A6, f).blocks]
    assert blocks == [["0", "a", "b"], ["1", "c", "d"]]
    expected = json.dumps([blocks, q.carrier, proj.table]) + "\n"
    assert outputs_under_hash_seeds(NON_FILTER, [0, 2]) == [expected] * 2


def test_example_morphism_a6_to_a4():
    m = morphism_a6_to_a4()
    assert rlcore.is_rl_morphism(m.table, A6, A4)
    assert coker(m.table, A4.top) == frozenset({"d", "1"})


def test_identity_morphism_and_injectivity_law():
    ident = {x: x for x in A4.carrier}
    assert rlcore.is_rl_morphism(ident, A4, A4)
    assert coker(ident, A4.top) == frozenset({"1"})
    # injectivity iff coker == {1}, across the fixture morphisms
    morphisms = [
        (morphism_a6_to_a4().table, A6, A4),
        (ident, A4, A4),
    ]
    for name, lat in FIXTURE_LATTICES.items():
        for f in rlcore.all_filters(lat).filters:
            q, proj = rlcore.quotient(lat, f)
            morphisms.append((proj.table, lat, q))
    for table, dom, cod in morphisms:
        injective = len(set(table.values())) == len(table)
        assert injective == (coker(table, cod.top) == frozenset({dom.top}))


def test_rl_morphism_constructor_rejects_bad_maps():
    with pytest.raises(ValueError):
        rlcore.RLMorphism(A4, A4, {x: "1" if x != "0" else "0" for x in A4.carrier})


@pytest.mark.parametrize("name", ["A4", "A6", "A8"])
def test_filter_lattice_satisfies_jid(name):
    lat = FIXTURE_LATTICES[name]
    fam = list(rlcore.all_filters(lat).filters)
    for a in fam:
        for r in range(len(fam) + 1):
            for combo in itertools.combinations(fam, r):
                big_join = filter_join(lat, combo) if combo else frozenset({lat.top})
                lhs = a & big_join
                rhs = filter_join(lat, [a & s for s in combo]) if combo else frozenset({lat.top})
                assert lhs == rhs


@pytest.mark.parametrize("name,lat", [("A4", A4), ("A6", A6), ("A8", A8)])
def test_filter_congruence_order_isomorphism(name, lat):
    filters = sorted(brute_force_filters(lat), key=sorted)
    congruences = {
        frozenset(frozenset(b) for b in part)
        for part in all_partitions(list(lat.carrier))
        if is_congruence(lat, part)
    }
    image = {}
    for f in filters:
        cong = rlcore.congruence_of_filter(lat, f)
        image[f] = frozenset(cong.blocks)
        assert image[f] in congruences
    assert len(set(image.values())) == len(filters) == len(congruences)
    refines = lambda c1, c2: all(any(b1 <= b2 for b2 in c2) for b1 in c1)
    for f1 in filters:
        for f2 in filters:
            assert (f1 <= f2) == refines(image[f1], image[f2])


UNIVERSE = ["a", "b", "c", "d", "e"]
PAIRS = st.tuples(st.sampled_from(UNIVERSE), st.sampled_from(UNIVERSE))


@given(
    carrier=st.lists(st.sampled_from(UNIVERSE), unique=True),
    leq=st.one_of(
        st.frozensets(PAIRS),
        st.lists(PAIRS).map(lambda hasse: rlcore._leq_from_hasse(UNIVERSE, hasse)),
    ),
    xs=st.lists(st.sampled_from(UNIVERSE), max_size=4),
)
@settings(max_examples=400, deadline=None)
def test_bounds_agree_with_the_literal_scan(carrier, leq, xs):
    """Any relation, transitive and antisymmetric or not, and elements inside or outside the carrier."""
    assert lub(carrier, leq, xs) == scan_lub(carrier, leq, xs)
    assert glb(carrier, leq, xs) == scan_glb(carrier, leq, xs)


def test_bounds_read_a_repeated_carrier_once_and_a_mutable_relation_afresh():
    """A carrier element listed twice is one bound, and a `leq` given as a set is read on every call, so
    changing it between calls changes the answer."""
    carrier, leq = ["0", "a", "1", "a"], {("0", "0"), ("0", "a"), ("0", "1"), ("a", "a"), ("a", "1"), ("1", "1")}
    assert (lub(carrier, leq, ["0", "a"]), glb(carrier, leq, ["a", "1"])) == ("a", "a")
    leq -= {("a", "a")}
    assert (lub(carrier, leq, ["0", "a"]), glb(carrier, leq, ["a", "1"])) == ("1", "0")


@given(hasse=st.lists(PAIRS, max_size=12))
@settings(max_examples=300, deadline=None)
@example(hasse=[("a", "b"), ("b", "c"), ("c", "a")])
@example(hasse=[("a", "a"), ("a", "b"), ("a", "b"), ("b", "b")])
@example(hasse=[("d", "e"), ("c", "d"), ("b", "c"), ("a", "b")])
def test_leq_from_hasse_matches_the_edge_fixpoint(hasse):
    """Any pair list over the universe: chains, cycles, self-loops and repeated edges."""
    assert rlcore._leq_from_hasse(UNIVERSE, hasse) == leq_from_hasse_literal(UNIVERSE, hasse)


SMALL_PRODUCTS = ["A2xA2", "A2xA3", "A2xA4", "A2xA6", "A3xA3", "A3xA4", "A2xA2xA2", "A2xA2xA3"]


@functools.lru_cache(maxsize=None)
def small_product(name):
    return functools.reduce(rl_product, [FIXTURE_LATTICES[part] for part in name.split("x")])


@functools.lru_cache(maxsize=None)
def small_product_filters(name):
    return frozenset(brute_force_filters(small_product(name)))


@pytest.mark.parametrize("name", SMALL_PRODUCTS)
def test_all_filters_of_products_match_brute_force(name):
    lat = small_product(name)
    assert len(lat.carrier) <= 12 and rlcore.verify_rl(lat).ok
    fl = rlcore.all_filters(lat)
    assert set(fl.filters) == small_product_filters(name)
    assert all(fl.classification[f].principal for f in fl.filters)


@given(st.sampled_from(SMALL_PRODUCTS).flatmap(
    lambda name: st.tuples(st.just(name), st.sets(st.sampled_from(small_product(name).carrier)))))
@settings(max_examples=150, deadline=None)
def test_generated_filter_of_products_is_the_least_brute_force_filter(case):
    name, xs = case
    holding = [f for f in small_product_filters(name) if xs <= f]
    assert rlcore.generated_filter(small_product(name), xs) == frozenset.intersection(*holding)


def test_filters_of_a4_cubed_are_the_products_of_a4_filters():
    cube = rl_product(rl_product(A4, A4), A4)
    a4 = rlcore.all_filters(A4).filters
    products = {frozenset(f"{x}*{y}*{z}" for x in f1 for y in f2 for z in f3) for f1 in a4 for f2 in a4 for f3 in a4}
    assert len(products) == 64
    assert set(rlcore.all_filters(cube).filters) == products


OUTSIDE = "z"


@st.composite
def corrupted_lattices(draw):
    """A fixture lattice with a few table entries and order pairs changed, dropped or pointed outside the carrier,
    and its carrier sometimes shuffled."""
    lat = FIXTURE_LATTICES[draw(st.sampled_from(sorted(FIXTURE_LATTICES)))]
    carrier = list(lat.carrier)
    tables = {name: dict(getattr(lat, name)) for name in ("join", "meet", "mul", "imp")}
    leq = set(lat.leq)
    elems = st.sampled_from(carrier)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(sorted(tables) + ["leq"]))
        if kind == "leq":
            # an order pair with the outside element lets a product outside the carrier lie below something
            leq ^= {(draw(elems | st.just(OUTSIDE)), draw(elems))}
            continue
        cell = (draw(elems), draw(elems))
        change = draw(st.integers(0, 9))
        if change == 0:
            tables[kind].pop(cell, None)
        else:
            tables[kind][cell] = OUTSIDE if change == 1 else draw(elems)
    if draw(st.booleans()):
        carrier = draw(st.permutations(carrier))
    return rlcore.ResiduatedLattice(tuple(carrier), frozenset(leq), bot=lat.bot, top=lat.top, **tables)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (rlcore.NotResiduated, KeyError) as e:
        return type(e), str(e)


@given(corrupted_lattices())
@settings(max_examples=300, deadline=None)
def test_row_kernels_agree_with_the_literal_loops(lat):
    """Every violation, in order, and every residual or first failure, as the literal string-triple loops give them."""
    assert rlcore.verify_rl(lat).violations == verify_rl_literal(lat)
    assert outcome(rlcore.derive_residual, lat.carrier, lat.leq, lat.mul) == outcome(
        derive_residual_literal, lat.carrier, lat.leq, lat.mul
    )


def hasse_of(carrier, leq):
    """The covering pairs of a partial order."""
    return [
        (p, q)
        for p, q in leq
        if p != q and not any(r not in (p, q) and (p, r) in leq and (r, q) in leq for r in carrier)
    ]


def lukasiewicz_chain(n):
    """Carrier, order, product, bottom and top of the n-element Łukasiewicz chain."""
    names = [f"l{i:02d}" for i in range(n)]
    leq = frozenset((names[i], names[j]) for i in range(n) for j in range(i, n))
    mul = {(names[i], names[j]): names[max(0, i + j - (n - 1))] for i in range(n) for j in range(n)}
    return names, leq, mul, names[0], names[-1]


def product_parts(name):
    lat = small_product(name)
    return lat.carrier, lat.leq, lat.mul, lat.bot, lat.top


BUILT_LATTICES = {
    **{name: functools.partial(product_parts, name) for name in ["A2xA8", "A3xA4", "A4xA4", "A2xA2xA4", "A2xA2xA2xA2"]},
    **{f"L_{n}": functools.partial(lukasiewicz_chain, n) for n in (2, 3, 5, 9, 16)},
}


@pytest.mark.parametrize("name", sorted(BUILT_LATTICES))
def test_make_lattice_tables_match_the_literal_scans(name):
    carrier, leq, mul, bot, top = BUILT_LATTICES[name]()
    assert len(carrier) <= 16
    lat = rlcore.make_lattice(carrier, hasse_of(carrier, leq), mul, bot, top)
    assert lat.leq == leq
    for x, y in itertools.product(lat.carrier, repeat=2):
        assert lat.join[x, y] == scan_lub(lat.carrier, lat.leq, [x, y])
        assert lat.meet[x, y] == scan_glb(lat.carrier, lat.leq, [x, y])
        assert lat.imp[x, y] == residual_by_formula(lat, x, y)
    assert rlcore.verify_rl(lat).ok


def built_literally(carrier, leq, mul):
    """Oracle: `lattice_from_order`'s carrier, join, meet and imp from the literal scans.  The first pair of sorted
    elements without a join or a meet raises, and so does a residual that `derive_residual_literal` cannot take."""
    elems = sorted(carrier)
    join, meet = {}, {}
    for x, y in itertools.product(elems, repeat=2):
        j, m = scan_lub(elems, leq, [x, y]), scan_glb(elems, leq, [x, y])
        if j is None or m is None:
            raise ValueError(f"not a lattice: join/meet of ({x},{y}) missing")
        join[x, y], meet[x, y] = j, m
    return rlcore.ResiduatedLattice(tuple(elems), leq, join, meet, dict(mul), derive_residual_literal(elems, leq, mul), "", "")


def built(fn, *args):
    """The carrier and the join, meet and imp entries in insertion order, or the exception type and message."""
    try:
        lat = fn(*args)
    except (ValueError, KeyError) as e:
        return type(e), str(e)
    return lat.carrier, lat.leq, *(list(getattr(lat, name).items()) for name in ("join", "meet", "imp"))


@st.composite
def any_relations(draw):
    """A fixture lattice's carrier (sometimes shuffled), bot, top and mul (a few cells changed, dropped or pointed
    outside the carrier) with any relation: its order with a few pairs toggled, any set of pairs, or a Hasse list
    (the covering pairs with some pairs added or dropped, or any pairs; cycles included).  The Hasse list is None
    unless the relation is one."""
    lat = FIXTURE_LATTICES[draw(st.sampled_from(sorted(FIXTURE_LATTICES)))]
    carrier = list(lat.carrier)
    elems = st.sampled_from(carrier)
    pairs = st.tuples(elems, elems)
    hasse = None
    kind = draw(st.sampled_from(["toggled", "any", "covers", "hasse"]))
    if kind == "toggled":
        leq = set(lat.leq)
        for p in draw(st.lists(st.tuples(elems | st.just(OUTSIDE), elems), max_size=3)):
            leq ^= {p}
        leq = frozenset(leq)
    elif kind == "any":
        leq = draw(st.frozensets(pairs))
    else:
        if kind == "covers":
            hasse = hasse_of(carrier, lat.leq)
            hasse = [p for p in hasse if draw(st.integers(0, 5))] + draw(st.lists(pairs, max_size=2))
        else:
            hasse = draw(st.lists(pairs, max_size=12))
        leq = leq_from_hasse_literal(carrier, hasse)
    mul = dict(lat.mul)
    for _ in range(draw(st.integers(0, 2))):
        cell, change = (draw(elems), draw(elems)), draw(st.integers(0, 4))
        if change == 0:
            mul.pop(cell, None)
        else:
            mul[cell] = OUTSIDE if change == 1 else draw(elems)
    if draw(st.booleans()):
        carrier = draw(st.permutations(carrier))
    return carrier, hasse, leq, mul, lat.bot, lat.top


@given(any_relations())
@settings(max_examples=400, deadline=None)
@example(relation=(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "0"), ("b", "1")],
                   leq_from_hasse_literal(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "0"), ("b", "1")]),
                   dict(A4.mul), "0", "1"))
def test_lattice_from_order_and_make_lattice_match_the_literal_scans_on_any_relation(relation):
    """Tables in insertion order, or the same exception and message, for cyclic, non-transitive and
    non-antisymmetric relations as for lattices."""
    carrier, hasse, leq, mul, bot, top = relation
    expected = built(built_literally, carrier, leq, mul)
    assert built(rlcore.lattice_from_order, carrier, leq, mul, bot, top) == expected
    if hasse is not None:
        assert built(rlcore.make_lattice, carrier, hasse, mul, bot, top) == expected


def gated_answers(lat):
    """What `verify_rl`, `derive_residual` and `lattice_from_order` give on the parts of `lat`."""
    return (
        rlcore.verify_rl(lat),
        outcome(rlcore.derive_residual, lat.carrier, lat.leq, lat.mul),
        built(rlcore.lattice_from_order, lat.carrier, lat.leq, lat.mul, lat.bot, lat.top),
    )


@given(corrupted_lattices())
@settings(max_examples=200, deadline=None)
@example(lat=A8)
def test_the_walks_alone_give_the_same_answers_below_the_byte_bound(lat):
    """With the bound under every fixture size, the walks decide every verdict, table and message."""
    expected = gated_answers(lat)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rlcore, "_GATE_MAX", 1)
        assert gated_answers(lat) == expected


@pytest.mark.parametrize("name", sorted(BUILT_LATTICES))
def test_built_lattices_are_the_same_below_the_byte_bound(name, monkeypatch):
    carrier, leq, mul, bot, top = BUILT_LATTICES[name]()
    args = (carrier, hasse_of(carrier, leq), mul, bot, top)
    lat = rlcore.make_lattice(*args)
    expected = built(rlcore.make_lattice, *args), rlcore.verify_rl(lat)
    assert expected[1].ok
    monkeypatch.setattr(rlcore, "_GATE_MAX", 1)
    assert (built(rlcore.make_lattice, *args), rlcore.verify_rl(lat)) == expected


def built_lattice(name):
    carrier, leq, mul, bot, top = BUILT_LATTICES[name]()
    return rlcore.make_lattice(carrier, hasse_of(carrier, leq), mul, bot, top)


@pytest.mark.parametrize("name", sorted({*FIXTURE_LATTICES, *SMALL_PRODUCTS, *BUILT_LATTICES}))
def test_every_filter_is_classified_and_quotiented_as_the_literal_bodies_do(name):
    """On every filter, read off its idempotent e: the five flags, the classes of its congruence in order
    (the fibres of x ↦ e*x) and the kernel class of top are those of the search over generated filters and
    of the first-match loop over imp."""
    if name in FIXTURE_LATTICES:
        lat = FIXTURE_LATTICES[name]
    else:
        lat = small_product(name) if name in SMALL_PRODUCTS else built_lattice(name)
    fl = rlcore.all_filters(lat)
    assert fl.classification == classify_filters_literal(lat, fl.filters)
    for f in fl.filters:
        cong = rlcore.congruence_of_filter(lat, f)
        assert cong.blocks == congruence_of_filter_literal(lat, f).blocks
        assert filter_of_congruence(lat, cong) == f


@pytest.mark.parametrize("name", sorted({*FIXTURE_LATTICES, *SMALL_PRODUCTS, *BUILT_LATTICES}))
def test_primality_is_the_join_of_the_complement_as_the_pairwise_scan_finds(name):
    """On every filter the 2^n scan finds, the complement-join test agrees with the scan over every pair."""
    if name in FIXTURE_LATTICES:
        lat = FIXTURE_LATTICES[name]
    else:
        lat = small_product(name) if name in SMALL_PRODUCTS else built_lattice(name)
    filters = small_product_filters(name) if name in SMALL_PRODUCTS else brute_force_filters(lat)
    assert [rlcore.is_prime_filter(lat, f) for f in filters] == [is_prime_filter_literal(lat, f) for f in filters]


@pytest.mark.parametrize("gate_max", [256, 1])
def test_an_empty_carrier_is_reported_not_raised(gate_max, monkeypatch):
    """With no elements the constants escape, as the literal loops say, and the builders give empty tables."""
    monkeypatch.setattr(rlcore, "_GATE_MAX", gate_max)
    lat = rlcore.ResiduatedLattice((), frozenset(), {}, {}, {}, {}, "0", "1")
    assert rlcore.verify_rl(lat).violations == verify_rl_literal(lat) == (Violation("constants-escape", "bot=0, top=1"),)
    trl = adjunction.TopologicalRL(lat, fintop.discrete([]))
    assert [v.rule for v in adjunction.verify_topological_rl(trl).violations] == ["algebra[constants-escape]"]
    assert built(rlcore.make_lattice, [], [], {}, "0", "1") == ((), frozenset(), [], [], [])
    assert built(rlcore.lattice_from_order, [], frozenset(), {}, "0", "1") == ((), frozenset(), [], [], [])
    assert rlcore.derive_residual([], frozenset(), {}) == {}


@st.composite
def stalk_rows(draw):
    """A fixture lattice as `verify_rl_bundle`'s integer rows over its sorted carrier (size, join, meet, mul, imp,
    bot, top), with a few entries and sometimes the constants moved to other positions."""
    lat = FIXTURE_LATTICES[draw(st.sampled_from(sorted(FIXTURE_LATTICES)))]
    elems = sorted(lat.carrier)
    n, pos = len(elems), {x: i for i, x in enumerate(elems)}
    tabs = [[pos[getattr(lat, name)[xy]] for xy in itertools.product(elems, repeat=2)] for name in ("join", "meet", "mul", "imp")]
    for _ in range(draw(st.integers(0, 3))):
        tabs[draw(st.integers(0, 3))][draw(st.integers(0, n * n - 1))] = draw(st.integers(0, n - 1))
    positions = st.integers(0, n - 1)
    bot = draw(positions) if draw(st.integers(0, 4)) == 0 else pos[lat.bot]
    top = draw(positions) if draw(st.integers(0, 4)) == 0 else pos[lat.top]
    return (n, *map(tuple, tabs), bot, top)


@given(stalk_rows())
@settings(max_examples=300, deadline=None)
@example(rows=(2, (0, 1, 1, 1), (0, 0, 0, 1), (0, 0, 0, 0), (1, 1, 1, 1), 0, 1))  # x*y = 0: every axiom but the unit
# the chain 0 < 1 < 2 < 3 with 1*1 = 0 and 1*2 = 2*2 = 1: every axiom but associativity
@example(rows=(4, (0, 1, 2, 3, 1, 1, 2, 3, 2, 2, 2, 3, 3, 3, 3, 3), (0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 2, 2, 0, 1, 2, 3),
               (0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 2, 0, 1, 2, 3), (3, 3, 3, 3, 1, 3, 3, 3, 0, 2, 3, 3, 0, 1, 2, 3), 0, 3))
# the Sugihara monoid -1 < 0 < 1 with its unit 0 as top: every axiom but top-not-greatest
@example(rows=(3, (0, 1, 2, 1, 1, 2, 2, 2, 2), (0, 0, 0, 0, 1, 1, 0, 1, 2), (0, 0, 0, 0, 1, 2, 0, 2, 2), (2, 2, 2, 0, 1, 2, 0, 0, 2), 0, 1))
def test_stalk_rows_pass_is_the_verdict_of_the_literal_check(rows):
    """On and below the byte bound, with the order read off meet as `from_tables` reads it."""
    n, *tabs, bot, top = rows
    names = [str(i) for i in range(n)]
    join, meet, mul, imp = ({xy: names[v] for xy, v in zip(itertools.product(names, repeat=2), row)} for row in tabs)
    expected = not verify_rl_literal(rlcore.from_tables(names, join, meet, mul, imp, names[bot], names[top]))
    assert bundle._stalk_rows_pass.__wrapped__(rows) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rlcore, "_GATE_MAX", 1)
        assert bundle._stalk_rows_pass.__wrapped__(rows) == expected


@pytest.mark.parametrize("name", sorted({*FIXTURE_LATTICES, *SMALL_PRODUCTS, *BUILT_LATTICES}))
def test_the_congruence_of_every_filter_of_the_named_lattices_is_compatible(name):
    if name in FIXTURE_LATTICES:
        lat = FIXTURE_LATTICES[name]
    else:
        lat = small_product(name) if name in SMALL_PRODUCTS else built_lattice(name)
    for f in rlcore.all_filters(lat).filters:
        assert is_congruence(lat, rlcore.congruence_of_filter(lat, f).blocks)


def test_the_brute_force_finds_every_labelled_residuated_lattice_of_at_most_5_elements():
    """Commutative and integral, on 0, a, b, ..., 1; 2,896 more on 6 elements are left out for time."""
    assert [len(small_residuated_lattices(n)) for n in range(2, 6)] == [1, 2, 13, 147]


def congruence_census():
    """The congruence of each filter of each residuated lattice of 2 to 5 elements, and of each non-empty
    subset, against the oracles: (algebras, filters, subsets, failures), each failure (kind, algebra, set).

    A filter's classes must be those of the first-match loop over imp and compatible with every operation,
    and the class of top must be the filter; a subset's classes must be those of the least filter holding it."""
    algebras = [lat for n in range(2, 6) for lat in small_residuated_lattices(n)]
    filters = subsets = 0
    failures = []
    for i, lat in enumerate(algebras):
        fam = brute_force_filters(lat)
        filters += len(fam)
        for f in fam:
            cong = rlcore.congruence_of_filter(lat, f)
            if cong.blocks != congruence_of_filter_literal(lat, f).blocks:
                failures.append(("blocks", i, f))
            if not is_congruence(lat, cong.blocks):
                failures.append(("not-a-congruence", i, f))
            if filter_of_congruence(lat, cong) != f:
                failures.append(("kernel", i, f))
        for r in range(1, len(lat.carrier) + 1):
            for xs in itertools.combinations(lat.carrier, r):
                subsets += 1
                least = frozenset.intersection(*(f for f in fam if f.issuperset(xs)))
                if rlcore.congruence_of_filter(lat, xs).blocks != congruence_of_filter_literal(lat, least).blocks:
                    failures.append(("generated", i, frozenset(xs)))
    return len(algebras), filters, subsets, failures


def test_every_filter_of_every_small_residuated_lattice_gives_a_congruence():
    """The filter-congruence correspondence, settled here so that `congruence_of_filter` need not re-check it."""
    assert congruence_census() == (163, 507, 4769, [])


def keyed_congruence(op):
    """A wrong `congruence_of_filter`: the fibres of x ↦ e op x, for the idempotent e of the filter."""

    def mutant(lat, f):
        e = rlcore._idempotent(lat, f)
        fibres = {}
        for x in lat.carrier:
            fibres.setdefault(getattr(lat, op)[e, x], set()).add(x)
        return rlcore.Congruence(lat, tuple(map(frozenset, fibres.values())))

    return mutant


@pytest.mark.parametrize("op, incompatible", [("meet", 50), ("join", 179)])
def test_the_congruence_census_fails_when_the_classes_are_keyed_on_the_wrong_operation(op, incompatible, monkeypatch):
    """Each mutant gives filters whose classes no operation-compatibility check would pass."""
    monkeypatch.setattr(rlcore, "congruence_of_filter", keyed_congruence(op))
    assert [kind for kind, _, _ in congruence_census()[3]].count("not-a-congruence") == incompatible


def test_quotient_refuses_an_algebra_that_fails_verification(monkeypatch):
    """Keyed on e ^ x, the classes of {d, 1} in A6 give tables that are no residuated lattice."""
    monkeypatch.setattr(rlcore, "congruence_of_filter", keyed_congruence("meet"))
    with pytest.raises(AssertionError, match="^quotient failed verification: "):
        rlcore.quotient(A6, {"d", "1"})


def test_quotient_refuses_a_projection_that_is_no_morphism(monkeypatch):
    """Keyed on e v x, the classes of {a, 1} in A3 give a valid algebra that the projection does not respect."""
    monkeypatch.setattr(rlcore, "congruence_of_filter", keyed_congruence("join"))
    with pytest.raises(ValueError, match="^not a morphism of residuated lattices: "):
        rlcore.quotient(fixtures.rl_a3(), {"a", "1"})
