import ast
import collections
import itertools
import math
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_checked_twin,
    final_topology_literal,
    finite_space_literal,
    is_homeomorphism_literal,
    is_local_homeomorphism_direct_literal,
    lattice_closure,
    local_homeo_basis_literal,
    monotone_tables_literal,
    opens_literal,
    outputs_under_hash_seeds,
    pullback_pairs_literal,
    small_spaces,
    space_rows_literal,
    topology_from_subbasis_literal,
    verify_topology_literal,
)
from rlsheaf import adjunction, bundle, fintop, fixtures, rlcore, sheafify, suites, workspace
from rlsheaf.report import fmt_set


def disc(*pts):
    return fintop.discrete(pts)


def test_verify_topology_spec_h_a4_family_is_valid():
    rep = fintop.verify_topology(["F2", "F3"], [[], ["F2"], ["F3"], ["F2", "F3"]])
    assert rep.ok


def test_verify_topology_point_space():
    assert fintop.verify_topology(["x"], [[], ["x"]]).ok


def test_verify_topology_reports_missing_union_with_witness():
    rep = fintop.verify_topology(["x", "y"], [[], ["x"], ["y"]])
    assert not rep.ok
    rules = {v.rule for v in rep.violations}
    assert "union-escapes" in rules or "missing-full-set" in rules
    witnesses = " / ".join(v.witness for v in rep.violations)
    assert "{x,y}" in witnesses


@pytest.mark.parametrize("n", [3, 13])
def test_verify_topology_names_a_member_outside_the_points_first(n):
    """A small family and one of 8,192 members go through the same check and name the stray member first."""
    pts = [f"p{i}" for i in range(n)]
    family = [list(c) for r in range(n + 1) for c in itertools.combinations(pts, r)] + [["p0", "zz"]]
    rep = fintop.verify_topology(pts, family)
    assert str(rep.violations[0]) == "member-not-subset: {p0,zz}"
    with pytest.raises(ValueError, match=r"^member-not-subset: \{p0,zz\}$"):
        fintop.space_from_opens(pts, family)


@st.composite
def open_families(draw):
    """Families over at most 5 points: random subsets, or a topology with members dropped and
    subsets added; sometimes with a member outside the points."""
    pts = [f"p{i}" for i in range(draw(st.integers(0, 5)))]
    subsets = st.sets(st.sampled_from(pts)) if pts else st.just(set())
    if draw(st.booleans()):
        family = draw(st.lists(subsets, max_size=12))
    else:
        opens = fintop.topology_from_subbasis(pts, draw(st.lists(subsets, max_size=4))).sorted_opens()
        drop = draw(st.sets(st.integers(0, len(opens) - 1), max_size=2))
        family = [o for i, o in enumerate(opens) if i not in drop] + draw(st.lists(subsets, max_size=2))
    if draw(st.integers(0, 3)) == 0:
        family.insert(draw(st.integers(0, len(family))), draw(subsets) | {"zz"})
    return pts, [sorted(s) for s in family]


@given(open_families())
@settings(max_examples=200, deadline=None)
def test_space_from_opens_is_the_generated_space_or_names_the_first_violation(case):
    pts, family = case
    rep = fintop.verify_topology(pts, family)
    if rep.ok:
        assert fintop.space_from_opens(pts, family) == fintop.topology_from_subbasis(pts, family)
    else:
        with pytest.raises(ValueError) as e:
            fintop.space_from_opens(pts, family)
        assert str(e.value) == str(rep.violations[0])


def mask_decision_cases():
    """Every family of subsets of 0-3 points (256 on 3 points), families with a member outside the
    points, and seeded families on 4 and 5 points: random subsets, or a topology with one member
    dropped or one subset added."""
    for n in range(4):
        pts = [f"p{i}" for i in range(n)]
        subsets = [sorted(c) for r in range(n + 1) for c in itertools.combinations(pts, r)]
        for bits in range(1 << len(subsets)):
            yield pts, [s for i, s in enumerate(subsets) if bits >> i & 1]
    yield [], [[], ["zz"]]
    yield ["a", "b"], [[], ["a"], ["a", "b"], ["a", "zz"]]
    yield ["a", "b"], [[], ["zz", "a"], ["a"], ["b"], ["a", "b"]]
    rng = random.Random(21)
    for n in (4, 5):
        pts = [f"p{i}" for i in range(n)]
        for _ in range(150):
            subsets = [[p for p in pts if rng.random() < 0.5] for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.5:
                yield pts, subsets
                continue
            opens = [sorted(o) for o in fintop.topology_from_subbasis(pts, subsets).sorted_opens()]
            if rng.random() < 0.5:
                del opens[rng.randrange(len(opens))]
            else:
                opens.insert(rng.randrange(len(opens) + 1), rng.choice(subsets or [pts]))
            yield pts, opens


def test_open_families_are_decided_on_masks_as_verify_topology_decides_them():
    """The mask decision accepts exactly the topologies; `space_from_opens` then returns the generated
    space and otherwise names `verify_topology`'s first violation, also when every input is a generator."""
    cases = list(mask_decision_cases())
    assert len(cases) == 2 + 4 + 16 + 256 + 3 + 300
    for pts, family in cases:
        rep = fintop.verify_topology(pts, family)
        decided = fintop._opens_space(frozenset(pts), [frozenset(s) for s in family])
        assert (decided is not None) == rep.ok, (pts, family)
        for args in [(pts, family), (iter(pts), (iter(s) for s in family))]:
            if rep.ok:
                assert fintop.space_from_opens(*args) == decided == fintop.topology_from_subbasis(pts, family)
            else:
                with pytest.raises(ValueError) as e:
                    fintop.space_from_opens(*args)
                assert str(e.value) == str(rep.violations[0])


def test_the_mask_decision_refuses_a_member_that_lists_a_point_twice():
    """A workspace open is a list, so a point listed twice is left to the reader that names it."""
    assert fintop._opens_space(frozenset("xy"), [[], ["x"], ["x", "y"]]) == fintop.sierpinski("x", "y")
    assert fintop._opens_space(frozenset("xy"), [[], ["x"], ["x", "x"], ["x", "y"]]) is None


@given(open_families())
@example((["x", "y", "z"], [["x", "y"], ["y", "z"], ["x", "y", "z"]]))  # misses only U_y = {y}
@settings(max_examples=300, deadline=None)
def test_verify_topology_matches_the_pairwise_scan(case):
    pts, family = case
    rep, literal = fintop.verify_topology(pts, family), verify_topology_literal(pts, family)
    assert rep.ok == (not literal)
    shape = ("member-not-subset", "missing-empty-set", "missing-full-set")
    assert [v for v in rep.violations if v.rule in shape] == [v for v in literal if v.rule in shape]
    fam = {frozenset(s) for s in family}
    inside = {s for s in fam if s <= set(pts)}
    witnesses = [v.witness for v in rep.violations if v.rule == "family-incomplete"]
    assert len(set(witnesses)) == len(witnesses)
    assert set(witnesses) <= {fmt_set(o) for o in lattice_closure(pts, family) - fam}
    # a witness is named exactly when the members inside the points, with the empty set, are not a topology
    assert bool(witnesses) == (inside | {frozenset()} != lattice_closure(pts, inside))


def test_identity_is_continuous_open_local_homeo():
    s = fixtures.space_sierpinski()
    m = fintop.identity_map(s)
    assert fintop.is_continuous(m)
    assert fintop.is_open_map(m)
    assert fintop.is_local_homeomorphism(m)
    assert fintop.is_homeomorphism(m)


def test_etale_projection_is_continuous():
    rb = fixtures.et_spec_h_a4()
    assert fintop.is_continuous(rb.proj)
    assert fintop.is_local_homeomorphism(rb.proj)


def test_constant_sierpinski_self_map_to_closed_point_is_continuous():
    s = fixtures.space_sierpinski()
    m = fintop.space_map(s, s, {"x": "y", "y": "y"})
    assert m.preimage({"x"}) == frozenset()
    assert fintop.is_continuous(m)


def test_open_point_inclusion_is_open_map():
    s = fixtures.space_sierpinski()
    pt = fintop.subspace(s, ["x"])
    m = fintop.space_map(pt, s, {"x": "x"})
    assert fintop.is_open_map(m)


def test_constant_map_openness_depends_on_codomain_topology():
    d = disc("t1", "t2")
    const_into_discrete = fintop.space_map(d, disc("c", "d"), {"t1": "c", "t2": "c"})
    assert fintop.is_open_map(const_into_discrete)
    indis = fintop.indiscrete(["c", "d"])
    const_into_indiscrete = fintop.space_map(d, indis, {"t1": "c", "t2": "c"})
    assert not fintop.is_open_map(const_into_indiscrete)


def test_local_injectivity_of_folds():
    pt = fixtures.space_point()
    fold_discrete = fintop.space_map(disc("t1", "t2"), pt, {"t1": "pt", "t2": "pt"})
    assert fintop.is_locally_injective(fold_discrete)
    fold_indiscrete = fintop.space_map(fintop.indiscrete(["t1", "t2"]), pt, {"t1": "pt", "t2": "pt"})
    assert not fintop.is_locally_injective(fold_indiscrete)


def test_indiscrete_over_point_is_not_local_homeo():
    rb = fixtures.indiscrete_a2_over_point()
    assert not fintop.is_local_homeomorphism(rb.proj)
    assert not fintop.is_local_homeomorphism_direct(rb.proj)


def test_local_homeo_equivalence_on_random_maps():
    rng = random.Random(99)
    seen = {True: 0, False: 0}
    for _ in range(150):
        dom_pts = [f"d{i}" for i in range(rng.randint(1, 5))]
        cod_pts = [f"c{i}" for i in range(rng.randint(1, 5))]
        dom = fintop.topology_from_subbasis(
            dom_pts, [[p for p in dom_pts if rng.random() < 0.5] for _ in range(3)]
        )
        cod = fintop.topology_from_subbasis(
            cod_pts, [[p for p in cod_pts if rng.random() < 0.5] for _ in range(3)]
        )
        m = fintop.space_map(dom, cod, {p: rng.choice(cod_pts) for p in dom_pts})
        a = fintop.is_local_homeomorphism(m)
        assert a == fintop.is_local_homeomorphism_direct(m)
        seen[a] += 1
    assert seen[True] and seen[False]


def all_maps(dom: fintop.FiniteSpace, cod: fintop.FiniteSpace):
    """Every table dom -> cod, continuous or not, as a checked SpaceMap."""
    for values in itertools.product(cod.sorted_points, repeat=len(dom.points)):
        yield fintop.space_map(dom, cod, dict(zip(dom.sorted_points, values)))


def test_the_mask_oracle_gives_the_literal_verdict_on_every_small_map():
    """Every map, continuous or not, between the first 12 labelled spaces on at most 3 points (every
    space on at most 2 among them): the oracle on masks and the one on frozensets agree."""
    spaces = list(itertools.islice(small_spaces(3), 12))
    assert all(x in spaces for x in small_spaces(2))
    verdicts = {True: 0, False: 0}
    for dom, cod in itertools.product(spaces, repeat=2):
        for m in all_maps(dom, cod):
            a = fintop.is_local_homeomorphism_direct(m)
            assert a == is_local_homeomorphism_direct_literal(m), m.table
            verdicts[a] += 1
    assert verdicts == {True: 175, False: 1318}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_the_mask_oracle_gives_the_literal_verdict_on_the_law_suite_maps(seed):
    """The 120 random maps `law_suite(seed)` draws, drawn again from the same rng."""
    rng = random.Random(seed)
    for _ in range(120):
        dom, cod = suites.random_space(rng, 5, "d"), suites.random_space(rng, 5, "c")
        m = suites.random_map(rng, dom, cod)
        assert fintop.is_local_homeomorphism_direct(m) == is_local_homeomorphism_direct_literal(m), m.table


def test_open_masks_are_the_open_family_on_every_space_of_four_points():
    """Over each labelled space on at most 4 points, the masks read as point sets are the subsets that
    `is_open` holds, each once, and they are listed without counting them."""
    spaces = 0
    for x in small_spaces(4):
        opens = x.opens
        sets = [frozenset(p for i, p in enumerate(x.sorted_points) if mask >> i & 1) for mask in opens.masks]
        assert len(sets) == len(set(sets)) and set(sets) == set(opens_literal(x)) == set(opens)
        assert "_count" not in vars(opens) and len(opens) == len(sets)
        spaces += 1
    assert spaces == 1 + 1 + 4 + 29 + 355


def test_twenty_one_discrete_points_are_refused_before_any_open_is_listed():
    opens = fintop.discrete([f"p{i:02d}" for i in range(21)]).opens
    for listing in (lambda: opens.masks, lambda: next(iter(opens))):
        with pytest.raises(ValueError, match=r"^refusing to materialize topology with 2097152 > 2\^20 opens$"):
            listing()
    assert "masks" not in vars(opens) and "_members" not in vars(opens)


def test_local_homeo_composition_and_restriction():
    rb = fixtures.et_spec_h_a4()
    proj = rb.proj
    fold = fintop.space_map(rb.base, fixtures.space_point(), {p: "pt" for p in rb.base.points})
    comp = fintop.compose(fold, proj)
    assert fintop.is_local_homeomorphism(fold)
    assert fintop.is_local_homeomorphism(comp)
    restricted = fintop.restrict_map(proj, ["0_1", "1_1"])
    assert fintop.is_local_homeomorphism(restricted)


def test_bijective_local_homeo_is_homeo():
    rb = fixtures.et_spec_h_a4()
    sub = fintop.restrict_map(rb.proj, ["0_1", "0_2"])
    assert fintop.is_local_homeomorphism(sub)
    assert fintop.is_homeomorphism(sub)


def test_local_homeo_basis_identity_on_sierpinski():
    s = fixtures.space_sierpinski()
    fam = fintop.local_homeo_basis(fintop.identity_map(s))
    assert set(fam) == set(s.opens)


def test_local_homeo_basis_discrete_fold():
    pt = fixtures.space_point()
    fold = fintop.space_map(disc("t1", "t2"), pt, {"t1": "pt", "t2": "pt"})
    fam = fintop.local_homeo_basis(fold)
    assert set(fam) == {frozenset(), frozenset({"t1"}), frozenset({"t2"})}


def test_local_homeo_basis_etale_projection():
    rb = fixtures.et_spec_h_a4()
    fam = set(fintop.local_homeo_basis(rb.proj))
    # oracle: opens on which the projection is injective
    expected = {u for u in rb.total.opens if len(rb.proj.image(u)) == len(u)}
    assert fam == expected


def test_local_homeo_basis_requires_local_homeo():
    rb = fixtures.indiscrete_a2_over_point()
    with pytest.raises(ValueError):
        fintop.local_homeo_basis(rb.proj)


def test_minimal_neighborhoods():
    s = fixtures.space_sierpinski()
    assert fintop.minimal_neighborhood(s, "x") == frozenset({"x"})
    assert fintop.minimal_neighborhood(s, "y") == frozenset({"x", "y"})
    d = disc("p", "q")
    assert fintop.minimal_neighborhood(d, "p") == frozenset({"p"})


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_minimal_neighborhood_is_least_open(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    pts = [f"p{i}" for i in range(n)]
    subbasis = data.draw(
        st.lists(st.lists(st.sampled_from(pts), unique=True), max_size=4)
    )
    s = fintop.topology_from_subbasis(pts, subbasis)
    p = data.draw(st.sampled_from(pts))
    m = fintop.minimal_neighborhood(s, p)
    assert m in s.opens and p in m
    for o in s.opens:
        if p in o:
            assert m <= o


def test_subspace_of_discrete_is_discrete():
    d = disc("a", "b", "c")
    sub = fintop.subspace(d, ["a", "c"])
    assert sub.is_discrete()


def test_product_of_sierpinski_with_itself():
    s = fixtures.space_sierpinski()
    prod, p1, p2 = fintop.product(s, s)
    # oracle: all unions of open rectangles, generated from the powerset of rectangles
    rects = []
    for u in s.opens:
        for v in s.opens:
            rects.append(frozenset(fintop.pair_id(a, b) for a in u for b in v))
    expected = set()
    for r in range(len(rects) + 1):
        for combo in itertools.combinations(rects, r):
            expected.add(frozenset().union(*combo) if combo else frozenset())
    assert prod.opens == frozenset(expected)
    assert len(prod.opens) == 6
    assert fintop.is_continuous(p1) and fintop.is_continuous(p2)


def test_final_topology_of_identity_recovers_topology():
    s = fixtures.space_sierpinski()
    fin = fintop.final_topology(s.points, [(s, {p: p for p in s.points})])
    assert fin.opens == s.opens


def test_final_topology_rejects_non_total_family():
    s = fixtures.space_sierpinski()
    with pytest.raises(ValueError):
        fintop.final_topology({"x"}, [(s, {"x": "x"})])


def test_pullback_along_identity_is_domain_of_g():
    rb = fixtures.et_spec_h_a4()
    ident = fintop.identity_map(rb.base)
    space, p1, p2 = fintop.pullback_space(ident, rb.proj)
    assert len(space.points) == len(rb.total.points)
    assert fintop.is_homeomorphism(p2)


def test_pullback_of_projection_along_point_inclusion():
    rb = fixtures.et_spec_h_a4()
    pt_f2 = fintop.subspace(rb.base, ["F2"])
    incl = fintop.space_map(pt_f2, rb.base, {"F2": "F2"})
    space, p1, p2 = fintop.pullback_space(incl, rb.proj)
    assert space.points == {"(F2|0_1)", "(F2|1_1)"}
    assert space.is_discrete()


def test_pullback_rejects_mismatched_codomains():
    s = fixtures.space_sierpinski()
    pt = fixtures.space_point()
    with pytest.raises(ValueError):
        fintop.pullback_space(fintop.identity_map(s), fintop.identity_map(pt))


def test_pairs_that_share_an_id_are_refused_where_they_are_made():
    # (a|b|c) names both (a|b, c) and (a, b|c)
    d = disc("a|b", "c", "a", "b|c")
    pt = fixtures.space_point()
    to_pt = fintop.space_map(d, pt, dict.fromkeys(d.points, "pt"))
    for build in (
        lambda: fintop.product(d, d),
        lambda: fintop.pullback_space(to_pt, to_pt),
        lambda: bundle.kernel_pair_points(bundle.Bundle(d, pt, to_pt)),
    ):
        with pytest.raises(ValueError, match=r"^two pairs share the id \(a\|b\|c\)$"):
            build()


TWO_CLASHES = """
from rlsheaf import fintop

pt = fintop.discrete(["pt"])
b, s = fintop.discrete(["a|b", "a", "x|y", "x"]), fintop.discrete(["c", "b|c", "z", "y|z"])
try:
    fintop.pullback_pairs(fintop.space_map(b, pt, dict.fromkeys(b.points, "pt")), fintop.space_map(s, pt, dict.fromkeys(s.points, "pt")))
except ValueError as e:
    print(e)
"""


def test_the_clash_a_pullback_names_does_not_depend_on_the_hash_seed():
    """(a|b, c) and (a, b|c) share (a|b|c), and (x|y, z) and (x, y|z) share (x|y|z): the pairs are
    listed in sorted point order, so the first clash in that order is named in every process."""
    assert outputs_under_hash_seeds(TWO_CLASHES, range(1, 5)) == ["two pairs share the id (a|b|c)\n"] * 4


def pullback_outcome(pairs, f: fintop.SpaceMap, g: fintop.SpaceMap):
    try:
        return list(pairs(f, g).items())
    except ValueError as e:
        return str(e)


def relabel(x: fintop.FiniteSpace, names: dict[str, str]) -> fintop.FiniteSpace:
    return fintop.FiniteSpace(frozenset(map(names.get, x.points)), {names[p]: frozenset(map(names.get, u)) for p, u in x.min_nbhds})


def test_pullback_pairs_match_the_double_loop_on_every_pair_of_small_maps():
    """Every pair of maps from the labelled spaces on at most 2 points into a common one, also with the
    domains renamed to a|b, a and c, b|c so that (a|b, c) and (a, b|c) clash: the same pairs in the same
    order, or the same error."""
    spaces = list(small_spaces(2))
    clash = [{"b0": "a|b", "b1": "a"}, {"b0": "c", "b1": "b|c"}]
    cases = errors = 0
    for z in spaces:
        for names_f, names_g in [({}, {}), tuple(clash)]:
            fs = [m for x in spaces for m in all_maps(relabel(x, {p: names_f.get(p, p) for p in x.points}), z)]
            gs = [m for x in spaces for m in all_maps(relabel(x, {p: names_g.get(p, p) for p in x.points}), z)]
            for f, g in itertools.product(fs, gs):
                got = pullback_outcome(fintop.pullback_pairs, f, g)
                assert got == pullback_outcome(pullback_pairs_literal, f, g)
                cases += 1
                errors += isinstance(got, str)
    assert (cases, errors) == (2962, 272)


def test_pullback_pairs_name_the_first_clash_in_sorted_point_order():
    """Two clashes on discrete domains: over a point (a|b|c) comes first; with the a-points sent apart
    from the c-points only (x|y, z) and (x, y|z) still meet, and (x|y|z) is named."""
    b, s = fintop.discrete(["a|b", "a", "x|y", "x"]), fintop.discrete(["c", "b|c", "z", "y|z"])
    pt, two = fixtures.space_point(), fintop.discrete(["u", "v"])
    for z, fb, fs, want in [
        (pt, dict.fromkeys(b.points, "pt"), dict.fromkeys(s.points, "pt"), "(a|b|c)"),
        (two, {"a|b": "u", "a": "u", "x|y": "v", "x": "v"}, {"c": "v", "b|c": "v", "z": "v", "y|z": "v"}, "(x|y|z)"),
    ]:
        f, g = fintop.space_map(b, z, fb), fintop.space_map(s, z, fs)
        assert pullback_outcome(fintop.pullback_pairs, f, g) == pullback_outcome(pullback_pairs_literal, f, g) == (
            f"two pairs share the id {want}")


def test_pullback_universal_property():
    rb = fixtures.et_spec_h_a4()
    fold = fintop.space_map(rb.base, fixtures.space_point(), {p: "pt" for p in rb.base.points})
    proj_pt = fintop.space_map(rb.total, fixtures.space_point(), {t: "pt" for t in rb.total.points})
    # cone from the total space itself
    u = fintop.pullback_universal_check(fold, proj_pt, rb.proj, fintop.identity_map(rb.total))
    assert fintop.is_continuous(u)


def test_space_map_totality_errors():
    s = fixtures.space_sierpinski()
    with pytest.raises(ValueError):
        fintop.space_map(s, s, {"x": "x"})
    with pytest.raises(ValueError):
        fintop.space_map(s, s, {"x": "x", "y": "zzz"})


# ---------------------------------------------------------------------------
# construction: each U_p read as a bitmask row, the preorder checked on the rows


def construction_outcome(build):
    try:
        return build()
    except ValueError as e:
        return f"ValueError: {e}"


def min_nbhd_assignments():
    """Every assignment of a U_p to each point of at most 3, each U_p a subset of the points and the
    outside point z; on at most 2 points also with the last key missing and with z as an extra key."""
    for n in range(4):
        pts = ["a", "b", "c"][:n]
        subsets = [frozenset(c) for r in range(n + 2) for c in itertools.combinations([*pts, "z"], r)]
        keysets = [pts] if n == 3 else [pts, *([pts[:-1]] if n else []), [*pts, "z"]]
        for keys in keysets:
            for us in itertools.product(subsets, repeat=len(keys)):
                yield frozenset(pts), list(zip(keys, us))


def test_the_row_check_gives_the_literal_verdict_and_message_on_every_small_assignment():
    """The same accepted U_p, or the same ValueError naming the same point, as the check on frozensets,
    with the U_p given as a mapping and as shuffled pairs.  The 35 accepted assignments are the
    preorders on at most 3 labelled points, and a space keeps the rows its properties computed."""
    rng = random.Random(0)
    accepted = 0
    for points, pairs in min_nbhd_assignments():
        for given_as in (dict(pairs), tuple(rng.sample(pairs, len(pairs)))):
            want = construction_outcome(lambda: finite_space_literal(points, given_as))
            got = construction_outcome(lambda: fintop.FiniteSpace(points, given_as))
            if isinstance(want, str):
                assert got == want, given_as
            else:
                assert got.min_nbhds == want and (got.sorted_points, got.min_nbhd_map, got.order_masks) == space_rows_literal(got)
        accepted += not isinstance(want, str)
    assert accepted == 1 + 1 + 4 + 29


def test_a_refused_assignment_names_its_first_failing_point_in_the_order_given():
    bad = {"a": {"a", "b"}, "b": {"b", "c"}, "c": {"c"}, "d": {"d", "z"}}
    with pytest.raises(ValueError, match=r"^\{a,b\} cannot be the minimal neighbourhood of a in a preorder$"):
        fintop.FiniteSpace(frozenset("abcd"), bad)
    with pytest.raises(ValueError, match=r"^\{d,z\} cannot be the minimal neighbourhood of d in a preorder$"):
        fintop.FiniteSpace(frozenset("abcd"), [("d", bad["d"]), *bad.items()])


def test_the_stored_rows_are_what_the_properties_computed():
    """On every labelled space of at most 4 points and on the 14 corpus spaces, the sorted points, the
    U_p by point (in sorted order) and the bitmask rows kept at construction are the former values."""
    from importlib import resources

    ws = workspace.parse_workspace(resources.files("rlsheaf.data").joinpath("paper_fixtures.json").read_text("utf-8"))
    spaces = [*small_spaces(4), *ws.spaces.values()]
    assert len(spaces) == 390 + 14
    for x in spaces:
        assert (x.sorted_points, x.min_nbhd_map, x.order_masks) == space_rows_literal(x)
        assert list(x.min_nbhd_map) == list(x.sorted_points)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_subbasis_rows_are_the_intersections_of_the_members_holding_each_point(data):
    """Members may hold points outside the space, list a point twice or be empty."""
    pts = [f"p{i}" for i in range(data.draw(st.integers(min_value=0, max_value=5)))]
    members = data.draw(st.lists(st.lists(st.sampled_from([*pts, "q0", "q1"]), max_size=6), max_size=6))
    space = fintop.topology_from_subbasis(pts, members)
    assert space == topology_from_subbasis_literal(pts, members)
    assert (space.sorted_points, space.min_nbhd_map, space.order_masks) == space_rows_literal(space)


def test_each_cached_attribute_is_computed_once_per_instance(monkeypatch):
    """Each cached attribute, on the frozen FiniteSpace too, is computed on its first read only and then
    read from the instance."""
    owners = {fintop.FiniteSpace: ["opens"], fintop.Opens: ["masks", "_members", "_count"],
              fintop.SpaceMap: ["mapping", "id_str"], adjunction.FunctionSpace: ["index"],
              rlcore.Congruence: ["block_of"], sheafify.GermSpace: ["as_bundle"]}
    calls = collections.Counter()
    for cls, names in owners.items():
        for name in names:
            desc = vars(cls)[name]
            assert isinstance(desc, fintop.cached_attribute) and not hasattr(desc, "__set__")
            monkeypatch.setattr(desc, "func", lambda self, f=desc.func, name=name: calls.update([(name, id(self))]) or f(self))
    space = fintop.sierpinski()
    instances = [space, space.opens, fintop.identity_map(space), adjunction.compact_open_space(space, space),
                 rlcore.congruence_of_filter(fixtures.rl_a4(), ["a", "1"]), sheafify.etale_of(fixtures.a2_over_point().bundle)]
    for obj in instances:
        for name in owners[type(obj)]:
            first = getattr(obj, name)
            assert getattr(obj, name) is first and vars(obj)[name] is first
            assert calls[name, id(obj)] == 1


# ---------------------------------------------------------------------------
# differential: the minimal-neighbourhood representation against open families


@st.composite
def generated_spaces(draw, max_points=6):
    """A space from one of the generating builders, with its generated open family."""
    pts = [f"p{i}" for i in range(draw(st.integers(min_value=0, max_value=max_points)))]
    family = draw(st.lists(st.sets(st.sampled_from(pts)) if pts else st.just(set()), max_size=5))
    kind = draw(st.sampled_from(["discrete", "indiscrete", "sierpinski", "subbasis", "basis", "opens"]))
    if kind == "discrete":
        return fintop.discrete(pts), lattice_closure(pts, [{p} for p in pts])
    if kind == "indiscrete":
        return fintop.indiscrete(pts), lattice_closure(pts, [])
    if kind == "sierpinski":
        return fintop.sierpinski("o", "c"), lattice_closure(["o", "c"], [{"o"}])
    if kind == "subbasis":
        return fintop.topology_from_subbasis(pts, family), lattice_closure(pts, family)
    if kind == "basis":
        return fintop.topology_from_basis(pts, family), lattice_closure(pts, family)
    opens = lattice_closure(pts, family)
    return fintop.space_from_opens(pts, opens), opens


def random_table(draw, dom, cod):
    return {p: draw(st.sampled_from(sorted(cod.points))) for p in sorted(dom.points)}


@st.composite
def built_spaces(draw):
    """A space from any builder (derived ones included), at most 6 points, with its oracle open family."""
    kind = draw(st.sampled_from(["generated", "subspace", "product", "pullback"]))
    if kind == "generated":
        return draw(generated_spaces())
    if kind == "subspace":
        x, x_opens = draw(generated_spaces())
        carrier = draw(st.sets(st.sampled_from(sorted(x.points)))) if x.points else set()
        return fintop.subspace(x, carrier), lattice_closure(carrier, [o & carrier for o in x_opens])
    if kind == "product":
        (x, x_opens), (y, y_opens) = draw(generated_spaces(2)), draw(generated_spaces(3))
        space, _, _ = fintop.product(x, y)
        rects = [{fintop.pair_id(a, b) for a in u for b in v} for u in x_opens for v in y_opens]
        return space, lattice_closure(space.points, rects)
    (x, x_opens), (y, y_opens), (z, _) = draw(generated_spaces(3)), draw(generated_spaces(3)), draw(generated_spaces(2))
    if not z.points:
        z = fintop.discrete(["z"])
    f = fintop.space_map(x, z, random_table(draw, x, z))
    g = fintop.space_map(y, z, random_table(draw, y, z))
    space, _, _ = fintop.pullback_space(f, g)
    pieces = [
        {fintop.pair_id(a, b) for a in u for b in v if fintop.pair_id(a, b) in space.points}
        for u in x_opens
        for v in y_opens
    ]
    return space, lattice_closure(space.points, pieces)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_builders_and_map_predicates_match_open_family_oracles(data):
    x, x_opens = data.draw(built_spaces())
    assert x.opens == x_opens
    assert len(x.opens) == len(x_opens)
    assert fintop.verify_topology(x.points, x.opens).ok
    pts = sorted(x.points)
    for r in range(len(pts) + 1):
        for s in itertools.combinations(pts, r):
            assert (frozenset(s) in x.opens) == x.is_open(s) == (frozenset(s) in x_opens)
    y, y_opens = data.draw(built_spaces())
    if x.points and not y.points:
        return
    m = fintop.space_map(x, y, random_table(data.draw, x, y))
    assert fintop.is_continuous(m) == all(m.preimage(v) in x_opens for v in y_opens)
    assert fintop.is_open_map(m) == all(m.image(u) in y_opens for u in x_opens)
    assert fintop.is_local_homeomorphism(m) == fintop.is_local_homeomorphism_direct(m)


def _brute_force_tables(dom, cod, choices):
    """Oracle: every table in the product of the choices, kept when continuous, in product order."""
    pts = sorted(dom.points)
    out = []
    for combo in itertools.product(*(sorted(choices[p]) for p in pts)):
        table = dict(zip(pts, combo))
        if fintop.is_continuous(fintop.space_map(dom, cod, table)):
            out.append(table)
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_monotone_tables_match_the_brute_force_product(data):
    dom, _ = data.draw(built_spaces())
    cod, _ = data.draw(built_spaces())
    cod_pts = sorted(cod.points)
    choices = {
        p: data.draw(st.sets(st.sampled_from(cod_pts)) if cod_pts else st.just(set()))
        for p in sorted(dom.points)
    }
    key = lambda t: [t[p] for p in sorted(dom.points)]
    # Pullbacks reach 9 points, so a listing is guarded by the size of the product it walks.
    if math.prod(len(c) for c in choices.values()) <= 4096:
        got = list(fintop.monotone_tables(dom, cod, choices))
        want = _brute_force_tables(dom, cod, choices)
        assert {tuple(sorted(t.items())) for t in got} == {tuple(sorted(t.items())) for t in want}
        assert [key(t) for t in got] == sorted(key(t) for t in got)
    else:
        head = list(itertools.islice(fintop.monotone_tables(dom, cod, choices), 64))
        assert head == list(itertools.islice(monotone_tables_literal(dom, cod, choices), 64))
    if len(cod_pts) ** len(dom.points) <= 4096:
        unconstrained = [m.mapping for m in fintop.continuous_maps(dom, cod)]
        assert unconstrained == list(fintop.monotone_tables(dom, cod))
        assert unconstrained == _brute_force_tables(dom, cod, dict.fromkeys(dom.points, cod_pts))
    else:
        # Too many maps to list: the first tables of the search and of the literal
        # search, in lockstep, each one continuous and later than the one before.
        head = list(itertools.islice(fintop.monotone_tables(dom, cod), 64))
        assert head == list(itertools.islice(monotone_tables_literal(dom, cod), 64))
        assert all(fintop.is_continuous(fintop.space_map(dom, cod, t)) for t in head)
        assert [key(t) for t in head] == sorted(key(t) for t in head)


def sierpinski_power(k, open_point="x", closed_point="y"):
    s = fintop.sierpinski(open_point, closed_point)
    space = fintop.discrete(["pt"]) if k == 0 else s
    for _ in range(k - 1):
        space, _, _ = fintop.product(space, s)
    return space


@st.composite
def search_cases(draw):
    """A domain, a codomain and the choices for `monotone_tables`: None, or a set per point, possibly empty."""
    if draw(st.booleans()):
        dom, _ = draw(built_spaces())
        cod, _ = draw(built_spaces())
    else:
        labels = draw(st.sampled_from([("x", "y"), ("y", "x")]))
        dom = sierpinski_power(draw(st.integers(0, 4)), *labels)
        cod = sierpinski_power(draw(st.integers(1, 2)), *labels)
    if draw(st.booleans()):
        return dom, cod, None
    cod_pts = sorted(cod.points)
    sets = st.sets(st.sampled_from(cod_pts)) if cod_pts else st.just(set())
    return dom, cod, {p: draw(sets) for p in sorted(dom.points)}


@given(search_cases())
@example((fintop.indiscrete("abc"), fintop.sierpinski(), None))  # a point whose earlier comparable points all tie
@settings(max_examples=150, deadline=None)
def test_monotone_tables_match_the_literal_search(case):
    # Bounded listings: all 28,224 tables of S^4 -> S^2 fit, while a 9-point
    # discrete pullback into 9 points (9^9 maps) is compared on a prefix.
    dom, cod, choices = case
    limit = 1 << 15
    got = list(itertools.islice(fintop.monotone_tables(dom, cod, choices), limit))
    assert got == list(itertools.islice(monotone_tables_literal(dom, cod, choices), limit))


def test_monotone_tables_edge_cases():
    s = fintop.sierpinski()
    assert list(fintop.monotone_tables(fintop.discrete([]), s)) == [{}]
    assert list(fintop.monotone_tables(s, s, {"x": {"x", "y"}, "y": set()})) == []


@pytest.mark.parametrize("k, count", [(1, 3), (2, 6), (3, 20), (4, 168), (5, 7581)])
def test_continuous_maps_of_sierpinski_powers_are_the_dedekind_numbers(k, count):
    """Maps S^k -> S are the monotone Boolean functions of k variables."""
    maps = fintop.continuous_maps(sierpinski_power(k), fintop.sierpinski())
    assert len(maps) == count
    assert len({m.table for m in maps}) == count


def test_continuous_maps_read_as_their_checked_twins():
    """Over every ordered pair of labelled spaces with at most 3 points, and S^3 -> S: the maps the
    search lists unchecked are, in order, the checked `SpaceMap` of each product table `is_continuous`
    accepts, with the same hash, table, mapping and id."""
    spaces = list(small_spaces(3))
    for dom, cod in [*itertools.product(spaces, repeat=2), (sierpinski_power(3), fintop.sierpinski())]:
        twins = [fintop.SpaceMap(dom, cod, tuple(zip(dom.sorted_points, values)))
                 for values in itertools.product(cod.sorted_points, repeat=len(dom.points))]
        twins = [m for m in twins if fintop.is_continuous(m)]
        maps = fintop.continuous_maps(dom, cod)
        assert len(maps) == len(twins)
        for m, twin in zip(maps, twins):
            assert_checked_twin(m, twin)


def _mentions(node, scope, calls, out):
    """Each mention of `_settled_map` under `node` (a name, an attribute, an import or a string) as
    (enclosing function path, whether it is the callee of a call)."""
    for child in ast.iter_child_nodes(node):
        inner = (*scope, child.name) if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
        name = (child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute)
                else child.name if isinstance(child, ast.alias) else child.value if isinstance(child, ast.Constant) else None)
        if name == "_settled_map":
            out.append((".".join(inner), id(child) in calls))
        _mentions(child, inner, calls, out)


def test_only_the_search_and_the_function_space_index_build_unchecked_maps():
    """`_settled_map` runs none of the SpaceMap checks, so only callers that settle them for all their
    tables may reach it: the package mentions it only as the callee in these three functions, and
    workspace input stays on the checked path."""
    out = []
    for path in sorted(pathlib.Path(fintop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        _mentions(tree, (path.stem,), calls, out)
    assert sorted(out) == [("adjunction.curry", True), ("adjunction.uncurry", True), ("fintop.continuous_maps", True)]


def relabelled(space, labels):
    """`space` with its sorted points renamed to `labels` in turn, so a shuffled label list
    gives a sorted order that need not list any point after the points below it."""
    names = dict(zip(space.sorted_points, labels))
    return fintop.FiniteSpace(frozenset(labels), {names[p]: {names[q] for q in u} for p, u in space.min_nbhds})


def _tied(k):
    """S^k with each point blown up to an indiscrete pair: every point ties with one other."""
    return fintop.product(sierpinski_power(k), fintop.indiscrete("ab"))[0]


# Spaces whose points tie in blocks: an indiscrete factor in a product, on its own, or beside a discrete one.
TIED_SPACES = [
    fintop.indiscrete("abc"),
    _tied(1),
    _tied(2),
    fintop.product(fintop.indiscrete("abc"), fintop.discrete("uv"))[0],
    fintop.product(fintop.sierpinski(), fintop.product(fintop.indiscrete("ab"), fintop.sierpinski())[0])[0],
]


@st.composite
def relabelled_search_cases(draw):
    """A Sierpinski power S^k (k <= 4) or a space with tied points as the domain, and S, S^2 or a tied
    space as the codomain, each relabelled by a drawn permutation; the choices are None or drawn sets."""
    dom = draw(st.sampled_from([sierpinski_power(k) for k in range(5)] + TIED_SPACES))
    cod = draw(st.sampled_from([sierpinski_power(1), sierpinski_power(2)] + TIED_SPACES[:3]))
    n, m = len(dom.points), len(cod.points)
    dom = relabelled(dom, [f"q{i:02d}" for i in draw(st.permutations(range(n)))])
    cod = relabelled(cod, [f"c{i}" for i in draw(st.permutations(range(m)))])
    if draw(st.booleans()):
        return dom, cod, None
    return dom, cod, {p: draw(st.sets(st.sampled_from(sorted(cod.points)))) for p in sorted(dom.points)}


@given(relabelled_search_cases())
@example((relabelled(_tied(1), ["d", "a", "c", "b"]), fintop.sierpinski(), None))  # ties listed apart in sorted order
@settings(max_examples=150, deadline=None)
def test_monotone_tables_match_the_literal_search_under_relabelling(case):
    dom, cod, choices = case
    limit = 1 << 15
    got = list(itertools.islice(fintop.monotone_tables(dom, cod, choices), limit))
    assert got == list(itertools.islice(monotone_tables_literal(dom, cod, choices), limit))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_continuous_maps_of_a_relabelled_sierpinski_power_are_the_dedekind_number(seed):
    """M(5) = 7,581 maps S^5 -> S whichever order the labels of S^5 and S put the points in."""
    rng = random.Random(seed)
    dom = relabelled(sierpinski_power(5), [f"q{i:02d}" for i in rng.sample(range(32), 32)])
    cod = relabelled(fintop.sierpinski(), rng.sample(["s0", "s1"], 2))
    maps = fintop.continuous_maps(dom, cod)
    assert len(maps) == 7581
    assert len({m.table for m in maps}) == 7581
    assert [m.mapping for m in maps[:64]] == list(itertools.islice(monotone_tables_literal(dom, cod), 64))


def test_space_map_constructor_contract():
    s = fintop.sierpinski()
    with pytest.raises(ValueError) as e:
        fintop.space_map(s, s, {"x": "x"})
    assert str(e.value) == "map not total, missing ['y']"
    with pytest.raises(ValueError) as e:
        fintop.space_map(s, s, {"x": "x", "y": "y", "z": "x"})
    assert str(e.value) == "map has extra keys"
    with pytest.raises(ValueError) as e:
        fintop.space_map(s, s, {"x": "w", "y": "zzz"})
    assert str(e.value) == "map values escape codomain: ['w', 'zzz']"
    with pytest.raises(ValueError) as e:
        fintop.SpaceMap(s, s, (("x", "w"), ("y", "y")))
    assert str(e.value) == "map values escape codomain: ['w']"
    sorted_table = (("x", "y"), ("y", "y"))
    assert fintop.SpaceMap(s, s, sorted_table).table == sorted_table
    assert fintop.SpaceMap(s, s, (("y", "y"), ("x", "y"))).table == sorted_table
    assert fintop.SpaceMap(s, s, (("x", "x"), ("y", "y"), ("x", "y"))).table == sorted_table


@st.composite
def map_families(draw):
    """A carrier of up to 6 points and up to 3 maps into it from built spaces."""
    pts = [f"c{i}" for i in range(draw(st.integers(1, 6)))]
    family = []
    for _ in range(draw(st.integers(0, 3))):
        src, _ = draw(built_spaces())
        family.append((src, {p: draw(st.sampled_from(pts)) for p in sorted(src.points)}))
    return pts, family


@given(map_families())
@example((["a", "b", "c"], [(fintop.sierpinski(), {"x": "a", "y": "c"}), (fintop.sierpinski(), {"x": "c", "y": "b"})]))
@settings(max_examples=150, deadline=None)
def test_final_topology_matches_the_subset_walk(case):
    pts, family = case
    assert fintop.final_topology(pts, family) == final_topology_literal(pts, family)


def test_opens_are_counted_without_deriving_them():
    big = fintop.discrete([f"p{i}" for i in range(40)])
    assert len(big.opens) == 2**40
    assert frozenset({"p1", "p7"}) in big.opens
    with pytest.raises(ValueError, match="refusing to materialize"):
        next(iter(big.opens))
    chain = fintop.FiniteSpace(frozenset("abcd"), {"a": "a", "b": "ab", "c": "abc", "d": "abcd"})
    assert len(chain.opens) == 5


def test_constructor_rejects_neighbourhoods_that_are_not_a_preorder():
    xyz = frozenset({"x", "y", "z"})
    assert fintop.FiniteSpace(xyz, {"x": {"x", "y", "z"}, "y": {"y", "z"}, "z": {"z"}}).opens == {
        frozenset(), frozenset({"z"}), frozenset({"y", "z"}), xyz
    }
    for mins in [
        {"x": {"y"}, "y": {"y"}, "z": {"z"}},  # x outside U_x
        {"x": {"x", "w"}, "y": {"y"}, "z": {"z"}},  # U_x leaves the space
        {"x": {"x", "y"}, "y": {"y", "z"}, "z": {"z"}},  # U_y not inside U_x
        {"x": {"x"}, "y": {"y"}},  # z has no neighbourhood
    ]:
        with pytest.raises(ValueError):
            fintop.FiniteSpace(xyz, mins)


def basis_or_refusal(basis, m: fintop.SpaceMap):
    """`basis(m)`, or the message of the ValueError it raises."""
    try:
        return basis(m)
    except ValueError as exc:
        return f"ValueError: {exc}"


def basis_and_homeomorphy_verdicts(maps) -> collections.Counter:
    """Check on each map that `local_homeo_basis` lists the literal family in the same order or raises
    where the literal one does, and that `is_homeomorphism` is bijective, continuous and open; count
    the maps by (local homeomorphism, homeomorphism)."""
    verdicts = collections.Counter()
    for m in maps:
        basis = basis_or_refusal(fintop.local_homeo_basis, m)
        assert basis == basis_or_refusal(local_homeo_basis_literal, m), m.table
        homeo = fintop.is_homeomorphism(m)
        assert homeo == is_homeomorphism_literal(m), m.table
        verdicts[isinstance(basis, list), homeo] += 1
    return verdicts


def test_basis_and_homeomorphy_give_the_literal_answers_on_every_small_map():
    """Every map, continuous or not, between the first 12 labelled spaces on at most 3 points."""
    spaces = list(itertools.islice(small_spaces(3), 12))
    maps = (m for dom, cod in itertools.product(spaces, repeat=2) for m in all_maps(dom, cod))
    assert basis_and_homeomorphy_verdicts(maps) == {(False, False): 1318, (True, False): 146, (True, True): 29}


def test_basis_and_homeomorphy_give_the_literal_answers_on_the_law_suite_maps():
    """The 120 random maps `law_suite(seed)` draws for each of the seeds 1-5, drawn again from the same rng."""
    maps = []
    for seed in range(1, 6):
        rng = random.Random(seed)
        for _ in range(120):
            dom, cod = suites.random_space(rng, 5, "d"), suites.random_space(rng, 5, "c")
            maps.append(suites.random_map(rng, dom, cod))
    assert basis_and_homeomorphy_verdicts(maps) == {(False, False): 519, (True, False): 51, (True, True): 30}
