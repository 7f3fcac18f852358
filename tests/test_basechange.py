import collections
import itertools
from importlib import resources

import pytest

from conftest import quotient_etales, rl_isomorphic, section_functor_morphism_literal, small_spaces
from rlsheaf import basechange, bundle, fintop, fixtures, rlcore, workspace

ET4 = fixtures.et_spec_h_a4()
TRIVIAL = fixtures.trivial_a2_over_spec_h_a4()
A2PT = fixtures.a2_over_point()
PT = fixtures.space_point()


def incl_f2():
    sub = fintop.subspace(ET4.base, ["F2"])
    return fintop.space_map(sub, ET4.base, {"F2": "F2"})


def fold_to_point(space):
    return fintop.space_map(space, PT, {p: "pt" for p in space.points})


def test_pullback_along_identity_is_isomorphic():
    pe = basechange.pullback_etale(fintop.identity_map(ET4.base), ET4.bundle)
    assert fintop.is_homeomorphism(pe.fprime)
    assert bundle.is_etale(pe.result)


def test_pullback_along_point_inclusion_is_the_stalk():
    pe = basechange.pullback_etale(incl_f2(), ET4.bundle)
    assert pe.result.total.points == {"(F2|0_1)", "(F2|1_1)"}
    assert pe.result.total.is_discrete()
    assert bundle.is_etale(pe.result)


def test_fold_pullback_duplicates_the_stalk():
    d2 = fintop.discrete(["m", "n"])
    fold = fintop.space_map(d2, PT, {"m": "pt", "n": "pt"})
    pe = basechange.pullback_etale(fold, A2PT.bundle)
    assert len(pe.result.total.points) == 4
    assert bundle.is_etale(pe.result)


def test_pullback_requires_matching_base():
    with pytest.raises(ValueError):
        basechange.pullback_etale(fold_to_point(ET4.base), ET4.bundle)


def test_pullback_morphism_functor_laws_strict():
    f = incl_f2()
    ident = bundle.BundleMorphism(ET4.bundle, ET4.bundle, fintop.identity_map(ET4.total))
    lifted = basechange.pullback_morphism(f, ident)
    assert all(lifted(k) == k for k in lifted.src.total.points)

    collapse_table = {
        t: fintop.pair_id(ET4.proj(t), "0" if t.startswith("0") else "1") for t in ET4.total.points
    }
    collapse = bundle.BundleMorphism(
        ET4.bundle, TRIVIAL.bundle, fintop.space_map(ET4.total, TRIVIAL.total, collapse_table)
    )
    swap_table = {
        k: fintop.pair_id(p, "1" if v == "0" else "0")
        for k in TRIVIAL.total.points
        for p, v in [(TRIVIAL.proj(k), k.split("|")[1].rstrip(")"))]
    }
    swap = bundle.BundleMorphism(
        TRIVIAL.bundle, TRIVIAL.bundle, fintop.space_map(TRIVIAL.total, TRIVIAL.total, swap_table)
    )
    composed = bundle.BundleMorphism(
        ET4.bundle, TRIVIAL.bundle, fintop.compose(swap.map, collapse.map)
    )
    lhs = basechange.pullback_morphism(f, composed)
    rhs = fintop.compose(basechange.pullback_morphism(f, swap).map, basechange.pullback_morphism(f, collapse).map)
    assert lhs.map.table == rhs.table


def test_pullback_rl_etale_transports_stalks():
    pulled, fprime = basechange.pullback_rl_etale(incl_f2(), ET4)
    assert bundle.verify_rl_bundle(pulled).ok
    assert rl_isomorphic(bundle.stalk_rl(pulled, "F2"), fixtures.rl_a2())
    # f' is stalkwise an RL morphism onto the original stalk
    table = {k: fprime(k) for k in pulled.total.points}
    assert rlcore.is_rl_morphism(table, bundle.stalk_rl(pulled, "F2"), bundle.stalk_rl(ET4, "F2"))


def test_pullback_rl_etale_identity_keeps_ops():
    pulled, fprime = basechange.pullback_rl_etale(fintop.identity_map(ET4.base), ET4)
    assert bundle.verify_rl_bundle(pulled).ok
    for b in ET4.base.points:
        assert rl_isomorphic(bundle.stalk_rl(pulled, b), bundle.stalk_rl(ET4, b))


def test_pullback_stability_for_all_fixture_pairs():
    base_maps = [
        fintop.identity_map(ET4.base),
        incl_f2(),
        fintop.space_map(PT, ET4.base, {"pt": "F2"}),
        fold_to_point(ET4.base),
        fold_to_point(PT),
    ]
    for f in base_maps:
        for name, rb in fixtures.etale_fixtures().items():
            if rb.base != f.cod:
                continue
            pulled, _ = basechange.pullback_rl_etale(f, rb)
            assert bundle.is_etale(pulled.bundle)
            assert bundle.verify_rl_bundle(pulled).ok


def test_lambda_iso_renesting_and_uniqueness():
    f = incl_f2()
    g = fintop.identity_map(ET4.base)
    lam = basechange.lambda_iso(f, g, ET4.bundle)
    for k, v in lam.table:
        b = k.split("|")[0].lstrip("(")
        assert v.startswith(f"({b}|({f(b)}|")
    wits = basechange.lambda_uniqueness_witnesses(f, g, ET4.bundle)
    assert len(wits) == 1
    assert wits[0].table == lam.table


def test_lambda_iso_round_trip_is_identity():
    d2 = fintop.discrete(["m", "n"])
    f = fintop.space_map(d2, PT, {"m": "pt", "n": "pt"})
    g = fintop.space_map(PT, ET4.base, {"pt": "F3"})
    lam = basechange.lambda_iso(f, g, ET4.bundle)
    inv = {v: k for k, v in lam.table}
    assert all(inv[lam(k)] == k for k in lam.dom.points)


def test_lambda_naturality_square():
    # lambda commutes with pulled-back morphisms in the etale argument
    f = incl_f2()
    g = fintop.identity_map(ET4.base)
    collapse_table = {
        t: fintop.pair_id(ET4.proj(t), "0" if t.startswith("0") else "1") for t in ET4.total.points
    }
    h = bundle.BundleMorphism(
        ET4.bundle, TRIVIAL.bundle, fintop.space_map(ET4.total, TRIVIAL.total, collapse_table)
    )
    gf = fintop.compose(g, f)
    lam_src = basechange.lambda_iso(f, g, ET4.bundle)
    lam_dst = basechange.lambda_iso(f, g, TRIVIAL.bundle)
    outer = basechange.pullback_morphism(gf, h)
    nested = basechange.pullback_morphism(f, basechange.pullback_morphism(g, h))
    lhs = fintop.compose(nested.map, lam_src)
    rhs = fintop.compose(lam_dst, outer.map)
    assert lhs.table == rhs.table


def chain():
    r1 = basechange.RLESpace(ET4.base, ET4)
    r2 = basechange.RLESpace(PT, A2PT)
    r3 = basechange.RLESpace(ET4.base, TRIVIAL)
    f = fold_to_point(ET4.base)
    alpha1_pe, _ = basechange.pullback_rl_etale(f, A2PT)
    alpha1 = fintop.space_map(
        alpha1_pe.total,
        ET4.total,
        {
            k: f"{k.split('|')[2].rstrip('))')}_{'1' if k.startswith('(F2') else '2'}"
            for k in alpha1_pe.total.points
        },
    )
    m1 = basechange.RLEInvMorphism(r1, r2, f, alpha1)
    g = fintop.space_map(PT, ET4.base, {"pt": "F2"})
    beta_pe, _ = basechange.pullback_rl_etale(g, TRIVIAL)
    alpha2 = fintop.space_map(
        beta_pe.total,
        A2PT.total,
        {k: fintop.pair_id("pt", k.split("|")[2].rstrip("))")) for k in beta_pe.total.points},
    )
    m2 = basechange.RLEInvMorphism(r2, r3, g, alpha2)
    h = fold_to_point(ET4.base)
    gamma_pe, _ = basechange.pullback_rl_etale(h, A2PT)
    alpha3 = fintop.space_map(
        gamma_pe.total,
        TRIVIAL.total,
        {
            k: fintop.pair_id(k.split("|")[0].lstrip("("), k.split("|")[2].rstrip("))"))
            for k in gamma_pe.total.points
        },
    )
    m3 = basechange.RLEInvMorphism(r3, r2, h, alpha3)
    return r1, r2, r3, m1, m2, m3


def test_rle_identity_laws():
    r1, r2, r3, m1, m2, m3 = chain()
    for m in [m1, m2, m3]:
        left = basechange.compose_rle_inv(basechange.identity_rle_morphism(m.src), m)
        right = basechange.compose_rle_inv(m, basechange.identity_rle_morphism(m.dst))
        assert left.f.table == m.f.table == right.f.table
        assert left.alpha.table == m.alpha.table == right.alpha.table


def test_rle_associativity_on_three_chain():
    r1, r2, r3, m1, m2, m3 = chain()
    lhs = basechange.compose_rle_inv(basechange.compose_rle_inv(m1, m2), m3)
    rhs = basechange.compose_rle_inv(m1, basechange.compose_rle_inv(m2, m3))
    assert lhs.f.table == rhs.f.table
    assert lhs.alpha.table == rhs.alpha.table


def test_compose_rejects_mismatched_chain():
    r1, r2, r3, m1, m2, m3 = chain()
    with pytest.raises(ValueError):
        basechange.compose_rle_inv(m2, m1)


def test_rle_space_checks_the_rl_bundle_it_is_given():
    """An RL-bundle with ET4's projection and one broken stalk entry is refused, though ET4 itself
    was admitted just before."""
    basechange.RLESpace(ET4.base, ET4)
    ops = bundle.StalkOps(
        **{name: {p: dict(t) for p, t in ET4.ops.op(name).items()} for name in bundle.StalkOps.OPS},
        zero=dict(ET4.ops.zero), one=dict(ET4.ops.one),
    )
    ops.mul["F2"][("1_1", "1_1")] = "0_1"
    with pytest.raises(ValueError, match=r"^not an RL-bundle: stalk-not-rl\[unit-fails\]: F2: "):
        basechange.RLESpace(ET4.base, bundle.RLBundle(ET4.bundle, ops))


def test_section_functor_objects():
    r1 = basechange.RLESpace(ET4.base, ET4)
    ga = basechange.section_functor_object(r1)
    assert len(ga.algebra.carrier) == 4
    r2 = basechange.RLESpace(PT, A2PT)
    assert rl_isomorphic(basechange.section_functor_object(r2).algebra, fixtures.rl_a2())
    empty_base = fintop.space_from_opens([], [[]])
    empty_total = fintop.space_from_opens([], [[]])
    rb_empty = bundle.RLBundle(
        bundle.Bundle(empty_total, empty_base, fintop.space_map(empty_total, empty_base, {})),
        bundle.StalkOps(join={}, meet={}, mul={}, imp={}, zero={}, one={}),
    )
    r_empty = basechange.RLESpace(empty_base, rb_empty)
    assert len(basechange.section_functor_object(r_empty).algebra.carrier) == 1


def test_section_functor_identity_and_contravariance():
    r1, r2, r3, m1, m2, m3 = chain()
    ident = basechange.identity_rle_morphism(r1)
    s_id = basechange.section_functor_morphism(ident)
    assert all(s_id(x) == x for x in s_id.dom.carrier)

    comp = basechange.compose_rle_inv(m1, m2)
    s_comp = basechange.section_functor_morphism(comp)
    s_m1 = basechange.section_functor_morphism(m1)
    s_m2 = basechange.section_functor_morphism(m2)
    for sec in s_comp.dom.carrier:
        assert s_comp(sec) == s_m1(s_m2(sec))


def test_section_functor_inclusion_is_restriction():
    sub = fintop.subspace(ET4.base, ["F2"])
    pulled, _ = basechange.pullback_rl_etale(incl_f2(), ET4)
    r_stalk = basechange.RLESpace(sub, pulled)
    r_full = basechange.RLESpace(ET4.base, ET4)
    alpha = fintop.identity_map(pulled.total)
    m = basechange.RLEInvMorphism(r_stalk, r_full, incl_f2(), alpha)
    sm = basechange.section_functor_morphism(m)
    assert rlcore.is_rl_morphism(sm.table, sm.dom, sm.cod)
    for sid, target in sm.table.items():
        assert sid.split("F2:")[1].split(",")[0].rstrip("}") in target


def test_section_functor_morphism_matches_the_section_building_body():
    """On the corpus's rle_inv morphisms, their identities and every composite of two or three of
    them, the pulled sections looked up by their values give the literal RL-morphism."""
    ws = workspace.parse_workspace(resources.files("rlsheaf.data").joinpath("paper_fixtures.json").read_text("utf-8"))
    corpus = [m for m in ws.morphisms.values() if isinstance(m, basechange.RLEInvMorphism)]
    pairs = [basechange.compose_rle_inv(a, b) for a in corpus for b in corpus if a.dst is b.src]
    triples = [basechange.compose_rle_inv(a, b) for a in pairs for b in corpus if a.dst is b.src]
    idents = [basechange.identity_rle_morphism(x) for x in ws.rle_spaces.values()]
    assert (len(corpus), len(pairs), len(triples)) == (4, 4, 4)
    for m in corpus + pairs + triples + idents:
        assert basechange.section_functor_morphism(m) == section_functor_morphism_literal(m)


def pullback_census(algebras):
    """Each pullback of each etale `quotient_etales` gives over a space B of at most 3 points, with stalks
    quotients of `algebras`, along each continuous map into B from a space of at most 2 points:
    (pullbacks, failures), each failure the kind of one pullback.

    The pulled bundle must be etale, by `is_etale` and by the direct local-homeomorphism test, and the
    pulled RL-etale must pass `verify_rl_bundle`."""
    count = 0
    failures = []
    for base in small_spaces(3):
        etales = [rb for lat in algebras for _, rb in quotient_etales(base, lat)]
        for x in small_spaces(2):
            for f in fintop.continuous_maps(x, base):
                for rb in etales:
                    count += 1
                    result = basechange.pullback_etale(f, rb.bundle).result
                    etale = bundle.is_etale(result)
                    if not etale:
                        failures.append("not-etale")
                    if fintop.is_local_homeomorphism_direct(result.proj) != etale:
                        failures.append("direct-disagrees")
                    if not bundle.verify_rl_bundle(basechange.pullback_rl_etale(f, rb)[0]).ok:
                        failures.append("not-an-rl-bundle")
    return count, failures


def test_every_pullback_of_a_small_etale_is_an_etale():
    """Pullback stability, settled here so that `pullback_etale` need not re-check it."""
    assert pullback_census([fixtures.rl_a2(), fixtures.rl_a3()]) == (13128, [])


def pullback_space_over_b_alone(f, g):
    """A wrong `fintop.pullback_space`: U_(b|s) keeps b alone where it should range over U_b."""
    pairs = fintop.pullback_pairs(f, g)
    carrier = frozenset(pairs)
    ms = g.dom.min_nbhd_map
    space = fintop.FiniteSpace(carrier, {k: carrier & {fintop.pair_id(b, t) for t in ms[s]} for k, (b, s) in pairs.items()})
    legs = [fintop.space_map(space, m.dom, {k: v[i] for k, v in pairs.items()}) for i, m in enumerate((f, g))]
    return space, *legs


def test_the_pullback_census_fails_when_the_pullback_topology_is_too_fine(monkeypatch):
    monkeypatch.setattr(fintop, "pullback_space", pullback_space_over_b_alone)
    count, failures = pullback_census([fixtures.rl_a2()])
    assert (count, failures.count("not-etale")) == (3677, 1896)


def test_lambda_iso_refuses_a_comparison_map_that_is_no_homeomorphism(monkeypatch):
    """With (x|0) and (x|1) swapped in the comparison table, the stalk over the open point x is
    relabelled but the one over y is not, so the map is not continuous."""
    swap = {"(x|0)": "(x|1)", "(x|1)": "(x|0)"}
    monkeypatch.setattr(basechange, "pair_id", lambda b, t: fintop.pair_id(b, swap.get(t, t)))
    sk = fintop.sierpinski()
    ident = fintop.identity_map(sk)
    with pytest.raises(AssertionError, match="^lambda comparison map is not a homeomorphism$"):
        basechange.lambda_iso(ident, ident, fixtures.constant_rl_bundle(sk, fixtures.rl_a2()).bundle)


def section_functor_census():
    """Every `RLEInvMorphism` (f, alpha) among the A2 `quotient_etales` over each space of at most 2
    points, alpha ranging over the bundle morphisms f*Y -> X that pass `rl_bundle_morphism_violations`:
    Gamma of each equals `section_functor_morphism_literal`, and Gamma keeps the identity of each space
    and each composite of two of them.  Returns (morphisms, composites, failures by kind)."""
    spaces = [basechange.RLESpace(b, rb) for b in small_spaces(2) for _, rb in quotient_etales(b, fixtures.rl_a2())]
    morphisms = []
    for x, y in itertools.product(spaces, repeat=2):
        for f in fintop.continuous_maps(x.base, y.base):
            pulled, _ = y.pullback(f)
            for alpha in bundle.bundle_morphisms(pulled.bundle, x.etale.bundle):
                if not bundle.rl_bundle_morphism_violations(alpha.map, pulled, x.etale):
                    morphisms.append(basechange.RLEInvMorphism(x, y, f, alpha.map))
    failures = collections.Counter()

    def gamma(m):
        try:
            return basechange.section_functor_morphism(m).table
        except ValueError:
            return None

    lifts = {id(m): gamma(m) for m in morphisms}
    failures["literal"] = sum(lifts[id(m)] != section_functor_morphism_literal(m).table for m in morphisms)
    for x in spaces:
        ident = gamma(basechange.identity_rle_morphism(x))
        failures["identity"] += ident is None or any(k != v for k, v in ident.items())
    composites = 0
    for m1, m2 in itertools.product(morphisms, repeat=2):
        if m1.dst is m2.src:
            composites += 1
            g1, g2 = lifts[id(m1)], lifts[id(m2)]
            failures["composite"] += None in (g1, g2) or gamma(basechange.compose_rle_inv(m1, m2)) != {s: g1[t] for s, t in g2.items()}
    return len(morphisms), composites, +failures


def test_the_section_functor_is_a_contravariant_functor_on_every_small_rle_space():
    """Settled here so that `section_functor_morphism` need not check that each pulled section is one."""
    assert section_functor_census() == (364, 7964, {})


def test_the_section_functor_census_builds_each_section_algebra_once(monkeypatch):
    """`section_functor_object` keeps Gamma on its `RLESpace`: over the census, whose RLE-spaces are built
    afresh, each on its own RL-etale, `pointwise_rl_on_sections` runs at most once per RL-etale."""
    built, build = [], bundle.pointwise_rl_on_sections
    monkeypatch.setattr(bundle, "pointwise_rl_on_sections", lambda rb, *args: built.append(rb) or build(rb, *args))
    assert section_functor_census() == (364, 7964, {})
    assert len(built) == len(set(map(id, built))) > 0


def section_functor_morphism_without_alpha(m):
    """A wrong `basechange.section_functor_morphism`: each section is pulled back along f alone, its
    values in the target etale looked up among the source's sections unrenamed by alpha."""
    g_src = basechange.section_functor_object(m.dst)
    g_dst = basechange.section_functor_object(m.src)
    pts = m.src.base.sorted_points
    ids = {tuple(s.table[b] for b in pts): i for i, s in g_dst.sections.items()}
    table = {sid: ids.get(tuple(sec(m.f(b)) for b in pts)) for sid, sec in g_src.sections.items()}
    return rlcore.RLMorphism(g_src.algebra, g_dst.algebra, table)


def test_the_section_functor_census_fails_when_alpha_is_dropped(monkeypatch):
    monkeypatch.setattr(basechange, "section_functor_morphism", section_functor_morphism_without_alpha)
    assert section_functor_census()[2] == {"literal": 311, "composite": 7833}
