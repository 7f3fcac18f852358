"""Each input refusal of the library, reached once with its exact message.

A row is a call and what it gives: `("refuses", message)` for a ValueError with that message, or
`("returns", value)` for a call that answers, as the violation lists and the filter numbering do.
"""

import pytest

from conftest import pullback_universal_check
from rlsheaf import adjunction, basechange, bundle, fintop, fixtures, sheafify

ET4 = fixtures.et_spec_h_a4()
A2PT = fixtures.a2_over_point()
INDIS = fixtures.indiscrete_a2_over_point()
PT = fixtures.space_point()
SK = fintop.sierpinski()
TWO = fintop.discrete(["a", "b"])
SWAP = fintop.space_map(TWO, TWO, {"a": "b", "b": "a"})
RLE_PT = basechange.RLESpace(PT, A2PT)


def outcome(call):
    try:
        return "returns", call()
    except ValueError as exc:
        return "refuses", str(exc)


REFUSALS = {
    "bundle.Bundle-endpoints": (
        lambda: bundle.Bundle(SK, PT, fintop.identity_map(PT)),
        ("refuses", "projection endpoints do not match the bundle spaces"),
    ),
    "bundle.stalk-unknown-point": (
        lambda: bundle.stalk(ET4.bundle, "zz"),
        ("refuses", "unknown base point zz"),
    ),
    "bundle.Section-table": (
        lambda: bundle.Section(ET4.bundle, frozenset({"F2"}), {}),
        ("refuses", "section table does not match its domain"),
    ),
    "bundle.Section.restrict-larger": (
        lambda: bundle.Section(ET4.bundle, frozenset(), {}).restrict({"F2"}),
        ("refuses", "restriction escapes the domain"),
    ),
    "bundle.sections-outside-base": (
        lambda: bundle.sections(ET4.bundle, {"zz"}),
        ("refuses", "section domain escapes the base"),
    ),
    "bundle.equalizer-bases": (
        lambda: bundle.equalizer(bundle.sections(A2PT.bundle, PT.points)[0], bundle.sections(ET4.bundle, ET4.base.points)[0]),
        ("refuses", "sections live over different bases"),
    ),
    "bundle.section_image_basis-not-etale": (
        lambda: bundle.section_image_basis(INDIS.bundle),
        ("refuses", "bundle is not an etale"),
    ),
    "bundle.BundleMorphism-bases": (
        lambda: bundle.BundleMorphism(A2PT.bundle, ET4.bundle, fintop.identity_map(A2PT.total)),
        ("refuses", "bundle morphism needs a common base"),
    ),
    "bundle.BundleMorphism-endpoints": (
        lambda: bundle.BundleMorphism(A2PT.bundle, A2PT.bundle, fintop.identity_map(INDIS.total)),
        ("refuses", "morphism endpoints do not match"),
    ),
    "bundle.rl_bundle_morphism_violations-bases": (
        lambda: bundle.rl_bundle_morphism_violations(fintop.identity_map(A2PT.total), A2PT, ET4),
        ("returns", ["different bases"]),
    ),
    "bundle.rl_bundle_morphism_violations-endpoints": (
        lambda: bundle.rl_bundle_morphism_violations(fintop.identity_map(ET4.total), A2PT, A2PT),
        ("returns", ["endpoints do not match"]),
    ),
    "bundle.rl_bundle_morphism_violations-discontinuous": (
        lambda: bundle.rl_bundle_morphism_violations(
            fintop.SpaceMap(INDIS.total, A2PT.total, tuple((t, t) for t in INDIS.total.sorted_points)), INDIS, A2PT
        ),
        ("returns", ["not continuous"]),
    ),
    "fintop.compose-mismatch": (
        lambda: fintop.compose(fintop.identity_map(PT), fintop.identity_map(SK)),
        ("refuses", "composition mismatch"),
    ),
    "fintop.subspace-escape": (
        lambda: fintop.subspace(PT, {"zz"}),
        ("refuses", "carrier {zz} escapes the space"),
    ),
    "fintop.minimal_neighborhood-unknown-point": (
        lambda: fintop.minimal_neighborhood(PT, "zz"),
        ("refuses", "unknown point zz"),
    ),
    "fintop.pullback_universal_check-legs": (
        lambda: pullback_universal_check(SWAP, SWAP, fintop.identity_map(TWO), fintop.identity_map(PT)),
        ("refuses", "cone legs have different domains"),
    ),
    "fintop.pullback_universal_check-commute": (
        lambda: pullback_universal_check(fintop.identity_map(TWO), fintop.identity_map(TWO), fintop.identity_map(TWO), SWAP),
        ("refuses", "cone does not commute"),
    ),
    "fintop.FiniteSpace.opens-on-the-class": (
        lambda: type(fintop.FiniteSpace.opens),
        ("returns", fintop.cached_attribute),
    ),
    "basechange.pullback_etale-discontinuous": (
        lambda: basechange.pullback_etale(fintop.space_map(SK, SK, {"x": "y", "y": "x"}), fixtures.identity_bundle(SK)),
        ("refuses", "base map is not continuous"),
    ),
    "basechange.lambda_iso-not-composable": (
        lambda: basechange.lambda_iso(fintop.identity_map(SK), fintop.identity_map(PT), A2PT.bundle),
        ("refuses", "maps do not compose into the bundle base"),
    ),
    "basechange.RLEInvMorphism-base-map": (
        lambda: basechange.RLEInvMorphism(RLE_PT, RLE_PT, fintop.identity_map(SK), fintop.identity_map(A2PT.total)),
        ("refuses", "base map endpoints do not match"),
    ),
    "basechange.RLEInvMorphism-alpha": (
        lambda: basechange.RLEInvMorphism(RLE_PT, RLE_PT, fintop.identity_map(PT), fintop.identity_map(PT)),
        ("refuses", "alpha endpoints do not match the canonical pullback"),
    ),
    "adjunction.TopologicalRL-carrier": (
        lambda: adjunction.TopologicalRL(fixtures.rl_a2(), SK),
        ("refuses", "topology carrier mismatch"),
    ),
    "adjunction.check_section_adjunction-nondiscrete": (
        lambda: adjunction.check_section_adjunction(fixtures.identity_bundle(SK), PT),
        ("refuses", "continuity half asserted only for finite discrete bases"),
    ),
    "fixtures.constant_rl_bundle-total": (
        lambda: fixtures.constant_rl_bundle(PT, fixtures.rl_a2(), total=SK),
        ("refuses", "total must live on the canonical pair carrier"),
    ),
    "fixtures.filter_names-numbered": (
        lambda: fixtures.filter_names("A3"),
        ("returns", {frozenset({"1"}): "F1", frozenset({"a", "1"}): "F2", frozenset({"0", "a", "1"}): "F3"}),
    ),
    "sheafify.Germ-uncut": (
        lambda: sheafify.Germ("F2", bundle.sections(ET4.bundle, ET4.base.points)[0]),
        ("refuses", "representative is not cut to the minimal neighbourhood"),
    ),
}


@pytest.mark.parametrize("call, expected", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_input_refusal_gives_its_exact_message(call, expected):
    assert outcome(call) == expected
