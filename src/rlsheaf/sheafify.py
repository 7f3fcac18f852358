"""The germ construction: coreflection of etales in bundles and its residuated-lattice lift.

Germs are canonicalized by restricting to the minimal open neighbourhood of
the base point, which on finite spaces coincides with the exists-a-smaller-
neighbourhood equivalence (that coincidence is itself under test).

Etales are coreflective in bundles, a theorem the tests settle on every small
bundle, so the counit and the factorizations are not re-checked here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import bundle as bnd
from . import fintop
from .bundle import Bundle, BundleMorphism, RLBundle, Section
from .fintop import FiniteSpace, SpaceMap, cached_attribute


def germ_id(base_point: str, table: dict[str, str]) -> str:
    body = ",".join(f"{k}:{v}" for k, v in sorted(table.items()))
    return f"({base_point} ⊳ {body})"


@dataclass
class Germ:
    """A section germ, represented by its restriction to the minimal open neighbourhood."""

    base_point: str
    rep: Section

    def __post_init__(self):
        want = fintop.minimal_neighborhood(self.rep.parent.base, self.base_point)
        if self.rep.domain != want:
            raise ValueError("representative is not cut to the minimal neighbourhood")

    @property
    def id_str(self) -> str:
        return germ_id(self.base_point, self.rep.table)

    def value(self) -> str:
        return self.rep(self.base_point)


@dataclass
class GermSpace:
    """Etale of germs over the source bundle's base."""

    source: Bundle
    space: FiniteSpace
    proj: SpaceMap
    germs: dict[str, Germ]

    @cached_attribute
    def as_bundle(self) -> Bundle:
        return Bundle(self.space, self.source.base, self.proj)


def etale_of(b: Bundle) -> GermSpace:
    """Germ space with the topology generated by the section-image basis Im(s_U).

    It is the etale of p -> Gamma(U_p), restricting by cutting tables: the least
    member around the germ of s at p is Im(s_{U_p}), the germs of s at U_p.
    """
    mins = b.base.min_nbhd_map
    secs = {p: bnd.sections(b, mins[p]) for p in b.base.sorted_points}
    e = bnd.etale_from_restrictions(
        b.base, {p: [s.table for s in ss] for p, ss in secs.items()},
        lambda p, q, table: {r: table[r] for r in mins[q]}, germ_id,
    )
    germs = {germ_id(p, s.table): Germ(p, s) for p, ss in secs.items() for s in ss}
    return GermSpace(b, e.total, e.proj, germs)


def germ_space(b: Bundle) -> GermSpace:
    """`etale_of(b)`, built on the first call for b and kept on b."""
    if b._germ_space is None:
        b._germ_space = etale_of(b)
    return b._germ_space


def counit(b: Bundle, gs: GermSpace | None = None) -> SpaceMap:
    """epsilon: germ space -> total, a germ goes to its representative's value."""
    gs = gs or etale_of(b)
    return fintop.space_map(gs.space, b.total, {k: g.value() for k, g in gs.germs.items()})


def counit_report(b: Bundle, gs: GermSpace | None = None) -> dict[str, bool]:
    """Property record for the counit.

    `open_relative` is the openness equation of the construction (the image
    of each basis open Im(s_U) equals the section image s(U)), checked over
    the minimal opens U_p; `open_in_total` is plain openness into the total
    topology, which holds at etales.
    """
    gs = gs or etale_of(b)
    eps = counit(b, gs)
    values = [eps(k) for k in sorted(gs.space.points)]
    # Over an open U, Im(s_U) and s(U) are the unions of those of s cut to each U_p inside U.  An image
    # equal to a representative's section image is a union of section images, so that needs no check.
    mins = gs.space.min_nbhd_map
    return {
        "injective": len(set(values)) == len(values),
        "continuous": fintop.is_continuous(eps),
        "open_in_total": fintop.is_open_map(eps),
        "open_relative": all(eps.image(mins[k]) == g.rep.image() for k, g in gs.germs.items()),
    }


def counit_is_iso(b: Bundle, gs: GermSpace | None = None) -> bool:
    """At an etale the counit is an isomorphism of bundles."""
    return fintop.is_homeomorphism(counit(b, gs))


def _factor_through_germs(total: FiniteSpace, proj: dict[str, str], value: Callable[[str], str], gs: GermSpace) -> SpaceMap:
    """y -> the germ of `value` after the section through y, read off U_y, which an etale projects
    bijectively onto U_proj(y)."""
    mins = total.min_nbhd_map
    return fintop.space_map(total, gs.space, {y: germ_id(proj[y], {proj[s]: value(s) for s in mins[y]}) for y in total.sorted_points})


def coreflect_morphism(h: BundleMorphism) -> SpaceMap:
    """E(h): the one etale morphism from the germ space of h.src to that of h.dst with counit . E(h) =
    h . counit, the couniversal factorization of h after the counit of h.src, which is read off each
    germ's value; [s]_b goes to [h s]_b."""
    gs = germ_space(h.src)
    return _factor_through_germs(gs.space, gs.proj.mapping, lambda k: h(gs.germs[k].value()), germ_space(h.dst))


def couniversal_factorization(h: BundleMorphism, gs: GermSpace | None = None) -> SpaceMap:
    """Unique etale morphism hbar with counit . hbar = h, for etale source: hbar(y) is the germ of h
    after the section through y."""
    if not bnd.is_etale(h.src):
        raise ValueError("source bundle is not an etale")
    return _factor_through_germs(h.src.total, h.src.proj.mapping, h, gs or etale_of(h.dst))


def factorizations_by_search(h: BundleMorphism, gs: GermSpace | None = None) -> list[SpaceMap]:
    """All base-compatible continuous maps k with counit . k = h (uniqueness oracle)."""
    gs = gs or etale_of(h.dst)
    choices = {
        y: [k for k, g in gs.germs.items() if g.base_point == h.src.proj(y) and g.value() == h(y)]
        for y in h.src.total.points
    }
    return [
        fintop.space_map(h.src.total, gs.space, table)
        for table in fintop.monotone_tables(h.src.total, gs.space, choices)
    ]


def rl_germ_ops(rb: RLBundle) -> tuple[RLBundle, GermSpace]:
    """Germ stalks as algebras: the stalk at p is Gamma(U_p) under pointwise operations, one germ per section."""
    gs = etale_of(rb.bundle)
    reps: dict[str, list[Section]] = {p: [] for p in rb.base.points}
    for g in gs.germs.values():
        reps[g.base_point].append(g.rep)
    stalks = {}
    for p, secs in reps.items():
        sa = bnd.pointwise_rl_on_sections(rb, fintop.minimal_neighborhood(rb.base, p), secs)
        stalks[p] = (sa.algebra, lambda sid, p=p, secs=sa.sections: germ_id(p, secs[sid].table))
    return RLBundle(gs.as_bundle, bnd.relabelled_ops(stalks)), gs


def coreflection_hom_counts(t: Bundle, x: Bundle) -> tuple[int, int, bool]:
    """|Hom_bundle(T,X)| vs |Hom_etale(T, GermSpace(X))| and bijectivity of h -> hbar."""
    gs = etale_of(x)
    homs_bundle = bnd.bundle_morphisms(t, x)
    homs_etale = set(bnd.morphism_tables(t, gs.as_bundle))
    lifted = {couniversal_factorization(h, gs).table for h in homs_bundle}
    bijective = len(lifted) == len(homs_bundle) and lifted == homs_etale
    return len(homs_bundle), len(homs_etale), bijective
