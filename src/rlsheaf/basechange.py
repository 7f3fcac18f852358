"""Pullback of (RL-)etales along continuous maps, RLE-spaces, and the section functor."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

from . import bundle as bnd
from . import fintop, rlcore
from .bundle import Bundle, BundleMorphism, RLBundle, SectionAlgebra
from .fintop import FiniteSpace, SpaceMap, pair_id


@dataclass
class PullbackEtale:
    """The canonical pullback bundle along a base map, with the upper leg f'."""

    along: SpaceMap
    source: Bundle
    result: Bundle
    fprime: SpaceMap


def pullback_etale(f: SpaceMap, e: Bundle) -> PullbackEtale:
    """Pullback of a bundle over cod(f) to a bundle over dom(f); etale when e is, by a theorem the tests
    settle on small bases, so not re-checked here: a caller that reports it runs `is_etale` itself."""
    if f.cod != e.base:
        raise ValueError("base map does not land in the bundle's base")
    if not fintop.is_continuous(f):
        raise ValueError("base map is not continuous")
    space, p1, p2 = fintop.pullback_space(f, e.proj)
    return PullbackEtale(f, e, Bundle(space, f.dom, p1), p2)


def pullback_morphism(f: SpaceMap, h: BundleMorphism) -> BundleMorphism:
    """f*h acts as (b,s) -> (b, h(s)) between the canonical pullbacks."""
    src = pullback_etale(f, h.src)
    dst = pullback_etale(f, h.dst)
    table = {}
    for k in src.result.total.points:
        b = src.result.proj(k)
        s = src.fprime(k)
        table[k] = pair_id(b, h(s))
    m = fintop.space_map(src.result.total, dst.result.total, table)
    return BundleMorphism(src.result, dst.result, m)


def pullback_rl_etale(f: SpaceMap, re: RLBundle) -> tuple[RLBundle, SpaceMap]:
    """Transport stalk operations componentwise along the pullback."""
    pe = pullback_etale(f, re.bundle)
    ops = bnd.relabelled_ops({b: (bnd.stalk_rl(re, f(b)), partial(pair_id, b)) for b in pe.result.base.points})
    return RLBundle(pe.result, ops), pe.fprime


def lambda_iso(f: SpaceMap, g: SpaceMap, e: Bundle) -> SpaceMap:
    """The unique pullback-comparison iso (gf)*e -> f*(g*e), (b,t) -> (b,(f(b),t))."""
    if f.cod != g.dom or g.cod != e.base:
        raise ValueError("maps do not compose into the bundle base")
    gf = fintop.compose(g, f)
    outer = pullback_etale(gf, e)
    inner = pullback_etale(g, e)
    nested = pullback_etale(f, inner.result)
    table = {}
    for k in outer.result.total.points:
        b = outer.result.proj(k)
        t = outer.fprime(k)
        table[k] = pair_id(b, pair_id(f(b), t))
    m = fintop.space_map(outer.result.total, nested.result.total, table)
    # A homeomorphism is continuous, and each table[k] lies over b = proj(k): m is a bundle morphism.
    if not fintop.is_homeomorphism(m):
        raise AssertionError("lambda comparison map is not a homeomorphism")
    return m


def lambda_uniqueness_witnesses(f: SpaceMap, g: SpaceMap, e: Bundle) -> list[SpaceMap]:
    """All maps between the two pullback totals commuting with both cone legs."""
    gf = fintop.compose(g, f)
    outer = pullback_etale(gf, e)
    inner = pullback_etale(g, e)
    nested = pullback_etale(f, inner.result)
    upper = fintop.compose(inner.fprime, nested.fprime)  # nested -> e total
    # Both conditions are pointwise, so each point ranges over its own admissible values.
    pts = outer.result.total.sorted_points
    choices = [
        [v for v in nested.result.total.sorted_points
         if nested.result.proj(v) == outer.result.proj(k) and upper(v) == outer.fprime(k)]
        for k in pts
    ]
    return [fintop.space_map(outer.result.total, nested.result.total, dict(zip(pts, combo))) for combo in itertools.product(*choices)]


@dataclass
class RLESpace:
    """A base space together with an RL-etale over it.

    Building one runs `verify_rl_bundle` on the etale.  A workspace builds its
    `rle_spaces` entries by `_admitted_rle_space` instead, on `rl_bundles`
    entries that passed that check when they were admitted.  Two derived
    structures are built on first use and kept on this object: `pullback`
    builds each pullback of the etale once per base map, and
    `section_functor_object` builds the section algebra Gamma once.
    """

    base: FiniteSpace
    etale: RLBundle
    _pullbacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _gamma: SectionAlgebra | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check_over_base()
        rep = bnd.verify_rl_bundle(self.etale)
        if not rep.ok:
            raise ValueError(f"not an RL-bundle: {rep.violations[0]}")

    def _check_over_base(self):
        if self.etale.base != self.base:
            raise ValueError("etale does not live over the declared base")
        if not bnd.is_etale(self.etale.bundle):
            raise ValueError("projection is not a local homeomorphism")

    def pullback(self, f: SpaceMap) -> tuple[RLBundle, SpaceMap]:
        """`pullback_rl_etale(f, self.etale)`, the same objects for every call with an equal f."""
        if f not in self._pullbacks:
            self._pullbacks[f] = pullback_rl_etale(f, self.etale)
        return self._pullbacks[f]


def _admitted_rle_space(base: FiniteSpace, etale: RLBundle) -> RLESpace:
    """`RLESpace(base, etale)` for an etale that has passed `verify_rl_bundle` already: the base and
    local-homeomorphism checks run, and the RL-bundle check does not."""
    x = object.__new__(RLESpace)
    x.base, x.etale, x._pullbacks, x._gamma = base, etale, {}, None
    x._check_over_base()
    return x


@dataclass
class RLEInvMorphism:
    """(f, alpha): base map plus an RL-etale morphism f* T_dst -> T_src over src.base."""

    src: RLESpace
    dst: RLESpace
    f: SpaceMap
    alpha: SpaceMap

    def __post_init__(self):
        if self.f.dom != self.src.base or self.f.cod != self.dst.base:
            raise ValueError("base map endpoints do not match")
        pulled, _ = self.dst.pullback(self.f)
        if self.alpha.dom != pulled.total or self.alpha.cod != self.src.etale.total:
            raise ValueError("alpha endpoints do not match the canonical pullback")
        bad = bnd.rl_bundle_morphism_violations(self.alpha, pulled, self.src.etale)
        if bad:
            raise ValueError(f"alpha is not an RL-bundle morphism: {bad[0]}")


def identity_rle_morphism(x: RLESpace) -> RLEInvMorphism:
    """Identity uses alpha = second projection from the canonical pullback along 1."""
    f = fintop.identity_map(x.base)
    return RLEInvMorphism(x, x, f, x.pullback(f)[1])


def compose_rle_inv(m1: RLEInvMorphism, m2: RLEInvMorphism) -> RLEInvMorphism:
    """(g,beta) after (f,alpha) is (gf, alpha . f*beta . lambda)."""
    if m1.dst is not m2.src and m1.dst != m2.src:
        raise ValueError("morphisms are not composable")
    f, g = m1.f, m2.f
    gf = fintop.compose(g, f)
    outer, fprime = m2.dst.pullback(gf)
    table = {}
    for k in outer.total.points:
        b = outer.proj(k)
        t = fprime(k)
        table[k] = m1.alpha(pair_id(b, m2.alpha(pair_id(f(b), t))))
    alpha = fintop.space_map(outer.total, m1.src.etale.total, table)
    return RLEInvMorphism(m1.src, m2.dst, gf, alpha)


def section_functor_object(x: RLESpace) -> SectionAlgebra:
    """Gamma(x): the global sections under pointwise operations, built on the first call for x and kept on x."""
    if x._gamma is None:
        x._gamma = bnd.pointwise_rl_on_sections(x.etale, x.base.points)
    return x._gamma


def section_functor_morphism(m: RLEInvMorphism) -> rlcore.RLMorphism:
    """Gamma is contravariant: sections pull back along (f, alpha), each looked up by its values.
    That a pulled section is one and that Gamma is a functor are settled by the tests on small bases,
    not here; a value no section has is `None`, which `RLMorphism` refuses."""
    g_src = section_functor_object(m.dst)
    g_dst = section_functor_object(m.src)
    pts = m.src.base.sorted_points
    ids = {tuple(s.table[b] for b in pts): i for i, s in g_dst.sections.items()}
    table = {sid: ids.get(tuple(m.alpha(pair_id(b, sec(m.f(b)))) for b in pts)) for sid, sec in g_src.sections.items()}
    return rlcore.RLMorphism(g_src.algebra, g_dst.algebra, table)
