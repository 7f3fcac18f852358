"""Bundles and etales of residuated lattices over a finite base.

Kernel pairs, proper operations, stalk algebras, sections, and the
verification suite for bundle validity.  Continuity of the proper
operations on the kernel pair is checked stalk by stalk on the operation
tables, whose U_(t1|t2) is the union over base points q of
(U_t1 & T_q) x (U_t2 & T_q), so no kernel pair is built to check them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import fintop, rlcore
from .fintop import FiniteSpace, SpaceMap, pair_id
from .report import ValidationReport, Violation, fmt_set, set_key

Subset = frozenset[str]


@dataclass
class Bundle:
    """A continuous projection total -> base."""

    total: FiniteSpace
    base: FiniteSpace
    proj: SpaceMap

    def __post_init__(self):
        if self.proj.dom != self.total or self.proj.cod != self.base:
            raise ValueError("projection endpoints do not match the bundle spaces")
        if not fintop.is_continuous(self.proj):
            raise ValueError("projection is not continuous")

    def stalk_points(self, b: str) -> Subset:
        return self.proj.preimage({b})


def etale_from_restrictions(base: FiniteSpace, stalks: Mapping[str, Iterable], restrict: Callable, name: Callable) -> Bundle:
    """The etale of the presheaf F(p) = stalks[p], r_pq(a) = restrict(p, q, a) on the specialization
    preorder of `base`: a point name(p, a) over p for each a in F(p), U_name(p,a) = {name(q, r_pq(a)) | q in U_p}.

    The FiniteSpace constructor refuses an r_pp that moves a, an r_qw . r_pq other than
    r_pw, and a value outside F(q).  Two elements with one name raise a ValueError.
    """
    over, mins = {}, {}
    for p, u in base.min_nbhds:
        for a in stalks[p]:
            t = name(p, a)
            if t in over:
                raise ValueError(f"two stalk elements share the id {t}")
            over[t] = p
            mins[t] = frozenset(name(q, restrict(p, q, a)) for q in u)
    total = FiniteSpace(frozenset(over), mins)
    return Bundle(total, base, fintop.space_map(total, base, over))


def stalk(b: Bundle, p: str) -> FiniteSpace:
    """Subspace on the fiber over p (possibly empty)."""
    if p not in b.base.points:
        raise ValueError(f"unknown base point {p}")
    return fintop.subspace(b.total, b.stalk_points(p))


@dataclass
class KernelPair:
    """The kernel pair T x_B T of a bundle, with its two projections onto the total space."""

    parent: Bundle
    space: FiniteSpace
    p1: SpaceMap
    p2: SpaceMap


def kernel_pair_points(b: Bundle) -> dict[str, tuple[str, str]]:
    return fintop.pullback_pairs(b.proj, b.proj)


def kernel_pair(b: Bundle) -> KernelPair:
    space, p1, p2 = fintop.pullback_space(b.proj, b.proj)
    return KernelPair(b, space, p1, p2)


@dataclass
class StalkOps:
    """Per-base-point operation tables on the stalks, plus the 0/1 constants."""

    join: dict[str, dict[tuple[str, str], str]]
    meet: dict[str, dict[tuple[str, str], str]]
    mul: dict[str, dict[tuple[str, str], str]]
    imp: dict[str, dict[tuple[str, str], str]]
    zero: dict[str, str]
    one: dict[str, str]

    OPS = ("join", "meet", "mul", "imp")

    def op(self, name: str) -> dict[str, dict[tuple[str, str], str]]:
        return getattr(self, name)


def relabelled_ops(stalks: Mapping[str, tuple[rlcore.ResiduatedLattice, Callable[[str], str]]]) -> StalkOps:
    """Stalk operations copied, at each base point b, from an algebra through an injective renaming of its carrier."""
    tabs: dict[str, dict[str, dict[tuple[str, str], str]]] = {name: {} for name in StalkOps.OPS}
    zero, one = {}, {}
    for b, (alg, rename) in stalks.items():
        r = {x: rename(x) for x in alg.carrier}
        for name in StalkOps.OPS:
            tabs[name][b] = {(r[x], r[y]): r[v] for (x, y), v in getattr(alg, name).items()}
        zero[b], one[b] = r[alg.bot], r[alg.top]
    return StalkOps(**tabs, zero=zero, one=one)


def pointwise_rl(
    members: Mapping[str, tuple], tables: Mapping[str, Sequence[Mapping]], zero: tuple, one: tuple, escaped: Callable
) -> rlcore.ResiduatedLattice:
    """The algebra of value tuples under pointwise operations, carried by their ids.

    `members` maps each id to its values at the sorted points; `tables` maps
    each name in `StalkOps.OPS` to one table per point.  The callers enumerate
    exactly the continuous tuples, so every result is looked up among them.
    The first result that is not a member (a missing entry included), taking
    the operations in order with operand ids sorted, then zero, then one,
    raises `escaped(name, operand_ids)`.  The order is read off `meet`.
    """
    ids = {v: k for k, v in members.items()}
    carrier = tuple(sorted(members))
    pairs = list(itertools.product(carrier, repeat=2))
    columns = list(zip(*map(members.__getitem__, carrier)))  # the members' values at each point
    ops = {}
    for name in StalkOps.OPS:  # each point's table read over all pairs of its column at once, then zipped
        cols = [map(t.get, itertools.product(col, repeat=2)) for t, col in zip(tables[name], columns)]
        out = list(map(ids.get, zip(*cols) if cols else [()] * len(pairs)))
        if None in out:
            raise escaped(name, pairs[out.index(None)])
        ops[name] = dict(zip(pairs, out))
    for name, values in (("zero", zero), ("one", one)):
        if values not in ids:
            raise escaped(name, ())
    return rlcore.from_tables(carrier, **ops, bot=ids[zero], top=ids[one])


@dataclass
class RLBundle:
    """A bundle with a residuated lattice on each stalk, as its stalk operation tables; `verify_rl_bundle`
    checks it."""

    bundle: Bundle
    ops: StalkOps

    @property
    def base(self) -> FiniteSpace:
        return self.bundle.base

    @property
    def total(self) -> FiniteSpace:
        return self.bundle.total

    @property
    def proj(self) -> SpaceMap:
        return self.bundle.proj


def stalk_rl(rb: RLBundle, b: str) -> rlcore.ResiduatedLattice:
    """The stalk algebra over b, with order derived from the meet table."""
    return rlcore.from_tables(
        sorted(rb.bundle.stalk_points(b)), dict(rb.ops.join[b]), dict(rb.ops.meet[b]), dict(rb.ops.mul[b]),
        dict(rb.ops.imp[b]), rb.ops.zero[b], rb.ops.one[b],
    )


def proper_map_from_stalk_ops(b: Bundle, ops: StalkOps, name: str) -> dict[str, str]:
    """Collapse per-stalk tables into one map on kernel-pair ids."""
    tabs = ops.op(name)
    out: dict[str, str] = {}
    for k, (t1, t2) in kernel_pair_points(b).items():
        out[k] = tabs[b.proj(t1)][t1, t2]
    return out


def stalk_ops_from_proper_map(b: Bundle, rho: Mapping[str, str]) -> dict[str, dict[tuple[str, str], str]]:
    """Slice a kernel-pair map back into per-stalk binary tables."""
    out: dict[str, dict[tuple[str, str], str]] = {p: {} for p in b.base.points}
    for k, (t1, t2) in kernel_pair_points(b).items():
        out[b.proj(t1)][t1, t2] = rho[k]
    return out


def verify_rl_bundle(rb: RLBundle) -> ValidationReport:
    """Stalk algebras valid, proper maps continuous, constants continuous sections.

    The stalks are the fibres of `proj.table`, read off it once.  One pass reads each stalk's
    tables: it reports every missing or escaping entry and builds the integer rows
    `_stalk_rows_pass` is keyed on.  Once it passes, every stalk is non-empty and both
    constants lie in their stalk, so the projection is onto and zero and one are right inverses.

    A proper map is continuous iff op_q(c, d) lies in U_op_p(t1, t2) for each
    pair (t1, t2) over p and each c in U_t1, d in U_t2 over a common q.  Only the
    pairs with a point whose U_t is more than itself are walked: for any other
    pair the only (c, d) is (t1, t2), and op(t1, t2) lies in its own U.  A map
    that is not continuous is named `k -> kk` by the least kernel-pair id k with a failing
    (c, d) and the least failing id kk under it.  Two pairs with one id would
    make such a witness ambiguous: the pairs are `kernel_pair_points(b)`, which
    refuses them with a ValueError.  Each distinct stalk structure gets
    one `verify_rl` pass while the `_stalk_rows_pass` cache holds it.
    """
    bad: list[Violation] = []
    b = rb.bundle
    fibres: dict[str, list[str]] = {p: [] for p in b.base.sorted_points}
    for t, p in b.proj.table:  # sorted by point, so each fibre is too
        fibres[p].append(t)
    rows = {}
    for p, carrier in fibres.items():
        # The stalk as integer rows over its sorted carrier: its size, then join, meet, mul and imp
        # as positions, then bot and top.  The order is read off meet, as in `stalk_rl`.
        if not carrier:
            bad.append(Violation("stalk-empty", p))
            continue
        tabs = []
        for name in StalkOps.OPS:
            tab = rb.ops.op(name).get(p, {})
            row = tuple(rlcore._positions(carrier, tab))
            if None in row:
                for (x, y), i in zip(itertools.product(carrier, repeat=2), row):
                    v = tab.get((x, y))
                    if v is None:
                        bad.append(Violation(f"stalk-{name}-missing", f"{p}:({x},{y})"))
                    elif i is None:
                        bad.append(Violation(f"stalk-{name}-escapes", f"{p}:({x},{y})->{v}"))
            tabs.append(row)
        pos = {x: i for i, x in enumerate(carrier)}
        bot, top = pos.get(rb.ops.zero.get(p)), pos.get(rb.ops.one.get(p))
        if bot is None or top is None:
            bad.append(Violation("stalk-constants-escape", p))
        rows[p] = (len(carrier), *tabs, bot, top)
    if bad:
        return ValidationReport("rl-bundle", tuple(bad))

    for p, key in rows.items():
        if _stalk_rows_pass(key):
            continue
        rep = rlcore.verify_rl(stalk_rl(rb, p))
        if not rep.ok:
            v = rep.violations[0]
            bad.append(Violation(f"stalk-not-rl[{v.rule}]", f"{p}: {v.witness}"))

    # The kernel pairs that can fail, in id order, each with its base point, and each U_t grouped by stalk.
    mins, base_of, over = b.total.min_nbhd_map, b.proj.mapping, {}
    for t, u in b.total.min_nbhds:
        over[t] = cs = {}
        for c in u:
            cs.setdefault(base_of[c], []).append(c)
    pairs = sorted((k, base_of[t1], t1, t2) for k, (t1, t2) in kernel_pair_points(b).items()
                   if len(mins[t1]) > 1 or len(mins[t2]) > 1)
    for name in StalkOps.OPS:
        tabs = rb.ops.op(name)
        for k, p, t1, t2 in pairs:
            target = mins[tabs[p][t1, t2]]
            failing = [
                pair_id(c, d)
                for q, cs in over[t1].items() if q in over[t2] for c in cs for d in over[t2][q]
                if tabs[q][c, d] not in target
            ]
            if failing:
                bad.append(Violation(f"proper-map-discontinuous[{name}]", f"{k} -> {min(failing)}"))
                break

    for cname, tab in [("zero", rb.ops.zero), ("one", rb.ops.one)]:
        try:
            sec = fintop.space_map(b.base, b.total, dict(tab))
        except ValueError as e:
            bad.append(Violation(f"{cname}-not-a-map", str(e)))
            continue
        if not fintop.is_continuous(sec):
            bad.append(Violation(f"{cname}-discontinuous", cname))

    return ValidationReport("rl-bundle", tuple(bad))


@functools.lru_cache(maxsize=1024)
def _stalk_rows_pass(rows: tuple) -> bool:
    """Whether the algebra with these stalk rows passes `verify_rl`, its elements named by position.

    Renaming the elements keeps `verify_rl`'s verdict, so each distinct stalk structure gets one
    axiom pass while the cache holds it: `rlcore._rl_gate` on the rows themselves, with the order
    read off meet, on at most `rlcore._GATE_MAX` elements.  A stalk that fails is checked again
    under its own names, which its witnesses need.
    """
    n, *tabs, bot, top = rows
    if n <= rlcore._GATE_MAX:
        order = rlcore._Order(n, [v == k // n for k, v in enumerate(tabs[1])])
        return rlcore._rl_gate(order, *map(bytes, tabs), bot, top)
    names = [str(i) for i in range(n)]
    pairs = list(itertools.product(names, repeat=2))
    join, meet, mul, imp = ({xy: names[v] for xy, v in zip(pairs, row)} for row in tabs)
    return rlcore.verify_rl(rlcore.from_tables(names, join, meet, mul, imp, names[bot], names[top])).ok


def is_etale(b: Bundle) -> bool:
    return fintop.is_local_homeomorphism(b.proj)


# ---------------------------------------------------------------------------
# sections


@dataclass
class Section:
    """A continuous right inverse of the projection over a subset of the base."""

    parent: Bundle
    domain: Subset
    table: dict[str, str]

    def __post_init__(self):
        if set(self.table) != set(self.domain):
            raise ValueError("section table does not match its domain")
        proj = self.parent.proj.mapping
        for p, t in self.table.items():
            if proj.get(t) != p:
                raise ValueError(f"not a right inverse at {p}")
        base, total = self.parent.base.min_nbhd_map, self.parent.total.min_nbhd_map
        if any(self.table[q] not in total[t] for p, t in self.table.items() for q in base[p] & self.domain):
            raise ValueError("section is not continuous")

    def __call__(self, p: str) -> str:
        return self.table[p]

    @fintop.cached_attribute
    def id_str(self) -> str:
        return "{" + ",".join(f"{k}:{v}" for k, v in sorted(self.table.items())) + "}"

    def image(self) -> Subset:
        return frozenset(self.table.values())

    def restrict(self, sub: Iterable[str]) -> "Section":
        s = frozenset(sub)
        if not s <= self.domain:
            raise ValueError("restriction escapes the domain")
        return Section(self.parent, s, {p: self.table[p] for p in s})


def _settled_section(parent: Bundle, domain: Subset, table: dict[str, str]) -> Section:
    """A Section built with no check, for a caller that has settled what `__post_init__` checks: `table`
    is keyed by exactly `domain`, each value lies in the stalk over its point, and the table is monotone
    on the subspace on `domain`."""
    s = object.__new__(Section)
    s.parent, s.domain, s.table = parent, domain, table
    return s


def sections(b: Bundle, x: Iterable[str]) -> list[Section]:
    """All sections over the subset x, in id order (exactly one empty section for x=empty).  The monotone
    search keys each table by x, takes each value from the stalk over its point and lists only the
    continuous tables, so no section is checked again."""
    dom = frozenset(x)
    if not dom <= b.base.points:
        raise ValueError("section domain escapes the base")
    tables = fintop.monotone_tables(fintop.subspace(b.base, dom), b.total, {p: b.stalk_points(p) for p in dom})
    return sorted((_settled_section(b, dom, t) for t in tables), key=lambda s: s.id_str)


def section_through_point(e: Bundle, t: str) -> tuple[Subset, Section]:
    """A basis-open witness (U, sigma) with sigma(proj(t)) = t; requires an etale.

    At an etale the projection maps U_t onto U_proj(t) bijectively, so sigma
    is its inverse there, over the least open U that can carry it.
    """
    if not is_etale(e):
        raise ValueError("bundle is not an etale")
    v = e.total.min_nbhd_map[t]
    u = e.proj.image(v)
    return u, Section(e, u, {e.proj(s): s for s in v})


def equalizer(s1: Section, s2: Section) -> tuple[Subset, dict[str, bool]]:
    """Agreement set of two sections plus topology facts about it."""
    if s1.parent.base != s2.parent.base:
        raise ValueError("sections live over different bases")
    common = s1.domain & s2.domain
    eq = frozenset(p for p in common if s1(p) == s2(p))
    base = s1.parent.base
    within = fintop.subspace(base, common)
    facts = {
        "open_in_base": base.is_open(eq),
        "clopen_in_common": within.is_open(common - eq) and within.is_open(eq),
    }
    return eq, facts


def section_image_basis(e: Bundle) -> list[Subset]:
    """{sigma(U) | U open, sigma over U}; checked to be an open basis of the total space.

    A family of opens of a finite space is a basis iff it holds every U_t.
    """
    if not is_etale(e):
        raise ValueError("bundle is not an etale")
    fam = set()
    for u in e.base.sorted_opens():
        for s in sections(e, u):
            img = s.image()
            if not e.total.is_open(img):
                raise AssertionError(f"section image {fmt_set(img)} is not open")
            fam.add(img)
    for _, v in e.total.min_nbhds:
        if v not in fam:
            raise AssertionError(f"section images do not form a basis at {fmt_set(v)}")
    return sorted(fam, key=set_key)


class SectionClosureError(ValueError):
    """A pointwise combination of sections failed continuity: the bundle is not valid."""


@dataclass
class SectionAlgebra:
    """The sections over one subset under pointwise operations, and the sections by id."""

    algebra: rlcore.ResiduatedLattice
    sections: dict[str, Section]


def pointwise_rl_on_sections(rb: RLBundle, x: Iterable[str], secs: Iterable[Section] | None = None) -> SectionAlgebra:
    """Gamma(x) as a residuated lattice under pointwise stalk operations; `secs`, when given, are the
    sections over x already listed, not enumerated again.  Two sections with one id raise a ValueError."""
    dom = frozenset(x)
    by_id = fintop.keyed_by_id(sections(rb.bundle, dom) if secs is None else secs, "sections")
    pts = sorted(dom)

    def escaped(name: str, operands: tuple[str, ...]) -> SectionClosureError:
        # The result rebuilt as a Section words the error (a missing entry raises its KeyError).
        if operands:
            s1, s2 = (by_id[i] for i in operands)
            what, table = f"{name}({s1.id_str},{s2.id_str})", {p: rb.ops.op(name)[p][s1(p), s2(p)] for p in dom}
        else:
            what, table = f"constant {name}", {p: getattr(rb.ops, name)[p] for p in dom}
        try:
            Section(rb.bundle, dom, table)
        except ValueError as e:
            return SectionClosureError(f"{what} is not a section: {e}")
        return SectionClosureError(f"{name} escaped the enumerated section set" if operands else f"{what} escaped the section set")

    values = {i: tuple(s.table[p] for p in pts) for i, s in by_id.items()}
    tables = {name: [rb.ops.op(name).get(p, {}) for p in pts] for name in StalkOps.OPS}
    zero, one = (tuple(getattr(rb.ops, c).get(p) for p in pts) for c in ("zero", "one"))
    alg = pointwise_rl(values, tables, zero, one, escaped)
    rep = rlcore.verify_rl(alg)
    if not rep.ok:
        raise SectionClosureError(f"pointwise algebra failed verification: {rep.violations[0]}")
    return SectionAlgebra(alg, by_id)


# ---------------------------------------------------------------------------
# morphisms


@dataclass
class BundleMorphism:
    """A map of totals over the same base; continuity and the triangle are checked."""

    src: Bundle
    dst: Bundle
    map: SpaceMap

    def __post_init__(self):
        if self.src.base != self.dst.base:
            raise ValueError("bundle morphism needs a common base")
        if self.map.dom != self.src.total or self.map.cod != self.dst.total:
            raise ValueError("morphism endpoints do not match")
        if any(self.dst.proj(self.map(t)) != self.src.proj(t) for t in self.src.total.points):
            raise ValueError("triangle over the base does not commute")
        if not fintop.is_continuous(self.map):
            raise ValueError("bundle morphism is not continuous")

    def __call__(self, t: str) -> str:
        return self.map(t)


def base_compatible_tables(src: Bundle, dst: Bundle) -> Iterable[dict[str, str]]:
    """All stalk-respecting tables total(src)->total(dst), continuity not imposed."""
    pts = sorted(src.total.points)
    choices = [sorted(dst.stalk_points(src.proj(t))) for t in pts]
    for combo in itertools.product(*choices):
        yield dict(zip(pts, combo))


def morphism_tables(src: Bundle, dst: Bundle) -> list[tuple[tuple[str, str], ...]]:
    """Every bundle morphism src -> dst as its sorted (point, value) table: the monotone search with each
    point's values cut to the stalk over its base point, so each table is continuous and over the base."""
    choices = {t: dst.stalk_points(src.proj(t)) for t in src.total.points}
    return list(fintop._monotone_search(src.total, dst.total, choices))


def bundle_morphisms(src: Bundle, dst: Bundle) -> list[BundleMorphism]:
    return [BundleMorphism(src, dst, SpaceMap(src.total, dst.total, t)) for t in morphism_tables(src, dst)]


def is_rl_bundle_morphism(h: SpaceMap, src: RLBundle, dst: RLBundle) -> bool:
    return not rl_bundle_morphism_violations(h, src, dst)


def rl_bundle_morphism_violations(h: SpaceMap, src: RLBundle, dst: RLBundle) -> list[str]:
    """Triangle, continuity, and stalkwise RL-morphism conditions with witnesses."""
    out = []
    if src.base != dst.base:
        return ["different bases"]
    if h.dom != src.total or h.cod != dst.total:
        return ["endpoints do not match"]
    for t in sorted(src.total.points):
        if dst.proj(h(t)) != src.proj(t):
            out.append(f"triangle fails at {t}")
    if out:
        return out
    if not fintop.is_continuous(h):
        out.append("not continuous")
    for b in sorted(src.base.points):
        table = {t: h(t) for t in src.bundle.stalk_points(b)}
        bad = rlcore.rl_morphism_violations(table, stalk_rl(src, b), stalk_rl(dst, b))
        out.extend(f"stalk {b}: {w}" for w in bad[:1])
    return out


def proper_square_commutes(h: SpaceMap, src: RLBundle, dst: RLBundle) -> bool:
    """The kernel-pair square definition of an RL-bundle morphism.

    Covers the four proper binary maps plus the two global-section squares
    (the nullary operations), which the stalkwise reading also demands.
    """
    pairs = kernel_pair_points(src.bundle)
    for name in StalkOps.OPS:
        rho_src = proper_map_from_stalk_ops(src.bundle, src.ops, name)
        rho_dst = proper_map_from_stalk_ops(dst.bundle, dst.ops, name)
        for k, (t1, t2) in pairs.items():
            if h(rho_src[k]) != rho_dst[pair_id(h(t1), h(t2))]:
                return False
    for src_tab, dst_tab in [(src.ops.zero, dst.ops.zero), (src.ops.one, dst.ops.one)]:
        for b in src.base.points:
            if h(src_tab[b]) != dst_tab[b]:
                return False
    return True
