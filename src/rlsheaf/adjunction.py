"""Finite function spaces with the compact-open topology and the adjunction law suites.

Every subset of a finite space is compact, so the compact-open subbasis
ranges over all subsets of the domain; on a finite codomain the topology it
generates is the pointwise specialization order.  Every finite space is locally
compact in the sense the exponential law needs (U_p is a compact open inside
every open around p), so C(B, T) is an exponential for every finite base B.
The continuity halves are still asserted only for discrete bases unless the
off-by-default `explore_nondiscrete` flag is passed: that guard is a kept
interface, not a mathematical need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

from . import bundle as bnd
from . import fintop, fixtures, rlcore
from .bundle import Bundle, RLBundle, Section
from .fintop import FiniteSpace, SpaceMap, cached_attribute, pair_id
from .report import ValidationReport, Violation


@dataclass
class FunctionSpace:
    """C(dom, cod): continuous maps as points, compact-open topology."""

    dom: FiniteSpace
    cod: FiniteSpace
    maps: tuple[SpaceMap, ...]
    space: FiniteSpace

    def by_id(self) -> dict[str, SpaceMap]:
        return {m.id_str: m for m in self.maps}

    @cached_attribute
    def index(self) -> tuple[dict[tuple[tuple[str, str], ...], str], dict[str, dict[str, str]]]:
        """Each map's sorted table to its id, and each id to its values by domain point."""
        return {m.table: m.id_str for m in self.maps}, {m.id_str: m.mapping for m in self.maps}


def _pointwise_topology(members: Mapping[str, tuple[str, ...]], cod: FiniteSpace) -> FiniteSpace:
    """Compact-open topology on finitely many maps into cod, given by id as their values at the sorted points.

    Every subset of a finite domain is compact, and the least subbasic set
    S(C, U) around f is cut out by C = {p}, U = U_f(p); so
    U_f = {g | g(p) in U_f(p) for every p}, the pointwise order.  It is read on
    masks over the sorted ids, with no pair of members compared: for each point p
    and value v, the mask of the members whose value at p lies in U_v, and U_f is
    the AND of those masks over f's values.
    """
    mins = cod.min_nbhd_map
    ids = sorted(members)
    down = [(1 << len(ids)) - 1] * len(ids)
    for column in zip(*(members[i] for i in ids)):  # the members' values at one point
        took: dict[str, int] = {}  # each value to the mask of the members that take it
        for j, w in enumerate(column):
            took[w] = took.get(w, 0) | 1 << j
        inside = {v: sum(m for w, m in took.items() if w in mins[v]) for v in took}
        for j, v in enumerate(column):
            down[j] &= inside[v]
    return FiniteSpace(frozenset(ids), fintop._Rows(ids, down))


def compact_open_space(x: FiniteSpace, y: FiniteSpace) -> FunctionSpace:
    """All continuous maps x -> y with the topology from the sets S(C,U); a ValueError if two share an id."""
    by_id = fintop.keyed_by_id(fintop.continuous_maps(x, y), "maps")
    maps = tuple(by_id[i] for i in sorted(by_id))
    space = _pointwise_topology({m.id_str: tuple(v for _, v in m.table) for m in maps}, y)
    return FunctionSpace(x, y, maps, space)


def _slices(table: tuple[tuple[str, str], ...], p1: SpaceMap, p2: SpaceMap) -> dict[str, list[tuple[str, str]]]:
    """The table of h: BxX -> T read once into its slices (b, h(b, x)) by x, over the sorted points of X."""
    m1, m2 = p1.mapping, p2.mapping
    out: dict[str, list[tuple[str, str]]] = {x: [] for x in p2.cod.sorted_points}
    for k, v in table:
        out[m2[k]].append((m1[k], v))
    return out


def curry(h: SpaceMap, p1: SpaceMap, p2: SpaceMap, fs: FunctionSpace) -> SpaceMap:
    """h: BxX -> T becomes X -> C(B,T): each slice (b, h(b,x)), sorted by b, is looked up among the
    tables of C(B,T), and the first x in sorted order whose slice is not one of them is named.  The result
    is keyed by the sorted points of X, with ids from the index, so it is not checked again."""
    ids = fs.index[0]
    table = []
    for xpt, sl in _slices(h.table, p1, p2).items():
        sl.sort()
        mid = ids.get(tuple(sl))
        if mid is None:
            raise ValueError(f"curried slice at {xpt} is not continuous")
        table.append((xpt, mid))
    return fintop._settled_map(p2.cod, fs.space, tuple(table))


def uncurry(k: SpaceMap, p1: SpaceMap, p2: SpaceMap, fs: FunctionSpace) -> SpaceMap:
    """k: X -> C(B,T) becomes BxX -> T on the canonical product, keyed by its sorted points, with values
    read from maps into T, so it is not checked again."""
    values, m1, m2, km = fs.index[1], p1.mapping, p2.mapping, k.mapping
    prod = p1.dom
    return fintop._settled_map(prod, fs.cod, tuple((pt, values[km[m2[pt]]][m1[pt]]) for pt in prod.sorted_points))


def corestrict_to_sections(b: Bundle, h: SpaceMap, p1: SpaceMap, p2: SpaceMap) -> dict[str, Section]:
    """For h: BxX -> total over the base, the family x -> (curried section)."""
    slices = _slices(h.table, p1, p2)
    proj = b.proj.mapping
    if any(proj[v] != bpt for sl in slices.values() for bpt, v in sl):
        raise ValueError("h does not commute with the projections")
    return {xpt: Section(b, frozenset(b.base.points), dict(sl)) for xpt, sl in slices.items()}


def gamma_space(b: Bundle) -> tuple[FiniteSpace, dict[str, Section]]:
    """Global sections with the subspace topology inherited from C(base, total).

    A subspace of the pointwise order is ordered pointwise, so the ambient
    function space is never built.  Two sections with one id raise a ValueError.
    """
    by_id = fintop.keyed_by_id(bnd.sections(b, b.base.points), "sections")
    return _section_space(b, by_id), by_id


def _section_space(b: Bundle, by_id: Mapping[str, Section]) -> FiniteSpace:
    pts = b.base.sorted_points
    return _pointwise_topology({i: tuple(s.table[p] for p in pts) for i, s in by_id.items()}, b.total)


@dataclass
class TopologicalRL:
    """A residuated lattice whose carrier wears a topology; all operations continuous."""

    algebra: rlcore.ResiduatedLattice
    topology: FiniteSpace

    def __post_init__(self):
        if set(self.algebra.carrier) != set(self.topology.points):
            raise ValueError("topology carrier mismatch")


def binary_op_continuous(s1: FiniteSpace, s2: FiniteSpace, cod: FiniteSpace, tab) -> bool:
    """Continuity on the product, one argument at a time: continuity is monotonicity and U_(x,y) is
    U_x x U_y, so it suffices that tab(a,y) and tab(x,b) lie in U_tab(x,y) for a in U_x, b in U_y;
    then tab(a,b) lies in U_tab(x,b), which is inside U_tab(x,y)."""
    mc = cod.min_nbhd_map
    for x, ux in s1.min_nbhds:
        for y, uy in s2.min_nbhds:
            target = mc[tab[x, y]]
            if not (target.issuperset([tab[a, y] for a in ux]) and target.issuperset([tab[x, b] for b in uy])):
                return False
    return True


def verify_topological_rl(trl: TopologicalRL) -> ValidationReport:
    """verify_rl's first three violations, then each discontinuous operation among those total on the carrier."""
    bad: list[Violation] = []
    rep = rlcore.verify_rl(trl.algebra)
    if not rep.ok:
        bad.extend(Violation(f"algebra[{v.rule}]", v.witness) for v in rep.violations[:3])
    pts = trl.topology.points
    for name in bnd.StalkOps.OPS:
        tab = getattr(trl.algebra, name)
        total = all(tab.get((x, y)) in pts for x in pts for y in pts)  # verify_rl reported it if not
        if total and not binary_op_continuous(trl.topology, trl.topology, trl.topology, tab):
            bad.append(Violation("operation-discontinuous", name))
    return ValidationReport("topological-rl", tuple(bad))


def lift_compact_open_rl(b: FiniteSpace, a: TopologicalRL) -> tuple[TopologicalRL, FunctionSpace]:
    """Pointwise operations on C(b, A), verified continuous for the compact-open topology."""
    fs = compact_open_space(b, a.topology)
    n = len(b.points)

    def escaped(name: str, operands: tuple[str, ...]) -> AssertionError:
        # The result rebuilt as a SpaceMap raises the ValueError of a value outside A (a missing entry, its KeyError).
        if operands:
            m1, m2 = (fs.by_id()[i] for i in operands)
            table = {p: getattr(a.algebra, name)[m1(p), m2(p)] for p in b.points}
        else:
            table = dict.fromkeys(b.points, a.algebra.bot if name == "zero" else a.algebra.top)
        fintop.space_map(b, a.topology, table)
        return AssertionError("pointwise combination left the function space")

    values = {m.id_str: tuple(v for _, v in m.table) for m in fs.maps}
    tables = {name: [getattr(a.algebra, name)] * n for name in bnd.StalkOps.OPS}
    alg = bnd.pointwise_rl(values, tables, (a.algebra.bot,) * n, (a.algebra.top,) * n, escaped)
    trl = TopologicalRL(alg, fs.space)
    rep = verify_topological_rl(trl)
    if not rep.ok:
        raise AssertionError(f"lifted algebra failed: {rep.violations[0]}")
    return trl, fs


def gamma_topological_rl(rb: RLBundle) -> TopologicalRL:
    """Gamma(base, -) lifted: pointwise algebra on global sections, subspace topology."""
    sa = bnd.pointwise_rl_on_sections(rb, rb.base.points)
    trl = TopologicalRL(sa.algebra, _section_space(rb.bundle, sa.sections))
    rep = verify_topological_rl(trl)
    if not rep.ok:
        raise AssertionError(f"section algebra failed: {rep.violations[0]}")
    return trl


def product_rl_bundle(b: FiniteSpace, a: TopologicalRL) -> RLBundle:
    """pi_B lifted: B x A with the stalkwise copied operations."""
    return fixtures.constant_rl_bundle(b, a.algebra, total=fintop.product(b, a.topology)[0])


# ---------------------------------------------------------------------------
# adjunction law suites


def _hom_bijection(lhs: Sequence, rhs: Collection, send: Callable, msg: str, back: Callable | None = None, back_msg: str = "") -> dict:
    """One pass over the listed source tables: each send(h) must be among the listed target tables rhs, and
    where a round trip exists back(send(h)) must give h.  A table is continuous iff the monotone search
    listed it; with |lhs| = |rhs| = |sent|, send is a bijection."""
    sent = set()
    for h in lhs:
        k = send(h)
        if k not in rhs:
            raise AssertionError(msg)
        if back is not None and back(k) != h:
            raise AssertionError(back_msg)
        sent.add(k)
    return {"lhs": len(lhs), "rhs": len(rhs), "bijective": len(lhs) == len(rhs) == len(sent)}


def check_exponential_adjunction(b: FiniteSpace, x: FiniteSpace, t: FiniteSpace, explore_nondiscrete: bool = False) -> dict:
    """Hom-set bijection Top(BxX, T) = Top(X, C(B,T)) by curry, with uncurry . curry = 1, on tables.
    The round trip uncurries the map curry returned, looked up by its table."""
    if not b.is_discrete() and not explore_nondiscrete:
        raise ValueError("continuity half asserted only for finite discrete bases")
    prod, p1, p2 = fintop.product(b, x)
    fs = compact_open_space(b, t)
    curried: dict = {}

    def send(h: SpaceMap) -> tuple:
        k = curry(h, p1, p2, fs)
        curried[k.table] = k
        return k.table

    return _hom_bijection(
        fintop.continuous_maps(prod, t), set(fintop._monotone_search(x, fs.space, None)),
        send, "curry of a continuous map is not continuous",
        lambda k: uncurry(curried[k], p1, p2, fs), "uncurry . curry is not the identity",
    )


def check_section_adjunction(b: Bundle, x: FiniteSpace, explore_nondiscrete: bool = False) -> dict:
    """Hom-set bijection Bundle(B)(pi_B(X), b) = Top(X, Gamma(B,b)): each slice of h, sorted by base
    point, is looked up among the tables of the global sections."""
    if not b.base.is_discrete() and not explore_nondiscrete:
        raise ValueError("continuity half asserted only for finite discrete bases")
    prod, p1, p2 = fintop.product(b.base, x)
    lhs = bnd.morphism_tables(Bundle(prod, b.base, p1), b)
    g_space, by_id = gamma_space(b)
    ids = {tuple(sorted(s.table.items())): i for i, s in by_id.items()}
    return _hom_bijection(
        lhs, set(fintop._monotone_search(x, g_space, None)),
        lambda h: tuple((xp, ids.get(tuple(sorted(sl)))) for xp, sl in _slices(h, p1, p2).items()),
        "corestriction is not continuous",
    )


def check_projection_adjunction(xb: Bundle, y: FiniteSpace) -> dict:
    """Hom-set bijection Top(U_B(X,f), Y) = Bundle(B)((X,f), pi_B(Y)) via g -> <f,g>, back by the second projection."""
    prod, p1, p2 = fintop.product(xb.base, y)
    proj, second = xb.proj.mapping, p2.mapping
    return _hom_bijection(
        list(fintop._monotone_search(xb.total, y, None)), set(bnd.morphism_tables(xb, Bundle(prod, xb.base, p1))),
        lambda g: tuple((t, pair_id(proj[t], v)) for t, v in g), "pairing of continuous maps is not continuous",
        lambda k: tuple((t, second[kt]) for t, kt in k), "projection round trip failed",
    )


def check_triangle_identities(b: FiniteSpace, x: FiniteSpace) -> dict:
    """C(B,X) = Gamma(B, pi_B(X)) and BxX = U_B(pi_B(X)), through the canonical isos; graphs looked up by table."""
    if not b.is_discrete():
        raise ValueError("triangle identities asserted for discrete bases")
    prod, p1, p2 = fintop.product(b, x)
    proj_bundle = Bundle(prod, b, p1)
    fs = compact_open_space(b, x)
    g_space, by_id = gamma_space(proj_bundle)
    ids = {tuple(s.table[p] for p in b.sorted_points): i for i, s in by_id.items()}
    table = {m.id_str: ids.get(tuple(pair_id(p, v) for p, v in m.table)) for m in fs.maps}
    if set(table.values()) != set(g_space.points) or len(set(table.values())) != len(table):
        raise AssertionError("graph correspondence is not bijective")
    iso = fintop.space_map(fs.space, g_space, table)
    upper = fintop.is_homeomorphism(iso)
    lower = prod == proj_bundle.total  # U_B(pi_B(X)) is literally BxX
    return {"upper_triangle_iso": upper, "lower_triangle_strict": lower}
