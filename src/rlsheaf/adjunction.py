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

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Mapping, Sequence

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
    def index(self) -> tuple[dict[tuple[str, ...], str], dict[str, tuple[str, ...]]]:
        """Each map's values at the sorted points of dom to its id, and each id to those values."""
        values = {m.id_str: tuple(map(fintop._value, m.table)) for m in self.maps}
        return {v: i for i, v in values.items()}, values


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


_regrouped: tuple = (None, None, ())


def _picker(positions: list[int]) -> Callable[[Sequence], tuple]:
    """The items at these positions of a sequence, as a tuple for any number of positions."""
    return operator.itemgetter(*positions) if len(positions) > 1 else lambda seq: tuple(seq[i] for i in positions)


def _regrouping(p1: SpaceMap, p2: SpaceMap) -> tuple[Callable[[Sequence], tuple], Callable[[Sequence], tuple]]:
    """For the projections of BxX: a picker that reads a sequence over its sorted points x-major, by the
    sorted points of B within each x, and the picker that reads it back.  The last pair asked for keeps
    its pickers, compared by identity (a key of equal maps would hash both spaces on every call), so one
    pass over a hom-set builds them once."""
    global _regrouped
    q1, q2, pickers = _regrouped
    if q1 is not p1 or q2 is not p2:
        keys = list(zip(map(fintop._value, p2.table), map(fintop._value, p1.table)))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        pickers = _picker(order), _picker(sorted(range(len(order)), key=order.__getitem__))
        _regrouped = p1, p2, pickers
    return pickers


def _slices(table: tuple[tuple[str, str], ...], p1: SpaceMap, p2: SpaceMap) -> Iterable[tuple[str, ...]]:
    """The table of h: BxX -> T read into its slices, over the sorted points of X: the values h(b, x)
    at the sorted points b of B, cut from the regrouped table n = |B| at a time."""
    n = len(p1.cod.sorted_points)
    if not n:
        return [()] * len(p2.cod.sorted_points)
    return zip(*[map(fintop._value, _regrouping(p1, p2)[0](table))] * n)


def curry(h: SpaceMap, p1: SpaceMap, p2: SpaceMap, fs: FunctionSpace) -> SpaceMap:
    """h: BxX -> T becomes X -> C(B,T): each slice is looked up among the value tuples of C(B,T), and the
    first x in sorted order whose slice is not one of them is named.  The result is keyed by the sorted
    points of X, with ids from the index, so it is not checked again."""
    xs = p2.cod.sorted_points
    mids = list(map(fs.index[0].get, _slices(h.table, p1, p2)))
    if None in mids:
        raise ValueError(f"curried slice at {xs[mids.index(None)]} is not continuous")
    return fintop._settled_map(p2.cod, fs.space, tuple(zip(xs, mids)))


def uncurry(k: SpaceMap, p1: SpaceMap, p2: SpaceMap, fs: FunctionSpace) -> SpaceMap:
    """k: X -> C(B,T) becomes BxX -> T on the canonical product, keyed by its sorted points, with values
    read from maps into T, so it is not checked again."""
    values, prod = fs.index[1], p1.dom
    flat = [v for _, mid in k.table for v in values[mid]]
    return fintop._settled_map(prod, fs.cod, tuple(zip(prod.sorted_points, _regrouping(p1, p2)[1](flat))))


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
    then tab(a,b) lies in U_tab(x,b), which is inside U_tab(x,y).  Each argument is walked only at the
    points whose U is more than the point itself (elsewhere the only a is x), and the image of such a U
    under tab(-, y) is read once for all the points that share it."""
    mc = cod.min_nbhd_map

    def monotone(space: FiniteSpace, others: Sequence[str], first: bool) -> bool:
        images: dict = {}
        for (x, ux), o in itertools.product([xu for xu in space.min_nbhds if len(xu[1]) > 1], others):
            img = images.get((ux, o))
            if img is None:
                keys = zip(ux, itertools.repeat(o)) if first else zip(itertools.repeat(o), ux)
                img = images[ux, o] = frozenset(map(tab.__getitem__, keys))
            if not img <= mc[tab[(x, o) if first else (o, x)]]:
                return False
        return True

    return monotone(s1, s2.sorted_points, True) and monotone(s2, s1.sorted_points, False)


def _discontinuous(trl: TopologicalRL) -> list[Violation]:
    """Each discontinuous operation among those total on the carrier (verify_rl reports the others)."""
    topo, bad = trl.topology, []
    for name in bnd.StalkOps.OPS:
        tab = getattr(trl.algebra, name)
        total = topo.points.issuperset(map(tab.get, itertools.product(topo.points, repeat=2)))
        if total and not binary_op_continuous(topo, topo, topo, tab):
            bad.append(Violation("operation-discontinuous", name))
    return bad


def verify_topological_rl(trl: TopologicalRL) -> ValidationReport:
    """verify_rl's first three violations, then each discontinuous operation among those total on the carrier."""
    rep = rlcore.verify_rl(trl.algebra)
    bad = [Violation(f"algebra[{v.rule}]", v.witness) for v in rep.violations[:3]]
    return ValidationReport("topological-rl", tuple(bad + _discontinuous(trl)))


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

    tables = {name: [getattr(a.algebra, name)] * n for name in bnd.StalkOps.OPS}
    alg = bnd.pointwise_rl(fs.index[1], tables, (a.algebra.bot,) * n, (a.algebra.top,) * n, escaped)
    trl = TopologicalRL(alg, fs.space)
    rep = verify_topological_rl(trl)
    if not rep.ok:
        raise AssertionError(f"lifted algebra failed: {rep.violations[0]}")
    return trl, fs


def gamma_topological_rl(rb: RLBundle) -> TopologicalRL:
    """Gamma(base, -) lifted: pointwise algebra on global sections, subspace topology.  The algebra is
    verified as it is built, so only the continuity of its operations is checked here: an RL-bundle
    whose section operations are not continuous is refused with a ValueError."""
    sa = bnd.pointwise_rl_on_sections(rb, rb.base.points)
    trl = TopologicalRL(sa.algebra, _section_space(rb.bundle, sa.sections))
    bad = _discontinuous(trl)
    if bad:
        raise ValueError(f"section algebra failed: {bad[0]}")
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
    """Hom-set bijection Bundle(B)(pi_B(X), b) = Top(X, Gamma(B,b)): each slice of h is looked up
    among the global sections by their values at the sorted base points."""
    if not b.base.is_discrete() and not explore_nondiscrete:
        raise ValueError("continuity half asserted only for finite discrete bases")
    prod, p1, p2 = fintop.product(b.base, x)
    lhs = bnd.morphism_tables(Bundle(prod, b.base, p1), b)
    g_space, by_id = gamma_space(b)
    ids = {tuple(s.table[p] for p in b.base.sorted_points): i for i, s in by_id.items()}
    return _hom_bijection(
        lhs, set(fintop._monotone_search(x, g_space, None)),
        lambda h: tuple(zip(x.sorted_points, map(ids.get, _slices(h, p1, p2)))),
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
