"""Finite topological spaces, continuous maps, and the local-homeomorphism calculus.

Every finite space is Alexandrov: each point p has a least open set U_p,
the intersection of the opens that contain it, and the opens are exactly
the unions of the U_p: the down-sets of the specialization preorder (q
below p iff q is in U_p).  A space is therefore stored as its points and
the map p -> U_p, and with each U_p as a bitmask row over the sorted points:
the constructor reads the rows once, checks the preorder on them and keeps
them for the kernels (`Opens`, the monotone search, the local-homeomorphism
cross-check), which read no U_p as a set again; `topology_from_subbasis`
builds the rows straight from its members' masks.  Builders produce U_p
directly, continuity and the other map properties are read off it, and the
open family is a view (`Opens`) that counts its members and lists them only
when iterated, both by one pivot split of the down-sets.  A family that
comes from outside the program is checked on the same U_p, read off the
family: it is a topology iff it holds the empty set and each member's union
with each U_p.  `space_from_opens` decides that on bitmasks over the sorted
points; `_family_check`, which `verify_topology` reads, walks the family as
sets only when the masks find a failure, to name it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Set
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from .report import ValidationReport, Violation, fmt_set, set_key

PointSet = frozenset[str]

_key, _value = operator.itemgetter(0), operator.itemgetter(1)

# Guards listing the open family, which can be exponential in the points.
MAX_OPENS = 1 << 20


def pair_id(left: str, right: str) -> str:
    """Canonical name for a point of a product or pullback."""
    return f"({left}|{right})"


def keyed_by_id(items: Iterable, what: str) -> dict:
    """Maps or sections by their `id_str`; a ValueError if two of them share one."""
    out = {}
    for item in items:
        if out.setdefault(item.id_str, item) is not item:
            raise ValueError(f"two {what} share the id {item.id_str}")
    return out


class cached_attribute:
    """An attribute computed on its first read and stored in the instance `__dict__`, where later reads find it
    ahead of this non-data descriptor: `functools.cached_property` without the lock it takes before Python 3.12.
    Like it, it writes past a frozen dataclass's `__setattr__`, and two threads may both compute the value."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


# ---------------------------------------------------------------------------
# mask helpers: a family of subsets of an indexed point list as ints


def _index(points: Iterable[str]) -> tuple[list[str], dict[str, int]]:
    pts = sorted(points)
    return pts, {p: i for i, p in enumerate(pts)}

def _to_mask(s: Iterable[str], idx: Mapping[str, int]) -> int:
    m = 0
    for p in s:
        m |= 1 << idx[p]
    return m

def _from_mask(m: int, pts: list[str]) -> PointSet:
    return frozenset(pts[i] for i in _bits(m))

def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _preorder_up(down: list[int]) -> list[int] | None:
    """The up-rows of the rows `down` (up[j] holds bit i when down[i] holds bit j); None unless each
    row holds its own bit and the row of each point in it, that is unless the rows are the U_p of a preorder."""
    up = [0] * len(down)
    for i, d in enumerate(down):
        bit = 1 << i
        if not d & bit:
            return None
        rest = d
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if down[j] & ~d:
                return None
            up[j] |= bit
            rest ^= low
    return up


def _transitive_closure(rows: list[int]) -> None:
    """Close bitmask rows under transitivity in place (Warshall): row i takes in row k
    whenever it holds bit k.  Reflexive rows stay reflexive; cycles are fine."""
    for k, row in enumerate(rows):
        bit = 1 << k
        for i, r in enumerate(rows):
            if r & bit:
                rows[i] = r | row


class _Rows(NamedTuple):
    """U_p handed to `FiniteSpace` as bitmask rows over the sorted points, by a builder that made the rows."""

    pts: list[str]
    down: list[int]


@dataclass(frozen=True)
class FiniteSpace:
    """A finite topological space: its points and each point's minimal open set U_p.

    `min_nbhds` may be given as a mapping or as (point, U_p) pairs; it is
    kept as pairs sorted by point, so two spaces are equal exactly when they
    have the same points and the same topology.  The constructor reads each
    U_p as a bitmask row over the sorted points (builders that make the rows
    themselves hand them over as `_Rows`) and checks on the rows that they
    form a preorder (each row holds its own bit and the row of each point in
    it: p in U_p within the points, and q in U_p implies U_q inside U_p),
    which is what makes their unions a topology.  Only U_p the rows refuse
    are walked as sets, in the order given, to name the first one at fault.

    The rows are kept with the points: `sorted_points`, `min_nbhd_map` (U_p
    by point, in sorted order) and `order_masks`, where down[i] is U_i and
    up[i] the points whose U holds i, both as bitmasks over `sorted_points`.
    """

    points: PointSet
    min_nbhds: tuple[tuple[str, PointSet], ...]

    def __post_init__(self):
        if isinstance(self.min_nbhds, _Rows):
            pts, down = self.min_nbhds
            given = mins = {p: _from_mask(d, pts) for p, d in zip(pts, down)}
        else:
            given = {p: frozenset(u) for p, u in dict(self.min_nbhds).items()}
            pts = sorted(given)
            mins = {p: given[p] for p in pts}
            bit = {p: 1 << i for i, p in enumerate(pts)}
            try:
                down = [sum(map(bit.__getitem__, u)) for u in mins.values()]
            except KeyError:  # a U_p holds a point that is not a key
                down = None
        object.__setattr__(self, "min_nbhds", tuple(mins.items()))
        if given.keys() != self.points:
            raise ValueError("minimal neighbourhoods must be given for exactly the points")
        up = None if down is None else _preorder_up(down)
        if up is None:  # walk the U_p as sets, in the order given, to name the first one at fault
            for p, u in given.items():
                if p not in u or not u <= self.points or any(not given[q] <= u for q in u):
                    raise ValueError(f"{fmt_set(u)} cannot be the minimal neighbourhood of {p} in a preorder")
        object.__setattr__(self, "sorted_points", tuple(pts))
        object.__setattr__(self, "min_nbhd_map", mins)
        object.__setattr__(self, "order_masks", (down, up))

    @cached_attribute
    def opens(self) -> Opens:
        """The open family as a set-like view; see `Opens`."""
        return Opens(self)

    def is_open(self, s: Iterable[str]) -> bool:
        s = frozenset(s)
        mins = self.min_nbhd_map
        return all(p in mins and mins[p] <= s for p in s)

    def is_discrete(self) -> bool:
        return all(len(u) == 1 for _, u in self.min_nbhds)

    def sorted_opens(self) -> list[PointSet]:
        return sorted(self.opens, key=set_key)


class Opens(Set):
    """The open family of a space: membership is `is_open`, and the size is counted
    and (only when iterating) the members listed by one split on a pivot x: the opens
    inside a point set s are those inside s & ~up[x], which omit x and every point
    above it, and down[x] & s joined with each open inside s & ~down[x].

    `masks` holds the split's leaves, each open as a bitmask over `sorted_points`, and
    the members are those masks as point sets.  Listing is refused past `MAX_OPENS`
    opens; the count that decides it runs only when 2^n could pass that bound.
    """

    def __init__(self, space: FiniteSpace):
        self.space = space
        self.pts = list(space.sorted_points)
        self.down, self.up = space.order_masks

    def __contains__(self, s) -> bool:
        return isinstance(s, (set, frozenset)) and self.space.is_open(s)

    @cached_attribute
    def masks(self) -> list[int]:
        if 1 << len(self.pts) > MAX_OPENS and self._count > MAX_OPENS:
            raise ValueError(f"refusing to materialize topology with {self._count} > 2^20 opens")
        down, up = self.down, self.up
        out, stack = [], [((1 << len(down)) - 1, 0)]
        while stack:  # (points left, open so far): one leaf per open
            s, acc = stack.pop()
            if s:
                x = s.bit_length() - 1
                stack += [(s & ~up[x], acc), (s & ~down[x], acc | down[x] & s)]
            else:
                out.append(acc)
        return out

    @cached_attribute
    def _members(self) -> frozenset[PointSet]:
        return frozenset(_from_mask(m, self.pts) for m in self.masks)

    def __iter__(self):
        return iter(self._members)

    @cached_attribute
    def _count(self) -> int:
        """The pivot split over each connected component, memoized on the points left."""
        down, up = self.down, self.up
        adj = [d | u for d, u in zip(down, up)]

        @functools.cache
        def count(s: int) -> int:
            total, rest = 1, s
            while rest:
                comp, grow = 0, rest & -rest
                while grow:
                    comp |= grow
                    grow = functools.reduce(operator.or_, (adj[i] for i in _bits(grow))) & rest & ~comp
                rest &= ~comp
                x = max(_bits(comp), key=lambda i: (adj[i] & comp).bit_count())
                total *= count(comp & ~up[x]) + count(comp & ~down[x])
            return total

        return count((1 << len(down)) - 1)

    def __len__(self) -> int:
        return self._count


def _family_check(
    points: Iterable[str], family: Iterable[Iterable[str]]
) -> tuple[list[Violation], FiniteSpace, Iterator[Violation]]:
    """The `member-not-subset` and `missing-*` violations, the space the U_p of the
    members inside the points generate, and the `family-incomplete` witnesses, found
    lazily: each missing A | U_p once, members by `set_key`, points in sorted order."""
    pts = frozenset(points)
    fam = [frozenset(s) for s in family]
    famset = set(fam)
    bad = [Violation("member-not-subset", fmt_set(s)) for s in fam if not s <= pts]
    if frozenset() not in famset:
        bad.append(Violation("missing-empty-set", "{}"))
    if pts not in famset:
        bad.append(Violation("missing-full-set", fmt_set(pts)))
    rows = sorted({s for s in famset if s <= pts} | {frozenset()}, key=set_key)
    space = topology_from_subbasis(pts, rows)

    def incomplete() -> Iterator[Violation]:
        seen = set(rows)  # a | u is never empty, so the added empty row is never a witness
        for a in rows:
            for _, u in space.min_nbhds:
                if a | u not in seen:
                    seen.add(a | u)
                    yield Violation("family-incomplete", fmt_set(a | u))

    return bad, space, incomplete()


def verify_topology(points: Iterable[str], family: Iterable[Iterable[str]]) -> ValidationReport:
    """Report every violated topology axiom with a witness; valid iff empty.

    With U_p the intersection of the members inside the points that hold p
    (all the points if none does), each such member is the union of the U_p
    of its points.  So the family is a topology iff it holds the empty set
    and every A | U_p, for each member A (the empty set included) and each
    point p; each missing one is reported once, as `family-incomplete`.
    """
    bad, _, incomplete = _family_check(points, family)
    return ValidationReport("topology", tuple(dict.fromkeys([*bad, *incomplete])))  # each violation once, in order


def _opens_space(pts: PointSet, family: list) -> FiniteSpace | None:
    """The space whose open family is `family`, decided on bitmasks over the sorted points; None when
    a member holds an element outside the points or lists one twice, or the family is no topology.

    The family must hold the empty set, the full set and each member's union with each U_p, where
    the U_p are those of `topology_from_subbasis` on the family: `_family_check`'s test, on ints.
    """
    bit = {p: 1 << i for i, p in enumerate(sorted(pts))}
    try:
        masks = [sum(map(bit.__getitem__, s)) for s in family]
    except (KeyError, TypeError):
        return None
    # A sum of k powers of two has k bits set iff they are distinct: only then is it their union.
    fam = set(masks)
    if list(map(int.bit_count, masks)) != list(map(len, family)) or 0 not in fam or (1 << len(pts)) - 1 not in fam:
        return None
    space = topology_from_subbasis(pts, family)
    return space if all({a | u for a in fam} <= fam for u in set(space.order_masks[0])) else None


def space_from_opens(points: Iterable[str], opens: Iterable[Iterable[str]]) -> FiniteSpace:
    """The space with the given open family; a ValueError names the first violated axiom.

    The family is decided on masks (`_opens_space`); only a family that fails goes through
    `_family_check`, which names the first failure.  Each input is read once.
    """
    pts, fam = frozenset(points), [frozenset(s) for s in opens]
    space = _opens_space(pts, fam)
    if space is None:
        bad, space, incomplete = _family_check(pts, fam)
        first = next(itertools.chain(bad, incomplete), None)
        if first is not None:
            raise ValueError(str(first))
    return space


def discrete(points: Iterable[str]) -> FiniteSpace:
    pts = frozenset(points)
    return FiniteSpace(pts, {p: frozenset({p}) for p in pts})


def indiscrete(points: Iterable[str]) -> FiniteSpace:
    pts = frozenset(points)
    return FiniteSpace(pts, {p: pts for p in pts})


def sierpinski(open_point: str = "x", closed_point: str = "y") -> FiniteSpace:
    pts = frozenset({open_point, closed_point})
    return FiniteSpace(pts, {open_point: frozenset({open_point}), closed_point: pts})


def topology_from_subbasis(points: Iterable[str], subbasis: Iterable[Iterable[str]]) -> FiniteSpace:
    """Generated topology: U_p is the intersection of the members containing p (the whole space if none).

    Each member is read as a mask over the sorted points, its points outside them dropped, and each
    U_p is the AND of the masks that hold p.
    """
    pts = frozenset(points)
    plist = sorted(pts)
    bit = {p: 1 << i for i, p in enumerate(plist)}
    down = [(1 << len(plist)) - 1] * len(plist)
    for s in subbasis:
        m = 0
        for p in s:
            m |= bit.get(p, 0)
        rest = m
        while rest:
            low = rest & -rest
            down[low.bit_length() - 1] &= m
            rest ^= low
    return FiniteSpace(pts, _Rows(plist, down))


# On a finite set a basis generates the same U_p as it does as a subbasis.
topology_from_basis = topology_from_subbasis


@dataclass(frozen=True)
class SpaceMap:
    """A total function between finite spaces.  The constructor checks that the table is total on the
    domain, with no extra keys, and that its values lie in the codomain, and keeps it sorted by point;
    continuity is not checked here, it is `is_continuous`."""

    dom: FiniteSpace
    cod: FiniteSpace
    table: tuple[tuple[str, str], ...]

    def __post_init__(self):
        # A table keyed by exactly the sorted points is total, has no extra
        # keys and is already sorted; any other goes through a dict and a sort.
        if tuple(map(_key, self.table)) != self.dom.sorted_points:
            mapping = dict(self.table)
            if set(mapping) != set(self.dom.points):
                missing = sorted(set(self.dom.points) - set(mapping))
                raise ValueError(f"map not total, missing {missing}" if missing else "map has extra keys")
            object.__setattr__(self, "table", tuple(sorted(mapping.items())))
        if not self.cod.points.issuperset(map(_value, self.table)):
            stray = sorted(v for _, v in self.table if v not in self.cod.points)
            raise ValueError(f"map values escape codomain: {stray}")

    @cached_attribute
    def mapping(self) -> dict[str, str]:
        return dict(self.table)

    def __call__(self, p: str) -> str:
        return self.mapping[p]

    def image(self, s: Iterable[str]) -> PointSet:
        return frozenset(self.mapping[p] for p in s)

    def preimage(self, s: Iterable[str]) -> PointSet:
        t = set(s)
        return frozenset(p for p, v in self.table if v in t)

    @cached_attribute
    def id_str(self) -> str:
        return "{" + ",".join(f"{k}:{v}" for k, v in self.table) + "}"


def _settled_map(dom: FiniteSpace, cod: FiniteSpace, table: tuple[tuple[str, str], ...]) -> SpaceMap:
    """A SpaceMap built with no check, for a caller that has settled what `__post_init__` checks:
    `table` is keyed by exactly `dom.sorted_points`, in that order, and every value is a point of `cod`."""
    m = object.__new__(SpaceMap)
    object.__setattr__(m, "dom", dom)
    object.__setattr__(m, "cod", cod)
    object.__setattr__(m, "table", table)
    return m


def space_map(dom: FiniteSpace, cod: FiniteSpace, table: Mapping[str, str]) -> SpaceMap:
    return SpaceMap(dom, cod, tuple(sorted(table.items())))


def identity_map(s: FiniteSpace) -> SpaceMap:
    return space_map(s, s, {p: p for p in s.points})


def compose(second: SpaceMap, first: SpaceMap) -> SpaceMap:
    """second after first."""
    if first.cod != second.dom:
        raise ValueError("composition mismatch")
    return space_map(first.dom, second.cod, {p: second(first(p)) for p in first.dom.points})


def subspace(s: FiniteSpace, carrier: Iterable[str]) -> FiniteSpace:
    sub = frozenset(carrier)
    if not sub <= s.points:
        raise ValueError(f"carrier {fmt_set(sub)} escapes the space")
    mins = s.min_nbhd_map
    return FiniteSpace(sub, {p: mins[p] & sub for p in sub})


def restrict_map(m: SpaceMap, carrier: Iterable[str]) -> SpaceMap:
    sub = subspace(m.dom, carrier)
    return space_map(sub, m.cod, {p: m(p) for p in sub.points})


def is_continuous(m: SpaceMap) -> bool:
    """f(U_x) inside U_f(x) for every x: f is monotone for the specialization preorders."""
    cod, f = m.cod.min_nbhd_map, m.mapping
    return all(cod[f[x]].issuperset(map(f.__getitem__, u)) for x, u in m.dom.min_nbhds)


def is_open_map(m: SpaceMap) -> bool:
    """Every f(U_x) is open; images of unions are unions of images."""
    return all(m.cod.is_open(m.image(u)) for _, u in m.dom.min_nbhds)


def is_locally_injective(m: SpaceMap) -> bool:
    """f is injective on each U_x, the least open neighbourhood of x."""
    return all(len(m.image(u)) == len(u) for _, u in m.dom.min_nbhds)


def _homeo_opens(m: SpaceMap) -> Iterator[int]:
    """The literal per-open test, on the open families as masks over the sorted points: each open u
    of the domain, as a mask over `dom.sorted_points`, whose image is open, reached bijectively by
    m|_u, with the restriction continuous and open for the subspace families of u and its image."""
    cidx = {p: i for i, p in enumerate(m.cod.sorted_points)}
    to = [1 << cidx[v] for _, v in m.table]  # the image bit of each domain point, by `dom.sorted_points`
    dom_opens, cod_opens = m.dom.opens.masks, m.cod.opens.masks
    cod_set = set(cod_opens)

    def image(s: int) -> int:
        out = 0
        for i in _bits(s):
            out |= to[i]
        return out

    for u in dom_opens:
        img = image(u)
        if img not in cod_set or img.bit_count() != u.bit_count():
            continue
        back = {to[i].bit_length() - 1: 1 << i for i in _bits(u)}  # m|_u inverted: image index -> domain bit
        sub_dom = {o & u for o in dom_opens}
        sub_img = {o & img for o in cod_opens}
        continuous = all(sum(back[j] for j in _bits(v)) in sub_dom for v in sub_img)
        if continuous and all(image(o) in sub_img for o in sub_dom):
            yield u


def is_local_homeomorphism_direct(m: SpaceMap) -> bool:
    """Literal neighbourhood definition: each point has an open nbhd mapped homeomorphically onto an open set.

    The oracle for `is_local_homeomorphism`: m is a local homeomorphism iff the opens `_homeo_opens`
    yields cover the domain.
    """
    return functools.reduce(operator.or_, _homeo_opens(m), 0) == (1 << len(m.dom.sorted_points)) - 1


def is_local_homeomorphism(m: SpaceMap) -> bool:
    """f maps each U_x bijectively onto U_f(x): continuous, open and locally injective at once.

    It follows that f is an order isomorphism from U_x onto U_f(x).
    """
    cod = m.cod.min_nbhd_map
    return all(m.image(u) == cod[m(x)] and len(u) == len(cod[m(x)]) for x, u in m.dom.min_nbhds)


def is_homeomorphism(m: SpaceMap) -> bool:
    """A bijective local homeomorphism: each U_x onto U_f(x) makes f an order isomorphism of the
    specialization preorders, which is continuous, open and bijective."""
    img = m.image(m.dom.points)
    return len(img) == len(m.dom.points) and img == m.cod.points and is_local_homeomorphism(m)


def local_homeo_basis(m: SpaceMap) -> list[PointSet]:
    """Opens on which m restricts to a homeomorphism onto an open image (`_homeo_opens`), by `set_key`.

    Requires m to be a local homeomorphism; the result is a basis of dom, that is, it holds every U_x.
    """
    if not is_local_homeomorphism(m):
        raise ValueError("map is not a local homeomorphism")
    masks = set(_homeo_opens(m))
    pts, down = m.dom.sorted_points, m.dom.order_masks[0]
    for u in down:
        if u not in masks:
            raise AssertionError(f"family is not a basis at {fmt_set(_from_mask(u, pts))}")
    return sorted((_from_mask(u, pts) for u in masks), key=set_key)


def minimal_neighborhood(s: FiniteSpace, p: str) -> PointSet:
    """Intersection of all opens containing p; open because the space is finite."""
    if p not in s.points:
        raise ValueError(f"unknown point {p}")
    return s.min_nbhd_map[p]


def product(s1: FiniteSpace, s2: FiniteSpace) -> tuple[FiniteSpace, SpaceMap, SpaceMap]:
    """Product space on pair ids `(p|q)`, with U_(p|q) = U_p x U_q, plus the two projections.

    It is the pullback of the two maps onto one point.
    """
    pt = discrete(["pt"])
    to_pt = [space_map(s, pt, dict.fromkeys(s.points, "pt")) for s in (s1, s2)]
    return pullback_space(*to_pt)


def final_topology(points: Iterable[str], family: Iterable[tuple[FiniteSpace, Mapping[str, str]]]) -> FiniteSpace:
    """Finest topology making every given map continuous.

    `family` pairs a source space with the table of a map into the carrier.
    A set is open iff every preimage is a down-set, so the specialization
    preorder is the reflexive-transitive closure of t(q) <= t(p) for q in
    U_p, over every map; a point outside every image stays isolated.
    """
    pts = frozenset(points)
    plist, idx = _index(pts)
    down = [1 << i for i in range(len(plist))]
    for src, table in family:
        t = dict(table)
        if set(t) != set(src.points) or not set(t.values()) <= pts:
            raise ValueError("family member is not a total map into the carrier")
        for p, u in src.min_nbhds:
            down[idx[t[p]]] |= _to_mask((t[q] for q in u), idx)
    _transitive_closure(down)
    return FiniteSpace(pts, _Rows(plist, down))


def pullback_pairs(f: SpaceMap, g: SpaceMap) -> dict[str, tuple[str, str]]:
    """The pairs (b, s) with f(b) = g(s), keyed by pair id in sorted point order; a ValueError names
    the first id, in that order, that two pairs share.

    g's points are grouped by value in one pass over its table, and each (b, v) of f's table takes
    the group of v: both tables are sorted by point, so the pairs come in the order of a double loop.
    """
    groups: dict[str, list[str]] = {}
    for s, v in g.table:
        groups.setdefault(v, []).append(s)
    pairs: dict[str, tuple[str, str]] = {}
    for b, v in f.table:
        for s in groups.get(v, ()):
            k = pair_id(b, s)
            if k in pairs:
                raise ValueError(f"two pairs share the id {k}")
            pairs[k] = (b, s)
    return pairs


def pullback_space(f: SpaceMap, g: SpaceMap) -> tuple[FiniteSpace, SpaceMap, SpaceMap]:
    """Fiber product {(b,s) | f(b)=g(s)} with the subspace-of-product topology.

    U_(b|s) is (U_b x U_s) cut to the carrier; the product itself is not built.
    """
    if f.cod != g.cod:
        raise ValueError("pullback codomains differ")
    pairs = pullback_pairs(f, g)
    carrier = frozenset(pairs)
    mb, ms = f.dom.min_nbhd_map, g.dom.min_nbhd_map
    space = FiniteSpace(carrier, {k: carrier & {pair_id(c, t) for c in mb[b] for t in ms[s]} for k, (b, s) in pairs.items()})
    p1 = space_map(space, f.dom, {k: v[0] for k, v in pairs.items()})
    p2 = space_map(space, g.dom, {k: v[1] for k, v in pairs.items()})
    return space, p1, p2


def pullback_universal_check(
    f: SpaceMap, g: SpaceMap, z1: SpaceMap, z2: SpaceMap
) -> SpaceMap:
    """Mediating map for a commuting cone (z1, z2); unique by construction of pair ids."""
    if z1.dom != z2.dom:
        raise ValueError("cone legs have different domains")
    if any(f(z1(p)) != g(z2(p)) for p in z1.dom.points):
        raise ValueError("cone does not commute")
    space, p1, p2 = pullback_space(f, g)
    u = space_map(z1.dom, space, {p: pair_id(z1(p), z2(p)) for p in z1.dom.points})
    if not is_continuous(u):
        raise AssertionError("mediating map is not continuous")
    if compose(p1, u).table != z1.table or compose(p2, u).table != z2.table:
        raise AssertionError("mediating map does not commute")
    return u


def _monotone_search(
    dom: FiniteSpace, cod: FiniteSpace, choices: Mapping[str, Iterable[str]] | None
) -> Iterator[tuple[tuple[str, str], ...]]:
    """`monotone_tables` as (point, value) pair tuples, by one loop over an explicit stack.

    Point i's candidates are a bitmask over `cod.sorted_points`: its choices cut
    by up[f(q)] for each earlier q on its lower frontier and by down[f(q)] for
    each earlier q on its upper frontier.  An earlier q <= i leaves the lower
    frontier when another earlier r sits strictly between (q < r <= i), or ties
    with q at a lower index; the upper frontier is the same with the order
    reversed.  That gives every node the same candidates as checking all the
    earlier comparable points: q and r were both placed before i, so f(q) <= f(r)
    already holds, and f(r) <= f(i) then forces f(q) <= f(i) by transitivity.
    The lowest bit goes first, so values come in
    sorted order.  The choices are read before the first table.
    """
    pts, cpts = dom.sorted_points, cod.sorted_points
    n = len(pts)
    cidx = {v: k for k, v in enumerate(cpts)}
    opts = [(1 << len(cpts)) - 1 if choices is None else _to_mask(choices[p], cidx) for p in pts]
    down_d, up_d = dom.order_masks
    down_c, up_c = cod.order_masks
    below = [[j for j in _bits(e) if not e & up_d[j] & ~(down_d[j] & -(1 << j))]
             for e in (down_d[i] & ((1 << i) - 1) for i in range(n))]
    above = [[j for j in _bits(e) if not e & down_d[j] & ~(up_d[j] & -(1 << j))]
             for e in (up_d[i] & ((1 << i) - 1) for i in range(n))]
    pairs = [[(p, v) for v in cpts] for p in pts]

    def tables() -> Iterator[tuple[tuple[str, str], ...]]:
        if not n:
            yield ()
            return
        if not all(opts):  # an empty choice set admits no table: walk none of the others
            return
        vi, row, cand = [0] * n, [("", "")] * n, [0] * n
        cand[0] = opts[0]
        i = 0
        while i >= 0:
            c = cand[i]
            if not c:
                i -= 1
                continue
            low = c & -c
            cand[i] = c ^ low
            vi[i] = v = low.bit_length() - 1
            row[i] = pairs[i][v]
            if i == n - 1:
                yield tuple(row)
                continue
            i += 1
            m = opts[i]
            for j in below[i]:
                m &= up_c[vi[j]]
            for j in above[i]:
                m &= down_c[vi[j]]
            cand[i] = m

    return tables()


def monotone_tables(
    dom: FiniteSpace, cod: FiniteSpace, choices: Mapping[str, Iterable[str]] | None = None
) -> Iterator[dict[str, str]]:
    """Every continuous table dom -> cod taking each point p into choices[p] (anywhere in cod when None).

    Continuity is specialization monotonicity: q in U_p forces f(q) in U_f(p).
    The points are assigned in sorted order, each checked against its frontier:
    the nearest earlier points below and above it, one of each tied block (the
    farther ones follow by transitivity), so the tables come out
    lexicographic in the sorted points with each point's values in sorted order.
    """
    return map(dict, _monotone_search(dom, cod, choices))


def continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> list[SpaceMap]:
    """All continuous maps dom -> cod, in lexicographic order of their tables.  The search keys each
    table by `dom.sorted_points` in order, with values from `cod.sorted_points`, so none is checked again."""
    return [_settled_map(dom, cod, table) for table in _monotone_search(dom, cod, None)]
