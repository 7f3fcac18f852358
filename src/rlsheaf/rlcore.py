"""Finite residuated lattices: axioms, residuals, filters, congruences, quotients, morphisms."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, product
from operator import and_, or_
from typing import Iterable, Mapping

from .fintop import _bits, _transitive_closure, cached_attribute
from .report import ValidationReport, Violation, fmt_set, set_key

Table = dict[tuple[str, str], str]
Subset = frozenset[str]


class NotResiduated(ValueError):
    """Raised when the sup-formula residual fails adjointness; carries a witness triple."""


@dataclass
class ResiduatedLattice:
    """Finite algebra (carrier; join, meet, mul, imp, bot, top) with an explicit order table.

    Construction never validates; `verify_rl` is the gate and reports witnesses.
    """

    carrier: tuple[str, ...]
    leq: frozenset[tuple[str, str]]
    join: Table
    meet: Table
    mul: Table
    imp: Table
    bot: str
    top: str

    def le(self, x: str, y: str) -> bool:
        return (x, y) in self.leq

    def negation(self, a: str) -> str:
        return self.imp[a, self.bot]

    def power(self, a: str, n: int) -> str:
        if n < 0:
            raise ValueError("powers are defined for n >= 0")
        acc = self.top
        for _ in range(n):
            acc = self.mul[a, acc]
        return acc


def from_tables(carrier: Iterable[str], join: Table, meet: Table, mul: Table, imp: Table, bot: str, top: str) -> ResiduatedLattice:
    """The algebra on these tables, the carrier kept in its given order and x <= y iff meet(x, y) = x."""
    elems = tuple(carrier)
    leq = frozenset((x, y) for x in elems for y in elems if meet.get((x, y)) == x)
    return ResiduatedLattice(elems, leq, join, meet, mul, imp, bot, top)


def _leq_from_hasse(carrier: Iterable[str], hasse: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    elems = sorted(set(carrier))
    pos = {x: i for i, x in enumerate(elems)}
    above = [1 << i for i in range(len(elems))]
    for a, b in hasse:
        above[pos[a]] |= 1 << pos[b]
    _transitive_closure(above)
    return frozenset((x, elems[j]) for x, row in zip(elems, above) for j in _bits(row))


# Carrier positions are stored one to a byte, so the whole-table gate runs on carriers of at most this size.
_GATE_MAX = 256


def _split(flat, n: int) -> list:
    """A row-major sequence of n * n entries as its n rows."""
    return [flat[i * n:i * n + n] for i in range(n)]


class _Order:
    """A relation read once over carrier positions (`le` flat, row-major), the one reader of a finite order:
    `rows[i][j]` says x_i <= x_j, `cols[j]` is column j as 0/1 bytes (the down-set of x_j), `up`/`down` are
    bitmask rows, and `partial` says whether the relation is a partial order on the carrier.  Every bound
    is read off `up` or `down`: whole tables of joins, meets and residuals on the happy paths, and one
    extremum at a time (`extremum`) for the walks that name a failure."""

    def __init__(self, n: int, le: list[bool]):
        powers = [1 << i for i in range(n)]
        self.full = (1 << n) - 1
        self.rows = _split(le, n)
        self.cols = [bytes(le[j::n]) for j in range(n)]
        self.up = [sum(compress(powers, r)) for r in self.rows]
        self.down = [sum(compress(powers, c)) for c in self.cols]
        # Reflexive and antisymmetric: each row and column meet in their own element; transitive: each
        # up-row holds the up-rows of its elements.
        self.partial = all(u & d == p for u, d, p in zip(self.up, self.down, powers)) and all(
            reduce(or_, compress(self.up, r), 0) == u for r, u in zip(self.rows, self.up))

    @staticmethod
    def extremum(rows: list[int], bounds: int) -> int | None:
        """The one position of `bounds` whose row holds every bound, None unless exactly one does: on up-rows
        the least of a set of upper bounds, on down-rows the greatest of a set of lower bounds."""
        best = [b for b in _bits(bounds) if not bounds & ~rows[b]]
        return best[0] if len(best) == 1 else None

    @classmethod
    def of(cls, elems: tuple[str, ...] | list[str], leq: frozenset[tuple[str, str]]) -> _Order:
        """`leq` read over `elems`, once per carrier and frozenset relation while `_order_of` holds them,
        so a lattice's build and its `verify_rl` share one read; a relation given as a mutable set is read afresh."""
        if isinstance(leq, frozenset):
            return _order_of(tuple(elems), leq)
        return _order_of.__wrapped__(elems, leq)


@lru_cache(maxsize=64)
def _order_of(elems: tuple[str, ...], leq: frozenset[tuple[str, str]]) -> _Order:
    return _Order(len(elems), list(map(leq.__contains__, product(elems, repeat=2))))


def _positions(elems: tuple[str, ...] | list[str], tab: Mapping[tuple[str, str], str]) -> list[int | None]:
    """A table as carrier positions, row-major; None where an entry is missing or outside the carrier."""
    pos = {x: i for i, x in enumerate(elems)}
    return list(map(pos.get, map(tab.get, product(elems, repeat=2))))


def _extrema(elems: tuple[str, ...], rows: list[int]) -> list[str] | None:
    """For each pair of positions, row-major, the element whose row is the AND of theirs; None if one has none."""
    named = dict(zip(rows, elems))
    out: list[str | None] = []
    for r in rows:
        out += map(named.get, map(r.__and__, rows))
    return None if None in out else out


def _residual_rows(elems: list[str] | tuple[str, ...], order: _Order, mul: Mapping[tuple[str, str], str]) -> Table | None:
    """x->y for each pair, row-major, as the element whose down-set is {z | x*z <= y}.

    For each y, mul read through the order column of y gives those sets as byte rows, one per x.
    None unless `order` is a partial order on at most `_GATE_MAX` elements, every product lies in
    the carrier and each such set is a down-set.
    """
    n = len(elems)
    if n > _GATE_MAX or not order.partial:
        return None
    flat = _positions(elems, mul)
    if None in flat:
        return None
    mul, pad = bytes(flat), bytes(256 - n)
    downs = {c: i for i, c in enumerate(order.cols)}
    cols = [list(map(downs.get, _split(mul.translate(c + pad), n))) for c in order.cols]
    found = [j for row in zip(*cols) for j in row]
    return None if None in found else dict(zip(product(elems, repeat=2), map(elems.__getitem__, found)))


def _rl_gate(order: _Order, join: bytes, meet: bytes, mul: bytes, imp: bytes, bot: int, top: int) -> bool:
    """Whether complete tables of carrier positions (row-major bytes) satisfy every residuated-lattice axiom.

    Exactly `verify_rl`'s verdict: under a partial order the join of x and y is the element whose
    up-row is up[x] & up[y], and the meet likewise on down-rows.  Associativity compares, for each x,
    the rows of mul at x*y laid end to end with mul read through row x; adjointness compares, for
    each y, mul read through the order column of y with the down-sets of the x->y laid end to end.
    """
    n = len(order.cols)
    up, down = order.up, order.down
    if not order.partial or up[bot] != order.full or down[top] != order.full:
        return False
    for js, ms, ux, dx in zip(_split(join, n), _split(meet, n), up, down):
        if list(map(up.__getitem__, js)) != list(map(ux.__and__, up)):
            return False
        if list(map(down.__getitem__, ms)) != list(map(dx.__and__, down)):
            return False
    rows = _split(mul, n)
    if b"".join(mul[j::n] for j in range(n)) != mul or rows[top] != bytes(range(n)):
        return False
    pad = bytes(256 - n)
    if any(b"".join(map(rows.__getitem__, r)) != mul.translate(r + pad) for r in rows):
        return False
    return all(mul.translate(c + pad) == b"".join(map(order.cols.__getitem__, imp[y::n])) for y, c in enumerate(order.cols))


def derive_residual(
    carrier: Iterable[str],
    leq: frozenset[tuple[str, str]],
    mul: Table,
) -> Table:
    """imp[x,y] = sup{z | x*z <= y}; NotResiduated when adjointness fails afterwards.

    Assumes the bounded-lattice and commutative-monoid axioms already hold.  Under a partial order
    on at most `_GATE_MAX` elements, with every product in the carrier, x->y is the element whose
    down-set is {z | x*z <= y}, read a whole table at a time (`_residual_rows`).  Where some such set is
    no down-set, or those conditions fail, a walk over carrier positions names the first failure:
    `{z | x*z <= y}` is row x of mul read through the column of y, its sup is the `_Order.extremum`
    of its upper bounds, and adjointness for (x, y) is that row being equal to the column of x->y.
    """
    elems = sorted(carrier)
    found = _residual_rows(elems, _Order.of(elems, leq), mul)
    if found is not None:
        return found
    n = len(elems)
    # Products outside the carrier are read into the order after it, so that every product has a column entry.
    eset = set(elems)
    vals = elems + [v for v in dict.fromkeys(mul.values()) if v not in eset]
    order = _Order.of(vals, leq)
    vpos = {v: i for i, v in enumerate(vals)}
    imp: Table = {}
    # Every sup is taken before any adjointness failure is raised: the first one found waits.
    unadjoint = None
    for x in elems:
        row = [vpos[mul[x, z]] for z in elems]
        for y, col in zip(elems, order.cols):
            below = bytes(map(col.__getitem__, row))
            j = order.extremum(order.up, reduce(and_, compress(order.up, below), (1 << n) - 1))
            if j is None:
                raise NotResiduated(f"sup of {fmt_set(compress(elems, below))} does not exist for {x}->{y}")
            imp[x, y] = elems[j]
            under = order.cols[j][:n]
            if unadjoint is None and below != under:
                z = next(z for z, a, b in zip(elems, below, under) if a != b)
                unadjoint = f"adjointness fails at x={x}, y={y}, z={z}"
    if unadjoint is not None:
        raise NotResiduated(unadjoint)
    return imp


def make_lattice(
    carrier: Iterable[str],
    hasse: Iterable[tuple[str, str]],
    mul: Mapping[tuple[str, str], str],
    bot: str,
    top: str,
    imp: Mapping[tuple[str, str], str] | None = None,
) -> ResiduatedLattice:
    """Build from a Hasse diagram and a (symmetric) mul table; imp derived when absent."""
    carrier = tuple(carrier)
    return lattice_from_order(carrier, _leq_from_hasse(carrier, hasse), mul, bot, top, imp)


def lattice_from_order(
    carrier: Iterable[str],
    leq: frozenset[tuple[str, str]],
    mul: Mapping[tuple[str, str], str],
    bot: str,
    top: str,
    imp: Mapping[tuple[str, str], str] | None = None,
) -> ResiduatedLattice:
    """Build from a full order relation and a mul table: join and meet derived, imp derived when absent.

    Under a partial order, x v y is the element whose up-row is up[x] & up[y] and x ^ y the one
    whose down-row is down[x] & down[y], a row at a time.  Otherwise, or where one is missing, each
    is the `_Order.extremum` of its bounds, which names the first pair that has none.
    """
    elems = tuple(sorted(carrier))
    order = _Order.of(elems, leq)
    joins = order.partial and _extrema(elems, order.up)
    meets = joins and _extrema(elems, order.down)
    if meets:
        keys = list(product(elems, repeat=2))
        join, meet = dict(zip(keys, joins)), dict(zip(keys, meets))
    else:
        up, down = order.up, order.down
        join, meet = {}, {}
        for x, ux, dx in zip(elems, up, down):
            for y, uy, dy in zip(elems, up, down):
                j, m = order.extremum(up, ux & uy), order.extremum(down, dx & dy)
                if j is None or m is None:
                    raise ValueError(f"not a lattice: join/meet of ({x},{y}) missing")
                join[x, y], meet[x, y] = elems[j], elems[m]
    mul = dict(mul)
    derived = dict(imp) if imp is not None else _residual_rows(elems, order, mul) or derive_residual(elems, leq, mul)
    return ResiduatedLattice(elems, leq, join, meet, mul, derived, bot, top)


def verify_rl(lat: ResiduatedLattice) -> ValidationReport:
    """Report every failed residuated-lattice axiom with witnesses.

    The order is the lattice's `_Order`, and each table is read once as carrier positions (`_positions`).
    With the constants and every entry in the carrier, on at most `_GATE_MAX` elements, the verdict comes
    from `_rl_gate`, which compares whole rows and tables.  When it fails, or on a larger carrier, a walk
    over the same positions compares them a row at a time, takes each join and meet from
    `_Order.extremum`, and visits single elements only where two rows differ, to name the witnesses in
    carrier order.
    """
    elems = lat.carrier
    n = len(elems)
    pos = {x: i for i, x in enumerate(elems)}
    order = _Order.of(elems, lat.leq)
    named = {"join": lat.join, "meet": lat.meet, "mul": lat.mul, "imp": lat.imp}
    tabs = [_positions(elems, t) for t in named.values()]
    bot, top = pos.get(lat.bot), pos.get(lat.top)
    if bot is None or top is None:
        return ValidationReport("residuated-lattice", (Violation("constants-escape", f"bot={lat.bot}, top={lat.top}"),))
    bad: list[Violation] = []
    for (name, tab), flat in zip(named.items(), tabs):
        if None in flat:
            for (x, y), i in zip(product(elems, repeat=2), flat):
                v = tab.get((x, y))
                if v is None:
                    bad.append(Violation(f"{name}-missing", f"({x},{y})"))
                elif i is None:
                    bad.append(Violation(f"{name}-escapes", f"({x},{y})->{v}"))
            return ValidationReport("residuated-lattice", tuple(bad))
    if n <= _GATE_MAX and _rl_gate(order, *map(bytes, tabs), bot, top):
        return ValidationReport("residuated-lattice", ())

    le, col, up, down = order.rows, order.cols, order.up, order.down
    join, meet, mul, imp = (_split(t, n) for t in tabs)

    for i, x in enumerate(elems):
        if not le[i][i]:
            bad.append(Violation("order-not-reflexive", x))
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if x != y and le[i][j] and le[j][i]:
                bad.append(Violation("order-not-antisymmetric", f"({x},{y})"))
    for i, x in enumerate(elems):
        for j in _bits(up[i]):
            for k in _bits(up[j] & ~up[i]):
                bad.append(Violation("order-not-transitive", f"({x},{elems[j]},{elems[k]})"))
    for i, x in enumerate(elems):
        if not le[bot][i]:
            bad.append(Violation("bot-not-least", x))
        if not le[i][top]:
            bad.append(Violation("top-not-greatest", x))

    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if join[i][j] != order.extremum(up, up[i] & up[j]):
                bad.append(Violation("join-not-lub", f"({x},{y})"))
            if meet[i][j] != order.extremum(down, down[i] & down[j]):
                bad.append(Violation("meet-not-glb", f"({x},{y})"))

    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if mul[i][j] != mul[j][i]:
                bad.append(Violation("mul-not-commutative", f"({x},{y})"))
    for x, v in zip(elems, mul[top]):
        if v != pos[x]:
            bad.append(Violation("unit-fails", x))
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            left, right = mul[mul[i][j]], list(map(mul[i].__getitem__, mul[j]))
            if left != right:
                for z, a, b in zip(elems, left, right):
                    if a != b:
                        bad.append(Violation("mul-not-associative", f"({x},{y},{z})"))

    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            below, under = bytes(map(col[j].__getitem__, mul[i])), col[imp[i][j]]
            if below != under:
                for z, a, b in zip(elems, below, under):
                    if a != b:
                        bad.append(Violation("adjointness-fails", f"(x={x},y={y},z={z})"))

    return ValidationReport("residuated-lattice", tuple(bad))


# ---------------------------------------------------------------------------
# filters


def is_filter(lat: ResiduatedLattice, s: Iterable[str]) -> bool:
    f = frozenset(s)
    if not f or not f <= set(lat.carrier):
        return False
    for x, y in itertools.product(f, repeat=2):
        if lat.mul[x, y] not in f:
            return False
    for x in f:
        for y in lat.carrier:
            if lat.join[x, y] not in f:
                return False
    return True


def _idempotent(lat: ResiduatedLattice, xs: Iterable[str]) -> str:
    """The idempotent e that the squares of the product of xs reach: the least filter holding xs is `↑e`.

    `lat` must pass `verify_rl`, whose unit check makes `top` the unit: the algebra is integral.
    """
    e = lat.top
    for x in xs:
        e = lat.mul[e, x]
    while lat.mul[e, e] != e:
        e = lat.mul[e, e]
    return e


def generated_filter(lat: ResiduatedLattice, xs: Iterable[str]) -> Subset:
    """Least filter containing xs: `↑e` for their idempotent e (`_idempotent`).  Every filter F of a finite
    integral algebra is the `↑e` of its own elements, so it is principal, generated by e alone."""
    e = _idempotent(lat, xs)
    return frozenset(y for y in lat.carrier if lat.le(e, y))


@dataclass(frozen=True)
class FilterFlags:
    """What `all_filters` settles about one filter."""

    proper: bool
    principal: bool
    maximal: bool
    prime: bool
    minimal_prime: bool


@dataclass
class FilterLattice:
    """Every filter of `parent`, by `set_key`, each with its flags; `select` picks a kind of them."""

    parent: ResiduatedLattice
    filters: tuple[Subset, ...]
    classification: dict[Subset, FilterFlags]

    def select(self, kind: str) -> tuple[Subset, ...]:
        key = {"spec": "prime", "max": "maximal", "min": "minimal_prime"}.get(kind, kind)
        return tuple(f for f in self.filters if getattr(self.classification[f], key))


def all_filters(lat: ResiduatedLattice) -> FilterLattice:
    """Every filter, classified: each is `↑e = generated_filter(lat, [e])` for an idempotent e, so each is
    principal by construction."""
    fam = tuple(sorted({generated_filter(lat, [e]) for e in lat.carrier if lat.mul[e, e] == e}, key=set_key))
    whole = frozenset(lat.carrier)
    primes = [f for f in fam if is_prime_filter(lat, f)]
    flags = {}
    for f in fam:
        prime = f in primes
        flags[f] = FilterFlags(
            proper=f != whole,
            principal=True,
            maximal=f != whole and not any(f < g for g in fam if g != whole),
            prime=prime,
            minimal_prime=prime and not any(g < f for g in primes),
        )
    return FilterLattice(lat, fam, flags)


def is_prime_filter(lat: ResiduatedLattice, f: Subset) -> bool:
    """A proper filter `f` is prime when `x v y` in f puts x or y in f.  Its complement is a down-set,
    so it is closed under joins iff the join of the whole complement lies outside f."""
    rest = [x for x in lat.carrier if x not in f]
    if not rest:
        return False
    j = rest[0]
    for x in rest:
        j = lat.join[j, x]
    return j not in f


# ---------------------------------------------------------------------------
# congruences and quotients


@dataclass
class Congruence:
    """A congruence of `parent` as its classes."""

    parent: ResiduatedLattice
    blocks: tuple[Subset, ...]

    @cached_attribute
    def block_of(self) -> dict[str, Subset]:
        return {x: b for b in self.blocks for x in b}

    def related(self, x: str, y: str) -> bool:
        return y in self.block_of[x]


def congruence_of_filter(lat: ResiduatedLattice, f: Iterable[str]) -> Congruence:
    """x~y iff x->y and y->x both lie in the filter `↑e` that f generates (f itself when f is a filter).
    e <= x->y iff e*x <= y, so the classes are the fibres of x ↦ e*x, in carrier order.  They are compatible
    by theorem, settled in the tests on every algebra of at most 5 elements, so not re-checked here."""
    e = _idempotent(lat, f)
    fibres: dict[str, set[str]] = {}
    for x in lat.carrier:
        fibres.setdefault(lat.mul[e, x], set()).add(x)
    return Congruence(lat, tuple(map(frozenset, fibres.values())))


def block_id(b: Iterable[str]) -> str:
    return "[" + "|".join(sorted(b)) + "]"


@dataclass
class RLMorphism:
    """A map of residuated lattices as its table; the constructor refuses one that is not a morphism."""

    dom: ResiduatedLattice
    cod: ResiduatedLattice
    table: dict[str, str]

    def __post_init__(self):
        bad = rl_morphism_violations(self.table, self.dom, self.cod)
        if bad:
            raise ValueError(f"not a morphism of residuated lattices: {bad[0]}")

    def __call__(self, x: str) -> str:
        return self.table[x]


def rl_morphism_violations(table: Mapping[str, str], dom: ResiduatedLattice, cod: ResiduatedLattice) -> list[str]:
    out = []
    if set(table) != set(dom.carrier) or not set(table.values()) <= set(cod.carrier):
        return ["table is not a total map between the carriers"]
    if table[dom.bot] != cod.bot:
        out.append(f"bot: {table[dom.bot]} != {cod.bot}")
    if table[dom.top] != cod.top:
        out.append(f"top: {table[dom.top]} != {cod.top}")
    pairs = [("join", dom.join, cod.join), ("meet", dom.meet, cod.meet), ("mul", dom.mul, cod.mul), ("imp", dom.imp, cod.imp)]
    for name, dt, ct in pairs:
        for x, y in itertools.product(dom.carrier, repeat=2):
            if table[dt[x, y]] != ct[table[x], table[y]]:
                out.append(f"{name}({x},{y}): {table[dt[x, y]]} != {ct[table[x], table[y]]}")
    return out


def is_rl_morphism(table: Mapping[str, str], dom: ResiduatedLattice, cod: ResiduatedLattice) -> bool:
    return not rl_morphism_violations(table, dom, cod)


def quotient(lat: ResiduatedLattice, f: Iterable[str]) -> tuple[ResiduatedLattice, RLMorphism]:
    """Blockwise quotient by the congruence of the filter that f generates (f itself when f is a filter),
    plus the natural projection; `verify_rl` checks the quotient and `RLMorphism` the projection."""
    cong = congruence_of_filter(lat, f)
    bo = cong.block_of
    ids = {b: block_id(b) for b in cong.blocks}
    carrier = tuple(sorted(ids.values()))

    def lift(tab: Table) -> Table:
        out: Table = {}
        for b1 in cong.blocks:
            for b2 in cong.blocks:
                x, y = next(iter(b1)), next(iter(b2))
                out[ids[b1], ids[b2]] = ids[bo[tab[x, y]]]
        return out

    q = from_tables(carrier, lift(lat.join), lift(lat.meet), lift(lat.mul), lift(lat.imp), ids[bo[lat.bot]], ids[bo[lat.top]])
    rep = verify_rl(q)
    if not rep.ok:
        raise AssertionError(f"quotient failed verification: {rep.violations[0]}")
    proj = RLMorphism(lat, q, {x: ids[bo[x]] for x in lat.carrier})
    return q, proj
