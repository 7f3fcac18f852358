"""Finite residuated lattices: axioms, residuals, filters, congruences, quotients, morphisms."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Mapping

from .report import ValidationReport, Violation, fmt_set

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

    @cached_property
    def size(self) -> int:
        return len(self.carrier)


def _leq_from_hasse(carrier: Iterable[str], hasse: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    elems = sorted(carrier)
    above: dict[str, set[str]] = {x: {x} for x in elems}
    edges = [(a, b) for a, b in hasse]
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            new = above[b] - above[a]
            if new:
                above[a] |= new
                changed = True
    return frozenset((x, y) for x in elems for y in above[x])


def _order_bounds(carrier: Iterable[str], leq: frozenset[tuple[str, str]]):
    """(sup, inf) under any relation `leq`, read off up- and down-rows built once: the bounds of
    xs are the carrier elements in every x's row, and the extremum is the bound whose own row
    holds every bound (None unless exactly one does)."""
    up: dict[str, set[str]] = {}
    down: dict[str, set[str]] = {}
    for x, y in leq:
        up.setdefault(x, set()).add(y)
        down.setdefault(y, set()).add(x)
    elems = frozenset(carrier)
    return partial(_extremum, elems, up), partial(_extremum, elems, down)


def _extremum(elems: Subset, rows: dict[str, set[str]], xs: Iterable[str]) -> str | None:
    bounds = elems.intersection(*(rows.get(x, ()) for x in xs))
    best = [b for b in bounds if bounds <= rows.get(b, set())]
    return best[0] if len(best) == 1 else None


def lub(carrier: Iterable[str], leq: frozenset[tuple[str, str]], xs: Iterable[str]) -> str | None:
    """Least upper bound of a subset, None when it does not exist."""
    return _order_bounds(carrier, leq)[0](xs)


def glb(carrier: Iterable[str], leq: frozenset[tuple[str, str]], xs: Iterable[str]) -> str | None:
    return _order_bounds(carrier, leq)[1](xs)


def derive_residual(
    carrier: Iterable[str],
    leq: frozenset[tuple[str, str]],
    mul: Table,
) -> Table:
    """imp[x,y] = sup{z | x*z <= y}; NotResiduated when adjointness fails afterwards.

    Assumes the bounded-lattice and commutative-monoid axioms already hold.
    """
    elems = sorted(carrier)
    sup, _ = _order_bounds(elems, leq)
    imp: Table = {}
    for x in elems:
        for y in elems:
            zs = [z for z in elems if (mul[x, z], y) in leq]
            j = sup(zs)
            if j is None:
                raise NotResiduated(f"sup of {fmt_set(zs)} does not exist for {x}->{y}")
            imp[x, y] = j
    for x, y, z in itertools.product(elems, repeat=3):
        if ((mul[x, z], y) in leq) != ((z, imp[x, y]) in leq):
            raise NotResiduated(f"adjointness fails at x={x}, y={y}, z={z}")
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
    """Build from a full order relation and a mul table: join and meet derived, imp derived when absent."""
    elems = tuple(sorted(carrier))
    sup, inf = _order_bounds(elems, leq)
    join: Table = {}
    meet: Table = {}
    for x in elems:
        for y in elems:
            j = sup([x, y])
            m = inf([x, y])
            if j is None or m is None:
                raise ValueError(f"not a lattice: join/meet of ({x},{y}) missing")
            join[x, y] = j
            meet[x, y] = m
    mul = dict(mul)
    derived = dict(imp) if imp is not None else derive_residual(elems, leq, mul)
    return ResiduatedLattice(elems, leq, join, meet, mul, derived, bot, top)


def verify_rl(lat: ResiduatedLattice) -> ValidationReport:
    """Report every failed residuated-lattice axiom with witnesses."""
    bad: list[Violation] = []
    elems = lat.carrier
    eset = set(elems)

    def tab_ok(name: str, tab: Table) -> bool:
        complete = True
        for x in elems:
            for y in elems:
                v = tab.get((x, y))
                if v is None:
                    bad.append(Violation(f"{name}-missing", f"({x},{y})"))
                    complete = False
                elif v not in eset:
                    bad.append(Violation(f"{name}-escapes", f"({x},{y})->{v}"))
                    complete = False
        return complete

    if lat.bot not in eset or lat.top not in eset:
        bad.append(Violation("constants-escape", f"bot={lat.bot}, top={lat.top}"))
        return ValidationReport("residuated-lattice", tuple(bad))
    if not all(tab_ok(n, t) for n, t in [("join", lat.join), ("meet", lat.meet), ("mul", lat.mul), ("imp", lat.imp)]):
        return ValidationReport("residuated-lattice", tuple(bad))

    for x in elems:
        if not lat.le(x, x):
            bad.append(Violation("order-not-reflexive", x))
    for x, y in itertools.product(elems, repeat=2):
        if x != y and lat.le(x, y) and lat.le(y, x):
            bad.append(Violation("order-not-antisymmetric", f"({x},{y})"))
    for x, y, z in itertools.product(elems, repeat=3):
        if lat.le(x, y) and lat.le(y, z) and not lat.le(x, z):
            bad.append(Violation("order-not-transitive", f"({x},{y},{z})"))
    for x in elems:
        if not lat.le(lat.bot, x):
            bad.append(Violation("bot-not-least", x))
        if not lat.le(x, lat.top):
            bad.append(Violation("top-not-greatest", x))

    sup, inf = _order_bounds(elems, lat.leq)
    for x, y in itertools.product(elems, repeat=2):
        if lat.join[x, y] != sup([x, y]):
            bad.append(Violation("join-not-lub", f"({x},{y})"))
        if lat.meet[x, y] != inf([x, y]):
            bad.append(Violation("meet-not-glb", f"({x},{y})"))

    for x, y in itertools.product(elems, repeat=2):
        if lat.mul[x, y] != lat.mul[y, x]:
            bad.append(Violation("mul-not-commutative", f"({x},{y})"))
    for x in elems:
        if lat.mul[lat.top, x] != x:
            bad.append(Violation("unit-fails", x))
    for x, y, z in itertools.product(elems, repeat=3):
        if lat.mul[lat.mul[x, y], z] != lat.mul[x, lat.mul[y, z]]:
            bad.append(Violation("mul-not-associative", f"({x},{y},{z})"))

    for x, y, z in itertools.product(elems, repeat=3):
        if (lat.le(lat.mul[x, z], y)) != (lat.le(z, lat.imp[x, y])):
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


def generated_filter(lat: ResiduatedLattice, xs: Iterable[str]) -> Subset:
    """Least filter containing xs: `↑e` for the idempotent e that the squares of their product reach.

    `lat` must pass `verify_rl`, whose unit check makes `top` the unit: the algebra is integral.
    """
    e = lat.top
    for x in xs:
        e = lat.mul[e, x]
    while lat.mul[e, e] != e:
        e = lat.mul[e, e]
    return frozenset(y for y in lat.carrier if lat.le(e, y))


def principal_filter(lat: ResiduatedLattice, x: str) -> Subset:
    return generated_filter(lat, [x])


def filter_join(lat: ResiduatedLattice, filters: Iterable[Iterable[str]]) -> Subset:
    return generated_filter(lat, itertools.chain.from_iterable(filters))


@dataclass(frozen=True)
class FilterFlags:
    proper: bool
    principal: bool
    maximal: bool
    prime: bool
    minimal_prime: bool


@dataclass
class FilterLattice:
    parent: ResiduatedLattice
    filters: tuple[Subset, ...]
    classification: dict[Subset, FilterFlags]

    def named(self, names: Mapping[Subset, str] | None = None) -> list[tuple[str, Subset]]:
        if names:
            return sorted(((names[f], f) for f in self.filters), key=lambda kv: kv[0])
        return [(fmt_set(f), f) for f in self.filters]

    def select(self, kind: str) -> tuple[Subset, ...]:
        key = {"spec": "prime", "max": "maximal", "min": "minimal_prime"}.get(kind, kind)
        return tuple(f for f in self.filters if getattr(self.classification[f], key))


def all_filters(lat: ResiduatedLattice) -> FilterLattice:
    """Every filter, classified: each is `↑e` for an idempotent e (see `generated_filter`)."""
    found = {generated_filter(lat, [e]) for e in lat.carrier if lat.mul[e, e] == e}
    fam = tuple(sorted(found, key=lambda f: (len(f), sorted(f))))
    return FilterLattice(lat, fam, classify_filters(lat, fam))


def classify_filters(lat: ResiduatedLattice, fam: Iterable[Subset]) -> dict[Subset, FilterFlags]:
    fam = list(fam)
    principal_sets = {principal_filter(lat, x) for x in lat.carrier}
    flags: dict[Subset, FilterFlags] = {}
    whole = frozenset(lat.carrier)
    propers = [f for f in fam if f != whole]

    def prime(f: Subset) -> bool:
        if f == whole:
            return False
        for x, y in itertools.product(lat.carrier, repeat=2):
            if lat.join[x, y] in f and x not in f and y not in f:
                return False
        return True

    primes = [f for f in fam if prime(f)]
    for f in fam:
        is_prime = f in primes
        flags[f] = FilterFlags(
            proper=f != whole,
            principal=f in principal_sets,
            maximal=f != whole and not any(f < g for g in propers),
            prime=is_prime,
            minimal_prime=is_prime and not any(g < f for g in primes),
        )
    return flags


# ---------------------------------------------------------------------------
# congruences and quotients


@dataclass
class Congruence:
    parent: ResiduatedLattice
    blocks: tuple[Subset, ...]

    @cached_property
    def block_of(self) -> dict[str, Subset]:
        return {x: b for b in self.blocks for x in b}

    def related(self, x: str, y: str) -> bool:
        return y in self.block_of[x]


def congruence_of_filter(lat: ResiduatedLattice, f: Iterable[str]) -> Congruence:
    """Partition by x~y iff x->y and y->x both lie in the filter; verified compatible."""
    fs = frozenset(f)
    blocks: list[set[str]] = []
    for x in lat.carrier:
        for b in blocks:
            rep = next(iter(b))
            if lat.imp[x, rep] in fs and lat.imp[rep, x] in fs:
                b.add(x)
                break
        else:
            blocks.append({x})
    cong = Congruence(lat, tuple(frozenset(b) for b in blocks))
    bad = _congruence_violations(lat, cong)
    if bad:
        raise AssertionError(f"filter congruence not compatible: {bad[0]}")
    return cong


def _congruence_violations(lat: ResiduatedLattice, cong: Congruence) -> list[str]:
    out = []
    bo = cong.block_of
    for op_name, tab in [("join", lat.join), ("meet", lat.meet), ("mul", lat.mul), ("imp", lat.imp)]:
        for b in cong.blocks:
            for x, x2 in itertools.product(b, repeat=2):
                for y in lat.carrier:
                    if bo[tab[x, y]] != bo[tab[x2, y]]:
                        out.append(f"{op_name}({x}~{x2},{y})")
                    if bo[tab[y, x]] != bo[tab[y, x2]]:
                        out.append(f"{op_name}({y},{x}~{x2})")
    return out


def is_congruence(lat: ResiduatedLattice, blocks: Iterable[Iterable[str]]) -> bool:
    cong = Congruence(lat, tuple(frozenset(b) for b in blocks))
    return not _congruence_violations(lat, cong)


def filter_of_congruence(lat: ResiduatedLattice, cong: Congruence) -> Subset:
    """Kernel class of the top element."""
    return cong.block_of[lat.top]


def block_id(b: Iterable[str]) -> str:
    return "[" + "|".join(sorted(b)) + "]"


@dataclass
class RLMorphism:
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


def coker(table: Mapping[str, str], cod_top: str) -> Subset:
    return frozenset(x for x, v in table.items() if v == cod_top)


def quotient(lat: ResiduatedLattice, f: Iterable[str]) -> tuple[ResiduatedLattice, RLMorphism]:
    """Blockwise quotient by the filter congruence, plus the natural projection."""
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

    join, meet, mul, imp = lift(lat.join), lift(lat.meet), lift(lat.mul), lift(lat.imp)
    leq = frozenset(
        (a, b) for a in carrier for b in carrier if meet[a, b] == a
    )
    q = ResiduatedLattice(carrier, leq, join, meet, mul, imp, ids[bo[lat.bot]], ids[bo[lat.top]])
    rep = verify_rl(q)
    if not rep.ok:
        raise AssertionError(f"quotient failed verification: {rep.violations[0]}")
    proj = RLMorphism(lat, q, {x: ids[bo[x]] for x in lat.carrier})
    return q, proj
