"""Shared test helpers: independent oracles kept deliberately separate from the library paths."""

from __future__ import annotations

import argparse
import ast
import functools
import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from rlsheaf import adjunction, basechange, bundle, cli, fintop, fixtures, rlcore, sheafify, workspace
from rlsheaf.report import Violation, fmt_set, set_key


def brute_force_filters(lat: rlcore.ResiduatedLattice) -> set[frozenset[str]]:
    """The 2^n oracle: scan every subset with is_filter."""
    out = set()
    elems = list(lat.carrier)
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            if rlcore.is_filter(lat, combo):
                out.add(frozenset(combo))
    return out


def classify_filters_literal(lat: rlcore.ResiduatedLattice, fam) -> dict[frozenset[str], rlcore.FilterFlags]:
    """Oracle: the flags of each filter of `fam`, `principal` read off the filters each element generates."""
    fam = list(fam)
    principal_sets = {rlcore.generated_filter(lat, [x]) for x in lat.carrier}
    flags = {}
    whole = frozenset(lat.carrier)
    propers = [f for f in fam if f != whole]
    primes = [f for f in fam if rlcore.is_prime_filter(lat, f)]
    for f in fam:
        is_prime = f in primes
        flags[f] = rlcore.FilterFlags(
            proper=f != whole,
            principal=f in principal_sets,
            maximal=f != whole and not any(f < g for g in propers),
            prime=is_prime,
            minimal_prime=is_prime and not any(g < f for g in primes),
        )
    return flags


def is_prime_filter_literal(lat: rlcore.ResiduatedLattice, f) -> bool:
    """Oracle: `rlcore.is_prime_filter` over every pair of elements: a proper `f` is prime unless some `x v y`
    in f has neither x nor y in f."""
    if f == frozenset(lat.carrier):
        return False
    return not any(lat.join[x, y] in f and x not in f and y not in f for x, y in itertools.product(lat.carrier, repeat=2))


def congruence_of_filter_literal(lat: rlcore.ResiduatedLattice, f) -> rlcore.Congruence:
    """Oracle: the classes of x~y iff x->y and y->x lie in the filter `f`, each element put in the first class,
    in carrier order, whose representative it is related to.  On a filter the relation is an equivalence, so the
    representative drawn from each class does not matter."""
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
    return rlcore.Congruence(lat, tuple(frozenset(b) for b in blocks))


def scan_lub(carrier, leq, xs) -> str | None:
    """Oracle: the least upper bound by a literal scan of the carrier, None unless exactly one exists."""
    xs = list(xs)
    ubs = [u for u in carrier if all((x, u) in leq for x in xs)]
    least = [u for u in ubs if all((u, v) in leq for v in ubs)]
    return least[0] if len(least) == 1 else None


def scan_glb(carrier, leq, xs) -> str | None:
    """Oracle: the greatest lower bound by a literal scan of the carrier, None unless exactly one exists."""
    xs = list(xs)
    lbs = [u for u in carrier if all((u, x) in leq for x in xs)]
    greatest = [u for u in lbs if all((v, u) in leq for v in lbs)]
    return greatest[0] if len(greatest) == 1 else None


def derive_residual_literal(carrier, leq, mul) -> dict:
    """Oracle: `rlcore.derive_residual` as a literal scan over string triples, with the literal `scan_lub`."""
    elems = sorted(carrier)
    imp = {}
    for x in elems:
        for y in elems:
            zs = [z for z in elems if (mul[x, z], y) in leq]
            j = scan_lub(elems, leq, zs)
            if j is None:
                raise rlcore.NotResiduated(f"sup of {fmt_set(zs)} does not exist for {x}->{y}")
            imp[x, y] = j
    for x, y, z in itertools.product(elems, repeat=3):
        if ((mul[x, z], y) in leq) != ((z, imp[x, y]) in leq):
            raise rlcore.NotResiduated(f"adjointness fails at x={x}, y={y}, z={z}")
    return imp


def verify_rl_literal(lat: rlcore.ResiduatedLattice) -> tuple[Violation, ...]:
    """Oracle: the violations of `rlcore.verify_rl`, found by literal loops over string pairs and triples."""
    bad: list[Violation] = []
    elems = lat.carrier
    eset = set(elems)

    def tab_ok(name, tab) -> bool:
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
        return tuple(bad)
    if not all(tab_ok(n, t) for n, t in [("join", lat.join), ("meet", lat.meet), ("mul", lat.mul), ("imp", lat.imp)]):
        return tuple(bad)

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

    for x, y in itertools.product(elems, repeat=2):
        if lat.join[x, y] != scan_lub(elems, lat.leq, [x, y]):
            bad.append(Violation("join-not-lub", f"({x},{y})"))
        if lat.meet[x, y] != scan_glb(elems, lat.leq, [x, y]):
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

    return tuple(bad)


def residual_by_formula(lat: rlcore.ResiduatedLattice, x: str, y: str) -> str:
    """Independent evaluation of sup{z | x*z <= y} by scanning upper bounds."""
    zs = [z for z in lat.carrier if lat.le(lat.mul[x, z], y)]
    ubs = [u for u in lat.carrier if all(lat.le(z, u) for z in zs)]
    least = [u for u in ubs if all(lat.le(u, v) for v in ubs)]
    assert len(least) == 1
    return least[0]


def rl_product(l1: rlcore.ResiduatedLattice, l2: rlcore.ResiduatedLattice) -> rlcore.ResiduatedLattice:
    """Componentwise product algebra on pair ids, used as an isomorphism oracle."""
    def pid(a, b):
        return f"{a}*{b}"

    carrier = tuple(sorted(pid(a, b) for a in l1.carrier for b in l2.carrier))
    pairs = {pid(a, b): (a, b) for a in l1.carrier for b in l2.carrier}
    leq = frozenset(
        (p, q)
        for p in carrier
        for q in carrier
        if l1.le(pairs[p][0], pairs[q][0]) and l2.le(pairs[p][1], pairs[q][1])
    )

    def lift(t1, t2):
        return {
            (p, q): pid(t1[pairs[p][0], pairs[q][0]], t2[pairs[p][1], pairs[q][1]])
            for p in carrier
            for q in carrier
        }

    return rlcore.ResiduatedLattice(
        carrier,
        leq,
        lift(l1.join, l2.join),
        lift(l1.meet, l2.meet),
        lift(l1.mul, l2.mul),
        lift(l1.imp, l2.imp),
        pid(l1.bot, l2.bot),
        pid(l1.top, l2.top),
    )


def rl_isomorphic(l1: rlcore.ResiduatedLattice, l2: rlcore.ResiduatedLattice) -> bool:
    """Oracle search over all bijections."""
    if len(l1.carrier) != len(l2.carrier):
        return False
    for perm in itertools.permutations(l2.carrier):
        table = dict(zip(l1.carrier, perm))
        if rlcore.is_rl_morphism(table, l1, l2):
            return True
    return False


def all_partitions(elems: list[str]):
    """Every set partition, for the brute-force congruence oracle."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1 :]
        yield part + [{first}]


def lattice_closure(points, family) -> frozenset:
    """Oracle: close a family under pairwise union and intersection, adding the empty set and the whole space.

    On a finite set that is the topology the family generates.
    """
    out = {frozenset(), frozenset(points)} | {frozenset(s) for s in family}
    while True:
        new = {a | b for a in out for b in out} | {a & b for a in out for b in out}
        if new <= out:
            return frozenset(out)
        out |= new


def monotone_tables_literal(dom: fintop.FiniteSpace, cod: fintop.FiniteSpace, choices=None):
    """Oracle: `fintop.monotone_tables` as a recursive generator over sorted value lists.

    Each point takes its sorted choices in turn and is checked against every
    earlier point comparable to it, so the tables come out lexicographic.
    """
    pts = dom.sorted_points
    mins_d, mins_c = dom.min_nbhd_map, cod.min_nbhd_map
    opts = [sorted(cod.points if choices is None else choices[p]) for p in pts]
    below = [[j for j in range(i) if pts[j] in mins_d[p]] for i, p in enumerate(pts)]
    above = [[j for j in range(i) if p in mins_d[pts[j]]] for i, p in enumerate(pts)]
    vals: list[str] = [""] * len(pts)

    def rec(i: int):
        if i == len(pts):
            yield dict(zip(pts, vals))
            return
        for v in opts[i]:
            u = mins_c[v]
            if all(vals[j] in u for j in below[i]) and all(v in mins_c[vals[j]] for j in above[i]):
                vals[i] = v
                yield from rec(i + 1)

    return rec(0)


def leq_from_hasse_literal(carrier, hasse) -> frozenset[tuple[str, str]]:
    """Oracle: `rlcore._leq_from_hasse` as a fixpoint over the edges, each row taking in
    the row of every element above it until no row grows (so it stops on cycles too)."""
    elems = sorted(set(carrier))
    above = {x: {x} for x in elems}
    changed = True
    while changed:
        changed = False
        for a, b in hasse:
            if not above[b] <= above[a]:
                above[a] |= above[b]
                changed = True
    return frozenset((x, y) for x in elems for y in above[x])


def final_topology_literal(points, family) -> fintop.FiniteSpace:
    """Oracle: `fintop.final_topology` by walking every subset of the carrier and keeping
    those whose preimage under every map of the family is open."""
    pts = frozenset(points)
    fams = []
    for src, table in family:
        t = dict(table)
        if set(t) != set(src.points) or not set(t.values()) <= pts:
            raise ValueError("family member is not a total map into the carrier")
        fams.append((src, t))
    plist = sorted(pts)
    opens = []
    for r in range(len(plist) + 1):
        for u in map(frozenset, itertools.combinations(plist, r)):
            if all(frozenset(p for p in src.points if t[p] in u) in src.opens for src, t in fams):
                opens.append(u)
    return fintop.topology_from_subbasis(pts, opens)


def pointwise_rl_on_sections_literal(rb: bundle.RLBundle, x) -> bundle.SectionAlgebra:
    """Oracle: `bundle.pointwise_rl_on_sections` with a `Section` built for every pair, operation and constant."""
    dom = frozenset(x)
    secs = bundle.sections(rb.bundle, dom)
    by_id = {s.id_str: s for s in secs}
    carrier = tuple(sorted(by_id))

    def combine(name: str, s1: bundle.Section, s2: bundle.Section) -> str:
        tabs = rb.ops.op(name)
        table = {p: tabs[p][s1(p), s2(p)] for p in dom}
        try:
            out = bundle.Section(rb.bundle, dom, table)
        except ValueError as e:
            raise bundle.SectionClosureError(f"{name}({s1.id_str},{s2.id_str}) is not a section: {e}")
        if out.id_str not in by_id:
            raise bundle.SectionClosureError(f"{name} escaped the enumerated section set")
        return out.id_str

    tables = {}
    for name in bundle.StalkOps.OPS:
        tables[name] = {
            (a, b): combine(name, by_id[a], by_id[b]) for a in carrier for b in carrier
        }
    for cname, tab in [("zero", rb.ops.zero), ("one", rb.ops.one)]:
        try:
            sec = bundle.Section(rb.bundle, dom, {p: tab[p] for p in dom})
        except ValueError as e:
            raise bundle.SectionClosureError(f"constant {cname} is not a section: {e}")
        if sec.id_str not in by_id:
            raise bundle.SectionClosureError(f"constant {cname} escaped the section set")
        if cname == "zero":
            bot = sec.id_str
        else:
            top = sec.id_str
    leq = frozenset((a, b) for a in carrier for b in carrier if tables["meet"][a, b] == a)
    alg = rlcore.ResiduatedLattice(
        carrier, leq, tables["join"], tables["meet"], tables["mul"], tables["imp"], bot, top
    )
    rep = rlcore.verify_rl(alg)
    if not rep.ok:
        raise bundle.SectionClosureError(f"pointwise algebra failed verification: {rep.violations[0]}")
    return bundle.SectionAlgebra(alg, by_id)


def lift_compact_open_rl_literal(b: fintop.FiniteSpace, a: adjunction.TopologicalRL):
    """Oracle: `adjunction.lift_compact_open_rl` with a `SpaceMap` built for every pair, operation and constant."""
    fs = adjunction.compact_open_space(b, a.topology)
    by_id = fs.by_id()
    carrier = tuple(sorted(by_id))

    def lift(tab) -> dict[tuple[str, str], str]:
        out = {}
        for i1, m1 in by_id.items():
            for i2, m2 in by_id.items():
                combined = {p: tab[m1(p), m2(p)] for p in b.points}
                m = fintop.space_map(b, a.topology, combined)
                if m.id_str not in by_id:
                    raise AssertionError("pointwise combination left the function space")
                out[i1, i2] = m.id_str
        return out

    join, meet = lift(a.algebra.join), lift(a.algebra.meet)
    mul, imp = lift(a.algebra.mul), lift(a.algebra.imp)
    const = lambda v: fintop.space_map(b, a.topology, {p: v for p in b.points}).id_str
    leq = frozenset((i, j) for i in carrier for j in carrier if meet[i, j] == i)
    alg = rlcore.ResiduatedLattice(
        carrier, leq, join, meet, mul, imp, const(a.algebra.bot), const(a.algebra.top)
    )
    trl = adjunction.TopologicalRL(alg, fs.space)
    rep = adjunction.verify_topological_rl(trl)
    if not rep.ok:
        raise AssertionError(f"lifted algebra failed: {rep.violations[0]}")
    return trl, fs


def curry_literal(h: fintop.SpaceMap, p1: fintop.SpaceMap, p2: fintop.SpaceMap, fs: adjunction.FunctionSpace) -> fintop.SpaceMap:
    """Oracle: `adjunction.curry` scanning all of BxX for every x and building a `SpaceMap` per slice."""
    b_space, x_space = p1.cod, p2.cod
    table: dict[str, str] = {}
    for xpt in x_space.points:
        sub = {p1(k): h(k) for k in h.dom.points if p2(k) == xpt}
        m = fintop.space_map(b_space, h.cod, sub)
        if m.id_str not in fs.space.points:
            raise ValueError(f"curried slice at {xpt} is not continuous")
        table[xpt] = m.id_str
    return fintop.space_map(x_space, fs.space, table)


def assert_checked_twin(settled: fintop.SpaceMap, twin: fintop.SpaceMap) -> None:
    """A map built without the constructor's checks reads as its checked twin: equal, with the same
    hash, table, value mapping and id."""
    assert type(settled) is fintop.SpaceMap
    assert settled == twin and hash(settled) == hash(twin)
    assert (settled.table, settled.mapping, settled.id_str) == (twin.table, twin.mapping, twin.id_str)


def uncurry_literal(k: fintop.SpaceMap, p1: fintop.SpaceMap, p2: fintop.SpaceMap, fs: adjunction.FunctionSpace) -> fintop.SpaceMap:
    """Oracle: `adjunction.uncurry` through the function space's `by_id` lookup."""
    lookup = fs.by_id()
    prod = p1.dom
    table = {pt: lookup[k(p2(pt))](p1(pt)) for pt in prod.points}
    return fintop.space_map(prod, fs.cod, table)


def corestrict_to_sections_literal(b: bundle.Bundle, h: fintop.SpaceMap, p1: fintop.SpaceMap, p2: fintop.SpaceMap) -> dict:
    """Oracle: `adjunction.corestrict_to_sections` scanning all of BxX for every x."""
    if any(b.proj(h(k)) != p1(k) for k in h.dom.points):
        raise ValueError("h does not commute with the projections")
    out: dict[str, bundle.Section] = {}
    for xpt in p2.cod.points:
        table = {p1(k): h(k) for k in h.dom.points if p2(k) == xpt}
        out[xpt] = bundle.Section(b, frozenset(b.base.points), table)
    return out


def sections_literal(b: bundle.Bundle, x) -> list[bundle.Section]:
    """Oracle: `bundle.sections` building each table the search lists as a checked `Section`, sorted by id."""
    dom = frozenset(x)
    if not dom <= b.base.points:
        raise ValueError("section domain escapes the base")
    tables = fintop.monotone_tables(fintop.subspace(b.base, dom), b.total, {p: b.stalk_points(p) for p in dom})
    return sorted((bundle.Section(b, dom, t) for t in tables), key=lambda s: s.id_str)


def pointwise_topology_literal(members, cod: fintop.FiniteSpace) -> fintop.FiniteSpace:
    """Oracle: `adjunction._pointwise_topology` testing every pair of members: U_f holds each g whose value at
    every point lies in U of f's value there."""
    mins = cod.min_nbhd_map
    return fintop.FiniteSpace(
        frozenset(members),
        {
            fid: frozenset(gid for gid, w in members.items() if all(a in mins[b] for a, b in zip(w, v)))
            for fid, v in members.items()
        },
    )


def source_mentions(name: str) -> list[tuple[str, bool]]:
    """Each mention of `name` in the package source (a name, an attribute, an import or a string), sorted, as
    (enclosing module.function path, whether it is the callee of a call)."""
    out = []

    def walk(node, scope, calls):
        for child in ast.iter_child_nodes(node):
            inner = (*scope, child.name) if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
            found = (child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute)
                     else child.name if isinstance(child, ast.alias) else child.value if isinstance(child, ast.Constant) else None)
            if found == name:
                out.append((".".join(inner), id(child) in calls))
            walk(child, inner, calls)

    for path in sorted(pathlib.Path(fintop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        walk(tree, (path.stem,), {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)})
    return sorted(out)


def check_exponential_adjunction_literal(b, x, t, explore_nondiscrete: bool = False) -> dict:
    """Oracle: `adjunction.check_exponential_adjunction` checking every curried and uncurried map for
    continuity, with the reverse loop over Top(X, C(B,T))."""
    if not b.is_discrete() and not explore_nondiscrete:
        raise ValueError("continuity half asserted only for finite discrete bases")
    prod, p1, p2 = fintop.product(b, x)
    fs = adjunction.compact_open_space(b, t)
    lhs = fintop.continuous_maps(prod, t)
    rhs = fintop.continuous_maps(x, fs.space)
    curried = {}
    for h in lhs:
        k = adjunction.curry(h, p1, p2, fs)
        if not fintop.is_continuous(k):
            raise AssertionError("curry of a continuous map is not continuous")
        curried[h.id_str] = k.id_str
        back = adjunction.uncurry(k, p1, p2, fs)
        if back.table != h.table:
            raise AssertionError("uncurry . curry is not the identity")
    for k in rhs:
        h = adjunction.uncurry(k, p1, p2, fs)
        if not fintop.is_continuous(h):
            raise AssertionError("uncurry of a continuous map is not continuous")
        again = adjunction.curry(h, p1, p2, fs)
        if again.table != k.table:
            raise AssertionError("curry . uncurry is not the identity")
    bijective = len(lhs) == len(rhs) and len(set(curried.values())) == len(lhs)
    return {"lhs": len(lhs), "rhs": len(rhs), "bijective": bijective}


def check_section_adjunction_literal(b: bundle.Bundle, x, explore_nondiscrete: bool = False) -> dict:
    """Oracle: `adjunction.check_section_adjunction` building each corestriction as a `SpaceMap` into
    Gamma(B,b) and checking its continuity."""
    if not b.base.is_discrete() and not explore_nondiscrete:
        raise ValueError("continuity half asserted only for finite discrete bases")
    prod, p1, p2 = fintop.product(b.base, x)
    lhs = [h.map for h in bundle.bundle_morphisms(bundle.Bundle(prod, b.base, p1), b)]
    g_space, by_id = adjunction.gamma_space(b)
    rhs = fintop.continuous_maps(x, g_space)
    sent = set()
    for h in lhs:
        fam = adjunction.corestrict_to_sections(b, h, p1, p2)
        k = fintop.space_map(x, g_space, {xp: fam[xp].id_str for xp in x.points})
        if not fintop.is_continuous(k):
            raise AssertionError("corestriction is not continuous")
        sent.add(k.id_str)
    bijective = len(lhs) == len(rhs) == len(sent)
    return {"lhs": len(lhs), "rhs": len(rhs), "bijective": bijective}


def check_projection_adjunction_literal(xb: bundle.Bundle, y) -> dict:
    """Oracle: `adjunction.check_projection_adjunction` building each pairing as a `SpaceMap`, checking
    its continuity, and composing it with the second projection."""
    prod, p1, p2 = fintop.product(xb.base, y)
    lhs = fintop.continuous_maps(xb.total, y)
    rhs = bundle.bundle_morphisms(xb, bundle.Bundle(prod, xb.base, p1))
    paired = set()
    for g in lhs:
        k = fintop.space_map(xb.total, prod, {t: fintop.pair_id(xb.proj(t), g(t)) for t in xb.total.points})
        if not fintop.is_continuous(k):
            raise AssertionError("pairing of continuous maps is not continuous")
        back = fintop.compose(p2, k)
        if back.table != g.table:
            raise AssertionError("projection round trip failed")
        paired.add(k.id_str)
    bijective = len(lhs) == len(rhs) == len(paired)
    return {"lhs": len(lhs), "rhs": len(rhs), "bijective": bijective}


def check_triangle_identities_literal(b, x) -> dict:
    """Oracle: `adjunction.check_triangle_identities` building each map's graph as a `Section`."""
    if not b.is_discrete():
        raise ValueError("triangle identities asserted for discrete bases")
    prod, p1, p2 = fintop.product(b, x)
    proj_bundle = bundle.Bundle(prod, b, p1)
    fs = adjunction.compact_open_space(b, x)
    g_space, by_id = adjunction.gamma_space(proj_bundle)
    table = {}
    for m in fs.maps:
        graph = {pt: fintop.pair_id(pt, m(pt)) for pt in b.points}
        sec = bundle.Section(proj_bundle, frozenset(b.points), graph)
        table[m.id_str] = sec.id_str
    if set(table.values()) != set(g_space.points) or len(set(table.values())) != len(table):
        raise AssertionError("graph correspondence is not bijective")
    iso = fintop.space_map(fs.space, g_space, table)
    upper = fintop.is_homeomorphism(iso)
    lower = prod == proj_bundle.total
    return {"upper_triangle_iso": upper, "lower_triangle_strict": lower}


def section_functor_morphism_literal(m: basechange.RLEInvMorphism) -> rlcore.RLMorphism:
    """Oracle: `basechange.section_functor_morphism` building each pulled section as a `Section`."""
    g_src = basechange.section_functor_object(m.dst)
    g_dst = basechange.section_functor_object(m.src)
    table = {}
    for sid, sec in g_src.sections.items():
        pulled = {b: m.alpha(fintop.pair_id(b, sec(m.f(b)))) for b in m.src.base.points}
        out = bundle.Section(m.src.etale.bundle, frozenset(m.src.base.points), pulled)
        if out.id_str not in g_dst.sections:
            raise AssertionError("pulled section escaped the section algebra")
        table[sid] = out.id_str
    return rlcore.RLMorphism(g_src.algebra, g_dst.algebra, table)


def couniversal_factorization_literal(h: bundle.BundleMorphism, gs: sheafify.GermSpace | None = None) -> fintop.SpaceMap:
    """Oracle: `sheafify.couniversal_factorization` pushing the section through each point that
    `bundle.section_through_point` builds."""
    if not bundle.is_etale(h.src):
        raise ValueError("source bundle is not an etale")
    gs = gs or sheafify.etale_of(h.dst)
    table = {}
    for y in sorted(h.src.total.points):
        u, s = bundle.section_through_point(h.src, y)
        p = h.src.proj(y)
        pushed = {q: h(s(q)) for q in fintop.minimal_neighborhood(h.src.base, p)}
        table[y] = sheafify.germ_id(p, pushed)
        if table[y] not in gs.germs:
            raise AssertionError("factorization left the germ space")
    m = fintop.space_map(h.src.total, gs.space, table)
    bundle.BundleMorphism(h.src, bundle.Bundle(gs.space, gs.source.base, gs.proj), m)
    eps = sheafify.counit(h.dst, gs)
    if any(eps(m(y)) != h(y) for y in h.src.total.points):
        raise AssertionError("factorization does not recover the morphism")
    return m


def coreflect_morphism_literal(h: bundle.BundleMorphism) -> fintop.SpaceMap:
    """Oracle: `sheafify.coreflect_morphism` pushing each germ's representative through h."""
    gs_src = sheafify.etale_of(h.src)
    gs_dst = sheafify.etale_of(h.dst)
    table = {}
    for k, g in gs_src.germs.items():
        pushed = {p: h(t) for p, t in g.rep.table.items()}
        table[k] = sheafify.germ_id(g.base_point, pushed)
        if table[k] not in gs_dst.germs:
            raise AssertionError("pushed germ escaped the target germ space")
    m = fintop.space_map(gs_src.space, gs_dst.space, table)
    bundle.BundleMorphism(gs_src.as_bundle, gs_dst.as_bundle, m)
    return m


def is_continuous_literal(m: fintop.SpaceMap) -> bool:
    """Oracle: `fintop.is_continuous` building the image set f(U_x) of every minimal open."""
    cod = m.cod.min_nbhd_map
    return all(m.image(u) <= cod[m(x)] for x, u in m.dom.min_nbhds)


def finite_space_literal(points, min_nbhds) -> tuple[tuple[str, frozenset[str]], ...]:
    """Oracle: `fintop.FiniteSpace`'s former check on frozensets.  The U_p as pairs sorted by point, or
    the ValueError it raised: each given U_p in the order given, tested for p, for the points and for
    holding the U_q of each of its points."""
    mins = {p: frozenset(u) for p, u in dict(min_nbhds).items()}
    if set(mins) != points:
        raise ValueError("minimal neighbourhoods must be given for exactly the points")
    for p, u in mins.items():
        if p not in u or not u <= points or any(not mins[q] <= u for q in u):
            raise ValueError(f"{fmt_set(u)} cannot be the minimal neighbourhood of {p} in a preorder")
    return tuple(sorted(mins.items()))


def topology_from_subbasis_literal(points, subbasis) -> fintop.FiniteSpace:
    """Oracle: `fintop.topology_from_subbasis` on frozensets: U_p is the intersection of the members that
    hold p, the whole space if none does."""
    pts = frozenset(points)
    mins = dict.fromkeys(pts, pts)
    for s in subbasis:
        s = frozenset(s)
        for p in s & pts:
            mins[p] &= s
    return fintop.FiniteSpace(pts, mins)


def space_rows_literal(s: fintop.FiniteSpace) -> tuple:
    """Oracle: the sorted points, the U_p by point and the (down, up) bitmask rows over the sorted points,
    as `FiniteSpace`'s former cached properties computed them from `min_nbhds`."""
    pts = tuple(sorted(s.points))
    mins = dict(s.min_nbhds)
    idx = {p: i for i, p in enumerate(pts)}
    down = [sum(1 << idx[q] for q in mins[p]) for p in pts]
    up = [sum(1 << j for j, d in enumerate(down) if d >> i & 1) for i in range(len(down))]
    return pts, mins, (down, up)


def opens_literal(s: fintop.FiniteSpace) -> list[frozenset[str]]:
    """Oracle: the open family of `s`, every subset of the points kept when `is_open` holds."""
    pts = sorted(s.points)
    subsets = itertools.chain.from_iterable(itertools.combinations(pts, r) for r in range(len(pts) + 1))
    return [frozenset(c) for c in subsets if s.is_open(c)]


def is_local_homeomorphism_direct_literal(m: fintop.SpaceMap) -> bool:
    """Oracle: `fintop.is_local_homeomorphism_direct` on frozensets, point by point: each point lies in
    an open u that m maps homeomorphically onto an open image, with the subspace families on both
    sides, the opens listed by `opens_literal`."""
    dom_opens, cod_opens = opens_literal(m.dom), set(opens_literal(m.cod))

    def homeo_onto_open(u: frozenset[str]) -> bool:
        img = m.image(u)
        if img not in cod_opens or len(img) != len(u):
            return False
        sub_dom = {o & u for o in dom_opens}
        sub_img = {o & img for o in cod_opens}
        if any(frozenset(p for p in u if m(p) in v) not in sub_dom for v in sub_img):
            return False
        return all(m.image(o) in sub_img for o in sub_dom)

    return all(any(p in u and homeo_onto_open(u) for u in dom_opens) for p in m.dom.points)


def local_homeo_basis_literal(m: fintop.SpaceMap) -> list[frozenset[str]]:
    """Oracle: `fintop.local_homeo_basis` as it was on frozensets, over the opens `opens_literal` lists:
    the ValueError unless `is_local_homeomorphism_direct_literal` holds, then every open u whose image
    is open and reached bijectively, with m|_u continuous and open for the subspace families, by
    `set_key`, checked to cover every open with unions of members."""
    if not is_local_homeomorphism_direct_literal(m):
        raise ValueError("map is not a local homeomorphism")
    dom_opens, cod_opens = opens_literal(m.dom), set(opens_literal(m.cod))

    def restriction_is_homeo_onto_open(u: frozenset[str]) -> bool:
        img = m.image(u)
        if img not in cod_opens:
            return False
        if len(img) != len(u):
            return False
        sub_dom = {o & u for o in dom_opens}
        sub_img = {o & img for o in cod_opens}
        for v in sub_img:
            if frozenset(p for p in u if m(p) in v) not in sub_dom:
                return False
        for o in sub_dom:
            if m.image(o) not in sub_img:
                return False
        return True

    fam = sorted((u for u in dom_opens if restriction_is_homeo_onto_open(u)), key=set_key)
    for u in dom_opens:
        if frozenset(itertools.chain.from_iterable(v for v in fam if v <= u)) != u:
            raise AssertionError(f"family is not a basis at {fmt_set(u)}")
    return fam


def is_homeomorphism_literal(m: fintop.SpaceMap) -> bool:
    """Oracle: `fintop.is_homeomorphism` as it was: bijective, continuous and open."""
    img = m.image(m.dom.points)
    return len(img) == len(m.dom.points) and img == m.cod.points and fintop.is_continuous(m) and fintop.is_open_map(m)


def pullback_pairs_literal(f: fintop.SpaceMap, g: fintop.SpaceMap) -> dict[str, tuple[str, str]]:
    """Oracle: `fintop.pullback_pairs` as the double loop over the sorted points of both domains."""
    pairs: dict[str, tuple[str, str]] = {}
    for b in f.dom.sorted_points:
        for s in g.dom.sorted_points:
            if f(b) == g(s):
                k = fintop.pair_id(b, s)
                if k in pairs:
                    raise ValueError(f"two pairs share the id {k}")
                pairs[k] = (b, s)
    return pairs


def verify_topology_literal(points, family) -> tuple[Violation, ...]:
    """Oracle: the violations of `fintop.verify_topology`'s former check, which scans every
    pair of members for an escaping union or intersection."""
    pts = frozenset(points)
    fam = [frozenset(s) for s in family]
    famset = set(fam)
    bad: list[Violation] = []
    for s in fam:
        if not s <= pts:
            bad.append(Violation("member-not-subset", fmt_set(s)))
    if frozenset() not in famset:
        bad.append(Violation("missing-empty-set", "{}"))
    if pts not in famset:
        bad.append(Violation("missing-full-set", fmt_set(pts)))
    for a, b in itertools.combinations(sorted(famset, key=lambda s: (len(s), sorted(s))), 2):
        if a | b not in famset:
            bad.append(Violation("union-escapes", f"{fmt_set(a)} + {fmt_set(b)} -> {fmt_set(a | b)}"))
        if a & b not in famset:
            bad.append(Violation("intersection-escapes", f"{fmt_set(a)} * {fmt_set(b)} -> {fmt_set(a & b)}"))
    return tuple(dict.fromkeys(bad))


def binary_table_literal(raw, carrier: set[str], path: str, symmetrize: bool) -> dict[tuple[str, str], str]:
    """Oracle: `workspace._parse_binary_table` as a per-key reader, each key split on ',' and its halves
    stripped; every error is the `WorkspaceSyntaxError` the reader raises."""
    if not isinstance(raw, dict):
        raise workspace.WorkspaceSyntaxError(f"{path}: expected an object keyed 'x,y'")
    unnameable = sorted(el for el in carrier if "," in el or el != el.strip())
    if unnameable:
        raise workspace.WorkspaceSyntaxError(f"{path}: {unnameable[0]!r} cannot be named in an 'x,y' key")
    out: dict[tuple[str, str], str] = {}
    for key, v in raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise workspace.WorkspaceSyntaxError(f"{path}.{key}: key must be 'x,y'")
        x, y = parts[0].strip(), parts[1].strip()
        if not isinstance(v, str):
            raise workspace.WorkspaceSyntaxError(f"{path}.{key}: expected a string, got {type(v).__name__}")
        for el in (x, y, v):
            if el not in carrier:
                raise workspace.WorkspaceSyntaxError(f"{path}.{key}: {el!r} is not a carrier element")
        if (x, y) in out and out[x, y] != v:
            raise workspace.WorkspaceSyntaxError(f"{path}.{key}: conflicting duplicate entry")
        out[x, y] = v
        if symmetrize:
            if (y, x) in out and out[y, x] != v:
                raise workspace.WorkspaceSyntaxError(f"{path}.{key}: symmetrization conflict at ({y},{x})")
            out[y, x] = v
    missing = [(x, y) for x in carrier for y in carrier if (x, y) not in out]
    if missing:
        raise workspace.WorkspaceSyntaxError(f"{path}: table incomplete, e.g. ({min(missing)[0]},{min(missing)[1]}) missing")
    return out


def section_image_basis_literal(e: bundle.Bundle) -> list[frozenset]:
    """Oracle: `bundle.section_image_basis` checking that the section images cover every open of the total space."""
    if not bundle.is_etale(e):
        raise ValueError("bundle is not an etale")
    fam = set()
    for u in e.base.sorted_opens():
        for s in bundle.sections(e, u):
            img = s.image()
            if not e.total.is_open(img):
                raise AssertionError(f"section image {fmt_set(img)} is not open")
            fam.add(img)
    for o in e.total.opens:
        cover = frozenset(itertools.chain.from_iterable(v for v in fam if v <= o))
        if cover != o:
            raise AssertionError(f"section images do not form a basis at {fmt_set(o)}")
    return sorted(fam, key=lambda s: (len(s), sorted(s)))


def counit_report_literal(b: bundle.Bundle, gs: sheafify.GermSpace) -> dict[str, bool]:
    """Oracle: `sheafify.counit_report` with the openness equation checked over every open of the base."""
    eps = sheafify.counit(b, gs)
    values = [eps(k) for k in sorted(gs.space.points)]
    section_images = set()
    rel_ok = True
    for u in b.base.sorted_opens():
        for s in bundle.sections(b, u):
            img_basis = frozenset(sheafify.germ_at(b, s, p).id_str for p in u)
            if eps.image(img_basis) != s.image():
                rel_ok = False
            section_images.add(s.image())
    landing = all(
        eps.image(u) == frozenset().union(*(si for si in section_images if si <= eps.image(u)))
        for _, u in gs.space.min_nbhds
    )
    return {
        "injective": len(set(values)) == len(values),
        "continuous": fintop.is_continuous(eps),
        "open_in_total": fintop.is_open_map(eps),
        "open_relative": rel_ok and landing,
    }


def etale_of_literal(b: bundle.Bundle) -> sheafify.GermSpace:
    """Oracle: `sheafify.etale_of` with each germ's least open built from `germ_at` at every point of U_p."""
    germs: dict[str, sheafify.Germ] = {}
    mins: dict[str, frozenset[str]] = {}
    for p in sorted(b.base.points):
        for s in bundle.sections(b, fintop.minimal_neighborhood(b.base, p)):
            g = sheafify.Germ(p, s)
            germs[g.id_str] = g
            mins[g.id_str] = frozenset(sheafify.germ_at(b, s, q).id_str for q in s.domain)
    space = fintop.FiniteSpace(frozenset(germs), mins)
    proj = fintop.space_map(space, b.base, {k: g.base_point for k, g in germs.items()})
    return sheafify.GermSpace(b, space, proj, germs)


def equalizers_are_open_literal(b: bundle.Bundle) -> bool:
    """Oracle: `suites.equalizers_are_open` over every pair of sections over every pair of opens."""
    discrete_total = b.total.is_discrete()
    secs = [s for u in b.base.sorted_opens() for s in bundle.sections(b, u)]
    for s1, s2 in itertools.product(secs, repeat=2):
        _, facts = bundle.equalizer(s1, s2)
        if not facts["open_in_base"] or discrete_total and not facts["clopen_in_common"]:
            return False
    return True


def sections_final_topology_literal(b: bundle.Bundle) -> fintop.FiniteSpace:
    """Oracle: `suites.minimal_sections_final_topology` from the sections over every subset of the base."""
    pts = sorted(b.base.points)
    family = []
    for r in range(len(pts) + 1):
        for x in itertools.combinations(pts, r):
            sub = fintop.subspace(b.base, x)
            family += [(sub, dict(s.table)) for s in bundle.sections(b, x)]
    return fintop.final_topology(b.total.points, family)


def verify_rl_bundle_literal(rb: bundle.RLBundle) -> tuple[Violation, ...]:
    """Oracle: the violations of `bundle.verify_rl_bundle`, with each proper map checked on a kernel pair
    built for it, scanned in id order for the first pair whose neighbour leaves the image's U."""
    bad: list[Violation] = []
    b = rb.bundle
    for p in sorted(b.base.points):
        pts = b.stalk_points(p)
        if not pts:
            bad.append(Violation("stalk-empty", p))
            continue
        for name in bundle.StalkOps.OPS:
            tab = rb.ops.op(name).get(p, {})
            for x, y in itertools.product(sorted(pts), repeat=2):
                v = tab.get((x, y))
                if v is None:
                    bad.append(Violation(f"stalk-{name}-missing", f"{p}:({x},{y})"))
                elif v not in pts:
                    bad.append(Violation(f"stalk-{name}-escapes", f"{p}:({x},{y})->{v}"))
        if rb.ops.zero.get(p) not in pts or rb.ops.one.get(p) not in pts:
            bad.append(Violation("stalk-constants-escape", p))
    if bad:
        return tuple(bad)

    for p in sorted(b.base.points):
        rep = rlcore.verify_rl(bundle.stalk_rl(rb, p))
        if not rep.ok:
            v = rep.violations[0]
            bad.append(Violation(f"stalk-not-rl[{v.rule}]", f"{p}: {v.witness}"))

    mins_t = b.total.min_nbhd_map
    for name in bundle.StalkOps.OPS:
        rho = bundle.proper_map_from_stalk_ops(b, rb.ops, name)
        witness = next(
            (f"{k} -> {kk}" for k, nb in bundle.kernel_pair(b).space.min_nbhds
             for kk in sorted(nb) if rho[kk] not in mins_t[rho[k]]),
            None,
        )
        if witness is not None:
            bad.append(Violation(f"proper-map-discontinuous[{name}]", witness))

    for cname, tab in [("zero", rb.ops.zero), ("one", rb.ops.one)]:
        try:
            sec = fintop.space_map(b.base, b.total, dict(tab))
        except ValueError as e:
            bad.append(Violation(f"{cname}-not-a-map", str(e)))
            continue
        if any(b.proj(sec(p)) != p for p in b.base.points):
            bad.append(Violation(f"{cname}-not-a-section", cname))
        elif not fintop.is_continuous(sec):
            bad.append(Violation(f"{cname}-discontinuous", cname))

    if b.proj.image(b.total.points) != b.base.points:
        bad.append(Violation("projection-not-surjective", fmt_set(b.base.points - b.proj.image(b.total.points))))

    return tuple(bad)


def three_chain(mm: str) -> rlcore.ResiduatedLattice:
    """The chain 0 < m < 1 with meet as mul except m*m = mm: Lukasiewicz for "0", Goedel for "m"."""
    elems = ["0", "m", "1"]
    mul = {(x, y): min(x, y, key=elems.index) for x in elems for y in elems}
    mul["m", "m"] = mm
    return rlcore.make_lattice(elems, [("0", "m"), ("m", "1")], mul, "0", "1")


def mixed_chain_bundle() -> bundle.RLBundle:
    """The Lukasiewicz 3-chain over x and the Goedel 3-chain over y, on the product of the Sierpinski
    base (x open) with the discrete chain: every stalk is valid, but mul and imp are not continuous."""
    base = fintop.sierpinski("x", "y")
    total, _, _ = fintop.product(base, fintop.discrete(["0", "m", "1"]))
    proj = fintop.space_map(total, base, {fintop.pair_id(p, e): p for p in base.points for e in "0m1"})
    stalks = {p: (three_chain(mm), functools.partial(fintop.pair_id, p)) for p, mm in [("x", "0"), ("y", "m")]}
    return bundle.RLBundle(bundle.Bundle(total, base, proj), bundle.relabelled_ops(stalks))


def small_spaces(max_points: int):
    """Every labelled topology on 0..max_points points b0, b1, ...: each reflexive relation
    "q in U_p" that is transitive."""
    for n in range(max_points + 1):
        pts = [f"b{i}" for i in range(n)]
        off = [(p, q) for p in pts for q in pts if p != q]
        for bits in range(1 << len(off)):
            mins = {p: {p} for p in pts}
            for i, (p, q) in enumerate(off):
                if bits >> i & 1:
                    mins[p].add(q)
            if all(mins[q] <= mins[p] for p in pts for q in mins[p]):
                yield fintop.FiniteSpace(frozenset(pts), mins)


def quotient_etales(base: fintop.FiniteSpace, lat: rlcore.ResiduatedLattice):
    """Every RL-etale over `base` with stalk lat/Phi(p) at p, one for each continuous Phi from the base
    into the filters of lat, where U_F = {G | G contains F}: a q in U_p has Phi(q) containing Phi(p),
    and r_pq is the quotient map lat/Phi(p) -> lat/Phi(q).  Yields each stalk algebra by base point,
    and the RL-etale on `pair_id` names; each quotient is taken once, by its filter."""
    filters = {rlcore.block_id(f): f for f in rlcore.all_filters(lat).filters}
    filt = fintop.FiniteSpace(frozenset(filters), {k: frozenset(j for j, g in filters.items() if g >= f) for k, f in filters.items()})
    quotients = {k: rlcore.quotient(lat, f) for k, f in filters.items()}
    reps = {k: {v: x for x, v in proj.table.items()} for k, (_, proj) in quotients.items()}
    for phi in fintop.monotone_tables(base, filt):
        stalks = {p: quotients[phi[p]][0] for p in base.points}
        e = bundle.etale_from_restrictions(
            base, {p: alg.carrier for p, alg in stalks.items()},
            lambda p, q, a, phi=phi: quotients[phi[q]][1](reps[phi[p]][a]), fintop.pair_id,
        )
        yield stalks, bundle.RLBundle(e, bundle.relabelled_ops({p: (alg, functools.partial(fintop.pair_id, p)) for p, alg in stalks.items()}))


@functools.lru_cache(maxsize=None)
def small_residuated_lattices(n: int) -> tuple[rlcore.ResiduatedLattice, ...]:
    """Every commutative integral residuated lattice on the labelled carrier 0, a, b, ..., 1 of n >= 2
    elements, by a brute force that uses no rlsheaf code but `verify_rl` on each answer.

    It takes every partial order on the n - 2 middle elements, with 0 below them and 1 above, and keeps
    the lattices.  It assigns mul on the unordered pairs of middle elements, each x*y <= x^y and cut by
    monotonicity against the pairs assigned before it; 1 is the unit and 0 absorbs.  A full table is kept
    when it is associative, distributes over joins and has residuals: x->y the greatest z with x*z <= y."""
    mids = [chr(ord("a") + i) for i in range(n - 2)]
    elems = ["0", *mids, "1"]
    off = [(x, y) for x in mids for y in mids if x != y]
    pairs = [(x, y) for i, x in enumerate(mids) for y in mids[i:]]
    triples = list(itertools.product(elems, repeat=3))
    out = []

    def extremum(cands, le, least):
        best = [u for u in cands if all(((u, v) if least else (v, u)) in le for v in cands)]
        return best[0] if len(best) == 1 else None

    def products(mul, meet, le, k):
        if k == len(pairs):
            yield dict(mul)
            return
        x, y = pairs[k]
        for v in elems:
            if (v, meet[x, y]) not in le:
                continue
            clash = False
            for x2, y2 in pairs[:k]:
                w = mul[x2, y2]
                below = (x2, x) in le and (y2, y) in le or (x2, y) in le and (y2, x) in le
                above = (x, x2) in le and (y, y2) in le or (y, x2) in le and (x, y2) in le
                if below and (w, v) not in le or above and (v, w) not in le:
                    clash = True
                    break
            if not clash:
                mul[x, y] = mul[y, x] = v
                yield from products(mul, meet, le, k + 1)
        mul.pop((x, y), None)
        mul.pop((y, x), None)

    for bits in range(1 << len(off)):
        le = {(x, x) for x in elems} | {("0", x) for x in elems} | {(x, "1") for x in elems}
        le |= {xy for i, xy in enumerate(off) if bits >> i & 1}
        if any((y, x) in le for x, y in off if (x, y) in le):
            continue
        if any((x, z) not in le for x, y in le for y2, z in le if y == y2):
            continue
        join, meet = {}, {}
        for x, y in itertools.product(elems, repeat=2):
            join[x, y] = extremum([u for u in elems if (x, u) in le and (y, u) in le], le, True)
            meet[x, y] = extremum([u for u in elems if (u, x) in le and (u, y) in le], le, False)
        if None in join.values() or None in meet.values():
            continue
        fixed = {}
        for x in elems:
            fixed[x, "1"] = fixed["1", x] = x
            fixed[x, "0"] = fixed["0", x] = "0"
        for mul in products(fixed, meet, le, 0):
            if any(mul[mul[x, y], z] != mul[x, mul[y, z]] for x, y, z in triples):
                continue
            if any(mul[x, join[y, z]] != join[mul[x, y], mul[x, z]] for x, y, z in triples):
                continue
            imp = {(x, y): extremum([z for z in elems if (mul[x, z], y) in le], le, False) for x, y in itertools.product(elems, repeat=2)}
            if None in imp.values():
                continue
            lat = rlcore.ResiduatedLattice(tuple(elems), frozenset(le), join, meet, mul, imp, "0", "1")
            assert rlcore.verify_rl(lat).ok, lat
            out.append(lat)
    return tuple(out)


def section_test_bundles():
    """The RL-bundle fixtures, the constant A2 bundles over the discrete spaces of at most 4 points and the
    A3 quotient etales over every space of at most 2 points, as bundles."""
    yield from (rb.bundle for rb in fixtures.rl_bundle_fixtures().values())
    for n in range(5):
        yield fixtures.constant_rl_bundle(fintop.discrete([f"b{i}" for i in range(n)]), fixtures.rl_a2()).bundle
    for base in small_spaces(2):
        yield from (rb.bundle for _, rb in quotient_etales(base, fixtures.rl_a3()))


def outputs_under_hash_seeds(code: str, seeds) -> list[str]:
    """The stdout of `python -c code`, with rlsheaf importable from this checkout, once per PYTHONHASHSEED."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        out.append(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout)
    return out


def build_parser_literal() -> argparse.ArgumentParser:
    """The eager parser `cli.parse_args` stands for: a sub-parsers action with every command's sub-parser built.
    The description is `cli`'s own; the diff gate compares the help that shows it with another checkout's."""
    p = argparse.ArgumentParser(prog="rlsheaf", description=cli.build_parser().description)
    p.add_argument("--workspace", help="path to a workspace JSON document (default: bundled fixture corpus)")
    p.add_argument("--format", choices=["text", "machine-readable"], default="text")
    p.add_argument("--lenient", action="store_true", help="record validation diagnostics instead of failing")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("validate")
    sp = sub.add_parser("filters"); sp.add_argument("name")
    sp = sub.add_parser("classify"); sp.add_argument("name")
    sp = sub.add_parser("quotient"); sp.add_argument("name"); sp.add_argument("filter")
    sp = sub.add_parser("spectrum")
    sp.add_argument("name")
    sp.add_argument("--set", required=True, choices=["spec", "max", "min"])
    sp.add_argument("--flavor", required=True, choices=["hull", "dual", "patch"])
    sp = sub.add_parser("sections"); sp.add_argument("bundle"); sp.add_argument("--open", default=None)
    sp = sub.add_parser("check-etale"); sp.add_argument("bundle")
    sp = sub.add_parser("check-rl-bundle"); sp.add_argument("bundle")
    sp = sub.add_parser("sheafify"); sp.add_argument("bundle")
    sp = sub.add_parser("counit-check"); sp.add_argument("bundle")
    sp = sub.add_parser("pullback"); sp.add_argument("map"); sp.add_argument("bundle")
    sp = sub.add_parser("compose-rle"); sp.add_argument("m1"); sp.add_argument("m2")
    sp = sub.add_parser("gamma"); sp.add_argument("rlespace")
    sub.add_parser("adjunction-suite")
    sub.add_parser("law-suite")
    sp = sub.add_parser("export-dot"); sp.add_argument("object")
    return p
