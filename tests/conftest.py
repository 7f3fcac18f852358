"""Shared test helpers: independent oracles kept deliberately separate from the library paths."""

from __future__ import annotations

import itertools

import pytest

from rlsheaf import rlcore


def brute_force_filters(lat: rlcore.ResiduatedLattice) -> set[frozenset[str]]:
    """The 2^n oracle: scan every subset with is_filter."""
    out = set()
    elems = list(lat.carrier)
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            if rlcore.is_filter(lat, combo):
                out.add(frozenset(combo))
    return out


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
