"""Programmatic fixture corpus: the worked lattices, their spectra, and the etale examples.

Everything here is rebuilt from generating data (Hasse diagrams, mul tables)
so the derived structure is exercised on every construction.
"""

from __future__ import annotations

from functools import lru_cache, partial

from . import bundle, fintop, rlcore, spectra


@lru_cache(maxsize=None)
def rl_a2() -> rlcore.ResiduatedLattice:
    mul = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "1"}
    return rlcore.make_lattice(["0", "1"], [("0", "1")], mul, "0", "1")


@lru_cache(maxsize=None)
def rl_a3() -> rlcore.ResiduatedLattice:
    """Three-element Godel chain 0 < a < 1 with mul = meet."""
    elems = ["0", "a", "1"]
    order = {"0": 0, "a": 1, "1": 2}
    mul = {(x, y): x if order[x] <= order[y] else y for x in elems for y in elems}
    return rlcore.make_lattice(elems, [("0", "a"), ("a", "1")], mul, "0", "1")


def _sym(entries: dict[tuple[str, str], str]) -> dict[tuple[str, str], str]:
    out = dict(entries)
    for (x, y), v in entries.items():
        out[(y, x)] = v
    return out


@lru_cache(maxsize=None)
def rl_a4() -> rlcore.ResiduatedLattice:
    hasse = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    mul = _sym({
        ("0", "0"): "0", ("0", "a"): "0", ("0", "b"): "0", ("0", "1"): "0",
        ("a", "a"): "a", ("a", "b"): "0", ("a", "1"): "a",
        ("b", "b"): "b", ("b", "1"): "b",
        ("1", "1"): "1",
    })
    return rlcore.make_lattice(["0", "a", "b", "1"], hasse, mul, "0", "1")


@lru_cache(maxsize=None)
def rl_a6() -> rlcore.ResiduatedLattice:
    hasse = [("0", "a"), ("a", "b"), ("0", "c"), ("c", "d"), ("b", "d"), ("d", "1")]
    mul = _sym({
        ("0", "0"): "0", ("0", "a"): "0", ("0", "b"): "0", ("0", "c"): "0", ("0", "d"): "0", ("0", "1"): "0",
        ("a", "a"): "a", ("a", "b"): "a", ("a", "c"): "0", ("a", "d"): "a", ("a", "1"): "a",
        ("b", "b"): "a", ("b", "c"): "0", ("b", "d"): "a", ("b", "1"): "b",
        ("c", "c"): "c", ("c", "d"): "c", ("c", "1"): "c",
        ("d", "d"): "d", ("d", "1"): "d",
        ("1", "1"): "1",
    })
    return rlcore.make_lattice(["0", "a", "b", "c", "d", "1"], hasse, mul, "0", "1")


@lru_cache(maxsize=None)
def rl_a8() -> rlcore.ResiduatedLattice:
    # Row a is pinned by the rest of the data: products sit below meets
    # (a*b <= a^b = 0) and {a,c,d,e,f,1} must stay closed under the product,
    # which forces a*a=a and a*b=0.
    hasse = [
        ("0", "a"), ("0", "b"), ("b", "d"), ("d", "f"), ("f", "1"),
        ("a", "d"), ("a", "c"), ("c", "e"), ("d", "e"), ("e", "1"),
    ]
    mul = _sym({
        ("0", "0"): "0", ("0", "a"): "0", ("0", "b"): "0", ("0", "c"): "0",
        ("0", "d"): "0", ("0", "e"): "0", ("0", "f"): "0", ("0", "1"): "0",
        ("a", "a"): "a", ("a", "b"): "0", ("a", "c"): "a", ("a", "d"): "a",
        ("a", "e"): "a", ("a", "f"): "a", ("a", "1"): "a",
        ("b", "b"): "0", ("b", "c"): "0", ("b", "d"): "0", ("b", "e"): "0",
        ("b", "f"): "b", ("b", "1"): "b",
        ("c", "c"): "c", ("c", "d"): "a", ("c", "e"): "c", ("c", "f"): "a", ("c", "1"): "c",
        ("d", "d"): "a", ("d", "e"): "a", ("d", "f"): "d", ("d", "1"): "d",
        ("e", "e"): "c", ("e", "f"): "d", ("e", "1"): "e",
        ("f", "f"): "f", ("f", "1"): "f",
        ("1", "1"): "1",
    })
    return rlcore.make_lattice(["0", "a", "b", "c", "d", "e", "f", "1"], hasse, mul, "0", "1")


LATTICES = {"A2": rl_a2, "A3": rl_a3, "A4": rl_a4, "A6": rl_a6, "A8": rl_a8}

# Table 4 numbering; the order there is not derivable from the sets.
FILTER_NAMES = {
    "A4": [("F1", {"1"}), ("F2", {"a", "1"}), ("F3", {"b", "1"}), ("F4", {"0", "a", "b", "1"})],
    "A6": [
        ("F1", {"1"}),
        ("F2", {"a", "b", "d", "1"}),
        ("F3", {"c", "d", "1"}),
        ("F4", {"d", "1"}),
        ("F5", {"0", "a", "b", "c", "d", "1"}),
    ],
    "A8": [
        ("F1", {"1"}),
        ("F2", {"a", "c", "d", "e", "f", "1"}),
        ("F3", {"c", "e", "1"}),
        ("F4", {"f", "1"}),
        ("F5", {"0", "a", "b", "c", "d", "e", "f", "1"}),
    ],
}


def filter_names(lattice_name: str, lat: rlcore.ResiduatedLattice | None = None) -> dict[frozenset[str], str]:
    """Filter -> display name; Table 4 names when known, (size, lex) numbering otherwise."""
    if lattice_name in FILTER_NAMES:
        return {frozenset(els): nm for nm, els in FILTER_NAMES[lattice_name]}
    if lat is None:
        lat = LATTICES[lattice_name]()
    fam = rlcore.all_filters(lat).filters
    return {f: f"F{i + 1}" for i, f in enumerate(fam)}


def spectrum_space(lattice_name: str, which: str, flavor: str) -> fintop.FiniteSpace:
    lat = LATTICES[lattice_name]()
    fl = rlcore.all_filters(lat)
    pi = fl.select(which)
    cfg = spectra.SpectrumConfig(lat, pi, flavor)
    return spectra.spectral_space(cfg, filter_names(lattice_name, lat))


@lru_cache(maxsize=None)
def space_point() -> fintop.FiniteSpace:
    return fintop.discrete(["pt"])


@lru_cache(maxsize=None)
def space_sierpinski() -> fintop.FiniteSpace:
    return fintop.sierpinski("x", "y")


def _disjoint_stalk_bundle(base: fintop.FiniteSpace, stalks: dict[str, rlcore.ResiduatedLattice], suffixes: dict[str, str]) -> bundle.RLBundle:
    """Disjoint union of stalk algebras over a base, one copy per point, each restricting by the identity."""
    def name(b: str, x: str) -> str:
        return f"{x}_{suffixes[b]}"

    e = bundle.etale_from_restrictions(base, {b: lat.carrier for b, lat in stalks.items()}, lambda p, q, x: x, name)
    return bundle.RLBundle(e, bundle.relabelled_ops({b: (lat, partial(name, b)) for b, lat in stalks.items()}))


@lru_cache(maxsize=None)
def et_spec_h_a4() -> bundle.RLBundle:
    base = spectrum_space("A4", "spec", "hull")
    return _disjoint_stalk_bundle(base, {"F2": rl_a2(), "F3": rl_a2()}, {"F2": "1", "F3": "2"})


@lru_cache(maxsize=None)
def et_max_d_a6() -> bundle.RLBundle:
    base = spectrum_space("A6", "max", "dual")
    return _disjoint_stalk_bundle(base, {"F2": rl_a2(), "F3": rl_a3()}, {"F2": "1", "F3": "2"})


@lru_cache(maxsize=None)
def et_min_p_a8() -> bundle.RLBundle:
    # Completion of the partially specified example: the A3 copy sits over F3,
    # the A4 copy over F4, base Min_p(A8).
    base = spectrum_space("A8", "min", "patch")
    return _disjoint_stalk_bundle(base, {"F3": rl_a3(), "F4": rl_a4()}, {"F3": "1", "F4": "2"})


def constant_rl_bundle(base: fintop.FiniteSpace, lat: rlcore.ResiduatedLattice, total: fintop.FiniteSpace | None = None) -> bundle.RLBundle:
    """Bundle base x carrier with the same algebra on every stalk, restricting by the identity.

    `total` overrides the default product topology with the discrete carrier
    (must share the pair-id carrier), e.g. to make the total space indiscrete.
    """
    bnd = bundle.etale_from_restrictions(base, dict.fromkeys(base.points, lat.carrier), lambda p, q, x: x, fintop.pair_id)
    if total is not None:
        if total.points != bnd.total.points:
            raise ValueError("total must live on the canonical pair carrier")
        bnd = bundle.Bundle(total, base, fintop.SpaceMap(total, base, bnd.proj.table))
    ops = bundle.relabelled_ops({b: (lat, partial(fintop.pair_id, b)) for b in base.points})
    return bundle.RLBundle(bnd, ops)


@lru_cache(maxsize=None)
def a2_over_point() -> bundle.RLBundle:
    return constant_rl_bundle(space_point(), rl_a2())


@lru_cache(maxsize=None)
def indiscrete_a2_over_point() -> bundle.RLBundle:
    base = space_point()
    carrier = [fintop.pair_id("pt", x) for x in rl_a2().carrier]
    return constant_rl_bundle(base, rl_a2(), total=fintop.indiscrete(carrier))


@lru_cache(maxsize=None)
def trivial_a2_over_spec_h_a4() -> bundle.RLBundle:
    return constant_rl_bundle(spectrum_space("A4", "spec", "hull"), rl_a2())


def identity_bundle(space: fintop.FiniteSpace) -> bundle.Bundle:
    return bundle.Bundle(space, space, fintop.identity_map(space))


def etale_fixtures() -> dict[str, bundle.RLBundle]:
    return {
        "etspecha4": et_spec_h_a4(),
        "etmaxda6": et_max_d_a6(),
        "etminpa8": et_min_p_a8(),
        "a2_over_point": a2_over_point(),
        "trivial_a2_over_spec_h_a4": trivial_a2_over_spec_h_a4(),
    }


def rl_bundle_fixtures() -> dict[str, bundle.RLBundle]:
    out = dict(etale_fixtures())
    out["indiscrete_a2_over_point"] = indiscrete_a2_over_point()
    return out
