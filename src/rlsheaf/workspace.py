"""Structure-file ingestion: named registries of lattices, spaces, maps, bundles, and morphisms.

The input format is UTF-8 JSON built around explicit finite tables:
orders come as Hasse diagrams or full order relations, commutative tables
may be given upper-triangular and are symmetrized, residuals are derived
when absent.  Unknown keys are rejected; diagnostics carry document paths.

`parse_workspace` admits the document in one walk over its sections, each
section's entries in name order, in the order the definitions build them:
lattices, spaces, maps, bundles, rl_bundles, rle_spaces, morphisms.  An entry
may name only entries of sections admitted before its own; in lenient mode an
entry that names one left out is left out too, with a diagnostic.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from . import basechange, bundle, fintop, rlcore


class WorkspaceSyntaxError(ValueError):
    """Malformed document: JSON errors, unknown keys, bad shapes. CLI exit 2."""


class WorkspaceReferenceError(ValueError):
    """A named cross-reference does not resolve. CLI exit 2."""


class WorkspaceValidationError(ValueError):
    """An object failed its module validator in strict mode. CLI exit 1."""


TOP_KEYS = {"lattices", "spaces", "maps", "bundles", "rl_bundles", "morphisms", "rle_spaces", "expectations"}


@dataclass
class Workspace:
    """Every entry a workspace document admitted, by section and name, with the diagnostics of a lenient
    parse."""

    lattices: dict[str, rlcore.ResiduatedLattice] = field(default_factory=dict)
    spaces: dict[str, fintop.FiniteSpace] = field(default_factory=dict)
    maps: dict[str, fintop.SpaceMap] = field(default_factory=dict)
    bundles: dict[str, bundle.Bundle] = field(default_factory=dict)
    rl_bundles: dict[str, bundle.RLBundle] = field(default_factory=dict)
    morphisms: dict[str, Any] = field(default_factory=dict)
    rle_spaces: dict[str, basechange.RLESpace] = field(default_factory=dict)
    expectations: dict[str, Any] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    morphism_docs: dict[str, dict] = field(default_factory=dict)

    def bundle_like(self, name: str, path: str) -> bundle.Bundle:
        if name in self.bundles:
            return self.bundles[name]
        if name in self.rl_bundles:
            return self.rl_bundles[name].bundle
        raise WorkspaceReferenceError(f"{path}: unknown bundle {name!r}")


def _require_keys(obj: Mapping, allowed: set[str], required: set[str], path: str):
    if not isinstance(obj, dict):
        raise WorkspaceSyntaxError(f"{path}: expected an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise WorkspaceSyntaxError(f"{path}: unknown keys {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        raise WorkspaceSyntaxError(f"{path}: missing keys {missing}")


def _name(raw: Any, path: str) -> str:
    """Names (points, elements, references) must be JSON strings; nothing is coerced."""
    if not isinstance(raw, str):
        raise WorkspaceSyntaxError(f"{path}: expected a string, got {type(raw).__name__}")
    return raw


def _str_list(raw: Any, path: str) -> list[str]:
    if not isinstance(raw, list):
        raise WorkspaceSyntaxError(f"{path}: expected a list")
    for i, x in enumerate(raw):  # a path is formatted only for the element that fails
        if not isinstance(x, str):
            _name(x, f"{path}[{i}]")
    return list(raw)


def _distinct(names: list[str], path: str, what: str) -> list[str]:
    """`names`, unless one is listed twice: a list read as a set would merge the two silently."""
    if len(set(names)) != len(names):
        raise WorkspaceSyntaxError(f"{path}: duplicate {what}")
    return names


def _section(doc: dict, key: str) -> dict:
    raw = doc.get(key, {})
    if not isinstance(raw, dict):
        raise WorkspaceSyntaxError(f"{key}: expected an object of named entries")
    return raw


def _parse_pairs(raw: Any, path: str) -> list[tuple[str, str]]:
    if not isinstance(raw, list) or not all(isinstance(p, list) and len(p) == 2 for p in raw):
        raise WorkspaceSyntaxError(f"{path}: expected a list of [x,y] pairs")
    for i, pair in enumerate(raw):
        for j, el in enumerate(pair):
            if not isinstance(el, str):
                _name(el, f"{path}[{i}][{j}]")
    return [(a, b) for a, b in raw]


@functools.lru_cache(maxsize=64)
def _cells(carrier: frozenset[str]) -> tuple[list[str], dict[str, tuple[str, str]]]:
    """The elements no 'x,y' key can name, sorted, and each pair of elements by its exact key; the four
    tables of a stalk share them.  A key is split on ',' and its halves stripped, so no key names an
    element holding ',' or edge whitespace."""
    pairs = list(itertools.product(carrier, repeat=2))
    return sorted(el for el in carrier if "," in el or el != el.strip()), dict(zip(map(",".join, pairs), pairs))


def _parse_binary_table(raw: Any, carrier: frozenset[str], path: str, symmetrize: bool) -> dict[tuple[str, str], str]:
    """The table keyed by carrier pairs.  One whose keys are all exactly 'x,y', with values in the carrier,
    no entry conflicting with its mirror and every pair given, is read by key lookup; any other goes
    through `_binary_table_walk`, which raises its first error or reads the keys it strips."""
    if not isinstance(raw, dict):
        raise WorkspaceSyntaxError(f"{path}: expected an object keyed 'x,y'")
    unnameable, cell = _cells(frozenset(carrier))
    if unnameable:
        raise WorkspaceSyntaxError(f"{path}: {unnameable[0]!r} cannot be named in an 'x,y' key")
    out: dict[tuple[str, str], str] = {}
    try:
        if carrier.issuperset(raw.values()):
            for xy, v in zip(map(cell.__getitem__, raw), raw.values()):
                if out.setdefault(xy, v) != v:  # only the mirror of an earlier key sets xy first
                    break
                if symmetrize:
                    out[xy[::-1]] = v
            else:
                if len(out) == len(cell):
                    return out
    except (KeyError, TypeError):
        pass
    return _binary_table_walk(raw, carrier, path, symmetrize)


def _binary_table_walk(raw: dict, carrier: frozenset[str], path: str, symmetrize: bool) -> dict[tuple[str, str], str]:
    """`_parse_binary_table` key by key: each key split on ',' and its halves stripped."""
    out: dict[tuple[str, str], str] = {}
    for key, v in raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise WorkspaceSyntaxError(f"{path}.{key}: key must be 'x,y'")
        x, y = parts[0].strip(), parts[1].strip()
        if not isinstance(v, str):
            _name(v, f"{path}.{key}")
        for el in (x, y, v):
            if el not in carrier:
                raise WorkspaceSyntaxError(f"{path}.{key}: {el!r} is not a carrier element")
        if (x, y) in out and out[x, y] != v:
            raise WorkspaceSyntaxError(f"{path}.{key}: conflicting duplicate entry")
        out[x, y] = v
        if symmetrize:  # `out` stays symmetric, so the check above has already compared the mirror
            out[y, x] = v
    if len(out) != len(carrier) ** 2:  # every key lies in the carrier, so the count decides completeness
        x, y = min((x, y) for x in carrier for y in carrier if (x, y) not in out)
        raise WorkspaceSyntaxError(f"{path}: table incomplete, e.g. ({x},{y}) missing")
    return out


def _parse_lattice(name: str, raw: Any) -> rlcore.ResiduatedLattice:
    path = f"lattices.{name}"
    _require_keys(raw, {"carrier", "leq", "hasse", "mul", "imp", "bot", "top"}, {"carrier", "mul", "bot", "top"}, path)
    if ("leq" in raw) == ("hasse" in raw):
        raise WorkspaceSyntaxError(f"{path}: exactly one of 'leq'/'hasse' is required")
    carrier = _distinct(_str_list(raw["carrier"], f"{path}.carrier"), f"{path}.carrier", "elements")
    cset = frozenset(carrier)
    mul = _parse_binary_table(raw["mul"], cset, f"{path}.mul", symmetrize=True)
    imp = None
    if "imp" in raw:
        imp = _parse_binary_table(raw["imp"], cset, f"{path}.imp", symmetrize=False)
    bot, top = _name(raw["bot"], f"{path}.bot"), _name(raw["top"], f"{path}.top")
    if bot not in cset or top not in cset:
        raise WorkspaceSyntaxError(f"{path}: bot/top outside the carrier")
    key = "hasse" if "hasse" in raw else "leq"
    pairs = _parse_pairs(raw[key], f"{path}.{key}")
    stray = sorted({el for pair in pairs for el in pair} - cset)
    if stray:
        raise WorkspaceSyntaxError(f"{path}.{key}: {stray[0]!r} is not a carrier element")
    if key == "hasse":
        build, order = rlcore.make_lattice, pairs
    else:
        build, order = rlcore.lattice_from_order, frozenset(pairs) | frozenset((x, x) for x in carrier)
    try:
        lat = build(carrier, order, mul, bot, top, imp)
    except (ValueError, rlcore.NotResiduated) as e:
        raise WorkspaceValidationError(f"{path}: {e}")
    rep = rlcore.verify_rl(lat)
    if not rep.ok:
        raise WorkspaceValidationError(f"{path}: {rep.violations[0]}")
    return lat


def _parse_space(name: str, raw: Any) -> fintop.FiniteSpace:
    path = f"spaces.{name}"
    _require_keys(raw, {"points", "opens"}, {"points", "opens"}, path)
    points = _distinct(_str_list(raw["points"], f"{path}.points"), f"{path}.points", "points")
    opens = raw["opens"]
    if not isinstance(opens, list) or not all(isinstance(o, list) for o in opens):
        raise WorkspaceSyntaxError(f"{path}.opens: expected a list of lists")
    # Opens that list distinct points and form a topology are read once, as masks.  Any other family is
    # walked open by open, so a syntax error in any open comes before a topology error.
    space = fintop._opens_space(frozenset(points), opens)
    if space is not None:
        return space
    opens = [_distinct(_str_list(o, f"{path}.opens[{i}]"), f"{path}.opens[{i}]", "points") for i, o in enumerate(opens)]
    try:
        return fintop.space_from_opens(points, opens)
    except ValueError as e:
        raise WorkspaceValidationError(f"{path}: {e}")


def _parse_point_map(raw: Any, path: str) -> dict[str, str]:
    if not isinstance(raw, dict):
        raise WorkspaceSyntaxError(f"{path}: expected an object of point -> point")
    for k, v in raw.items():
        _name(k, path)
        if not isinstance(v, str):
            _name(v, f"{path}.{k}")
    return dict(raw)


def _parse_stalk_ops(raw: Any, bnd: bundle.Bundle, path: str) -> bundle.StalkOps:
    if not isinstance(raw, dict):
        raise WorkspaceSyntaxError(f"{path}: expected per-point operation tables")
    tables: dict[str, dict[str, dict]] = {name: {} for name in bundle.StalkOps.OPS}
    for pt, tabs in raw.items():
        if pt not in bnd.base.points:
            raise WorkspaceReferenceError(f"{path}.{pt}: not a base point")
        _require_keys(tabs, set(tables), set(tables), f"{path}.{pt}")
        stalk = bnd.stalk_points(pt)
        for name, out in tables.items():
            out[pt] = _parse_binary_table(tabs[name], stalk, f"{path}.{pt}.{name}", symmetrize=name != "imp")
    missing = sorted(set(bnd.base.points) - set(raw))
    if missing:
        raise WorkspaceSyntaxError(f"{path}: missing stalk tables for {missing}")
    return bundle.StalkOps(**tables, zero={}, one={})


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a key given twice is a syntax error, not resolved to its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise WorkspaceSyntaxError(f"document: duplicate key {key!r}")
            seen.add(key)
    return obj


def _build_bundle(path: str, raw: dict, total: fintop.FiniteSpace, base: fintop.FiniteSpace) -> bundle.Bundle | bundle.RLBundle:
    bnd = bundle.Bundle(total, base, fintop.space_map(total, base, _parse_point_map(raw["proj"], f"{path}.proj")))
    if "stalk_ops" not in raw:
        return bnd
    ops = _parse_stalk_ops(raw["stalk_ops"], bnd, f"{path}.stalk_ops")
    ops.zero = _parse_point_map(raw["zero"], f"{path}.zero")
    ops.one = _parse_point_map(raw["one"], f"{path}.one")
    rb = bundle.RLBundle(bnd, ops)
    rep = bundle.verify_rl_bundle(rb)
    if not rep.ok:
        raise WorkspaceValidationError(f"{path}: {rep.violations[0]}")
    return rb


def _build_rle_inv(path: str, raw: dict, src: basechange.RLESpace, dst: basechange.RLESpace) -> basechange.RLEInvMorphism:
    f = fintop.space_map(src.base, dst.base, _parse_point_map(raw["base_map"], f"{path}.base_map"))
    pulled, _ = dst.pullback(f)
    alpha = fintop.space_map(pulled.total, src.etale.total, _parse_point_map(raw["alpha"], f"{path}.alpha"))
    return basechange.RLEInvMorphism(src, dst, f, alpha)


# An entry that names others names two: the keys it must hold, each reference key with the kind of object it
# names, in the order they are read, and the builder that takes the two objects.  A bundle entry may also
# hold the stalk keys, and must when it has stalk_ops.
_BUNDLE_KEYS = frozenset({"total", "base", "proj", "stalk_ops", "zero", "one"})
_BUNDLE = ({"total", "base", "proj"}, ("total", "space"), ("base", "space"), _build_bundle)
_RL_BUNDLE = (_BUNDLE_KEYS, *_BUNDLE[1:])
_MAP = ({"dom", "cod", "table"}, ("dom", "space"), ("cod", "space"),
        lambda path, raw, dom, cod: fintop.space_map(dom, cod, _parse_point_map(raw["table"], f"{path}.table")))
_RLE_SPACE = ({"base", "etale"}, ("base", "space"), ("etale", "rl_bundle"),
              lambda path, raw, base, et: basechange._admitted_rle_space(base, et))
_MORPHISM_KINDS = {
    "rl": ({"kind", "dom", "cod", "table"}, ("dom", "lattice"), ("cod", "lattice"),
           lambda path, raw, dom, cod: rlcore.RLMorphism(dom, cod, _parse_point_map(raw["table"], f"{path}.table"))),
    "bundle": ({"kind", "src", "dst", "table"}, ("src", "bundle"), ("dst", "bundle"),
               lambda path, raw, src, dst: bundle.BundleMorphism(
                   src, dst, fintop.space_map(src.total, dst.total, _parse_point_map(raw["table"], f"{path}.table")))),
    "rle_inv": ({"kind", "src", "dst", "base_map", "alpha"}, ("src", "rle_space"), ("dst", "rle_space"), _build_rle_inv),
}


def _morphism_kind(path: str, raw: Any) -> tuple:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise WorkspaceSyntaxError(f"{path}: missing 'kind'")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _MORPHISM_KINDS:
        raise WorkspaceSyntaxError(f"{path}: unknown kind {kind!r}")
    return _MORPHISM_KINDS[kind]


def parse_workspace(text: str | dict, strict: bool = True) -> Workspace:
    """Parse a JSON document into a workspace; see module docstring for the format."""
    if isinstance(text, str):
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as e:
            raise WorkspaceSyntaxError(f"document: invalid JSON ({e})")
        except RecursionError:
            raise WorkspaceSyntaxError("document: invalid JSON (nested too deeply)") from None
    else:
        doc = text
    if not isinstance(doc, dict):
        raise WorkspaceSyntaxError("document: top level must be an object")
    unknown = sorted(set(doc) - TOP_KEYS)
    if unknown:
        raise WorkspaceSyntaxError(f"document: unknown keys {unknown}")

    ws = Workspace()

    def guard(path: str, fn):
        try:
            return fn()
        except (WorkspaceSyntaxError, WorkspaceReferenceError):
            raise
        except (WorkspaceValidationError, ValueError) as e:
            err = e if isinstance(e, WorkspaceValidationError) else WorkspaceValidationError(f"{path}: {e}")
            if strict:
                raise err
            ws.diagnostics.append(str(err))
            return None

    def admitted(path: str, *refs: tuple[str, str]) -> bool:
        """Whether each (kind, name) reference names an admitted object.  A name no section declares is a
        reference error; a declared one that lenient parsing left out (referenced sections are parsed
        first) leaves this entry out too, with a diagnostic of its own."""
        dropped = []
        for kind, ref in refs:
            if ref in getattr(ws, f"{kind}s") or kind == "bundle" and ref in ws.rl_bundles:
                continue
            sections = ("bundles", "rl_bundles") if kind.endswith("bundle") else (f"{kind}s",)
            left_out = [f"{s}.{ref}" for s in sections if ref in _section(doc, s) and ref not in getattr(ws, s)]
            if not left_out:
                raise WorkspaceReferenceError(f"{path}: unknown {kind} {ref!r}")
            dropped += left_out
        if dropped:
            ws.diagnostics.append(f"{path}: depends on {dropped[0]}, which has a diagnostic")
        return not dropped

    registries = {"lattice": ws.lattices, "space": ws.spaces, "rl_bundle": ws.rl_bundles, "rle_space": ws.rle_spaces}

    def referring(path: str, raw: Any, spec: tuple, allowed: set[str] | None = None):
        """`build(path, raw, x, y)` under `guard`, x and y being the objects the entry names under its two
        reference keys, read in order once its keys check out; None when `admitted` leaves the entry out."""
        required, (key_x, kind_x), (key_y, kind_y), build = spec
        _require_keys(raw, allowed or required, required, path)
        x, y = _name(raw[key_x], f"{path}.{key_x}"), _name(raw[key_y], f"{path}.{key_y}")
        if not admitted(path, (kind_x, x), (kind_y, y)):
            return None
        x = ws.bundle_like(x, path) if kind_x == "bundle" else registries[kind_x][x]
        y = ws.bundle_like(y, path) if kind_y == "bundle" else registries[kind_y][y]
        return guard(path, lambda: build(path, raw, x, y))

    readers = {
        "lattices": lambda path, name, raw: guard(path, lambda: _parse_lattice(name, raw)),
        "spaces": lambda path, name, raw: guard(path, lambda: _parse_space(name, raw)),
        "maps": lambda path, name, raw: referring(path, raw, _MAP),
        "bundles": lambda path, name, raw: referring(
            path, raw, _RL_BUNDLE if isinstance(raw, dict) and "stalk_ops" in raw else _BUNDLE, _BUNDLE_KEYS),
        "rl_bundles": lambda path, name, raw: referring(path, raw, _RL_BUNDLE),
        "rle_spaces": lambda path, name, raw: referring(path, raw, _RLE_SPACE),
        "morphisms": lambda path, name, raw: referring(path, raw, _morphism_kind(path, raw)),
    }
    for section, read in readers.items():
        registry = getattr(ws, section)
        for name, raw in sorted(_section(doc, section).items()):
            obj = read(f"{section}.{name}", name, raw)
            if obj is None:
                continue
            if section == "bundles" and isinstance(obj, bundle.RLBundle):
                ws.rl_bundles[name], obj = obj, obj.bundle
            elif section == "morphisms":
                ws.morphism_docs[name] = raw
            registry[name] = obj

    if "expectations" in doc:
        ws.expectations = _check_expectations(doc["expectations"])

    return ws


def _check_expectations(exp: Any) -> dict:
    """Shape-check the expectation kinds against what the CLI reads from them; returned unchanged."""
    _require_keys(exp, {"filters", "classification", "spectra", "deviations"}, set(), "expectations")

    def named(raw: Any, path: str) -> dict:
        if not isinstance(raw, dict):
            raise WorkspaceSyntaxError(f"{path}: expected an object of named entries")
        return raw

    def names(raw: Any, path: str) -> None:
        if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
            raise WorkspaceSyntaxError(f"{path}: expected a list of names")
        _distinct(raw, path, "names")

    def family(raw: Any, path: str) -> None:
        if not isinstance(raw, list):
            raise WorkspaceSyntaxError(f"{path}: expected a list of lists of names")
        for i, member in enumerate(raw):
            names(member, f"{path}[{i}]")

    for kind in ("filters", "classification"):
        for lname, table in named(exp.get(kind, {}), f"expectations.{kind}").items():
            path = f"expectations.{kind}.{lname}"
            if kind == "classification":  # the kinds `FilterLattice.select` reads
                _require_keys(table, {"max", "min", "spec"}, set(), path)
            for key, els in named(table, path).items():
                names(els, f"{path}.{key}")
    for key, fam in named(exp.get("spectra", {}), "expectations.spectra").items():
        family(fam, f"expectations.spectra.{key}")
    for key, dev in named(exp.get("deviations", {}), "expectations.deviations").items():
        path = f"expectations.deviations.{key}"
        _require_keys(dev, {"computed", "listed", "note"}, {"computed", "note"}, path)
        family(dev["computed"], f"{path}.computed")
        if not isinstance(dev["note"], str):
            raise WorkspaceSyntaxError(f"{path}.note: expected a string")
    return exp


def serialize_workspace(ws: Workspace) -> dict:
    """Inverse of parse_workspace up to table normalization; round-trips to an equal workspace."""
    doc: dict[str, Any] = {}
    if ws.lattices:
        doc["lattices"] = {
            name: {
                "carrier": list(lat.carrier),
                "leq": sorted([x, y] for (x, y) in lat.leq),
                "mul": {f"{x},{y}": lat.mul[x, y] for x in lat.carrier for y in lat.carrier},
                "imp": {f"{x},{y}": lat.imp[x, y] for x in lat.carrier for y in lat.carrier},
                "bot": lat.bot,
                "top": lat.top,
            }
            for name, lat in sorted(ws.lattices.items())
        }
    if ws.spaces:
        doc["spaces"] = {
            name: {"points": sorted(sp.points), "opens": [sorted(o) for o in sp.sorted_opens()]}
            for name, sp in sorted(ws.spaces.items())
        }
    if ws.maps:
        doc["maps"] = {}
        for name, m in sorted(ws.maps.items()):
            doc["maps"][name] = {"dom": _name_of(ws.spaces, m.dom), "cod": _name_of(ws.spaces, m.cod), "table": dict(m.table)}
    plain = {n: b for n, b in ws.bundles.items() if n not in ws.rl_bundles}
    if plain:
        doc["bundles"] = {}
        for name, b in sorted(plain.items()):
            doc["bundles"][name] = _serialize_bundle(ws, b, None)
    if ws.rl_bundles:
        doc["rl_bundles"] = {}
        for name, rb in sorted(ws.rl_bundles.items()):
            doc["rl_bundles"][name] = _serialize_bundle(ws, rb.bundle, rb.ops)
    if ws.rle_spaces:
        doc["rle_spaces"] = {}
        for name, x in sorted(ws.rle_spaces.items()):
            doc["rle_spaces"][name] = {"base": _name_of(ws.spaces, x.base), "etale": _name_of(ws.rl_bundles, x.etale)}
    if ws.morphisms:
        doc["morphisms"] = {name: ws.morphism_docs[name] for name in sorted(ws.morphisms)}
    if ws.expectations:
        doc["expectations"] = ws.expectations
    return doc


def _name_of(registry: Mapping[str, Any], obj: Any) -> str:
    """The name the parser registered this very object under; equal objects may carry other names."""
    return next(k for k, v in registry.items() if v is obj)


def _serialize_bundle(ws: Workspace, b: bundle.Bundle, ops: bundle.StalkOps | None) -> dict:
    out = {"total": _name_of(ws.spaces, b.total), "base": _name_of(ws.spaces, b.base), "proj": dict(b.proj.table)}
    if ops is not None:
        out["stalk_ops"] = {
            p: {
                name: {f"{x},{y}": t[x, y] for (x, y) in sorted(t)}
                for name, t in [("join", ops.join[p]), ("meet", ops.meet[p]), ("mul", ops.mul[p]), ("imp", ops.imp[p])]
            }
            for p in sorted(ops.zero)
        }
        out["zero"] = dict(sorted(ops.zero.items()))
        out["one"] = dict(sorted(ops.one.items()))
    return out
