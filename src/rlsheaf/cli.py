"""Command-line interface: fixture ingestion, verification commands, reports, diagrams.

Exit codes: 0 success, 1 failed assertion or validation, 2 usage, syntax,
or reference errors.  Output ordering is lexicographic throughout; the
machine-readable format is a single JSON object per invocation.

Only the invoked command's argument parser is built.  The top-level `command`
positional has a sub-parsers action's dest, nargs and choices, so usage lines,
help and error messages read as they did with every command's sub-parser built.
Every command but the two suites reads a workspace document; `law-suite` and
`adjunction-suite` build their own objects, so no workspace is loaded for them
and `--workspace` and `--lenient` do not apply to them.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import Any

from . import basechange, bundle, dot, rlcore, sheafify, spectra, suites, workspace
from .report import fmt_set


class CommandError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def load_workspace(path: str | None, strict: bool = True) -> workspace.Workspace:
    if path is None:
        text = resources.files("rlsheaf.data").joinpath("paper_fixtures.json").read_text("utf-8")
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise CommandError(f"cannot read workspace: {e}", 2)
    return workspace.parse_workspace(text, strict=strict)


def _filter_names_for(ws: workspace.Workspace, name: str, fl: rlcore.FilterLattice) -> dict[frozenset[str], str]:
    exp = ws.expectations.get("filters", {}).get(name)
    if not exp:
        return {f: f"F{i + 1}" for i, f in enumerate(fl.filters)}
    names: dict[frozenset[str], str] = {}
    for k, v in exp.items():
        f = frozenset(v)
        if f in names:
            raise CommandError(f"expectations.filters.{name} names the filter {fmt_set(f)} twice ({names[f]}, {k})", 1)
        names[f] = k
    unnamed = [f for f in fl.filters if f not in names]
    if unnamed:
        raise CommandError(f"expectations.filters.{name} does not name the filter {fmt_set(unnamed[0])}", 1)
    return names


def _need(ws_dict: dict, name: str, kind: str) -> Any:
    if name not in ws_dict:
        raise CommandError(f"unknown {kind} {name!r}", 2)
    return ws_dict[name]


def _names(text: str, what: str) -> frozenset[str]:
    """A comma list of names, blanks dropped; a name listed twice exits 2 (read as a set, the two would merge)."""
    listed = [x.strip() for x in text.split(",") if x.strip()]
    twice = next((x for i, x in enumerate(listed) if x in listed[:i]), None)
    if twice is not None:
        raise CommandError(f"{what} lists {twice} twice", 2)
    return frozenset(listed)


def cmd_validate(ws: workspace.Workspace, args) -> dict:
    # parse_workspace admits a lattice, space or rl-bundle only once its
    # validator passed, and records every rejection as a diagnostic.
    lines = [f"lattice {name}: valid" for name in sorted(ws.lattices)]
    lines += [f"space {name}: valid" for name in sorted(ws.spaces)]
    lines += [f"bundle {name}: valid (continuous projection)" for name in sorted(ws.bundles)]
    lines += [f"rl_bundle {name}: valid" for name in sorted(ws.rl_bundles)]
    lines += [f"morphism {name}: valid" for name in sorted(ws.morphisms)]
    lines += [f"rle_space {name}: valid" for name in sorted(ws.rle_spaces)]
    lines += [f"diagnostic: {diag}" for diag in ws.diagnostics]
    ok = not ws.diagnostics
    # A classification row names filters as the lattice's filters row does, so it is read only once
    # that row matched; a lattice with no filters row has the F1... names `classify` prints.
    filter_rows, class_rows = ws.expectations.get("filters", {}), ws.expectations.get("classification", {})
    for lname in sorted(set(filter_rows) | set(class_rows)):
        lat = ws.lattices.get(lname)
        if lat is None:
            continue
        fl = rlcore.all_filters(lat)
        if lname in filter_rows:
            good = {frozenset(v) for v in filter_rows[lname].values()} == set(fl.filters)
            ok &= good
            lines.append(f"expectation filters[{lname}]: {'match' if good else 'MISMATCH'}")
            if not good:
                continue
        names = _filter_names_for(ws, lname, fl)
        for kind, listed in sorted(class_rows.get(lname, {}).items()):
            if set(listed) != {names[f] for f in fl.select(kind)}:
                ok = False
                lines.append(f"expectation classification[{lname}.{kind}]: MISMATCH")
    return {"ok": ok, "lines": lines}


def cmd_filters(ws: workspace.Workspace, args) -> dict:
    lat = _need(ws.lattices, args.name, "lattice")
    fl = rlcore.all_filters(lat)
    names = _filter_names_for(ws, args.name, fl)
    rows = sorted((names[f], sorted(f)) for f in fl.filters)
    return {
        "ok": True,
        "lines": [f"{n} = {fmt_set(els)}" for n, els in rows],
        "filters": [{"name": n, "elements": els} for n, els in rows],
    }


def cmd_classify(ws: workspace.Workspace, args) -> dict:
    lat = _need(ws.lattices, args.name, "lattice")
    fl = rlcore.all_filters(lat)
    names = _filter_names_for(ws, args.name, fl)
    rows = []
    for f in fl.filters:
        flags = fl.classification[f]
        kinds = [k for k in ("proper", "principal", "maximal", "prime", "minimal_prime") if getattr(flags, k)]
        rows.append((names[f], sorted(f), kinds))
    rows.sort()
    return {
        "ok": True,
        "lines": [f"{n} {fmt_set(e)}: {', '.join(k) if k else 'improper'}" for n, e, k in rows],
        "classification": [{"name": n, "elements": e, "flags": k} for n, e, k in rows],
    }


def cmd_quotient(ws: workspace.Workspace, args) -> dict:
    lat = _need(ws.lattices, args.name, "lattice")
    elements = _names(args.filter, "filter")
    if not rlcore.is_filter(lat, elements):
        raise CommandError(f"{fmt_set(elements)} is not a filter of {args.name}", 1)
    q, proj = rlcore.quotient(lat, elements)  # raises unless verify_rl(q) passes
    lines = [f"quotient of {args.name} by {fmt_set(elements)}: {len(q.carrier)} classes"]
    lines += [f"  {x} -> {proj(x)}" for x in lat.carrier]
    lines.append("verify_rl: valid")
    return {
        "ok": True,
        "lines": lines,
        "classes": list(q.carrier),
        "projection": {x: proj(x) for x in lat.carrier},
    }


def cmd_spectrum(ws: workspace.Workspace, args) -> dict:
    lat = _need(ws.lattices, args.name, "lattice")
    fl = rlcore.all_filters(lat)
    pi = fl.select(args.set)
    cfg = spectra.SpectrumConfig(lat, pi, args.flavor)
    names = _filter_names_for(ws, args.name, fl)
    sp = spectra.spectral_space(cfg, names)
    opens = [sorted(o) for o in sp.sorted_opens()]
    lines = [f"points: {fmt_set(sp.points)}"] + [f"open: {fmt_set(o)}" for o in opens]
    key = f"{args.name}:{args.set}:{args.flavor}"
    expected = ws.expectations.get("spectra", {}).get(key)
    ok = True
    if expected is not None:
        ok = sorted(map(sorted, expected)) == sorted(opens)
        lines.append(f"expectation {key}: {'match' if ok else 'MISMATCH'}")
    deviation = ws.expectations.get("deviations", {}).get(key)
    if deviation is not None:
        ok = ok and sorted(map(sorted, deviation["computed"])) == sorted(opens)
        lines.append(f"documented deviation: {deviation['note']}")
    return {"ok": ok, "lines": lines, "points": sorted(sp.points), "opens": opens}


def cmd_sections(ws: workspace.Workspace, args) -> dict:
    b = ws.bundle_like(args.bundle, "sections")
    if args.open is None:
        dom = b.base.points
    else:
        dom = _names(args.open, "--open")
    if not dom <= b.base.points:
        raise CommandError(f"subset {fmt_set(dom)} escapes the base", 2)
    secs = bundle.sections(b, dom)
    return {
        "ok": True,
        "lines": [f"sections over {fmt_set(dom)}: {len(secs)}"] + [f"  {s.id_str}" for s in secs],
        "sections": [s.id_str for s in secs],
    }


def cmd_check_etale(ws: workspace.Workspace, args) -> dict:
    b = ws.bundle_like(args.bundle, "check-etale")
    et = bundle.is_etale(b)
    return {"ok": et, "lines": [f"etale: {'yes' if et else 'no'}"], "etale": et}


def cmd_check_rl_bundle(ws: workspace.Workspace, args) -> dict:
    _need(ws.rl_bundles, args.bundle, "rl_bundle")  # admitted only once verify_rl_bundle passed
    return {"ok": True, "lines": ["rl-bundle: valid"], "violations": []}


def cmd_sheafify(ws: workspace.Workspace, args) -> dict:
    b = ws.bundle_like(args.bundle, "sheafify")
    gs = sheafify.etale_of(b)
    crep = sheafify.counit_report(b, gs)
    et = bundle.is_etale(gs.as_bundle)
    flags = crep["injective"] and crep["open_relative"] and crep["continuous"]
    lines = [
        f"etale: {'yes' if et else 'no'}; germs: {len(gs.germs)}; "
        f"counit injective/open/continuous: {'yes' if flags else 'no'}"
    ]
    lines += [f"germ: {g}" for g in sorted(gs.germs)]
    return {"ok": et and flags, "lines": lines, "germs": sorted(gs.germs), "counit": crep}


def cmd_counit_check(ws: workspace.Workspace, args) -> dict:
    b = ws.bundle_like(args.bundle, "counit-check")
    gs = sheafify.etale_of(b)
    crep = sheafify.counit_report(b, gs)
    et = bundle.is_etale(b)
    iso = et and sheafify.counit_is_iso(b, gs)
    lines = [f"{k}: {'yes' if v else 'no'}" for k, v in sorted(crep.items())]
    lines.append(f"isomorphism (etale inputs): {'yes' if iso else 'no' if et else 'n/a'}")
    ok = crep["injective"] and crep["continuous"] and crep["open_relative"]
    return {"ok": ok, "lines": lines, "counit": crep, "iso_at_etale": iso}


def cmd_pullback(ws: workspace.Workspace, args) -> dict:
    f = _need(ws.maps, args.map, "map")
    name = args.bundle
    if name in ws.rl_bundles:
        pulled, fprime = basechange.pullback_rl_etale(f, ws.rl_bundles[name])
        rep = bundle.verify_rl_bundle(pulled)
        et = bundle.is_etale(pulled.bundle)
        lines = [
            f"pullback total: {fmt_set(pulled.total.points)}",
            f"etale: {'yes' if et else 'no'}; rl-bundle valid: {'yes' if rep.ok else 'no'}",
        ]
        return {"ok": rep.ok, "lines": lines, "total": sorted(pulled.total.points), "etale": et}
    b = ws.bundle_like(name, "pullback")
    pe = basechange.pullback_etale(f, b)
    et = bundle.is_etale(pe.result)
    lines = [f"pullback total: {fmt_set(pe.result.total.points)}", f"etale: {'yes' if et else 'no'}"]
    return {"ok": True, "lines": lines, "total": sorted(pe.result.total.points), "etale": et}


def cmd_compose_rle(ws: workspace.Workspace, args) -> dict:
    m1 = _need(ws.morphisms, args.m1, "morphism")
    m2 = _need(ws.morphisms, args.m2, "morphism")
    for m, n in [(m1, args.m1), (m2, args.m2)]:
        if not isinstance(m, basechange.RLEInvMorphism):
            raise CommandError(f"{n} is not an rle_inv morphism", 2)
    try:
        comp = basechange.compose_rle_inv(m1, m2)
    except ValueError as e:
        raise CommandError(str(e), 1)
    lines = [
        f"base map: {dict(comp.f.table)}",
        f"alpha: {dict(comp.alpha.table)}",
    ]
    return {"ok": True, "lines": lines, "base_map": dict(comp.f.table), "alpha": dict(comp.alpha.table)}


def cmd_gamma(ws: workspace.Workspace, args) -> dict:
    x = _need(ws.rle_spaces, args.rlespace, "rle_space")
    ga = basechange.section_functor_object(x)  # raises unless verify_rl passes on the algebra
    lines = [f"Gamma carrier ({len(ga.algebra.carrier)} sections):"]
    lines += [f"  {s}" for s in ga.algebra.carrier]
    lines.append("verify_rl: valid")
    return {"ok": True, "lines": lines, "sections": list(ga.algebra.carrier)}


# The commands that build their own objects: each runs its suite, and no workspace is loaded.
SUITES = {"adjunction-suite": suites.adjunction_suite, "law-suite": suites.law_suite}


def cmd_suite(args) -> dict:
    rep = SUITES[args.command]()
    return {"ok": rep.ok, "lines": rep.lines(), **rep.as_dict()}


def cmd_export_dot(ws: workspace.Workspace, args) -> dict:
    name = args.object
    if name in ws.lattices:
        text = dot.lattice_dot(name, ws.lattices[name])
    elif name in ws.spaces:
        text = dot.space_dot(name, ws.spaces[name])
    elif name in ws.bundles or name in ws.rl_bundles:
        text = dot.bundle_dot(name, ws.bundle_like(name, "export-dot"))
    else:
        raise CommandError(f"unknown object {name!r}", 2)
    return {"ok": True, "lines": [text], "dot": text}


# Each command's add_argument calls, in HANDLERS order: a name is a positional, a pair an option.
ARGUMENTS: dict[str, list] = {
    "validate": [], "filters": ["name"], "classify": ["name"], "quotient": ["name", "filter"],
    "spectrum": ["name", ("--set", {"required": True, "choices": ["spec", "max", "min"]}),
                 ("--flavor", {"required": True, "choices": ["hull", "dual", "patch"]})],
    "sections": ["bundle", ("--open", {"default": None})],
    "check-etale": ["bundle"], "check-rl-bundle": ["bundle"], "sheafify": ["bundle"], "counit-check": ["bundle"],
    "pullback": ["map", "bundle"], "compose-rle": ["m1", "m2"], "gamma": ["rlespace"],
    "adjunction-suite": [], "law-suite": [], "export-dot": ["object"],
}

HANDLERS = {
    "validate": cmd_validate,
    "filters": cmd_filters,
    "classify": cmd_classify,
    "quotient": cmd_quotient,
    "spectrum": cmd_spectrum,
    "sections": cmd_sections,
    "check-etale": cmd_check_etale,
    "check-rl-bundle": cmd_check_rl_bundle,
    "sheafify": cmd_sheafify,
    "counit-check": cmd_counit_check,
    "pullback": cmd_pullback,
    "compose-rle": cmd_compose_rle,
    "gamma": cmd_gamma,
    "adjunction-suite": cmd_suite,
    "law-suite": cmd_suite,
    "export-dot": cmd_export_dot,
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; its help shows the module docstring without the last paragraph (none under -OO)."""
    p = argparse.ArgumentParser(prog="rlsheaf", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    p.add_argument("--workspace", help="path to a workspace JSON document (default: bundled fixture corpus)")
    p.add_argument("--format", choices=["text", "machine-readable"], default="text")
    p.add_argument("--lenient", action="store_true", help="record validation diagnostics instead of failing")
    p.add_argument("command", nargs=argparse.PARSER, choices=list(HANDLERS))
    return p


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse `argv` as a sub-parsers action would, building the sub-parser of the invoked command only."""
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    args.command, *rest = args.command
    sub = argparse.ArgumentParser(prog=f"rlsheaf {args.command}")
    for arg in ARGUMENTS[args.command]:
        flag, kwargs = (arg, {}) if isinstance(arg, str) else arg
        sub.add_argument(flag, **kwargs)
    sub_args, more = sub.parse_known_args(rest)
    vars(args).update(vars(sub_args))
    if extras or more:
        parser.error(f"unrecognized arguments: {' '.join(extras + more)}")
    return args


def run(argv: list[str]) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        handler = HANDLERS[args.command]
        if args.command in SUITES:
            result = handler(args)
        else:
            result = handler(load_workspace(args.workspace, strict=not args.lenient), args)
    except CommandError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except workspace.WorkspaceValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:  # a workspace syntax or reference error, or a library refusal inside a command
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"error: failed assertion: {e}", file=sys.stderr)
        return 1
    if args.format == "machine-readable":
        payload = {k: v for k, v in result.items() if k != "lines"}
        payload["command"] = args.command
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in result["lines"]:
            print(line)
    return 0 if result["ok"] else 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
