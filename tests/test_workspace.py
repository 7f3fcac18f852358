import json
import pathlib

import pytest

from conftest import binary_table_literal
from rlsheaf import basechange, bundle, cli, fintop, fixtures, rlcore, suites, workspace


def bundled_text():
    from importlib import resources

    return resources.files("rlsheaf.data").joinpath("paper_fixtures.json").read_text("utf-8")


def test_bundled_corpus_loads_clean():
    ws = workspace.parse_workspace(bundled_text())
    assert not ws.diagnostics
    assert set(ws.lattices) == {"A2", "A3", "A4", "A6", "A8"}
    assert "etspecha4" in ws.rl_bundles
    assert "rle_m1" in ws.morphisms
    assert ws.expectations["filters"]["A4"]["F2"] == ["1", "a"]


def test_corpus_parse_builds_no_kernel_pair_and_reads_each_open_family_once(monkeypatch):
    calls = {"kernel_pair": 0, "topology_from_subbasis": 0}

    def counting(name, f):
        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return counted

    for mod, name in [(bundle, "kernel_pair"), (fintop, "topology_from_subbasis")]:
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    ws = workspace.parse_workspace(bundled_text())
    assert calls == {"kernel_pair": 0, "topology_from_subbasis": len(ws.spaces)}
    assert len(ws.spaces) == 14


def counted_calls(monkeypatch, *targets):
    """Count the calls of each (module, name) while the test runs; the program's caches start empty."""
    bundle._stalk_rows_pass.cache_clear()
    calls = {name: 0 for _, name in targets}

    def counting(name, f):
        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return counted

    for mod, name in targets:
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    return calls


def test_corpus_parse_checks_each_stalk_structure_bundle_and_pullback_once(monkeypatch):
    """17 stalks of 3 structures get 3 axiom passes, and the 4 rle_spaces reuse the checks of their
    rl_bundles entries.  The 4 rle_inv entries build 3 pullbacks: rle_m1 and rle_m3 both pull
    R_point_a2 back along the one map from spec_h_a4 to the point.  An axiom pass is one `_rl_gate`
    call: `verify_rl` makes one for each lattice, and `_stalk_rows_pass` one for each stalk structure."""
    calls = counted_calls(
        monkeypatch, (rlcore, "verify_rl"), (rlcore, "_rl_gate"), (bundle, "verify_rl_bundle"), (basechange, "pullback_rl_etale"))
    ws = workspace.parse_workspace(bundled_text())
    assert bundle._stalk_rows_pass.cache_info().misses == 3
    assert calls == {"verify_rl": len(ws.lattices), "_rl_gate": len(ws.lattices) + 3, "verify_rl_bundle": len(ws.rl_bundles),
                     "pullback_rl_etale": 3}
    assert (len(ws.lattices), len(ws.rl_bundles), len(ws.rle_spaces)) == (5, 7, 4)
    assert sum(isinstance(m, basechange.RLEInvMorphism) for m in ws.morphisms.values()) == 4


def test_an_rl_bundle_is_checked_where_it_is_admitted(monkeypatch):
    """A parse checks each of its 7 rl_bundles entries once and builds its 4 rle_spaces entries on the
    etales it admitted, with no check of their own; an `RLESpace` built directly runs the check once."""
    calls = counted_calls(monkeypatch, (bundle, "verify_rl_bundle"))
    ws = workspace.parse_workspace(bundled_text())
    assert (len(ws.rl_bundles), len(ws.rle_spaces)) == (7, 4) and calls == {"verify_rl_bundle": 7}
    x = next(iter(ws.rle_spaces.values()))
    assert basechange.RLESpace(x.base, x.etale) == x and calls == {"verify_rl_bundle": 8}


def test_corpus_parse_reads_each_lattice_order_once(monkeypatch):
    """`lattice_from_order` reads each of the 5 lattices' orders, and `verify_rl` gets that `_Order` back
    from the memo; with the 3 stalk axiom passes a parse builds 8 `_Order`s."""
    counted_calls(monkeypatch)
    rlcore._order_of.cache_clear()
    built, init = [0], rlcore._Order.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(rlcore._Order, "__init__", counted)
    ws = workspace.parse_workspace(bundled_text())
    info = rlcore._order_of.cache_info()
    assert (info.misses, info.hits, built[0]) == (len(ws.lattices), len(ws.lattices), 8)


def test_compose_rle_builds_one_pullback_per_base_map(monkeypatch, capsys):
    """The parse pulls back along 3 maps; compose-rle rle_m1 rle_m2 adds one along gf, which the
    composite's own check reuses.  An identity morphism pulls back once along the identity."""
    calls = counted_calls(monkeypatch, (basechange, "pullback_etale"), (basechange, "pullback_rl_etale"))
    assert cli.run(["compose-rle", "rle_m1", "rle_m2"]) == 0
    assert capsys.readouterr().out.startswith("base map: ")
    assert calls == {"pullback_etale": 4, "pullback_rl_etale": 4}
    ws = workspace.parse_workspace(bundled_text())
    calls.update(dict.fromkeys(calls, 0))
    basechange.identity_rle_morphism(ws.rle_spaces["R_speca4"])
    assert calls == {"pullback_etale": 1, "pullback_rl_etale": 1}


def test_corpus_parse_decides_every_open_family_and_table_without_the_walks(monkeypatch):
    """The corpus is read on masks and by key lookup; one family that is not a topology is named by
    one `_family_check` call, and the other spaces still take the mask decision."""
    calls = counted_calls(monkeypatch, (fintop, "_family_check"), (workspace, "_binary_table_walk"))
    workspace.parse_workspace(bundled_text())
    assert calls == {"_family_check": 0, "_binary_table_walk": 0}
    doc = json.loads(bundled_text())
    doc["spaces"]["sierpinski"]["opens"].remove([])
    ws = workspace.parse_workspace(doc, strict=False)
    assert ws.diagnostics[0] == "spaces.sierpinski: missing-empty-set: {}"
    assert calls == {"_family_check": 1, "_binary_table_walk": 0}


def corpus_tables():
    """(path, table, carrier, symmetrize) for each lattice's mul and each stalk's four tables in the corpus."""
    doc = json.loads(bundled_text())
    for name, lat in sorted(doc["lattices"].items()):
        yield f"lattices.{name}.mul", lat["mul"], set(lat["carrier"]), True
    for name, rb in sorted(doc["rl_bundles"].items()):
        for p, tabs in sorted(rb["stalk_ops"].items()):
            stalk = {t for t, q in rb["proj"].items() if q == p}
            for op, tab in sorted(tabs.items()):
                yield f"rl_bundles.{name}.stalk_ops.{p}.{op}", tab, stalk, op != "imp"


def single_entry_corruptions(table: dict, carrier: set[str]):
    """(table, carrier) with one entry, or one carrier element, corrupted: each key dropped, spelled with
    edge whitespace or a third part, or holding a value outside the carrier or one that is no string;
    each entry's mirror given a different value; and an element renamed to hold a ','."""
    def with_entry(i, key, value):
        return {**dict(list(table.items())[:i]), key: value, **dict(list(table.items())[i + 1:])}

    odd_values = [None, 1, 1.5, True, ["x"], {}]
    for i, (key, v) in enumerate(table.items()):
        x, y = key.split(",")
        yield {k: w for k, w in table.items() if k != key}, carrier
        yield with_entry(i, [f" {key}", f"{x} ,{y}", f"{key}\t"][i % 3], v), carrier
        yield with_entry(i, f"{key},{x}", v), carrier
        yield with_entry(i, key, "zz"), carrier
        yield with_entry(i, key, odd_values[i % len(odd_values)]), carrier
        other = next((c for c in sorted(carrier) if c != v), None)
        if x != y and other is not None:
            yield {**table, f"{y},{x}": other}, carrier
    el = min(carrier)
    yield table, carrier - {el} | {f"{el},q"}


def test_table_reader_matches_the_per_key_reader_on_every_single_entry_corruption():
    cases = 0
    for path, table, carrier, symmetrize in corpus_tables():
        for raw, c in [(table, carrier), *single_entry_corruptions(table, carrier)]:
            cases += 1
            try:
                want = binary_table_literal(raw, c, path, symmetrize)
            except workspace.WorkspaceSyntaxError as e:
                with pytest.raises(workspace.WorkspaceSyntaxError) as got:
                    workspace._parse_binary_table(raw, c, path, symmetrize)
                assert (type(got.value), str(got.value)) == (type(e), str(e))
                continue
            assert list(workspace._parse_binary_table(raw, c, path, symmetrize).items()) == list(want.items())
    assert cases > 2000


@pytest.mark.parametrize("opens, error", [
    ([["zz"], ["x", 1]], "spaces.s.opens[1][1]: expected a string, got int"),
    ([["x"], ["y", "y"]], "spaces.s.opens[1]: duplicate points"),
    ([[], ["x"], ["x", "x"], ["x", "y"]], "spaces.s.opens[2]: duplicate points"),
    ([["x"], "y"], "spaces.s.opens: expected a list of lists"),
])
def test_a_syntax_error_in_any_open_comes_before_a_topology_error(opens, error):
    """The open that cannot be read is named, whether or not the family would be a topology."""
    doc = {"spaces": {"s": {"points": ["x", "y"], "opens": opens}}}
    for strict in (True, False):
        with pytest.raises(workspace.WorkspaceSyntaxError) as e:
            workspace.parse_workspace(doc, strict=strict)
        assert str(e.value) == error


def test_check_rl_bundle_reuses_the_report_of_the_parse(monkeypatch, capsys):
    calls = counted_calls(monkeypatch, (bundle, "verify_rl_bundle"))
    assert cli.run(["check-rl-bundle", "etspecha4"]) == 0
    assert capsys.readouterr().out == "rl-bundle: valid\n"
    assert calls == {"verify_rl_bundle": 7}


@pytest.mark.parametrize("argv", [["quotient", "A6", "d,1"], ["gamma", "R_speca4"]])
def test_quotient_and_gamma_check_their_algebra_once(argv, monkeypatch, capsys):
    """The parse makes 8 axiom passes, each one `_rl_gate` call (5 lattices through `verify_rl`, 3 stalk
    structures); `quotient` and `pointwise_rl_on_sections` each refuse an algebra that fails, so each
    command adds one."""
    calls = counted_calls(monkeypatch, (rlcore, "verify_rl"), (rlcore, "_rl_gate"))
    assert cli.run(argv) == 0
    assert capsys.readouterr().out.endswith("verify_rl: valid\n")
    assert calls == {"verify_rl": 6, "_rl_gate": 9}


def test_law_suite_builds_one_pullback_per_base_map_and_etale(monkeypatch):
    calls = counted_calls(monkeypatch, (basechange, "pullback_etale"))
    assert suites.law_suite(seed=1).ok
    assert calls == {"pullback_etale": 7}


def test_lambda_iso_builds_no_bundle_morphism(monkeypatch):
    """The comparison map is checked to be a homeomorphism, and lies over the base by construction."""
    et = fixtures.et_spec_h_a4()
    pick_f2 = fintop.space_map(fixtures.space_point(), et.base, {"pt": "F2"})
    calls = counted_calls(monkeypatch, (bundle.BundleMorphism, "__post_init__"))
    lam = basechange.lambda_iso(pick_f2, fintop.identity_map(et.base), et.bundle)
    assert fintop.is_homeomorphism(lam)
    assert calls == {"__post_init__": 0}


@pytest.mark.parametrize("lattice", ["A4", "A6", "A8"])
@pytest.mark.parametrize("kind", ["max", "min", "spec"])
def test_corpus_classification_rows_name_the_selected_filters(lattice, kind):
    """expectations.classification (Table 5) against the filters that all_filters selects, named by expectations.filters."""
    ws = workspace.parse_workspace(bundled_text())
    names = {frozenset(v): k for k, v in ws.expectations["filters"][lattice].items()}
    selected = rlcore.all_filters(ws.lattices[lattice]).select(kind)
    assert sorted(ws.expectations["classification"][lattice][kind]) == sorted(names[f] for f in selected)


def test_lenient_parse_admits_the_sections_in_dependency_order():
    """One entry fails its own check in each section (a bundle is added, as the corpus has none): the
    sections' first diagnostics come in the order the parse admits them."""
    doc = json.loads(bundled_text())
    doc["lattices"]["A8"]["mul"]["1,1"] = "0"
    doc["spaces"]["sierpinski"]["opens"].remove([])
    doc["maps"]["pick_f2"]["table"] = {"pt": "zz"}
    doc["bundles"] = {"fold": {"total": "disc2", "base": "point", "proj": {"m": "pt", "n": "zz"}}}
    doc["rl_bundles"]["indiscrete_a2_over_point"]["zero"]["zz"] = "(pt|0)"
    doc["rle_spaces"]["R_stalk_f2"]["base"] = "disc2"
    doc["morphisms"]["f_a6_a4"]["table"]["1"] = "zz"
    ws = workspace.parse_workspace(doc, strict=False)
    broken = ["lattices.A8", "spaces.sierpinski", "maps.pick_f2", "bundles.fold", "rl_bundles.indiscrete_a2_over_point",
              "rle_spaces.R_stalk_f2", "morphisms.f_a6_a4"]
    assert all(any(d.startswith(f"{path}: ") and "depends on" not in d for d in ws.diagnostics) for path in broken)
    firsts = list(dict.fromkeys(d.split(".", 1)[0] for d in ws.diagnostics))
    assert firsts == ["lattices", "spaces", "maps", "bundles", "rl_bundles", "rle_spaces", "morphisms"]


def test_a_key_given_twice_is_a_syntax_error():
    """json.dumps cannot write a repeated key, so the document is raw text: a 2-chain named A4 before the real A4."""
    a2 = json.loads(bundled_text())["lattices"]["A2"]
    text = bundled_text().replace('"lattices": {', '"lattices": {"A4": ' + json.dumps(a2) + ", ", 1)
    with pytest.raises(workspace.WorkspaceSyntaxError, match=r"^document: duplicate key 'A4'$"):
        workspace.parse_workspace(text)
    with pytest.raises(workspace.WorkspaceSyntaxError, match=r"^document: duplicate key 'x'$"):
        workspace.parse_workspace('{"spaces": {"s": {"points": ["x"], "opens": [[], ["x"]]}}, "maps": {"x": 1, "x": 1}}')


def test_empty_document_gives_empty_workspace():
    ws = workspace.parse_workspace("{}")
    assert not ws.lattices and not ws.spaces and not ws.bundles


def test_unknown_top_level_key_rejected():
    with pytest.raises(workspace.WorkspaceSyntaxError):
        workspace.parse_workspace('{"widgets": {}}')


def test_unknown_entry_key_rejected():
    doc = {"spaces": {"s": {"points": ["x"], "opens": [[], ["x"]], "color": "red"}}}
    with pytest.raises(workspace.WorkspaceSyntaxError):
        workspace.parse_workspace(json.dumps(doc))


def test_invalid_json_is_syntax_error():
    with pytest.raises(workspace.WorkspaceSyntaxError):
        workspace.parse_workspace("{not json")


def test_dangling_bundle_base_reference_names_the_key():
    doc = {
        "spaces": {"t": {"points": ["a"], "opens": [[], ["a"]]}},
        "bundles": {"b": {"total": "t", "base": "missing", "proj": {"a": "a"}}},
    }
    with pytest.raises(workspace.WorkspaceReferenceError) as err:
        workspace.parse_workspace(json.dumps(doc))
    assert "missing" in str(err.value)


def test_mul_symmetrization_and_conflict():
    base = {
        "carrier": ["0", "1"],
        "hasse": [["0", "1"]],
        "bot": "0",
        "top": "1",
    }
    ok = dict(base, mul={"0,0": "0", "0,1": "0", "1,1": "1"})
    ws = workspace.parse_workspace(json.dumps({"lattices": {"L": ok}}))
    assert ws.lattices["L"].mul[("1", "0")] == "0"
    bad = dict(base, mul={"0,0": "0", "0,1": "0", "1,0": "1", "1,1": "1"})
    with pytest.raises(workspace.WorkspaceSyntaxError):
        workspace.parse_workspace(json.dumps({"lattices": {"L": bad}}))


def test_incomplete_mul_table_is_parse_error():
    doc = {
        "lattices": {
            "L": {
                "carrier": ["0", "1"],
                "hasse": [["0", "1"]],
                "mul": {"1,1": "1"},
                "bot": "0",
                "top": "1",
            }
        }
    }
    with pytest.raises(workspace.WorkspaceSyntaxError):
        workspace.parse_workspace(json.dumps(doc))


def test_validation_failure_strict_vs_lenient():
    doc = {
        "spaces": {"s": {"points": ["x", "y"], "opens": [[], ["x"], ["y"]]}},
    }
    with pytest.raises(workspace.WorkspaceValidationError):
        workspace.parse_workspace(json.dumps(doc))
    ws = workspace.parse_workspace(json.dumps(doc), strict=False)
    assert ws.diagnostics and "spaces.s" in ws.diagnostics[0]
    assert "s" not in ws.spaces


def test_leq_form_lattice():
    doc = {
        "lattices": {
            "L": {
                "carrier": ["0", "1"],
                "leq": [["0", "1"]],
                "mul": {"0,0": "0", "0,1": "0", "1,1": "1"},
                "bot": "0",
                "top": "1",
            }
        }
    }
    ws = workspace.parse_workspace(json.dumps(doc))
    assert rlcore.verify_rl(ws.lattices["L"]).ok


def test_round_trip_serialize_parse():
    ws = workspace.parse_workspace(bundled_text())
    doc = workspace.serialize_workspace(ws)
    ws2 = workspace.parse_workspace(json.dumps(doc))
    assert workspace.serialize_workspace(ws2) == doc
    assert set(ws2.lattices) == set(ws.lattices)
    assert all(ws2.lattices[k] == ws.lattices[k] for k in ws.lattices)
    assert all(ws2.spaces[k] == ws.spaces[k] for k in ws.spaces)
    assert set(ws2.rl_bundles) == set(ws.rl_bundles)


@pytest.mark.parametrize(
    "doc",
    [
        {"lattices": []},
        {"lattices": {"L": {"carrier": 5, "hasse": [], "mul": {}, "bot": "0", "top": "0"}}},
        {"spaces": {"S": {"points": "xy", "opens": [[], ["x", "y"]]}}},
    ],
    ids=["section-not-object", "carrier-not-list", "points-not-list"],
)
def test_malformed_shapes_are_syntax_errors(doc):
    with pytest.raises(workspace.WorkspaceSyntaxError):
        workspace.parse_workspace(json.dumps(doc))
    with pytest.raises(workspace.WorkspaceSyntaxError):
        workspace.parse_workspace(json.dumps(doc), strict=False)


def test_serializing_the_parsed_corpus_gives_back_the_corpus():
    """Every reference keeps its name, though some spaces of the corpus are equal (spec_h_a4 == max_d_a6)."""
    doc = json.loads(bundled_text())
    out = workspace.serialize_workspace(workspace.parse_workspace(doc))
    for lat in out["lattices"].values():
        del lat["imp"]  # derived on loading, so the corpus leaves it out
    assert out == {key: section for key, section in doc.items() if section}


def test_serializing_a_plain_bundle_gives_it_back():
    doc = json.loads(bundled_text())
    doc["bundles"] = {"fold": {"total": "disc2", "base": "point", "proj": {"m": "pt", "n": "pt"}}}
    assert workspace.serialize_workspace(workspace.parse_workspace(doc))["bundles"] == doc["bundles"]


def test_fixture_corpus_regenerates_byte_identically():
    import importlib.util

    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "build_fixture_corpus.py"
    spec = importlib.util.spec_from_file_location("build_fixture_corpus", script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.corpus_text() == bundled_text()


def test_a_stalk_point_no_key_can_name_is_refused():
    doc = json.loads(bundled_text())
    entry = doc["rl_bundles"]["a2_over_point"]
    space = doc["spaces"][entry["total"]]
    renamed = {"(pt|0)": " t0"}

    def rename(node):
        if isinstance(node, dict):
            return {",".join(renamed.get(k, k) for k in key.split(",")): rename(v) for key, v in node.items()}
        if isinstance(node, list):
            return [rename(v) for v in node]
        return renamed.get(node, node)

    doc["rl_bundles"]["a2_over_point"], doc["spaces"][entry["total"]] = rename(entry), rename(space)
    for strict in (True, False):
        with pytest.raises(workspace.WorkspaceSyntaxError, match=r"^rl_bundles\.a2_over_point\.stalk_ops\.pt\.\w+: ' t0' cannot be named"):
            workspace.parse_workspace(json.dumps(doc), strict=strict)
