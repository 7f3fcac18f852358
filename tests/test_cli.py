import argparse
import contextlib
import io
import itertools
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_parser_literal, mixed_chain_bundle, verify_rl_literal
from rlsheaf import cli, fixtures, rlcore, workspace

RUN = [sys.executable, "-m", "rlsheaf"]


def run_cli(*args, workspace=None, env_extra=None):
    cmd = list(RUN)
    if workspace:
        cmd += ["--workspace", str(workspace)]
    cmd += list(args)
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_filters_command_prints_table4():
    r = run_cli("filters", "A4")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "F1 = {1}",
        "F2 = {1,a}",
        "F3 = {1,b}",
        "F4 = {0,1,a,b}",
    ]


def test_spectrum_command_matches_table6_row1():
    r = run_cli("spectrum", "A4", "--set", "spec", "--flavor", "hull")
    assert r.returncode == 0
    assert "open: {F2}" in r.stdout and "open: {F2,F3}" in r.stdout
    assert "expectation A4:spec:hull: match" in r.stdout


def test_spectrum_min_p_a8_reports_deviation():
    r = run_cli("spectrum", "A8", "--set", "min", "--flavor", "patch")
    assert r.returncode == 0
    assert "documented deviation" in r.stdout


def test_sheafify_report_line():
    r = run_cli("sheafify", "indiscrete_a2_over_point")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "etale: yes; germs: 2; counit injective/open/continuous: yes"


def test_validate_and_law_suite_exit_zero_on_shipped_corpus():
    assert run_cli("validate").returncode == 0
    assert run_cli("law-suite").returncode == 0


def test_unknown_command_exits_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_unknown_object_exits_2():
    r = run_cli("filters", "A999")
    assert r.returncode == 2
    assert "A999" in r.stderr


def test_quotient_rejects_non_filter_with_exit_1():
    r = run_cli("quotient", "A4", "a,b")
    assert r.returncode == 1


def test_workspace_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("validate", workspace=bad).returncode == 2
    dangling = tmp_path / "dangling.json"
    dangling.write_text(
        json.dumps(
            {
                "spaces": {"t": {"points": ["a"], "opens": [[], ["a"]]}},
                "bundles": {"b": {"total": "t", "base": "nope", "proj": {"a": "a"}}},
            }
        ),
        encoding="utf-8",
    )
    assert run_cli("validate", workspace=dangling).returncode == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps({"spaces": {"s": {"points": ["x", "y"], "opens": [[], ["x"], ["y"]]}}}),
        encoding="utf-8",
    )
    assert run_cli("validate", workspace=invalid).returncode == 1
    r = run_cli("--lenient", "validate", workspace=invalid)
    assert r.returncode == 1
    assert "diagnostic" in r.stdout


def test_machine_readable_format():
    r = run_cli("--format", "machine-readable", "filters", "A6")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["command"] == "filters"
    assert payload["ok"] is True
    assert {f["name"] for f in payload["filters"]} == {"F1", "F2", "F3", "F4", "F5"}


def test_sections_command_with_open():
    r = run_cli("sections", "etspecha4", "--open", "F2")
    assert r.returncode == 0
    assert "sections over {F2}: 2" in r.stdout


def test_check_commands():
    assert run_cli("check-etale", "etspecha4").returncode == 0
    assert run_cli("check-etale", "indiscrete_a2_over_point").returncode == 1
    assert run_cli("check-rl-bundle", "etminpa8").returncode == 0
    assert run_cli("counit-check", "indiscrete_a2_over_point").returncode == 0


def test_pullback_command():
    r = run_cli("pullback", "incl_f2", "etspecha4")
    assert r.returncode == 0
    assert "(F2|0_1)" in r.stdout and "etale: yes" in r.stdout


def test_compose_rle_and_gamma():
    assert run_cli("compose-rle", "rle_m1", "rle_m2").returncode == 0
    r = run_cli("gamma", "R_speca4")
    assert r.returncode == 0
    assert "4 sections" in r.stdout


def test_export_dot():
    r = run_cli("export-dot", "A4")
    assert r.returncode == 0
    assert r.stdout.startswith('digraph "A4"')
    assert '"0" -> "a"' in r.stdout
    assert run_cli("export-dot", "spec_h_a4").returncode == 0
    assert run_cli("export-dot", "etspecha4").returncode == 0
    assert run_cli("export-dot", "nothing").returncode == 2


def test_seed_env_variable_accepted():
    r = run_cli("law-suite", env_extra={"RLSHEAF_SEED": "12345"})
    assert r.returncode == 0


def test_run_function_directly():
    assert cli.run(["filters", "A4"]) == 0
    assert cli.run(["check-etale", "indiscrete_a2_over_point"]) == 1


def test_library_value_error_exits_2_with_one_error_line():
    # incl_f2 lands in spec_h_a4, not in the one-point base of a2_over_point
    r = run_cli("pullback", "incl_f2", "a2_over_point")
    assert r.returncode == 2
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


def test_pullback_with_two_pairs_sharing_an_id_exits_2(tmp_path):
    # (p|q, r) and (p, q|r) would both be named (p|q|r)
    def disc(pts):
        return {"points": pts, "opens": [[], *[[p] for p in pts], pts]}

    doc = {
        "spaces": {"D": disc(["p|q", "p"]), "T": disc(["r", "q|r"]), "B": disc(["b"])},
        "maps": {"f": {"dom": "D", "cod": "B", "table": {"p|q": "b", "p": "b"}}},
        "bundles": {"e": {"total": "T", "base": "B", "proj": {"r": "b", "q|r": "b"}}},
    }
    argv = ["--format", "machine-readable", "pullback", "f", "e"]
    assert run_with_output(doc, argv, tmp_path) == (2, "", "error: two pairs share the id (p|q|r)\n")


GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"


@pytest.mark.parametrize(
    "entry",
    json.loads(GOLDEN.read_text("utf-8")),
    ids=lambda e: " ".join(e["argv"]) + "".join(f" [{k}={v}]" for k, v in e["env"].items()),
)
def test_machine_readable_output_matches_golden_capture(entry, monkeypatch, capsys):
    """Byte equality with scripts/capture_cli_golden.py's record of the corpus commands."""
    for key, value in entry["env"].items():
        monkeypatch.setenv(key, value)
    rc = cli.run(["--format", "machine-readable", *entry["argv"]])
    assert (rc, capsys.readouterr().out) == (entry["exit"], entry["stdout"])


CORPUS = resources.files("rlsheaf.data").joinpath("paper_fixtures.json").read_text("utf-8")


def corpus_with(path, value):
    """The corpus document with the entry at `path` (a key sequence) replaced by `value`."""
    return corpus_with_each((path, value))


def corpus_with_each(*edits):
    """The corpus document with each (path, value) replacement made in turn."""
    doc = json.loads(CORPUS)
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


def run_with_output(doc, argv, tmp_path):
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(["--workspace", str(ws), *argv])
    return rc, out.getvalue(), err.getvalue()


def run_in_process(doc, argv, tmp_path):
    rc, _, err = run_with_output(doc, argv, tmp_path)
    return rc, err


SPECTRUM_A4 = ["spectrum", "A4", "--set", "spec", "--flavor", "hull"]


@pytest.mark.parametrize(
    "doc,argv",
    [
        ({"lattices": {"L": {"carrier": ["a", "b"], "hasse": [["a", "c"]], "mul": {"a,a": "a", "a,b": "a", "b,b": "b"},
                             "bot": "a", "top": "b"}}}, ["validate"]),
        ({"lattices": {"L": {"carrier": ["a", "b"], "leq": [["c", "b"]], "mul": {"a,a": "a", "a,b": "a", "b,b": "b"},
                             "bot": "a", "top": "b"}}}, ["validate"]),
        (corpus_with(["expectations", "filters"], []), ["validate"]),
        (corpus_with(["expectations", "filters", "A4"], {"F": 3}), ["filters", "A4"]),
        (corpus_with(["expectations", "filters", "A4"], [1]), ["classify", "A4"]),
        (corpus_with(["expectations", "spectra", "A4:spec:hull"], 5), SPECTRUM_A4),
        (corpus_with(["expectations", "spectra"], []), SPECTRUM_A4),
        (corpus_with(["expectations", "deviations", "A4:spec:hull"], {}), SPECTRUM_A4),
    ],
    ids=["hasse-stray-element", "leq-stray-element", "filters-not-object", "filter-not-list", "filter-table-not-object",
         "spectrum-not-list", "spectra-not-object", "deviation-without-computed"],
)
def test_malformed_documents_exit_2_with_one_error_line(doc, argv, tmp_path):
    rc, err = run_in_process(doc, argv, tmp_path)
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [["filters", "A4"], ["classify", "A4"], SPECTRUM_A4])
def test_filter_names_that_miss_a_filter_exit_1(argv, tmp_path):
    doc = corpus_with(["expectations", "filters", "A4"], {"F1": ["1"], "F2": ["0", "1", "a", "b"]})
    rc, err = run_in_process(doc, argv, tmp_path)
    assert (rc, err) == (1, "error: expectations.filters.A4 does not name the filter {1,a}\n")


@pytest.mark.parametrize("argv", [["filters", "A4"], ["classify", "A4"], SPECTRUM_A4])
def test_two_names_for_one_filter_exit_1(argv, tmp_path):
    names = {"F1": ["1"], "F2": ["1", "a"], "F3": ["1", "b"], "F4": ["0", "1", "a", "b"], "X": ["a", "1"]}
    rc, err = run_in_process(corpus_with(["expectations", "filters", "A4"], names), argv, tmp_path)
    assert (rc, err) == (1, "error: expectations.filters.A4 names the filter {1,a} twice (F2, X)\n")


def lattice_of(raw):
    """The lattice the workspace builds from a corpus `leq` entry, with the library's own constructor."""
    carrier = raw["carrier"]
    leq = frozenset(map(tuple, raw["leq"])) | frozenset((x, x) for x in carrier)

    def table(tab):
        return {tuple(key.split(",")): v for key, v in tab.items()}

    return rlcore.lattice_from_order(carrier, leq, table(raw["mul"]), raw["bot"], raw["top"], table(raw["imp"]))


def test_lenient_validate_reports_the_first_violation_of_the_literal_check(tmp_path):
    doc = json.loads(CORPUS)
    a6, a8 = doc["lattices"]["A6"], doc["lattices"]["A8"]
    a6["mul"]["a,c"] = a6["mul"]["c,a"] = "c"
    # explicit imp tables, so that verify_rl and not derive_residual judges the corrupted lattices
    for raw, lat in [(a6, fixtures.rl_a6()), (a8, fixtures.rl_a8())]:
        raw["imp"] = {f"{x},{y}": v for (x, y), v in lat.imp.items()}
    a8["imp"]["a,0"] = "f"
    del doc["morphisms"]["f_a6_a4"]  # it would name a lattice the lenient parse leaves out
    rc, out, _ = run_with_output(doc, ["--lenient", "validate"], tmp_path)
    diagnostics = [line for line in out.splitlines() if line.startswith("diagnostic: ")]
    expected = [f"diagnostic: lattices.{name}: {verify_rl_literal(lattice_of(raw))[0]}" for name, raw in [("A6", a6), ("A8", a8)]]
    assert rc == 1
    assert diagnostics == expected


def test_lenient_validate_reports_a_morphism_on_a_left_out_lattice_after_the_lattice(tmp_path):
    doc = json.loads(CORPUS)
    a6 = doc["lattices"]["A6"]
    a6["mul"]["a,c"] = a6["mul"]["c,a"] = "c"
    rc, out, err = run_with_output(doc, ["--lenient", "validate"], tmp_path)
    diagnostics = [line for line in out.splitlines() if line.startswith("diagnostic: ")]
    assert (rc, err) == (1, "")
    assert len(diagnostics) == 2 and diagnostics[0].startswith("diagnostic: lattices.A6: ")
    assert diagnostics[1] == "diagnostic: morphisms.f_a6_a4: depends on lattices.A6, which has a diagnostic"
    # a name no entry declares is still a reference error
    doc["morphisms"]["f_a6_a4"]["cod"] = "A99"
    rc, err = run_in_process(doc, ["--lenient", "validate"], tmp_path)
    assert (rc, err) == (2, "error: morphisms.f_a6_a4: unknown lattice 'A99'\n")


@pytest.mark.parametrize("n", [2, 13])
@pytest.mark.parametrize("lenient", [False, True])
def test_open_family_with_a_member_outside_the_points_exits_1(n, lenient, tmp_path):
    """13 points give 8,192 opens; the stray member is named first at every size."""
    pts = [f"p{i}" for i in range(n)]
    opens = [list(c) for r in range(n + 1) for c in itertools.combinations(pts, r)] + [["p0", "zz"]]
    rc, out, err = run_with_output({"spaces": {"s": {"points": pts, "opens": opens}}}, ["--lenient"] * lenient + ["validate"], tmp_path)
    line = "spaces.s: member-not-subset: {p0,zz}"
    assert (rc, out, err) == ((1, f"diagnostic: {line}\n", "") if lenient else (1, "", f"error: {line}\n"))


@pytest.mark.parametrize("lenient", [False, True])
def test_open_family_generating_more_than_2_20_opens_is_checked_not_refused(lenient, tmp_path):
    """The 4,527 subsets of at most 3 of 30 points, plus the whole set, generate the 2^30 subsets;
    the family is checked on its U_p and its first missing union named."""
    pts = [f"p{i:02d}" for i in range(30)]
    opens = [list(c) for r in range(4) for c in itertools.combinations(pts, r)] + [pts]
    rc, out, err = run_with_output({"spaces": {"s": {"points": pts, "opens": opens}}}, ["--lenient"] * lenient + ["validate"], tmp_path)
    line = "spaces.s: family-incomplete: {p00,p01,p02,p03}"
    assert (rc, out, err) == ((1, f"diagnostic: {line}\n", "") if lenient else (1, "", f"error: {line}\n"))


@pytest.mark.parametrize("lenient", [False, True])
def test_rl_bundle_with_discontinuous_proper_maps_exits_1(lenient, tmp_path):
    """Valid stalks over a Sierpinski base whose mul and imp are not continuous on the kernel pair."""
    rb = mixed_chain_bundle()
    ws = workspace.Workspace(spaces={"base": rb.base, "total": rb.total}, rl_bundles={"mixed": rb})
    doc = workspace.serialize_workspace(ws)
    rc, out, err = run_with_output(doc, ["--lenient"] * lenient + ["validate"], tmp_path)
    line = "rl_bundles.mixed: proper-map-discontinuous[mul]: ((y|m)|(y|m)) -> ((x|m)|(x|m))"
    if lenient:
        assert (rc, out, err) == (1, f"space base: valid\nspace total: valid\ndiagnostic: {line}\n", "")
    else:
        assert (rc, out, err) == (1, "", f"error: {line}\n")


A2_LEQ = {"carrier": ["0", "1"], "leq": [["0", "1"]], "mul": {"0,0": "0", "0,1": "0", "1,1": "1"}, "bot": "0", "top": "1"}


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"spaces": {"s": {"points": ["1"], "opens": [[], [1]]}}}, "spaces.s.opens[1][0]: expected a string, got int"),
        ({"lattices": {"L": dict(A2_LEQ, carrier=[0, "1"])}}, "lattices.L.carrier[0]: expected a string, got int"),
        ({"lattices": {"L": dict(A2_LEQ, mul={"0,0": "0", "0,1": "0", "1,1": 1})}}, "lattices.L.mul.1,1: expected a string, got int"),
        ({"lattices": {"L": dict(A2_LEQ, bot=0)}}, "lattices.L.bot: expected a string, got int"),
    ],
    ids=["open-member", "carrier", "table-value", "bot"],
)
@pytest.mark.parametrize("lenient", [False, True])
def test_a_number_where_a_name_belongs_exits_2(doc, message, lenient, tmp_path):
    """Each of these would name an element if the number were read as its decimal string."""
    assert run_with_output(doc, ["--lenient"] * lenient + ["validate"], tmp_path) == (2, "", f"error: {message}\n")


S1 = {"points": ["1"], "opens": [[], ["1"]]}


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"lattices": {"L": dict(A2_LEQ, leq=[["0", "1"], ["0", 1]])}}, "lattices.L.leq[1][1]: expected a string, got int"),
        ({"spaces": {"s": S1}, "maps": {"m": {"dom": "s", "cod": "s", "table": {"1": 1}}}}, "maps.m.table.1: expected a string, got int"),
    ],
    ids=["order-pair", "map-value"],
)
@pytest.mark.parametrize("lenient", [False, True])
def test_a_number_in_an_order_pair_or_a_map_table_exits_2(doc, message, lenient, tmp_path):
    """The element that is not a string is named by its path, which is built only once it fails."""
    assert run_with_output(doc, ["--lenient"] * lenient + ["validate"], tmp_path) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("lenient", [False, True])
def test_a_workspace_key_given_twice_exits_2(lenient, tmp_path):
    """A second lattices.A4 (a 2-chain) before the real one is refused, not read as the later entry."""
    a2 = json.dumps(json.loads(CORPUS)["lattices"]["A2"])
    ws = tmp_path / "ws.json"
    ws.write_text(CORPUS.replace('"lattices": {', '"lattices": {"A4": ' + a2 + ", ", 1), encoding="utf-8")
    for argv in (["validate"], ["filters", "A4"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(["--workspace", str(ws), *["--lenient"] * lenient, *argv])
        assert (rc, out.getvalue(), err.getvalue()) == (2, "", "error: document: duplicate key 'A4'\n")


@pytest.mark.parametrize("lenient", [False, True])
def test_a_space_with_a_point_given_twice_exits_2(lenient, tmp_path):
    doc = corpus_with(["spaces", "sierpinski", "points"], ["x", "y", "x"])
    rc, out, err = run_with_output(doc, ["--lenient"] * lenient + ["validate"], tmp_path)
    assert (rc, out, err) == (2, "", "error: spaces.sierpinski.points: duplicate points\n")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=8,
)


def corpus_with_rl_bundle_moved(name, dropped):
    """The corpus with the `rl_bundles` entry `name` moved into `bundles`, without its key `dropped`."""
    doc = json.loads(CORPUS)
    entry = doc["rl_bundles"].pop(name)
    del entry[dropped]
    doc.setdefault("bundles", {})[name] = entry
    return doc


@pytest.mark.parametrize("dropped", ["zero", "one"])
@pytest.mark.parametrize("lenient", [False, True])
def test_bundles_entry_with_stalk_ops_needs_both_constants(dropped, lenient, tmp_path):
    doc = corpus_with_rl_bundle_moved("a2_over_point", dropped)
    rc, out, err = run_with_output(doc, ["--lenient"] * lenient + ["validate"], tmp_path)
    assert (rc, out, err) == (2, "", f"error: bundles.a2_over_point: missing keys ['{dropped}']\n")


@st.composite
def corpus_variants(draw):
    """The corpus with one section, one entry of a section or one entry of an entry replaced by any JSON
    value, or with one `rl_bundles` entry moved into `bundles` and one of its keys dropped."""
    if draw(st.booleans()):
        rl_bundles = json.loads(CORPUS)["rl_bundles"]
        name = draw(st.sampled_from(sorted(rl_bundles)))
        return corpus_with_rl_bundle_moved(name, draw(st.sampled_from(sorted(rl_bundles[name]))))
    node, path = json.loads(CORPUS), []
    for _ in range(draw(st.integers(1, 3))):
        if path and not isinstance(node, dict):
            break
        key = draw(st.sampled_from(sorted(node)) | st.text(max_size=4)) if node else draw(st.text(max_size=4))
        path.append(key)
        node = node.get(key) if isinstance(node, dict) else None
    return corpus_with(path, draw(JSON_VALUES))


@given(
    doc=corpus_variants(),
    lattice=st.sampled_from(["A4", "A6", "A8"]),
    spectrum=st.sampled_from(["A4:spec:hull", "A6:max:dual", "A8:min:patch"]),
    lenient=st.booleans(),
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_corpus_edit_keeps_the_exit_code_contract(tmp_path_factory, doc, lattice, spectrum, lenient):
    name, kind, flavor = spectrum.split(":")
    commands = [["validate"], ["filters", lattice], ["classify", lattice], ["spectrum", name, "--set", kind, "--flavor", flavor]]
    tmp = tmp_path_factory.mktemp("fuzz")
    for argv in commands:
        rc, err = run_in_process(doc, ["--lenient"] * lenient + argv, tmp)
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in err


@pytest.mark.parametrize("spelling", ["", ","])
def test_sections_over_an_empty_open_list_is_the_empty_subset(spelling, tmp_path):
    """Only an absent --open means the whole base; an empty list names the empty subset."""
    rc, out, err = run_with_output(json.loads(CORPUS), ["sections", "etspecha4", "--open", spelling], tmp_path)
    assert (rc, out, err) == (0, "sections over {}: 1\n  {}\n", "")


@pytest.mark.parametrize("spelling, twice", [("F2,F2", "F2"), (" F3 ,F2, F3", "F3"), ("zz,zz", "zz")])
def test_sections_over_an_open_list_naming_a_point_twice_exits_2(spelling, twice, tmp_path):
    """--open is read as a set, so a point listed twice is refused (as the workspace refuses it) and not merged."""
    rc, out, err = run_with_output(json.loads(CORPUS), ["sections", "etspecha4", "--open", spelling], tmp_path)
    assert (rc, out, err) == (2, "", f"error: --open lists {twice} twice\n")


@pytest.mark.parametrize("spelling, twice", [("a,a,1", "a"), (" 1 ,a, 1", "1"), ("zz,zz", "zz")])
def test_quotient_by_a_filter_naming_an_element_twice_exits_2(spelling, twice, tmp_path):
    """The filter is read as a set, as --open is: {1,a} is a filter of A4, yet `a,a,1` is refused and not merged."""
    assert run_with_output(json.loads(CORPUS), ["quotient", "A4", "a,1"], tmp_path)[0] == 0
    rc, out, err = run_with_output(json.loads(CORPUS), ["quotient", "A4", spelling], tmp_path)
    assert (rc, out, err) == (2, "", f"error: filter lists {twice} twice\n")


BAD_BUNDLE_MORPHISMS = [
    ({"kind": "bundle", "src": "etspecha4", "dst": "trivial_a2_over_spec_h_a4",
      "table": {"0_1": "(F3|0)", "0_2": "(F3|0)", "1_1": "(F2|1)", "1_2": "(F3|1)"}},
     "morphisms.bad: triangle over the base does not commute"),
    ({"kind": "bundle", "src": "indiscrete_a2_over_point", "dst": "a2_over_point",
      "table": {"(pt|0)": "(pt|0)", "(pt|1)": "(pt|1)"}},
     "morphisms.bad: bundle morphism is not continuous"),
]


@pytest.mark.parametrize("entry, line", BAD_BUNDLE_MORPHISMS, ids=["triangle", "continuity"])
@pytest.mark.parametrize("lenient", [False, True])
def test_a_bundle_morphism_from_the_workspace_is_checked(entry, line, lenient, tmp_path):
    """A table read from input is not one the search listed: BundleMorphism refuses a triangle that
    does not commute and a discontinuous map (here the identity of the A2 totals, from indiscrete to discrete)."""
    rc, out, err = run_with_output(corpus_with(["morphisms", "bad"], entry), ["--lenient"] * lenient + ["validate"], tmp_path)
    if lenient:
        assert (rc, err) == (1, "") and f"diagnostic: {line}" in out.splitlines()
    else:
        assert (rc, out, err) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "argv, rc, err",
    [
        (["filters", "NOPE"], 2, "error: unknown lattice 'NOPE'\n"),
        (["quotient", "A4", "a"], 1, "error: {a} is not a filter of A4\n"),
        (["sections", "etspecha4", "--open", "zz"], 2, "error: subset {zz} escapes the base\n"),
        (["compose-rle", "f_a6_a4", "rle_m1"], 2, "error: f_a6_a4 is not an rle_inv morphism\n"),
        (["compose-rle", "rle_m1", "rle_m1"], 1, "error: morphisms are not composable\n"),
        (["export-dot", "zz"], 2, "error: unknown object 'zz'\n"),
        (["sections", "zz"], 2, "error: sections: unknown bundle 'zz'\n"),
    ],
)
def test_a_name_the_command_cannot_use_exits_with_one_error_line(argv, rc, err, capsys):
    assert cli.run(argv) == rc
    assert capsys.readouterr() == ("", err)


def test_no_command_and_a_missing_workspace_exit_2(tmp_path, capsys):
    assert cli.run([]) == 2
    capsys.readouterr()
    assert cli.run(["--workspace", str(tmp_path / "missing.json"), "validate"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read workspace: ")


def test_a_workspace_that_is_not_utf8_cannot_be_read(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    assert cli.run(["--workspace", str(path), "validate"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot read workspace: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


FOLD = {"total": "disc2", "base": "point", "proj": {"m": "pt", "n": "pt"}}


def test_pullback_of_a_plain_bundle(tmp_path):
    doc = corpus_with_each((["bundles", "fold"], FOLD), (["maps", "id_point"], {"dom": "point", "cod": "point", "table": {"pt": "pt"}}))
    out = '{"command": "pullback", "etale": true, "ok": true, "total": ["(pt|m)", "(pt|n)"]}\n'
    assert run_with_output(doc, ["--format", "machine-readable", "pullback", "id_point", "fold"], tmp_path) == (0, out, "")


def test_a_bundles_entry_with_stalk_ops_is_admitted_as_an_rl_bundle(tmp_path):
    doc = json.loads(CORPUS)
    doc["bundles"] = {"etmaxda6": doc["rl_bundles"].pop("etmaxda6")}
    assert run_with_output(doc, ["check-rl-bundle", "etmaxda6"], tmp_path) == (0, "rl-bundle: valid\n", "")
    rc, out, err = run_with_output(doc, ["validate"], tmp_path)
    assert (rc, err) == (0, "")
    assert {"bundle etmaxda6: valid (continuous projection)", "rl_bundle etmaxda6: valid"} <= set(out.splitlines())


BREAK_DISC2 = (["spaces", "disc2", "opens"], [[], ["m"], ["n"]])
BREAK_A2 = (["rl_bundles", "a2_over_point", "zero"], {"pt": "(pt|0)", "zz": "(pt|0)"})
BREAK_ETSPECHA4 = (["rl_bundles", "etspecha4", "zero"], {"F2": "0_1", "F3": "0_2", "zz": "0_1"})


@pytest.mark.parametrize(
    "edits, line",
    [
        ([BREAK_DISC2], "maps.fold_disc2: depends on spaces.disc2"),
        ([BREAK_DISC2, (["bundles", "fold"], FOLD)], "bundles.fold: depends on spaces.disc2"),
        ([BREAK_A2], "rle_spaces.R_point_a2: depends on rl_bundles.a2_over_point"),
        ([BREAK_ETSPECHA4], "morphisms.collapse_etspecha4: depends on rl_bundles.etspecha4"),
        ([BREAK_A2], "morphisms.rle_m1: depends on rle_spaces.R_point_a2"),
    ],
    ids=["map", "bundle", "rle_space", "bundle-morphism", "rle_inv-morphism"],
)
def test_lenient_parse_leaves_out_what_depends_on_a_left_out_entry(edits, line, tmp_path):
    rc, out, err = run_with_output(corpus_with_each(*edits), ["--lenient", "validate"], tmp_path)
    assert (rc, err) == (1, "")
    assert f"diagnostic: {line}, which has a diagnostic" in out.splitlines()


def table_of(carrier, op):
    return {f"{x},{y}": op(x, y) for x in carrier for y in carrier}


EMPTY_STALK = {
    "spaces": {"pq": {"points": ["p", "q"], "opens": [[], ["p"], ["q"], ["p", "q"]]}, "t": {"points": ["t"], "opens": [[], ["t"]]}},
    "rl_bundles": {"e": {
        "total": "t", "base": "pq", "proj": {"t": "p"},
        "stalk_ops": {"p": {name: {"t,t": "t"} for name in ("join", "meet", "mul", "imp")},
                      "q": {name: {} for name in ("join", "meet", "mul", "imp")}},
        "zero": {"p": "t"}, "one": {"p": "t"},
    }},
}
SQUARE = ["0", "a", "b", "c", "d", "1"]
NOT_A_LATTICE = {"lattices": {"L": {
    "carrier": SQUARE,
    "leq": [["0", x] for x in SQUARE[1:]] + [[x, y] for x in "ab" for y in "cd"] + [[x, "1"] for x in SQUARE[1:-1]],
    "mul": table_of(SQUARE, lambda x, y: "0"), "bot": "0", "top": "1",
}}}
ALPHA = json.loads(CORPUS)["morphisms"]["rle_m1"]["alpha"]
ALPHA_SWAPPED = dict(ALPHA, **{"(F2|(pt|0))": ALPHA["(F3|(pt|1))"], "(F3|(pt|1))": ALPHA["(F2|(pt|0))"]})


@pytest.mark.parametrize(
    "doc, line",
    [
        (EMPTY_STALK, "rl_bundles.e: stalk-empty: q"),
        (corpus_with_each(BREAK_A2), "rl_bundles.a2_over_point: zero-not-a-map: map has extra keys"),
        (corpus_with(["rle_spaces", "bad"], {"base": "point", "etale": "indiscrete_a2_over_point"}),
         "rle_spaces.bad: projection is not a local homeomorphism"),
        (corpus_with(["rle_spaces", "bad"], {"base": "disc2", "etale": "a2_over_point"}),
         "rle_spaces.bad: etale does not live over the declared base"),
        (corpus_with(["morphisms", "rle_m1", "alpha"], ALPHA_SWAPPED),
         "morphisms.rle_m1: alpha is not an RL-bundle morphism: triangle fails at (F2|(pt|0))"),
        (NOT_A_LATTICE, "lattices.L: not a lattice: join/meet of (a,b) missing"),
    ],
    ids=["empty-stalk", "constant-off-the-base", "rle-space-not-etale", "rle-space-wrong-base", "alpha-off-the-base",
         "no-join"],
)
def test_an_input_the_checks_refuse_exits_1(doc, line, tmp_path):
    assert run_with_output(doc, ["validate"], tmp_path) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize("row, mismatch", [(["F2", "F3"], False), (["F9"], True), (["F1"], True)])
def test_validate_checks_each_classification_row(row, mismatch, tmp_path):
    rc, out, err = run_with_output(corpus_with(["expectations", "classification", "A4", "max"], row), ["validate"], tmp_path)
    assert (rc, err) == (int(mismatch), "")
    assert ("expectation classification[A4.max]: MISMATCH" in out.splitlines()) == mismatch


def test_validate_refuses_a_filters_row_that_names_a_filter_twice_before_reading_classification(tmp_path):
    """The row holds every filter, so it matches, but the classification rows cannot be named by it."""
    names = {"F1": ["1"], "F2": ["1", "a"], "F3": ["1", "b"], "F4": ["0", "1", "a", "b"], "X": ["a", "1"]}
    doc = corpus_with(["expectations", "filters", "A4"], names)
    assert run_with_output(doc, ["validate"], tmp_path) == (1, "", "error: expectations.filters.A4 names the filter {1,a} twice (F2, X)\n")


def test_a_classification_row_is_read_only_once_its_filters_row_matched(tmp_path):
    doc = corpus_with_each((["expectations", "filters", "A4", "F2"], ["1", "b"]), (["expectations", "classification", "A4", "max"], ["F9"]))
    rc, out, err = run_with_output(doc, ["validate"], tmp_path)
    assert (rc, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("expectation ")] == [
        "expectation filters[A4]: MISMATCH", "expectation filters[A6]: match", "expectation filters[A8]: match"]


@pytest.mark.parametrize(
    "path, value, argv, message",
    [
        (["expectations", "classification", "A4", "foo"], ["F1"], ["validate"], "expectations.classification.A4: unknown keys ['foo']"),
        (["spaces", "sierpinski", "opens"], [[], ["x", "x"], ["x", "y"]], ["validate"], "spaces.sierpinski.opens[1]: duplicate points"),
        (["expectations", "filters", "A4", "F2"], ["1", "a", "a"], ["filters", "A4"], "expectations.filters.A4.F2: duplicate names"),
    ],
    ids=["classification-kind", "open-point-twice", "expectation-name-twice"],
)
@pytest.mark.parametrize("lenient", [False, True])
def test_a_name_listed_twice_or_an_unknown_classification_kind_exits_2(path, value, argv, message, lenient, tmp_path):
    doc = corpus_with(path, value)
    assert run_with_output(doc, ["--lenient"] * lenient + argv, tmp_path) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("name", ["a,b", " a", "a ", "a\t"])
@pytest.mark.parametrize("lenient", [False, True])
def test_an_element_no_key_can_name_is_refused_once(name, lenient, tmp_path):
    """Keys are split on ',' and stripped, so such an element could never get a complete table."""
    lat = {"carrier": ["0", name], "hasse": [["0", name]], "mul": {"0,0": "0"}, "bot": "0", "top": name}
    rc, out, err = run_with_output({"lattices": {"L": lat}}, ["--lenient"] * lenient + ["validate"], tmp_path)
    assert (rc, out, err) == (2, "", f"error: lattices.L.mul: {name!r} cannot be named in an 'x,y' key\n")


def test_a_workspace_nested_too_deeply_exits_2_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert cli.run(["--workspace", str(path), "validate"]) == 2
    assert capsys.readouterr() == ("", "error: document: invalid JSON (nested too deeply)\n")


@pytest.mark.parametrize("seed", ["x", "1.5", ""])
def test_a_seed_that_is_not_an_integer_is_named_and_exits_2(seed, monkeypatch, capsys):
    monkeypatch.setenv("RLSHEAF_SEED", seed)
    assert cli.run(["law-suite"]) == 2
    assert capsys.readouterr() == ("", f"error: RLSHEAF_SEED must be an integer, got {seed!r}\n")


def parse_outcome(parse, argv):
    """What parsing `argv` gives: the namespace or the SystemExit code, with what was printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as e:
            result = ("SystemExit", e.code)
    return result, out.getvalue(), err.getvalue()


def assert_parsed_as_by_the_literal_parser(argv):
    assert parse_outcome(cli.parse_args, argv) == parse_outcome(build_parser_literal().parse_args, argv), argv


def command_args(name):
    """A value for each required argument of the command, from its argument table."""
    args = []
    for arg in cli.ARGUMENTS[name]:
        if isinstance(arg, str):
            args.append("x")
        elif arg[1].get("required"):
            args += [arg[0], arg[1]["choices"][0]]
    return args


PARSE_CASES = [[], ["-h"], ["--help"], ["nope"], ["--format", "xml", "validate"], ["--form=text", "filters", "A4"],
               ["validate", "--form=text"], ["--", "validate"], ["filters", "--", "A4"], ["filters", "A4", "--"],
               ["spectrum", "A4", "--set", "all", "--flavor", "hull"], ["spectrum", "A4", "--set", "spec", "--flavor", "flat"],
               ["spectrum", "A4", "--se", "spec", "--fl", "dual"], ["spectrum", "A4", "--set=max", "--flavor=patch"],
               ["sections", "b", "--open="], ["--bogus", "validate", "extra"], ["--lenient", "--workspace"]]
for _name in cli.HANDLERS:
    PARSE_CASES += [[_name, "-h"], [_name], [_name, *command_args(_name), "extra"], [_name, *command_args(_name)],
                    ["--lenient", _name, *command_args(_name)], ["--format", "machine-readable", _name, *command_args(_name)]]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_parse_args_agrees_with_the_eager_parser(argv):
    assert_parsed_as_by_the_literal_parser(argv)


def test_parse_args_agrees_with_the_eager_parser_on_drawn_argvs():
    tokens = ["-h", "--help", "--workspace", "w.json", "--format", "text", "machine-readable", "--form=text", "--lenient",
              "--len", "--", "-", "-x", "--bogus", "--set", "spec", "--se", "max", "--set=min", "--flavor", "hull", "--fl",
              "--open", "--open=", "a,b", "A4", "x", *cli.HANDLERS]
    rng = random.Random(0)
    for _ in range(300):
        assert_parsed_as_by_the_literal_parser([rng.choice(tokens) for _ in range(rng.randint(0, 6))])


def test_help_without_docstrings():
    r = subprocess.run([sys.executable, "-OO", *RUN[1:], "-h"], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "") and r.stdout.startswith("usage: rlsheaf [-h]")


def test_one_run_builds_the_top_level_parser_and_the_invoked_commands_only(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.run(["--format", "machine-readable", "filters", "A4"]) == 0
    assert built == ["rlsheaf", "rlsheaf filters"]
    assert list(cli.ARGUMENTS) == list(cli.HANDLERS)


def readme_argvs():
    """The first argv of each command in the README's CLI block, shell redirections dropped."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    argvs = {}
    for line in block.splitlines():
        if line.startswith("rlsheaf "):
            argv = shlex.split(line.partition(">")[0])[1:]
            argvs.setdefault(argv[0], argv)
    return argvs


def test_only_the_suites_run_without_parsing_a_workspace(monkeypatch, capsys):
    monkeypatch.setenv("RLSHEAF_SEED", "1")
    argvs = readme_argvs()
    assert sorted(argvs) == sorted(cli.HANDLERS)
    parse = workspace.parse_workspace
    calls = []

    def counting_parse(*args, **kwargs):
        calls.append(1)
        return parse(*args, **kwargs)

    monkeypatch.setattr(workspace, "parse_workspace", counting_parse)
    parses = {}
    for name, argv in argvs.items():
        calls.clear()
        cli.run(argv)
        parses[name] = len(calls)
    capsys.readouterr()
    assert parses == {name: 0 if name in ("law-suite", "adjunction-suite") else 1 for name in cli.HANDLERS}


BAD_WORKSPACES = {"not utf-8": b"\xff\xfe{}", "invalid json": b"{", "not an object": b"[]",
                  "lattices not an object": b'{"lattices": []}'}


@pytest.mark.parametrize("suite", ["law-suite", "adjunction-suite"])
def test_a_suite_ignores_workspace_and_lenient(suite, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RLSHEAF_SEED", "7")
    prefixes = [[], ["--lenient"], ["--workspace", str(tmp_path / "missing.json")]]
    for name, data in BAD_WORKSPACES.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        assert cli.run(["--workspace", str(path), "validate"]) == 2, name  # a command that reads it refuses it
        capsys.readouterr()
        prefixes.append(["--workspace", str(path)])
    outcomes = []
    for prefix in prefixes:
        rc = cli.run([*prefix, suite])
        outcomes.append((rc, *capsys.readouterr()))
    assert outcomes[0][0] == 0 and outcomes[0][1] and outcomes[0][2] == ""
    assert outcomes == [outcomes[0]] * len(prefixes)


STALK_OPS = json.loads(CORPUS)["rl_bundles"]["etspecha4"]["stalk_ops"]
F6_TO_F4 = json.loads(CORPUS)["morphisms"]["f_a6_a4"]["table"]
ADMISSION_ERRORS = {
    "leq-pair-too-short": (corpus_with(["lattices", "A2", "leq"], [["0"]]), "lattices.A2.leq: expected a list of [x,y] pairs"),
    "mul-not-an-object": (corpus_with(["lattices", "A2", "mul"], []), "lattices.A2.mul: expected an object keyed 'x,y'"),
    "leq-and-hasse": (corpus_with(["lattices", "A2", "hasse"], [["0", "1"]]),
                      "lattices.A2: exactly one of 'leq'/'hasse' is required"),
    "bot-outside": (corpus_with(["lattices", "A2", "bot"], "zz"), "lattices.A2: bot/top outside the carrier"),
    "map-table-not-an-object": (corpus_with(["maps", "fold_disc2", "table"], []),
                                "maps.fold_disc2.table: expected an object of point -> point"),
    "stalk-ops-not-an-object": (corpus_with(["rl_bundles", "a2_over_point", "stalk_ops"], []),
                                "rl_bundles.a2_over_point.stalk_ops: expected per-point operation tables"),
    "stalk-ops-off-the-base": (corpus_with(["rl_bundles", "a2_over_point", "stalk_ops", "zz"], {}),
                               "rl_bundles.a2_over_point.stalk_ops.zz: not a base point"),
    "stalk-ops-missing-a-point": (corpus_with(["rl_bundles", "etspecha4", "stalk_ops"], {"F3": STALK_OPS["F3"]}),
                                  "rl_bundles.etspecha4.stalk_ops: missing stalk tables for ['F2']"),
    "morphism-not-an-object": (corpus_with(["morphisms", "f_a6_a4"], []), "morphisms.f_a6_a4: missing 'kind'"),
    "unknown-morphism-kind": (corpus_with(["morphisms", "f_a6_a4", "kind"], "zz"), "morphisms.f_a6_a4: unknown kind 'zz'"),
    "deviation-note-not-a-string": (corpus_with(["expectations", "deviations", "A8:min:patch", "note"], 1),
                                    "expectations.deviations.A8:min:patch.note: expected a string"),
}


@pytest.mark.parametrize("edit", ADMISSION_ERRORS)
def test_each_admission_error_exits_2_with_its_line(edit, tmp_path):
    doc, line = ADMISSION_ERRORS[edit]
    assert run_with_output(doc, ["validate"], tmp_path) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("lenient", [False, True])
def test_a_morphism_table_that_is_not_total_is_refused(lenient, tmp_path):
    table = {x: v for x, v in F6_TO_F4.items() if x != "b"}
    line = ("morphisms.f_a6_a4: not a morphism of residuated lattices: "
            "table is not a total map between the carriers")
    rc, out, err = run_with_output(corpus_with(["morphisms", "f_a6_a4", "table"], table),
                                   ["--lenient"] * lenient + ["validate"], tmp_path)
    if lenient:
        assert (rc, err) == (1, "") and f"diagnostic: {line}" in out.splitlines()
    else:
        assert (rc, out, err) == (1, "", f"error: {line}\n")
