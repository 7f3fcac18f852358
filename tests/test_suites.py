"""The law suite's random draws: one seed gives the same objects in every process; the adjunction
suite's lifts fail the command through their own check; and every check of both suites can fail,
alone and by name."""

import pytest

from conftest import outputs_under_hash_seeds
from rlsheaf import adjunction, bundle, cli, fintop, fixtures, sheafify, suites
from rlsheaf.report import ValidationReport, Violation

DRAW = """
import hashlib, random
from rlsheaf import suites

def space(s):
    return repr(sorted((p, sorted(u)) for p, u in s.min_nbhds))

rng = random.Random(12345)
out = []
for _ in range(120):
    dom, cod = suites.random_space(rng, 5, "d"), suites.random_space(rng, 5, "c")
    out += [space(dom), space(cod), repr(suites.random_map(rng, dom, cod).table)]
for b in suites.random_nonetale_bundles(rng, 5):
    out += [space(b.total), space(b.base), repr(b.proj.table)]
print(hashlib.sha256("\\n".join(out).encode()).hexdigest())
"""


def test_seeded_draws_do_not_depend_on_the_hash_seed():
    """The 120 maps and 5 non-etale bundles of one rng seed, drawn under four PYTHONHASHSEEDs, are one
    digest: each draw takes the points in sorted order, not in frozenset order."""
    digests = outputs_under_hash_seeds(DRAW, range(1, 5))
    assert len(set(digests)) == 1 and len(digests[0].strip()) == 64


def test_a_lift_that_fails_its_check_fails_the_adjunction_suite_command(monkeypatch, capsys):
    """The suite does not re-run verify_topological_rl on what the lifts return: each lift raises
    unless the check passes, and the command exits 1 with that one failed assertion."""
    bad = ValidationReport("topological-rl", (Violation("operation-discontinuous", "mul"),))
    monkeypatch.setattr(adjunction, "verify_topological_rl", lambda trl: bad)
    assert cli.run(["adjunction-suite"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: failed assertion: lifted algebra failed: operation-discontinuous: mul\n"


def test_every_case_of_a_failing_row_still_runs(monkeypatch, capsys):
    """With the section check failing on its first case only, the suite still makes all five of its
    calls, in order, and fails that row alone; the command prints the suite's lines and exits 1."""
    calls = []

    def first_fails(b, x, check=adjunction.check_section_adjunction):
        calls.append((b, x))
        return {**check(b, x), "bijective": len(calls) > 1}
    monkeypatch.setattr(adjunction, "check_section_adjunction", first_fails)
    rep = suites.adjunction_suite()
    et4, d2 = fixtures.et_spec_h_a4().bundle, fintop.discrete(["m", "n"])
    assert calls == [(et4, fixtures.space_point()), (et4, d2), (et4, fixtures.space_sierpinski()),
                     (fixtures.a2_over_point().bundle, d2), (fixtures.et_min_p_a8().bundle, d2)]
    assert [label for label, ok, _ in rep.checks if not ok] == ["section-functor adjunction hom-set bijections"]
    calls.clear()
    assert cli.run(["adjunction-suite"]) == 1
    out, err = capsys.readouterr()
    assert len(calls) == 5 and err == "" and out.splitlines() == rep.lines()


def test_a_generator_that_cannot_draw_fails_the_sheafification_check(monkeypatch, capsys):
    """With every map taken for a local homeomorphism no non-etale bundle can be drawn: the law suite
    still reports, its sheafification check failing on the generator, and the command exits 1 with
    the suite's lines instead of an error."""
    monkeypatch.setattr(fintop, "is_local_homeomorphism", lambda m: True)
    rep = suites.law_suite(seed=1)
    failed = {label: detail for label, ok, detail in rep.checks if not ok}
    assert failed["sheafification: etale output, counit properties, unique factorization"] == (
        "generator: generator failed to produce enough non-etale bundles")
    assert cli.run(["law-suite"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[0] == "law-suite: FAIL"
    assert "  [FAIL] sheafification: etale output, counit properties, unique factorization" \
        " (generator: generator failed to produce enough non-etale bundles)" in out.splitlines()


def not_a_basis(e):
    raise AssertionError("family is not a basis")


def bad_report(rb):
    return ValidationReport("rl-bundle", (Violation("operation-discontinuous", "mul"),))


def no_tables_out_of_germ_spaces(search):
    """`fintop.monotone_tables` finding no map out of a germ space, whose points are germ ids."""
    return lambda dom, cod, choices=None: iter(()) if any("⊳" in p for p in dom.points) else search(dom, cod, choices)


SHEAF = "sheafification: etale output, counit properties, unique factorization"
TARGETS = ["indiscrete_a2_over_point", *(f"random{i}" for i in range(5))]


@pytest.mark.parametrize("command, target, patch, label, details", [
    ("law-suite", (bundle, "section_image_basis"), lambda f: not_a_basis,
     "section images form a basis of each etale total", {""}),
    ("law-suite", (bundle, "stalk"), lambda f: lambda b, p: fintop.indiscrete(["u", "v"]), "etale stalks are discrete", {""}),
    ("law-suite", (sheafify, "counit_report"), lambda f: lambda b, gs=None: {**f(b, gs), "injective": False},
     SHEAF, set(TARGETS)),
    ("law-suite", (sheafify, "factorizations_by_search"), lambda f: lambda h, gs=None: [],
     SHEAF, {f"{n}:factorization" for n in TARGETS}),
    ("law-suite", (fintop, "monotone_tables"), no_tables_out_of_germ_spaces, SHEAF, {f"{n}:no-morphisms" for n in TARGETS}),
    ("law-suite", (bundle, "verify_rl_bundle"), lambda f: bad_report,
     "pullbacks of etale fixtures along fixture base maps stay etale and valid", {""}),
    ("adjunction-suite", (adjunction, "check_exponential_adjunction"), lambda f: lambda b, x, t: {"bijective": False},
     "exponential adjunction hom-set bijections and curry/uncurry inverses", {""}),
    ("adjunction-suite", (adjunction, "check_section_adjunction"), lambda f: lambda b, x: {"bijective": False},
     "section-functor adjunction hom-set bijections", {""}),
    ("adjunction-suite", (adjunction, "check_projection_adjunction"), lambda f: lambda xb, y: {"bijective": False},
     "projection/forgetful adjunction hom-set bijections", {""}),
    ("adjunction-suite", (bundle, "verify_rl_bundle"), lambda f: bad_report, "pi_B lifts: B x A is a valid RL-bundle", {""}),
    ("adjunction-suite", (adjunction, "check_triangle_identities"),
     lambda f: lambda b, x: {"upper_triangle_iso": True, "lower_triangle_strict": False},
     "triangle identities relating C(B,-), Gamma(B,-), pi_B, U_B", {""}),
], ids=["basis", "stalks", "sheaf-counit", "sheaf-factorization", "sheaf-no-morphisms", "pullbacks",
        "exponential", "section", "projection", "pi-lift", "triangles"])
def test_each_suite_check_fails_by_name(command, target, patch, label, details, monkeypatch, capsys):
    """The one function a check calls, made to give a wrong answer, fails that check alone; the command
    prints the suite's lines and exits 1."""
    module, name = target
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    monkeypatch.setenv("RLSHEAF_SEED", "1")
    rep = suites.law_suite() if command == "law-suite" else suites.adjunction_suite()
    failed = {lab: detail for lab, ok, detail in rep.checks if not ok}
    assert list(failed) == [label] and set(failed[label].split(",")) == details
    assert cli.run([command]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines() == rep.lines()
