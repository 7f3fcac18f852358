"""The law suite's random draws: one seed gives the same objects in every process; the adjunction
suite's lifts fail the command through their own check."""

from conftest import outputs_under_hash_seeds
from rlsheaf import adjunction, cli, fintop, suites
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
