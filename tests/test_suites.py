"""The law suite's random draws: one seed gives the same objects in every process."""

from conftest import outputs_under_hash_seeds

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
